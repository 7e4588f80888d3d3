"""Command line interface.

Five subcommands cover the workflow end to end:

* ``estimate``   -- fit nuisance models on a CSV and run the estimator grid
* ``diagnose``   -- simulation-based bias check of a fitted or built-in system
* ``simulate``   -- draw a synthetic cohort from a built-in or fitted system
* ``fit``        -- fit the treatment/outcome models and save them for reuse
* ``categorize`` -- map raw MET-hour scores to treatment levels

``estimate`` and ``diagnose`` read a flat JSON config file (``--config``);
command line flags override config values.  Outputs are deterministic:
the same inputs, config, and seed produce byte-identical files.

Exit codes: 0 on success, 1 for usage or config problems, 2 for data or
model failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import __version__
from .dgps import DGP_REGISTRY
from .diagnostics import GeneratingDistribution, alpha_sweep, eta_bias_diagnostic, generate
from .errors import CausalRulesError, ValidationError
from .estimators import ESTIMATORS, NuisanceSpec, estimate_suite
from .glm import load_models, save_models
from .inference import BootstrapConfig, attach_bootstrap_intervals
from .ingest import DEFAULT_K, categorize_met, load_csv, write_csv
from .rules import EMPTY_SET_POLICIES, FAMILIES, positivity_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

ITT_COVARIATES = ("delta", "appendix")


class UsageError(Exception):
    """A bad flag or config value; reported with exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; we reserve 2 for data
    and model failures, so route usage problems to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# Flag and config parsing


def _csv_strs(text: str) -> list[str]:
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise argparse.ArgumentTypeError("expected a comma-separated list")
    return items


def _csv_ints(text: str) -> list[int]:
    try:
        return [int(t) for t in _csv_strs(text)]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers") from None


def _csv_floats(text: str) -> list[float]:
    try:
        return [float(t) for t in _csv_strs(text)]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated numbers") from None


_TOP_LEVEL_FIELDS = {
    "input", "output_dir", "covariates", "treatment_column",
    "n_treatment_levels", "alpha", "alpha_trunc", "families", "targets",
    "estimators", "empty_set_policy", "truncate_weights",
    "itt_covariate", "q_interactions", "seed",
    "bootstrap", "diagnostic",
}
_BOOTSTRAP_FIELDS = {"replicates", "seed", "interval", "level"}
_DIAGNOSTIC_FIELDS = {
    "dgp", "estimator", "replicates", "n_sim", "refit_g", "alpha_sweep",
    "threshold_pct",
}


def _fail(name: str, want: str):
    raise UsageError(f"config field '{name}' must be {want}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    # JSON true/false load as bool, a subclass of int.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _validate_config(cfg: dict) -> None:
    unknown = sorted(set(cfg) - _TOP_LEVEL_FIELDS)
    if unknown:
        raise UsageError("unknown config field(s): " + ", ".join(unknown))
    for name in ("input", "output_dir", "treatment_column", "empty_set_policy",
                 "itt_covariate"):
        if name in cfg and not isinstance(cfg[name], str):
            _fail(name, "a string")
    for name in ("covariates", "families", "estimators"):
        value = cfg.get(name)
        if value is not None and not (
            isinstance(value, list) and all(isinstance(v, str) for v in value)
        ):
            _fail(name, "a list of strings")
    if "targets" in cfg and cfg["targets"] is not None:
        value = cfg["targets"]
        if not (isinstance(value, list) and all(_is_int(v) for v in value)):
            _fail("targets", "a list of integers")
    for name in ("n_treatment_levels", "seed"):
        if name in cfg and not _is_int(cfg[name]):
            _fail(name, "an integer")
    for name in ("alpha", "alpha_trunc"):
        if name in cfg and not _is_number(cfg[name]):
            _fail(name, "a number")
    if "truncate_weights" in cfg:
        value = cfg["truncate_weights"]
        ok = isinstance(value, bool) or (
            isinstance(value, dict)
            and set(value) <= set(ESTIMATORS)
            and all(isinstance(v, bool) for v in value.values())
        )
        if not ok:
            _fail("truncate_weights", "a boolean or an {estimator: boolean} object")
    if "q_interactions" in cfg:
        value = cfg["q_interactions"]
        ok = isinstance(value, list) and all(
            isinstance(p, list) and len(p) == 2 and isinstance(p[0], str)
            and _is_int(p[1])
            for p in value
        )
        if not ok:
            _fail("q_interactions", "a list of [covariate, level] pairs")
    boot = cfg.get("bootstrap")
    if boot is not None:
        if not isinstance(boot, dict):
            _fail("bootstrap", "an object or null")
        unknown = sorted(set(boot) - _BOOTSTRAP_FIELDS)
        if unknown:
            raise UsageError("unknown bootstrap field(s): " + ", ".join(unknown))
        for name in ("replicates", "seed"):
            if name in boot and not _is_int(boot[name]):
                _fail(f"bootstrap.{name}", "an integer")
        if "interval" in boot and not isinstance(boot["interval"], str):
            _fail("bootstrap.interval", "a string")
        if "level" in boot and not _is_number(boot["level"]):
            _fail("bootstrap.level", "a number")
    diag = cfg.get("diagnostic")
    if diag is not None:
        if not isinstance(diag, dict):
            _fail("diagnostic", "an object or null")
        unknown = sorted(set(diag) - _DIAGNOSTIC_FIELDS)
        if unknown:
            raise UsageError("unknown diagnostic field(s): " + ", ".join(unknown))
        for name in ("dgp", "estimator"):
            if name in diag and not isinstance(diag[name], str):
                _fail(f"diagnostic.{name}", "a string")
        for name in ("replicates", "n_sim"):
            if name in diag and diag[name] is not None and not _is_int(diag[name]):
                _fail(f"diagnostic.{name}", "an integer")
        if "refit_g" in diag and not isinstance(diag["refit_g"], bool):
            _fail("diagnostic.refit_g", "a boolean")
        if "threshold_pct" in diag and not _is_number(diag["threshold_pct"]):
            _fail("diagnostic.threshold_pct", "a number")
        if "alpha_sweep" in diag and diag["alpha_sweep"] is not None:
            value = diag["alpha_sweep"]
            if not (isinstance(value, list) and all(_is_number(v) for v in value)):
                _fail("diagnostic.alpha_sweep", "a list of numbers")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    _validate_config(cfg)
    return cfg


def _check_choice(name: str, value: str, choices: tuple[str, ...]) -> None:
    if value not in choices:
        raise UsageError(f"{name} must be one of {', '.join(choices)} (got {value!r})")


def _check_subset(name: str, values, choices: tuple[str, ...]) -> None:
    if not values:
        raise UsageError(f"{name} must not be empty")
    bad = [v for v in values if v not in choices]
    if bad:
        raise UsageError(
            f"unknown {name} {bad[0]!r}; choose from {', '.join(choices)}"
        )


def _check_targets(targets, k: int) -> tuple[int, ...] | None:
    if targets is None:
        return None
    out = tuple(int(t) for t in targets)
    for t in out:
        if not 0 <= t < k:
            raise UsageError(f"target {t} is outside 0..{k - 1}")
    if not out:
        raise UsageError("targets must not be empty")
    return out


def _check_alpha(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value < 1.0:
        raise UsageError(f"{name} must lie in [0, 1)")
    return value


def _make_dgp(name: str) -> GeneratingDistribution:
    if name not in DGP_REGISTRY:
        raise UsageError(
            f"unknown generating system {name!r}; choose from "
            + ", ".join(sorted(DGP_REGISTRY))
        )
    return DGP_REGISTRY[name]()


# ---------------------------------------------------------------------------
# Deterministic writers


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv_table(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _print_table(header: list[str], rows: list[list[str]]) -> None:
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    head = "  ".join(h.ljust(w) for h, w in zip(header, widths))
    print(head)
    print("-" * len(head))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_estimate(args) -> int:
    cfg = _load_config(args.config)

    def pick(name, default=None):
        value = getattr(args, name, None)
        if value is not None:
            return value
        value = cfg.get(name)
        return default if value is None else value

    input_path = pick("input")
    if input_path is None:
        raise UsageError("an input CSV is required (--input or config field 'input')")
    output_dir = pick("output_dir")
    if output_dir is None:
        raise UsageError(
            "an output directory is required (--output-dir or config field 'output_dir')"
        )
    k = int(cfg.get("n_treatment_levels", DEFAULT_K))
    alpha = _check_alpha("alpha", pick("alpha", 0.05))
    alpha_trunc = _check_alpha("alpha_trunc", cfg.get("alpha_trunc", 0.05))
    families = tuple(pick("families", list(FAMILIES)))
    _check_subset("families", families, FAMILIES)
    estimators = tuple(pick("estimators", list(ESTIMATORS)))
    _check_subset("estimators", estimators, ESTIMATORS)
    targets = _check_targets(pick("targets"), k)
    policy = cfg.get("empty_set_policy", "error")
    _check_choice("empty_set_policy", policy, EMPTY_SET_POLICIES)
    itt_covariate = cfg.get("itt_covariate", "delta")
    _check_choice("itt_covariate", itt_covariate, ITT_COVARIATES)
    truncate_weights = cfg.get("truncate_weights", True)
    interactions = tuple((str(c), int(l)) for c, l in cfg.get("q_interactions", []))
    seed = int(pick("seed", 0))

    boot_cfg = cfg.get("bootstrap")
    if args.bootstrap_replicates is not None:
        boot_cfg = dict(boot_cfg or {})
        boot_cfg["replicates"] = args.bootstrap_replicates
    boot = None
    if boot_cfg:
        try:
            boot = BootstrapConfig(
                replicates=int(boot_cfg.get("replicates", 1000)),
                seed=int(boot_cfg.get("seed", seed)),
                interval=str(boot_cfg.get("interval", "percentile")),
                level=float(boot_cfg.get("level", 0.95)),
            )
        except ValidationError as exc:
            raise UsageError(f"bootstrap config: {exc}") from None

    dataset = load_csv(
        input_path,
        covariate_names=cfg.get("covariates"),
        treatment_column=cfg.get("treatment_column"),
        n_treatment_levels=k,
    )
    spec = NuisanceSpec(q_interactions=interactions, alpha_trunc=alpha_trunc)
    g_model = spec.fit_g(dataset)
    q_model = spec.fit_q(dataset)
    report = estimate_suite(
        dataset, g_model, q_model,
        families=families, targets=targets, estimators=estimators, alpha=alpha,
        empty_set_policy=policy, truncate_weights=truncate_weights,
        itt_covariate=itt_covariate,
    )
    if boot is not None:
        attach_bootstrap_intervals(
            report, dataset, spec, boot,
            empty_set_policy=policy, truncate_weights=truncate_weights,
            itt_covariate=itt_covariate,
        )

    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "estimates.json", report.to_dict())
    header, rows = report.rr_table()
    _write_csv_table(outdir / "estimates_table.csv", header, rows)
    settings = {
        "input": str(input_path),
        "covariates": cfg.get("covariates"),
        "treatment_column": cfg.get("treatment_column"),
        "n_treatment_levels": k,
        "alpha": alpha,
        "alpha_trunc": alpha_trunc,
        "families": list(families),
        "targets": None if targets is None else list(targets),
        "estimators": list(estimators),
        "empty_set_policy": policy,
        "truncate_weights": truncate_weights,
        "itt_covariate": itt_covariate,
        "q_interactions": [list(p) for p in interactions],
        "seed": seed,
        "bootstrap": None if boot is None else {
            "replicates": boot.replicates, "seed": boot.seed,
            "interval": boot.interval, "level": boot.level,
        },
    }
    _write_json(outdir / "run_metadata.json", {
        "command": "estimate",
        "version": __version__,
        "settings": settings,
        "n": dataset.n,
        "dropped_rows": dataset.dropped_rows,
    })

    print(f"n = {dataset.n} rows ({dataset.dropped_rows} dropped)")
    _print_table(header, rows)
    print(f"wrote estimates.json, estimates_table.csv, run_metadata.json in {outdir}")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    cfg = _load_config(args.config)
    diag = cfg.get("diagnostic") or {}

    def pick(name, default=None):
        value = getattr(args, name, None)
        if value is not None:
            return value
        value = diag.get(name)
        if value is None:
            value = cfg.get(name)
        return default if value is None else value

    dgp_name = args.dgp if args.dgp is not None else diag.get("dgp")
    input_path = pick("input")
    if (dgp_name is None) == (input_path is None):
        raise UsageError("exactly one data source is required: --dgp or --input")
    output_dir = pick("output_dir")
    if output_dir is None:
        raise UsageError(
            "an output directory is required (--output-dir or config field 'output_dir')"
        )
    k = int(cfg.get("n_treatment_levels", DEFAULT_K))
    alpha = _check_alpha("alpha", pick("alpha", 0.05))
    alpha_trunc = _check_alpha("alpha_trunc", cfg.get("alpha_trunc", 0.05))
    families = tuple(pick("families", list(FAMILIES)))
    _check_subset("families", families, FAMILIES)
    estimator = pick("estimator", "iptw")
    _check_choice("estimator", estimator, ESTIMATORS)
    replicates = int(pick("replicates", 500))
    if replicates < 1:
        raise UsageError("replicates must be a positive integer")
    n_sim = pick("n_sim")
    if n_sim is not None:
        n_sim = int(n_sim)
        if n_sim < 1:
            raise UsageError("n_sim must be a positive integer")
    seed = int(pick("seed", 0))
    policy = cfg.get("empty_set_policy", "error")
    _check_choice("empty_set_policy", policy, EMPTY_SET_POLICIES)
    truncate_weights = cfg.get("truncate_weights", True)
    if not isinstance(truncate_weights, bool):
        raise UsageError("truncate_weights must be a single boolean for diagnose")
    refit_g = diag.get("refit_g", True)
    if args.no_refit_g:
        refit_g = False
    sweep_alphas = args.alpha_sweep if args.alpha_sweep is not None else diag.get("alpha_sweep")
    if sweep_alphas is not None:
        sweep_alphas = [float(a) for a in sweep_alphas]
        if sorted(sweep_alphas) != sweep_alphas:
            raise UsageError("alpha_sweep values must be sorted ascending")
        for a in sweep_alphas:
            _check_alpha("alpha_sweep value", a)
    threshold_pct = float(diag.get("threshold_pct", 2.0))

    if dgp_name is not None:
        gen = _make_dgp(dgp_name)
        if n_sim is None:
            raise UsageError("n_sim is required when diagnosing a built-in system")
        spec = NuisanceSpec(alpha_trunc=alpha_trunc)
        # Positivity summary on one simulated draw of the working size.
        pos_data = generate(gen, n_sim, seed)
        pos = positivity_report(pos_data, gen.g_model, alpha=alpha)
        source = {"kind": "dgp", "name": dgp_name}
    else:
        dataset = load_csv(
            input_path,
            covariate_names=cfg.get("covariates"),
            treatment_column=cfg.get("treatment_column"),
            n_treatment_levels=k,
        )
        interactions = tuple((str(c), int(l)) for c, l in cfg.get("q_interactions", []))
        spec = NuisanceSpec(q_interactions=interactions, alpha_trunc=alpha_trunc)
        g_model = spec.fit_g(dataset)
        q_model = spec.fit_q(dataset)
        gen = GeneratingDistribution.from_dataset(dataset, g_model, q_model)
        pos = positivity_report(dataset, g_model, alpha=alpha)
        source = {"kind": "data", "input": str(input_path), "n": dataset.n}

    targets = _check_targets(pick("targets"), gen.n_treatment_levels)
    common = dict(
        estimator=estimator, families=families, targets=targets,
        replicates=replicates, n_sim=n_sim, seed=seed, spec=spec,
        refit_g=refit_g, empty_set_policy=policy,
        truncate_weights=truncate_weights,
    )
    report = eta_bias_diagnostic(gen, alpha=alpha, **common)

    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "eta_bias.json", {"source": source, **report.to_dict()})
    header, rows = report.bias_table()
    _write_csv_table(outdir / "eta_bias.csv", header, rows)
    _write_json(outdir / "positivity.json", {"source": source, **pos.to_dict()})
    written = "eta_bias.json, eta_bias.csv, positivity.json"
    if sweep_alphas is not None:
        sweep = alpha_sweep(gen, sweep_alphas, threshold_pct=threshold_pct, **common)
        _write_json(outdir / "alpha_sweep.json", {"source": source, **sweep.to_dict()})
        written += ", alpha_sweep.json"

    print(f"bias of {estimator} over {report.replicates} replicates of n = {report.n_sim}"
          f" ({report.n_failed_replicates} failed)")
    _print_table(header, rows)
    if sweep_alphas is not None:
        if sweep.smallest_passing_alpha is None:
            print(f"alpha sweep: no alpha reaches max |bias| < {threshold_pct:g}%")
        else:
            print(f"alpha sweep: smallest alpha with max |bias| < {threshold_pct:g}%"
                  f" is {sweep.smallest_passing_alpha:g}")
    print(f"wrote {written} in {outdir}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    if (args.dgp is None) == (args.models is None):
        raise UsageError("exactly one source is required: --dgp or --models")
    if args.n < 1:
        raise UsageError("--n must be a positive integer")
    if args.dgp is not None:
        gen = _make_dgp(args.dgp)
    else:
        if args.input is None:
            raise UsageError("--models also needs --input to supply covariate rows")
        treatment, outcome, _ = load_models(args.models)
        dataset = load_csv(args.input, n_treatment_levels=treatment.n_treatment_levels)
        gen = GeneratingDistribution.from_dataset(dataset, treatment, outcome)
    out = generate(gen, args.n, args.seed)
    write_csv(out, args.output)
    print(f"wrote {out.n} rows to {args.output}")
    return EXIT_OK


def cmd_fit(args) -> int:
    alpha_trunc = _check_alpha("alpha-trunc", args.alpha_trunc)
    interactions = ()
    if args.q_interactions:
        pairs = []
        for token in args.q_interactions:
            name, sep, level = token.partition(":")
            if not sep or not name:
                raise UsageError(
                    f"bad interaction {token!r}; expected COVARIATE:LEVEL"
                )
            try:
                pairs.append((name, int(level)))
            except ValueError:
                raise UsageError(f"bad interaction level in {token!r}") from None
        interactions = tuple(pairs)
    dataset = load_csv(
        args.input,
        covariate_names=args.covariates,
        treatment_column=args.treatment_column,
        n_treatment_levels=args.n_treatment_levels,
    )
    spec = NuisanceSpec(q_interactions=interactions, alpha_trunc=alpha_trunc)
    g_model = spec.fit_g(dataset)
    q_model = spec.fit_q(dataset)
    save_models(args.output, g_model, q_model, meta={
        "version": __version__,
        "n": dataset.n,
        "dropped_rows": dataset.dropped_rows,
        "n_treatment_levels": dataset.n_treatment_levels,
        "covariates": list(dataset.covariate_names),
        "alpha_trunc": alpha_trunc,
    })
    zeros = ", ".join(f"(level {l}, {c})" for l, c in g_model.structural_zeros) or "none"
    print(f"fit treatment and outcome models on {dataset.n} rows"
          f" ({dataset.dropped_rows} dropped)")
    print(f"structural zeros: {zeros}")
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_categorize(args) -> int:
    tokens = list(args.met)
    if args.input is not None:
        try:
            with open(args.input) as fh:
                tokens += [line.strip() for line in fh if line.strip()]
        except OSError as exc:
            raise UsageError(f"cannot read MET values: {exc}") from None
    if not tokens:
        raise UsageError("no MET values given (pass values or --input FILE)")
    lines = []
    for token in tokens:
        try:
            met = float(token)
        except ValueError:
            raise UsageError(f"not a number: {token!r}") from None
        lines.append(f"{token},{categorize_met(met)}")
    text = "\n".join(lines) + "\n"
    if args.output is not None:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser wiring


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="causal-rules",
        description="Counterfactual means and relative risks under static, "
                    "realistic, and intention-to-treat rules for a categorical "
                    "treatment.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("estimate", help="run the estimator grid on a CSV")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--input", help="input CSV of covariates, treatment, outcome")
    p.add_argument("--output-dir", dest="output_dir", help="directory for result files")
    p.add_argument("--alpha", type=float, help="feasibility threshold (default 0.05)")
    p.add_argument("--families", type=_csv_strs,
                   help="comma-separated rule families (static,realistic,itt)")
    p.add_argument("--targets", type=_csv_ints, help="comma-separated target levels")
    p.add_argument("--estimators", type=_csv_strs,
                   help="comma-separated estimators (gcomp,iptw,driptw,tmle)")
    p.add_argument("--bootstrap-replicates", dest="bootstrap_replicates", type=int,
                   help="enable the bootstrap with this many replicates")
    p.add_argument("--seed", type=int, help="seed for the bootstrap (default 0)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("diagnose", help="simulation-based bias diagnostic")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--dgp", help="built-in generating system: "
                   + ", ".join(sorted(DGP_REGISTRY)))
    p.add_argument("--input", help="CSV to fit the generating system from")
    p.add_argument("--output-dir", dest="output_dir", help="directory for result files")
    p.add_argument("--estimator", help="estimator to diagnose (default iptw)")
    p.add_argument("--replicates", type=int, help="simulation replicates (default 500)")
    p.add_argument("--n-sim", dest="n_sim", type=int,
                   help="observations per replicate (default: size of the input data)")
    p.add_argument("--seed", type=int, help="simulation seed (default 0)")
    p.add_argument("--alpha", type=float, help="feasibility threshold (default 0.05)")
    p.add_argument("--families", type=_csv_strs, help="comma-separated rule families")
    p.add_argument("--targets", type=_csv_ints, help="comma-separated target levels")
    p.add_argument("--alpha-sweep", dest="alpha_sweep", type=_csv_floats,
                   help="also sweep these ascending alpha values")
    p.add_argument("--no-refit-g", dest="no_refit_g", action="store_true",
                   help="reuse the generating treatment mechanism instead of refitting")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("simulate", help="draw a synthetic cohort CSV")
    p.add_argument("--dgp", help="built-in generating system: "
                   + ", ".join(sorted(DGP_REGISTRY)))
    p.add_argument("--models", help="model bundle written by 'fit'")
    p.add_argument("--input", help="CSV supplying covariate rows (with --models)")
    p.add_argument("--n", type=int, required=True, help="number of rows to draw")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--output", required=True, help="output CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit and save the nuisance models")
    p.add_argument("--input", required=True, help="input CSV")
    p.add_argument("--output", required=True, help="output path for the model bundle")
    p.add_argument("--covariates", type=_csv_strs, help="comma-separated covariate columns")
    p.add_argument("--treatment-column", dest="treatment_column",
                   help="treatment column name (default: autodetect A or LTPA_MET)")
    p.add_argument("--n-treatment-levels", dest="n_treatment_levels", type=int,
                   default=DEFAULT_K, help="number of treatment levels (default 6)")
    p.add_argument("--alpha-trunc", dest="alpha_trunc", type=float, default=0.05,
                   help="truncation floor for fitted probabilities (default 0.05)")
    p.add_argument("--q-interactions", dest="q_interactions", type=_csv_strs,
                   help="comma-separated COVARIATE:LEVEL product terms")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("categorize", help="map MET-hour scores to levels 0-5")
    p.add_argument("met", nargs="*", help="MET-hour values")
    p.add_argument("--input", help="file with one MET value per line")
    p.add_argument("--output", help="write met,category lines here instead of stdout")
    p.set_defaults(func=cmd_categorize)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CausalRulesError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
