"""Command line interface.

Five subcommands cover the workflow end to end:

* ``estimate``   -- fit nuisance models on a CSV and run the estimator grid
* ``diagnose``   -- simulation-based bias check of a fitted or built-in system
* ``simulate``   -- draw a synthetic cohort from a built-in or fitted system
* ``fit``        -- fit the treatment/outcome models and save them for reuse
* ``categorize`` -- map raw MET-hour scores to treatment levels

``estimate`` and ``diagnose`` read a JSON config file (``--config``) whose
fields are the rows of ``_FIELDS``; command line flags override config
values, which override the defaults.  Outputs are deterministic:
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
from .diagnostics import AlphaSweepResult, GeneratingDistribution, eta_bias_diagnostic, generate
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    # JSON true/false load as bool, a subclass of int.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_list_of(test):
    return lambda value: isinstance(value, list) and all(test(v) for v in value)


# What a config value must be, keyed by the words its error message uses.
_KINDS = {
    "a string": lambda v: isinstance(v, str),
    "a list of strings": _is_list_of(lambda v: isinstance(v, str)),
    "a list of integers": _is_list_of(_is_int),
    "an integer": _is_int,
    "a number": _is_number,
    "a boolean": lambda v: isinstance(v, bool),
    "a list of numbers": _is_list_of(_is_number),
    "a boolean or an {estimator: boolean} object": lambda v: isinstance(v, bool) or (
        isinstance(v, dict) and set(v) <= set(ESTIMATORS)
        and all(isinstance(b, bool) for b in v.values())
    ),
    "a list of [covariate, level] pairs": _is_list_of(
        lambda p: isinstance(p, list) and len(p) == 2 and isinstance(p[0], str)
        and _is_int(p[1])
    ),
    "an object or null": lambda v: isinstance(v, dict),
}
# How a value of these kinds is handed on; the other kinds pass as they are.
_CONVERT = {
    "a number": float,
    "a list of [covariate, level] pairs": lambda v: tuple(map(tuple, v)),
}


def _must(ok, text: str):
    def check(name, value):
        if not ok(value):
            raise UsageError(f"{name} must {text}")
    return check


def _one_of(choices: tuple[str, ...]):
    def check(name, value):
        if value not in choices:
            raise UsageError(f"{name} must be one of {', '.join(choices)} (got {value!r})")
    return check


def _no_repeats(name, values):
    """A list setting names each entry once: a repeat would repeat its output."""
    seen = set()
    for v in values:
        if v in seen:
            raise UsageError(f"{name} lists {v!r} more than once")
        seen.add(v)


def _subset_of(choices: tuple[str, ...]):
    def check(name, values):
        if not values:
            raise UsageError(f"{name} must not be empty")
        bad = [v for v in values if v not in choices]
        if bad:
            raise UsageError(f"unknown {name} {bad[0]!r}; choose from {', '.join(choices)}")
        _no_repeats(name, values)
    return check


_UNIT = _must(lambda v: 0.0 <= v < 1.0, "lie in [0, 1)")
_POSITIVE = _must(lambda v: v >= 1, "be a positive integer")
_NON_NEGATIVE = _must(lambda v: v >= 0, "be a non-negative integer")
_BOTH, _ESTIMATE, _DIAGNOSE = ("estimate", "diagnose"), ("estimate",), ("diagnose",)


class _Field:
    """A config field of ``estimate`` and ``diagnose``: its place in the
    config, its kind (a key of ``_KINDS``), its default, whether the config
    may set it to null (meaning the default), the check on its resolved
    value, the dest of its flag, and the commands that read it."""

    def __init__(self, path, kind, default=None, *, nullable=False, check=None,
                 flag=None, reads=_BOTH):
        self.path, self.kind, self.default = path, kind, default
        self.nullable, self.check, self.flag, self.reads = nullable, check, flag, reads
        self.section, _, self.name = path.rpartition(".")


# Rows are in the order the config is type-checked.  Values are checked
# when a command reads them, by the name of their flag or else their path.
_FIELDS = (
    _Field("input", "a string", flag="input"),
    _Field("output_dir", "a string", flag="output_dir"),
    _Field("treatment_column", "a string"),
    _Field("empty_set_policy", "a string", "error", check=_one_of(EMPTY_SET_POLICIES)),
    _Field("itt_covariate", "a string", "delta", check=_one_of(ITT_COVARIATES), reads=_ESTIMATE),
    _Field("covariates", "a list of strings", nullable=True),
    _Field("families", "a list of strings", FAMILIES, nullable=True,
           check=_subset_of(FAMILIES), flag="families"),
    _Field("estimators", "a list of strings", ESTIMATORS, nullable=True,
           check=_subset_of(ESTIMATORS), flag="estimators", reads=_ESTIMATE),
    _Field("targets", "a list of integers", nullable=True, flag="targets"),
    _Field("n_treatment_levels", "an integer", DEFAULT_K,
           check=_must(lambda v: v >= 2, "be at least 2")),
    _Field("seed", "an integer", 0, check=_NON_NEGATIVE, flag="seed"),
    _Field("alpha", "a number", 0.05, check=_UNIT, flag="alpha"),
    _Field("alpha_trunc", "a number", 0.05, check=_UNIT),
    _Field("truncate_weights", "a boolean or an {estimator: boolean} object", True),
    _Field("q_interactions", "a list of [covariate, level] pairs", (), check=_no_repeats),
    # BootstrapConfig checks the replicates, interval and level.  With no
    # bootstrap.seed, the bootstrap uses the run's seed.
    _Field("bootstrap", "an object or null", nullable=True, reads=_ESTIMATE),
    _Field("bootstrap.replicates", "an integer", 1000, flag="bootstrap_replicates",
           reads=_ESTIMATE),
    _Field("bootstrap.seed", "an integer", check=_NON_NEGATIVE, reads=_ESTIMATE),
    _Field("bootstrap.interval", "a string", "percentile", reads=_ESTIMATE),
    _Field("bootstrap.level", "a number", 0.95, reads=_ESTIMATE),
    _Field("diagnostic", "an object or null", nullable=True, reads=_DIAGNOSE),
    _Field("diagnostic.dgp", "a string", flag="dgp", reads=_DIAGNOSE),
    _Field("diagnostic.estimator", "a string", "iptw", check=_one_of(ESTIMATORS),
           flag="estimator", reads=_DIAGNOSE),
    _Field("diagnostic.replicates", "an integer", 500, nullable=True, check=_POSITIVE,
           flag="replicates", reads=_DIAGNOSE),
    _Field("diagnostic.n_sim", "an integer", nullable=True, check=_POSITIVE, flag="n_sim",
           reads=_DIAGNOSE),
    _Field("diagnostic.refit_g", "a boolean", True, flag="refit_g", reads=_DIAGNOSE),
    _Field("diagnostic.threshold_pct", "a number", 2.0,
           check=_must(lambda v: 0.0 < v < float("inf"), "be a finite positive number"),
           reads=_DIAGNOSE),
    # diagnose checks these, that they are sorted, and that none repeats.
    _Field("diagnostic.alpha_sweep", "a list of numbers", nullable=True, flag="alpha_sweep",
           reads=_DIAGNOSE),
)
_BY_PATH = {f.path: f for f in _FIELDS}


def _reject_unknown(holder: dict, section: str) -> None:
    unknown = sorted(set(holder) - {f.name for f in _FIELDS if f.section == section})
    if unknown:
        raise UsageError(f"unknown {section or 'config'} field(s): " + ", ".join(unknown))


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
    _reject_unknown(cfg, "")
    for f in _FIELDS:
        # A section's own row comes first, so here it is an object or absent.
        holder = (cfg.get(f.section) or {}) if f.section else cfg
        value = holder.get(f.name)
        if f.name not in holder or (value is None and f.nullable):
            continue
        if not _KINDS[f.kind](value):
            raise UsageError(f"config field '{f.path}' must be {f.kind}")
        if f.kind == "an object or null":
            _reject_unknown(value, f.path)
    return cfg


def _settings(args, cfg: dict):
    """Return ``get(path)``: a field's flag if given, else its config
    value, else its default.  Each value is checked as it is read, so a
    command reports bad values in the order it reads them."""

    def get(path: str):
        f = _BY_PATH[path]
        value = getattr(args, f.flag, None) if f.flag else None
        if value is None:
            value = ((cfg.get(f.section) or {}) if f.section else cfg).get(f.name)
        if value is None:
            value = f.default
        if value is not None:
            value = _CONVERT.get(f.kind, lambda v: v)(value)
            if f.check is not None:
                f.check(f.flag or f.path, value)
        return value

    return get


def _check_targets(targets, k: int) -> tuple[int, ...] | None:
    if targets is None:
        return None
    out = tuple(int(t) for t in targets)
    for t in out:
        if not 0 <= t < k:
            raise UsageError(f"target {t} is outside 0..{k - 1}")
    if not out:
        raise UsageError("targets must not be empty")
    _no_repeats("targets", out)
    return out


def _make_dgp(name: str, alpha_trunc: float = 0.05) -> GeneratingDistribution:
    if name not in DGP_REGISTRY:
        raise UsageError(
            f"unknown generating system {name!r}; choose from "
            + ", ".join(sorted(DGP_REGISTRY))
        )
    return DGP_REGISTRY[name](alpha_trunc=alpha_trunc)


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
    get = _settings(args, cfg)
    input_path = get("input")
    if input_path is None:
        raise UsageError("an input CSV is required (--input or config field 'input')")
    output_dir = get("output_dir")
    if output_dir is None:
        raise UsageError(
            "an output directory is required (--output-dir or config field 'output_dir')"
        )
    k = get("n_treatment_levels")
    alpha = get("alpha")
    alpha_trunc = get("alpha_trunc")
    families = get("families")
    estimators = get("estimators")
    targets = _check_targets(get("targets"), k)
    q_interactions = get("q_interactions")
    policy = get("empty_set_policy")
    itt_covariate = get("itt_covariate")
    truncate_weights = get("truncate_weights")
    seed = get("seed")

    boot = None
    if cfg.get("bootstrap") or args.bootstrap_replicates is not None:
        boot_seed = get("bootstrap.seed")
        try:
            boot = BootstrapConfig(
                replicates=get("bootstrap.replicates"),
                seed=seed if boot_seed is None else boot_seed,
                interval=get("bootstrap.interval"),
                level=get("bootstrap.level"),
            )
        except ValidationError as exc:
            raise UsageError(f"bootstrap config: {exc}") from None

    dataset = load_csv(
        input_path,
        covariate_names=get("covariates"),
        treatment_column=get("treatment_column"),
        n_treatment_levels=k,
    )
    spec = NuisanceSpec(q_interactions=q_interactions, alpha_trunc=alpha_trunc)
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
    # Every setting estimate reads except where its files go, and the
    # bootstrap as it ran.
    settings = {f.path: get(f.path) for f in _FIELDS
                if "estimate" in f.reads and not f.section and f.path != "output_dir"}
    settings["bootstrap"] = None if boot is None else vars(boot)
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
    get = _settings(args, cfg)
    dgp_name = get("diagnostic.dgp")
    input_path = get("input")
    if (dgp_name is None) == (input_path is None):
        raise UsageError("exactly one data source is required: --dgp or --input")
    output_dir = get("output_dir")
    if output_dir is None:
        raise UsageError(
            "an output directory is required (--output-dir or config field 'output_dir')"
        )
    k = get("n_treatment_levels")
    alpha = get("alpha")
    alpha_trunc = get("alpha_trunc")
    families = get("families")
    estimator = get("diagnostic.estimator")
    replicates = get("diagnostic.replicates")
    n_sim = get("diagnostic.n_sim")
    seed = get("seed")
    policy = get("empty_set_policy")
    truncate_weights = get("truncate_weights")
    if not isinstance(truncate_weights, bool):
        raise UsageError("truncate_weights must be a single boolean for diagnose")
    refit_g = get("diagnostic.refit_g")
    sweep_alphas = get("diagnostic.alpha_sweep")
    if sweep_alphas is not None:
        if sorted(sweep_alphas) != sweep_alphas:
            raise UsageError("alpha_sweep values must be sorted ascending")
        for a in sweep_alphas:
            _UNIT("alpha_sweep value", a)
        _no_repeats("alpha_sweep", sweep_alphas)
    threshold_pct = get("diagnostic.threshold_pct")

    if dgp_name is not None:
        gen = _make_dgp(dgp_name, alpha_trunc)
        if n_sim is None:
            raise UsageError("n_sim is required when diagnosing a built-in system")
        spec = NuisanceSpec(alpha_trunc=alpha_trunc)
        # Positivity summary on one simulated draw of the working size.
        pos_data = generate(gen, n_sim, seed)
        pos = positivity_report(pos_data, gen.g_model, alpha=alpha)
        source = {"kind": "dgp", "name": dgp_name}
    else:
        q_interactions = get("q_interactions")
        dataset = load_csv(
            input_path,
            covariate_names=get("covariates"),
            treatment_column=get("treatment_column"),
            n_treatment_levels=k,
        )
        spec = NuisanceSpec(q_interactions=q_interactions, alpha_trunc=alpha_trunc)
        g_model = spec.fit_g(dataset)
        q_model = spec.fit_q(dataset)
        gen = GeneratingDistribution.from_dataset(dataset, g_model, q_model)
        pos = positivity_report(dataset, g_model, alpha=alpha)
        source = {"kind": "data", "input": str(input_path), "n": dataset.n}

    targets = _check_targets(get("targets"), gen.n_treatment_levels)
    common = dict(
        estimator=estimator, families=families, targets=targets,
        replicates=replicates, n_sim=n_sim, seed=seed, spec=spec,
        refit_g=refit_g, empty_set_policy=policy,
        truncate_weights=truncate_weights,
    )
    # One pass serves the main alpha and the sweep; a failing sweep writes no file.
    if sweep_alphas is None:
        report = eta_bias_diagnostic(gen, alpha=alpha, **common)
    else:
        alphas = [alpha, *map(float, sweep_alphas)]
        report, *reports = eta_bias_diagnostic(gen, alpha=alphas, **common)
        sweep = AlphaSweepResult.from_reports(reports, threshold_pct)

    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "eta_bias.json", {"source": source, **report.to_dict()})
    header, rows = report.bias_table()
    _write_csv_table(outdir / "eta_bias.csv", header, rows)
    _write_json(outdir / "positivity.json", {"source": source, **pos.to_dict()})
    written = "eta_bias.json, eta_bias.csv, positivity.json"
    if sweep_alphas is not None:
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
    if args.seed < 0:
        raise UsageError("--seed must be a non-negative integer")
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
    _UNIT("alpha-trunc", args.alpha_trunc)
    _BY_PATH["n_treatment_levels"].check("n_treatment_levels", args.n_treatment_levels)
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
        _no_repeats("q-interactions", interactions)
    dataset = load_csv(
        args.input,
        covariate_names=args.covariates,
        treatment_column=args.treatment_column,
        n_treatment_levels=args.n_treatment_levels,
    )
    spec = NuisanceSpec(q_interactions=interactions, alpha_trunc=args.alpha_trunc)
    g_model = spec.fit_g(dataset)
    q_model = spec.fit_q(dataset)
    save_models(args.output, g_model, q_model, meta={
        "version": __version__,
        "n": dataset.n,
        "dropped_rows": dataset.dropped_rows,
        "n_treatment_levels": dataset.n_treatment_levels,
        "covariates": list(dataset.covariate_names),
        "alpha_trunc": args.alpha_trunc,
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
    p.add_argument("--no-refit-g", dest="refit_g", action="store_false", default=None,
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
