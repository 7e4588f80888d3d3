import csv
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import causalrules
from causalrules.cli import main


@pytest.fixture(scope="module")
def sim_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synthetic.csv"
    rc = main(["simulate", "--dgp", "no_violation", "--n", "600", "--seed", "3",
               "--output", str(path)])
    assert rc == 0
    return path


def test_version_and_usage_exit_codes(capsys):
    assert main(["--version"]) == 0
    assert "causal-rules 0.1.0" in capsys.readouterr().out
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["estimate"]) == 1
    assert "input CSV is required" in capsys.readouterr().err


def test_estimate_writes_the_three_files(tmp_path, sim_csv, capsys):
    outdir = tmp_path / "out"
    rc = main([
        "estimate", "--input", str(sim_csv), "--output-dir", str(outdir),
        "--families", "static,realistic,itt", "--targets", "0,2",
        "--estimators", "gcomp,iptw,driptw,tmle",
    ])
    assert rc == 0
    report = json.loads((outdir / "estimates.json").read_text())
    assert report["families"] == ["static", "realistic", "itt"]
    assert report["targets"] == [0, 2]
    assert len(report["cells"]) == 24
    assert all(c["psi_error"] is None for c in report["cells"])

    table = (outdir / "estimates_table.csv").read_text().splitlines()
    assert table[0] == "family,target,G-comp,IPTW,DR-IPTW,TMLE"
    assert len(table) == 4  # header + one target-2 row per family

    meta = json.loads((outdir / "run_metadata.json").read_text())
    assert meta["command"] == "estimate"
    assert meta["n"] == 600
    assert meta["settings"]["alpha"] == 0.05
    assert "output_dir" not in meta["settings"]
    assert "wrote estimates.json" in capsys.readouterr().out


def test_estimate_bootstrap_flag(tmp_path, sim_csv):
    outdir = tmp_path / "boot"
    rc = main([
        "estimate", "--input", str(sim_csv), "--output-dir", str(outdir),
        "--families", "static", "--targets", "0,1",
        "--estimators", "gcomp", "--bootstrap-replicates", "10", "--seed", "7",
    ])
    assert rc == 0
    report = json.loads((outdir / "estimates.json").read_text())
    for cell in report["cells"]:
        assert cell["psi_interval"]["b_effective"] == 10
    meta = json.loads((outdir / "run_metadata.json").read_text())
    assert meta["settings"]["bootstrap"] == {
        "replicates": 10, "seed": 7, "interval": "percentile", "level": 0.95,
    }


def test_estimate_outputs_are_byte_identical(tmp_path, sim_csv):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "input": str(sim_csv),
        "families": ["static", "itt"],
        "targets": [1, 2],
        "estimators": ["gcomp", "iptw"],
        "seed": 4,
        "bootstrap": {"replicates": 12},
    }))
    dirs = [tmp_path / "run_a", tmp_path / "run_b"]
    for d in dirs:
        rc = main(["estimate", "--config", str(config), "--output-dir", str(d)])
        assert rc == 0
    for name in ("estimates.json", "estimates_table.csv", "run_metadata.json"):
        a = (dirs[0] / name).read_bytes()
        b = (dirs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_flags_override_config(tmp_path, sim_csv):
    config = tmp_path / "base.json"
    config.write_text(json.dumps({
        "input": str(sim_csv), "alpha": 0.05, "targets": [1, 2],
        "estimators": ["gcomp"],
    }))
    outdir = tmp_path / "over"
    rc = main(["estimate", "--config", str(config), "--output-dir", str(outdir),
               "--alpha", "0.1", "--targets", "2"])
    assert rc == 0
    meta = json.loads((outdir / "run_metadata.json").read_text())
    assert meta["settings"]["alpha"] == 0.1
    assert meta["settings"]["targets"] == [2]


def test_config_validation(tmp_path, sim_csv, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"input": str(sim_csv), "frobnicate": 1}))
    assert main(["estimate", "--config", str(bad), "--output-dir", str(tmp_path / "x")]) == 1
    assert "unknown config field" in capsys.readouterr().err

    bad.write_text(json.dumps({"input": str(sim_csv), "alpha": "big"}))
    assert main(["estimate", "--config", str(bad), "--output-dir", str(tmp_path / "x")]) == 1
    assert "alpha" in capsys.readouterr().err

    bad.write_text("{(")
    assert main(["estimate", "--config", str(bad), "--output-dir", str(tmp_path / "x")]) == 1
    assert main(["estimate", "--config", str(tmp_path / "missing.json"),
                 "--output-dir", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("field, cfg", [
    ("alpha_trunc", {"alpha_trunc": False}),
    ("alpha", {"alpha": True}),
    ("bootstrap.level", {"bootstrap": {"level": True}}),
    ("diagnostic.threshold_pct", {"diagnostic": {"threshold_pct": False}}),
    ("diagnostic.alpha_sweep", {"diagnostic": {"alpha_sweep": [0, True]}}),
])
def test_config_rejects_booleans_as_numbers(tmp_path, sim_csv, capsys, field, cfg):
    """JSON true/false would otherwise pass as 1 and 0 (alpha_trunc 0 silently
    leaves the weights untruncated)."""
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"input": str(sim_csv), **cfg}))
    assert main(["estimate", "--config", str(path), "--output-dir", str(tmp_path / "x")]) == 1
    assert f"config field '{field}' must be a" in capsys.readouterr().err


@pytest.mark.parametrize("argv, cfg, message", [
    (["estimate", "--bootstrap-replicates", "2", "--seed", "-1"], None,
     "seed must be a non-negative integer"),
    (["estimate"], {"seed": -1, "bootstrap": {"replicates": 2}},
     "seed must be a non-negative integer"),
    (["estimate"], {"bootstrap": {"replicates": 2, "seed": -3}},
     "bootstrap.seed must be a non-negative integer"),
    (["diagnose", "--dgp", "no_violation", "--n-sim", "200", "--replicates", "2",
      "--seed", "-1"], None, "seed must be a non-negative integer"),
    (["diagnose", "--dgp", "no_violation", "--n-sim", "200"], {"seed": -1},
     "seed must be a non-negative integer"),
    (["simulate", "--dgp", "no_violation", "--n", "20", "--seed", "-1"], None,
     "--seed must be a non-negative integer"),
    (["estimate"], {"n_treatment_levels": 1}, "n_treatment_levels must be at least 2"),
    (["fit", "--n-treatment-levels", "1"], None, "n_treatment_levels must be at least 2"),
    (["fit", "--n-treatment-levels", "0"], None, "n_treatment_levels must be at least 2"),
])
def test_bad_seeds_and_level_counts_are_usage_errors(tmp_path, sim_csv, capsys,
                                                     argv, cfg, message):
    """A negative seed used to end in numpy's traceback, and a single
    treatment level (also in ``fit``) in a data error about a row of the
    CSV."""
    out = tmp_path / "out"
    if argv[0] in ("simulate", "fit"):
        argv = argv + ["--output", str(out)]
    else:
        argv = argv + ["--output-dir", str(out)]
    if argv[0] in ("estimate", "fit"):
        argv += ["--input", str(sim_csv)]
    if cfg is not None:
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        argv += ["--config", str(tmp_path / "run.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"causal-rules: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "0", "-2.5"])
def test_threshold_pct_must_be_finite_and_positive(tmp_path, capsys, literal):
    """Python's json loads NaN and Infinity; a NaN threshold used to print
    'no alpha reaches max |bias| < nan%' and exit 0."""
    config = tmp_path / "run.json"
    config.write_text(f'{{"diagnostic": {{"threshold_pct": {literal}}}}}')
    rc = main(["diagnose", "--config", str(config), "--dgp", "no_violation",
               "--n-sim", "100", "--replicates", "2", "--alpha-sweep", "0.05",
               "--output-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "causal-rules: error: diagnostic.threshold_pct must be a finite positive number\n"
    )


def test_estimate_missing_csv_is_a_data_error(tmp_path):
    rc = main(["estimate", "--input", str(tmp_path / "none.csv"),
               "--output-dir", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("body", [b"0,\xff,0\n", b'0,"' + b"x" * 200_000 + b'",0\n'])
def test_estimate_unreadable_csv_is_a_data_error(tmp_path, capsys, body):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"W1,A,Y\n1,2,1\n" + body)
    rc = main(["estimate", "--input", str(path), "--output-dir", str(tmp_path / "o")])
    assert rc == 2
    assert f"error: {path}: " in capsys.readouterr().err


def test_estimate_names_the_treatment_levels_with_no_rows(tmp_path, sim_csv, capsys):
    """A sample holding only levels 0 and 1 of the default six: the
    outcome fit names levels 2-5 and the run is a data error."""
    path = tmp_path / "two_levels.csv"
    with sim_csv.open(newline="") as fh, open(path, "w", newline="") as out:
        rows = csv.reader(fh)
        csv.writer(out).writerows([next(rows)] + [r for r in rows if r[2] in ("0", "1")])
    rc = main(["estimate", "--input", str(path), "--output-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "treatment levels [2, 3, 4, 5] have no rows" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_estimate_names_an_absent_reference_level(tmp_path, sim_csv, capsys):
    """A sample without level 0, the treatment model's reference level:
    the treatment fit names it and the run is a data error."""
    path = tmp_path / "no_level_0.csv"
    with sim_csv.open(newline="") as fh, open(path, "w", newline="") as out:
        rows = csv.reader(fh)
        csv.writer(out).writerows([next(rows)] + [r for r in rows if r[2] != "0"])
    rc = main(["estimate", "--input", str(path), "--output-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "treatment level 0 has no rows" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_estimate_infinite_level_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "inf.csv"
    path.write_text("W1,A,Y\n1,2,1\n0,inf,0\n")
    rc = main(["estimate", "--input", str(path), "--output-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "row 2, column 'A': treatment level must be an integer, got 'inf'" in (
        capsys.readouterr().err
    )


def test_diagnose_dgp_mode(tmp_path, capsys):
    outdir = tmp_path / "diag"
    rc = main([
        "diagnose", "--dgp", "no_violation", "--estimator", "gcomp",
        "--families", "static", "--replicates", "8", "--n-sim", "150",
        "--alpha-sweep", "0.0,0.05", "--output-dir", str(outdir),
    ])
    assert rc == 0
    bias = json.loads((outdir / "eta_bias.json").read_text())
    assert bias["source"] == {"kind": "dgp", "name": "no_violation"}
    assert bias["replicates"] == 8
    assert (outdir / "eta_bias.csv").exists()
    assert json.loads((outdir / "positivity.json").read_text())["source"]["kind"] == "dgp"
    sweep = json.loads((outdir / "alpha_sweep.json").read_text())
    assert sweep["alphas"] == [0.0, 0.05]
    assert "alpha sweep" in capsys.readouterr().out


def test_diagnose_records_a_cell_without_successful_replicates(tmp_path):
    """At n = 100 every replicate's realistic target 0 leaves some row with
    no feasible level.  The run records that cell with a null bias and the
    reason, and every other cell with its numbers; a sweep reads its alpha's
    largest bias as unbounded."""
    outdir = tmp_path / "diag"
    with pytest.warns(UserWarning, match="2 of 20 diagnostic replicates failed"):
        rc = main(["diagnose", "--dgp", "cohort", "--estimator", "iptw", "--n-sim", "100",
                   "--replicates", "20", "--seed", "0", "--alpha-sweep", "0.05",
                   "--output-dir", str(outdir)])
    assert rc == 0
    sweep = json.loads((outdir / "alpha_sweep.json").read_text())
    assert sweep["max_abs_bias_pct"] == [float("inf")]
    assert sweep["smallest_passing_alpha"] is None
    entries = json.loads((outdir / "eta_bias.json").read_text())["entries"]
    assert len(entries) == 18
    for e in entries:
        if (e["family"], e["target"]) == ("realistic", 0):
            assert e["bias_error"].startswith(
                "no successful replicates; first failure: RuleInfeasibleError: "
                "no feasible level at or below target 0 for rows "
            )
            assert e["n_effective"] == 0
            assert [e[k] for k in ("mean_estimate", "sd_estimate", "bias", "bias_pct",
                                   "drift", "drift_pct")] == [None] * 6
        else:
            assert "bias_error" not in e and e["n_effective"] > 0
            assert all(isinstance(e[k], float) for k in ("mean_estimate", "sd_estimate",
                                                           "bias", "bias_pct"))
    rows = list(csv.reader((outdir / "eta_bias.csv").read_text().splitlines()))
    assert rows[1] == ["0", "2.19%", "", "-11.03%"]


def test_a_sweep_leaves_the_main_report_and_matches_runs_at_its_alphas(tmp_path):
    """Adding ``--alpha-sweep`` leaves ``eta_bias.json`` byte for byte, and
    each sweep report is the report of a run at that ``--alpha`` alone."""
    base = ["diagnose", "--dgp", "cohort", "--estimator", "tmle", "--n-sim", "3000",
            "--replicates", "3", "--seed", "2"]
    sweep = ["0.0", "0.02", "0.05", "0.07"]

    def run(name, *extra):
        assert main([*base, *extra, "--output-dir", str(tmp_path / name)]) == 0
        return tmp_path / name

    alone, swept = run("alone"), run("swept", "--alpha-sweep", ",".join(sweep))
    assert (swept / "eta_bias.json").read_bytes() == (alone / "eta_bias.json").read_bytes()
    reports = json.loads((swept / "alpha_sweep.json").read_text())["reports"]
    assert len(reports) == len(sweep)
    for a, report in zip(sweep, reports):
        body = json.loads((run(a, "--alpha", a) / "eta_bias.json").read_text())
        del body["source"]
        assert report == body


@pytest.mark.parametrize("sweep", [None, "0.05", "0.01,0.03,0.05,0.07"])
def test_diagnose_draws_and_fits_g_once_per_replicate_whatever_the_sweep(
    tmp_path, monkeypatch, sweep
):
    """One draw for the positivity summary, then one draw and one ``g``
    fit per replicate, however many alphas the sweep adds."""
    from causalrules import cli, diagnostics
    from causalrules.estimators import NuisanceSpec

    counts = {"draws": 0, "g fits": 0}

    def counted(key, original):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return wrapper

    for module in (cli, diagnostics):
        monkeypatch.setattr(module, "generate", counted("draws", diagnostics.generate))
    monkeypatch.setattr(NuisanceSpec, "fit_g", counted("g fits", NuisanceSpec.fit_g))
    argv = ["diagnose", "--dgp", "cohort", "--n-sim", "3000", "--replicates", "3",
            "--output-dir", str(tmp_path / "diag")]
    assert main(argv + (["--alpha-sweep", sweep] if sweep else [])) == 0
    assert counts == {"draws": 1 + 3, "g fits": 3}


def test_a_failing_alpha_sweep_writes_no_files(tmp_path, capsys):
    """At these sweep alphas the truth of realistic target 0 is undefined
    on some support rows; the sweep runs before any file is written."""
    outdir = tmp_path / "diag"
    rc = main([
        "diagnose", "--dgp", "cohort", "--estimator", "iptw", "--n-sim", "20000",
        "--replicates", "10", "--seed", "3", "--alpha-sweep", "0.01,0.05,0.1,0.15",
        "--output-dir", str(outdir),
    ])
    assert rc == 2
    assert "no feasible level at or below target 0 for support rows [4, 10," in (
        capsys.readouterr().err
    )
    assert not outdir.exists()


def test_diagnose_without_refit_reads_the_runs_alpha_trunc(tmp_path):
    """Without a refit the estimators weight by the system's own g, which
    must carry the run's truncation floor."""
    outputs = []
    for alpha_trunc in (0.05, 0.2):
        cfg = tmp_path / f"cfg{alpha_trunc}.json"
        cfg.write_text(json.dumps({"alpha_trunc": alpha_trunc}))
        outdir = tmp_path / f"out{alpha_trunc}"
        assert main([
            "diagnose", "--config", str(cfg), "--dgp", "structural_zero",
            "--estimator", "iptw", "--no-refit-g", "--replicates", "3", "--n-sim", "500",
            "--output-dir", str(outdir),
        ]) == 0
        outputs.append(json.loads((outdir / "eta_bias.json").read_text()))
    low, high = outputs
    assert [e["truth"] for e in low["entries"]] == [e["truth"] for e in high["entries"]]
    assert [e["mean_estimate"] for e in low["entries"]] != [
        e["mean_estimate"] for e in high["entries"]
    ]


def test_diagnose_data_mode(tmp_path, sim_csv):
    outdir = tmp_path / "diagdata"
    rc = main([
        "diagnose", "--input", str(sim_csv), "--replicates", "6",
        "--targets", "0,1", "--output-dir", str(outdir),
    ])
    assert rc == 0
    bias = json.loads((outdir / "eta_bias.json").read_text())
    assert bias["source"]["kind"] == "data"
    assert bias["n_sim"] == 600  # defaults to the input size


def test_diagnose_source_validation(tmp_path, sim_csv, capsys):
    out = str(tmp_path / "d")
    assert main(["diagnose", "--output-dir", out]) == 1
    assert main(["diagnose", "--dgp", "no_violation", "--input", str(sim_csv),
                 "--output-dir", out]) == 1
    rc = main(["diagnose", "--dgp", "no_violation", "--output-dir", out])
    assert rc == 1
    assert "n_sim" in capsys.readouterr().err
    assert main(["diagnose", "--dgp", "bogus", "--n-sim", "50",
                 "--output-dir", out]) == 1


def test_simulate_validation(tmp_path):
    out = str(tmp_path / "sim.csv")
    assert main(["simulate", "--n", "10", "--output", out]) == 1
    assert main(["simulate", "--dgp", "bogus", "--n", "10", "--output", out]) == 1
    assert main(["simulate", "--dgp", "no_violation", "--n", "0", "--output", out]) == 1
    rc = main(["simulate", "--dgp", "no_violation", "--n", "10",
               "--output", str(tmp_path / "nodir" / "sim.csv")])
    assert rc == 2  # unwritable path is a data error, not a usage error


def test_fit_then_simulate_from_models(tmp_path, sim_csv, capsys):
    bundle = tmp_path / "models.json"
    rc = main(["fit", "--input", str(sim_csv), "--output", str(bundle)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "structural zeros: none" in out
    assert json.loads(bundle.read_text())["meta"]["n"] == 600

    resim = tmp_path / "resim.csv"
    rc = main(["simulate", "--models", str(bundle), "--input", str(sim_csv),
               "--n", "40", "--seed", "1", "--output", str(resim)])
    assert rc == 0
    assert len(resim.read_text().splitlines()) == 41

    assert main(["simulate", "--models", str(bundle), "--n", "5",
                 "--output", str(tmp_path / "x.csv")]) == 1  # needs --input


def test_fit_flags_reach_the_bundle(tmp_path, sim_csv):
    """``--covariates``, ``--treatment-column`` and ``--alpha-trunc`` each
    change what is fitted: the bundle fitted from the LTPA_MET column of a
    file that has both treatment columns equals the one fitted from a file
    whose A column holds those levels."""
    met_of_level = ("0", "5", "15", "30", "50", "70")
    with sim_csv.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["V", "U", "A", "Y"]
    both, flipped = tmp_path / "both.csv", tmp_path / "flipped.csv"
    with open(both, "w", newline="") as fh:
        csv.writer(fh).writerows([["V", "U", "A", "LTPA_MET", "Y"]] + [
            [v, u, a, met_of_level[5 - int(a)], y] for v, u, a, y in rows[1:]])
    with open(flipped, "w", newline="") as fh:
        csv.writer(fh).writerows([["V", "A", "Y"]] + [
            [v, str(5 - int(a)), y] for v, _, a, y in rows[1:]])
    bundles = []
    for argv in (["--input", str(both), "--covariates", "V", "--treatment-column", "LTPA_MET",
                  "--alpha-trunc", "0.2"],
                 ["--input", str(flipped), "--alpha-trunc", "0.2"]):
        path = tmp_path / f"models{len(bundles)}.json"
        assert main(["fit", *argv, "--output", str(path)]) == 0
        bundles.append(json.loads(path.read_text()))
    got, want = bundles
    assert got["meta"]["covariates"] == ["V"]
    assert got["treatment"]["covariate_names"] == got["outcome"]["covariate_names"] == ["V"]
    assert got["meta"]["alpha_trunc"] == got["treatment"]["alpha_trunc"] == 0.2
    assert got["treatment"]["coef"] == want["treatment"]["coef"]
    assert got["outcome"]["coef"] == want["outcome"]["coef"]


def _edit_bundle(text, edit):
    bundle = json.loads(text)
    edit(bundle)
    return json.dumps(bundle)


@pytest.mark.parametrize("edit", [
    lambda text: _edit_bundle(text, lambda b: b["treatment"]["coef"][0].pop()),
    lambda text: _edit_bundle(text, lambda b: b["outcome"]["coef"].pop()),
    lambda text: _edit_bundle(text, lambda b: b["outcome"].update(
        n_treatment_levels=5, coef=b["outcome"]["coef"][:-1])),
    lambda text: text[: len(text) // 2],
], ids=["ragged-treatment-row", "short-outcome-coef", "outcome-with-fewer-levels", "cut-json"])
def test_a_malformed_bundle_is_a_data_error(tmp_path, sim_csv, capsys, edit):
    bundle = tmp_path / "models.json"
    assert main(["fit", "--input", str(sim_csv), "--output", str(bundle)]) == 0
    bundle.write_text(edit(bundle.read_text()))
    capsys.readouterr()
    rc = main(["simulate", "--models", str(bundle), "--input", str(sim_csv),
               "--n", "40", "--seed", "1", "--output", str(tmp_path / "resim.csv")])
    assert rc == 2
    assert "malformed model bundle" in capsys.readouterr().err


def test_fit_interaction_parsing(tmp_path, sim_csv):
    bundle = tmp_path / "with_int.json"
    rc = main(["fit", "--input", str(sim_csv), "--output", str(bundle),
               "--q-interactions", "V:2"])
    assert rc == 0
    assert main(["fit", "--input", str(sim_csv), "--output", str(bundle),
                 "--q-interactions", "V"]) == 1
    assert main(["fit", "--input", str(sim_csv), "--output", str(bundle),
                 "--q-interactions", "V:x"]) == 1


def test_fit_rejects_a_repeated_interaction(tmp_path, sim_csv, capsys):
    bundle = tmp_path / "models.json"
    capsys.readouterr()
    assert main(["fit", "--input", str(sim_csv), "--output", str(bundle),
                 "--q-interactions", "V:2,V:2"]) == 1
    assert capsys.readouterr().err == (
        "causal-rules: error: q-interactions lists ('V', 2) more than once\n")
    assert not bundle.exists()


def test_categorize(tmp_path, capsys):
    assert main(["categorize", "0", "35.5", "61"]) == 0
    assert capsys.readouterr().out == "0,0\n35.5,3\n61,5\n"

    scores = tmp_path / "scores.txt"
    scores.write_text("10\n20.5\n")
    dest = tmp_path / "levels.csv"
    assert main(["categorize", "--input", str(scores), "--output", str(dest)]) == 0
    assert dest.read_text() == "10,1\n20.5,3\n"

    assert main(["categorize"]) == 1
    assert main(["categorize", "abc"]) == 1
    assert main(["categorize", "-5"]) == 2


# Runs in a fresh interpreter in which importing scipy fails: the import
# of the CLI must load no scipy module, and each command must exit 0.
_WITHOUT_SCIPY = """
import json, sys
from pathlib import Path


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
from causalrules.cli import main

loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded
work = Path(sys.argv[1])
(work / "run.json").write_text(json.dumps({"bootstrap": {"interval": "normal"}}))
commands = [
    ["simulate", "--dgp", "cohort", "--n", "2000", "--seed", "2",
     "--output", str(work / "cohort.csv")],
    ["estimate", "--input", str(work / "cohort.csv"), "--output-dir", str(work / "est"),
     "--config", str(work / "run.json"), "--bootstrap-replicates", "2"],
    ["diagnose", "--dgp", "cohort", "--estimator", "tmle", "--n-sim", "1000",
     "--replicates", "2", "--output-dir", str(work / "diag")],
]
for argv in commands:
    assert main(argv) == 0, argv
"""


def test_the_cli_runs_without_scipy(tmp_path):
    src = Path(causalrules.__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    report = json.loads((tmp_path / "est" / "estimates.json").read_text())
    assert report["cells"][0]["psi_interval"]["method"] == "normal"


def test_diagnose_warns_once_per_alpha_whose_replicates_fail(tmp_path):
    """Here the main alpha and each sweep alpha fail 2 of 20 replicates.
    Each warning names its alpha, so Python's default filter, which
    prints a message once per line, prints one warning per alpha."""
    src = Path(causalrules.__file__).resolve().parents[1]
    config = tmp_path / "policy.json"
    config.write_text('{"empty_set_policy": "assign_min_realistic"}')
    argv = ["diagnose", "--config", str(config), "--dgp", "cohort", "--estimator", "iptw",
            "--n-sim", "100", "--replicates", "20", "--alpha-sweep", "0.02,0.05,0.1",
            "--output-dir", str(tmp_path / "diag")]
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys; from causalrules.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    warned = [line.partition("UserWarning: ")[2] for line in run.stderr.splitlines()
              if "UserWarning: " in line]
    assert warned == [
        f"2 of 20 diagnostic replicates failed and were dropped at alpha {a}"
        for a in ("0.05", "0.02", "0.1")
    ]


def _install_step_lines() -> list[str]:
    """The shell lines of the workflow step that installs the package alone."""
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
    lines = workflow.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if "Install the package alone" in line)
    run = next(i for i in range(start, len(lines)) if lines[i].strip() == "run: |")
    indent = len(lines[run + 1]) - len(lines[run + 1].lstrip())
    step = []
    for line in lines[run + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) < indent:
            break
        step.append(line.strip())
    return step


def test_the_workflow_install_step_commands_succeed(tmp_path, monkeypatch, capsys):
    """Replays every ``causal-rules`` line of the workflow's install step, in
    order, with the files its ``echo ... > FILE`` lines write."""
    monkeypatch.chdir(tmp_path)
    replayed = 0
    for line in _install_step_lines():
        words = shlex.split(line)
        if words[:1] == ["echo"] and words[-2:-1] == [">"]:
            Path(words[-1]).write_text(" ".join(words[1:-2]) + "\n")
        elif words[:1] == ["causal-rules"]:
            assert main(words[1:]) == 0, (line, capsys.readouterr().err)
            replayed += 1
    assert replayed >= 8


def test_every_exported_name_resolves_once_in_sorted_order():
    names = causalrules.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [n for n in names if not hasattr(causalrules, n)]
    assert missing == []


def test_a_cell_without_finite_replicates_records_its_interval_error(tmp_path):
    """On this sample realistic target 0 is infeasible for a few rows of both
    resamples, so no realistic relative risk has a finite replicate; the
    run still writes every other interval, unchanged."""
    data = tmp_path / "cohort.csv"
    assert main(["simulate", "--dgp", "cohort", "--n", "2000", "--seed", "1",
                 "--output", str(data)]) == 0
    cells = {}
    for families in ("static,realistic,itt", "static,itt"):
        out = tmp_path / families
        assert main(["estimate", "--input", str(data), "--output-dir", str(out),
                     "--bootstrap-replicates", "2", "--families", families]) == 0
        cells[families] = {
            (c["family"], c["target"], c["estimator"]): c
            for c in json.loads((out / "estimates.json").read_text())["cells"]
        }
    full, without_realistic = cells.values()
    for key, cell in full.items():
        for kind in ("psi", "rr"):
            interval, error = cell[f"{kind}_interval"], cell[f"{kind}_interval_error"]
            if key[0] == "realistic" and kind == "rr":
                assert interval is None
                assert error == "EstimationError: no successful bootstrap replicates"
                continue
            assert error is None and interval["b_effective"] + interval["n_failed"] == 2
            if key[0] != "realistic":
                assert interval == without_realistic[key][f"{kind}_interval"]


def test_a_relative_risk_without_an_interval_is_marked_in_the_tables(tmp_path, capsys):
    """A bare theta means no bootstrap ran; a bootstrap that gave a cell no
    interval marks it, in the CSV table and on stdout alike."""
    data, out = tmp_path / "cohort.csv", tmp_path / "out"
    assert main(["simulate", "--dgp", "cohort", "--n", "2000", "--seed", "1",
                 "--output", str(data)]) == 0
    assert main(["estimate", "--input", str(data), "--output-dir", str(out),
                 "--bootstrap-replicates", "2"]) == 0
    stdout = capsys.readouterr().out
    rows = list(csv.reader((out / "estimates_table.csv").read_text().splitlines()))[1:]
    assert len(rows) == 15
    for row in rows:
        family, target, *cells = row
        for cell in cells:
            if family == "realistic":
                assert cell.endswith(" (no interval)") and "(" not in cell[:-14], row
            else:
                assert cell.count("(") == 1 and cell.endswith(")") and "no" not in cell, row
    assert stdout.count("(no interval)") == 20
