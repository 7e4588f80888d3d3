"""The config fields of ``estimate`` and ``diagnose``, one by one.

Every row of the CLI's field table gets an accepted value that is not
its default and a rejected one.  The accepted value must change the
output of each command that reads the field, and leave the output of a
command that does not read it byte-identical.  A field's flag must act
exactly as its config value.
"""

import contextlib
import copy
import csv
import io
import json
import math
import re
from pathlib import Path

import pytest

from causalrules.cli import _FIELDS, main

DROP = object()  # in a change: remove the field from the config


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """Input CSVs: a structural-zero sample with a copy at another path, a
    three-level version of it, and a version with both treatment columns."""
    root = tmp_path_factory.mktemp("fields")
    sz = root / "sz.csv"
    assert main(["simulate", "--dgp", "structural_zero", "--n", "1500", "--seed", "1",
                 "--output", str(sz)]) == 0
    rows = list(csv.reader(sz.open()))
    assert rows[0] == ["H", "F", "A", "Y"]
    (root / "copy.csv").write_bytes(sz.read_bytes())
    with open(root / "three.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([rows[0]] + [[h, f, str(int(a) // 2), y]
                                              for h, f, a, y in rows[1:]])
    with open(root / "both.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([["H", "F", "A", "LTPA_MET", "Y"]]
                                 + [[h, f, a, "0", y] for h, f, a, y in rows[1:]])
    return {name: str(root / f"{name}.csv") for name in ("sz", "copy", "three", "both")}


def _cases(data, command="estimate"):
    """path -> (accepted value, rejected value, changes that both runs share)."""
    # diagnose stops at the first empty feasible set; estimate records it.
    policy_alpha = 0.25 if command == "diagnose" else 0.3
    return {
        "input": (data["copy"], 3, {}),
        "output_dir": ("elsewhere", ["out"], {}),
        "treatment_column": ("A", 1, {"input": data["both"], "covariates": ["H", "F"]}),
        "empty_set_policy": ("assign_min_realistic", "drop", {"alpha": policy_alpha}),
        "itt_covariate": ("appendix", "gamma", {}),
        "covariates": (["H"], "H", {}),
        "families": (["static"], [], {}),
        "estimators": (["tmle"], ["ipw"], {}),
        "targets": ([0, 4], [9], {}),
        "n_treatment_levels": (3, 1, {"input": data["three"], "targets": [0, 2]}),
        "seed": (7, -1, {}),
        "alpha": (0.1, 1.5, {}),
        "alpha_trunc": (0.2, 1.0, {}),
        "truncate_weights": (False, {"ipw": True}, {"alpha_trunc": 0.2}),
        "q_interactions": ([["H", 2]], [["H"]], {}),
        "bootstrap": ({"replicates": 3, "interval": "normal"}, 3, {}),
        "bootstrap.replicates": (3, 0, {}),
        "bootstrap.seed": (9, -1, {}),
        "bootstrap.interval": ("normal", "bca", {}),
        "bootstrap.level": (0.9, 1.5, {}),
        "diagnostic": ({"replicates": 1, "n_sim": 200}, [1], {}),
        "diagnostic.dgp": ("structural_zero", 3, {"input": DROP}),
        "diagnostic.estimator": ("gcomp", "ipw", {}),
        "diagnostic.replicates": (3, 0, {}),
        "diagnostic.n_sim": (200, 0, {}),
        "diagnostic.refit_g": (False, "no", {}),
        "diagnostic.threshold_pct": (50.0, math.nan, {}),
        "diagnostic.alpha_sweep": ([0.02, 0.05], [0.05, 0.02], {}),
    }


def _base(command, data):
    cfg = {"input": data["sz"], "output_dir": "out", "targets": [0, 5]}
    if command == "estimate":
        return {**cfg, "alpha": 0.3, "estimators": ["iptw", "tmle"],
                "bootstrap": {"replicates": 2}}
    return {**cfg, "diagnostic": {"replicates": 2, "n_sim": 300, "alpha_sweep": [0.05]}}


def _with(cfg, changes):
    cfg = copy.deepcopy(cfg)
    for path, value in changes.items():
        section, _, name = path.rpartition(".")
        holder = cfg.setdefault(section, {}) if section else cfg
        if value is DROP:
            holder.pop(name, None)
        else:
            holder[name] = value
    return cfg


class Runner:
    """Runs the CLI in a fresh directory; a result is the exit code,
    stdout, stderr and every file written."""

    def __init__(self, root: Path, monkeypatch):
        self.root, self.monkeypatch, self.count = root, monkeypatch, 0

    def __call__(self, command, cfg, flags=()):
        self.count += 1
        cfg_path = self.root / f"config{self.count}.json"
        cfg_path.write_text(json.dumps(cfg))
        work = self.root / f"run{self.count}"
        work.mkdir()
        self.monkeypatch.chdir(work)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([command, "--config", str(cfg_path), *flags])
        files = {str(p.relative_to(work)): p.read_bytes()
                 for p in sorted(work.rglob("*")) if p.is_file()}
        return rc, out.getvalue(), err.getvalue(), files


def _flag_argv(field, value):
    if field.flag == "refit_g":
        return ["--no-refit-g"] if value is False else []
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    return ["--" + field.flag.replace("_", "-"), text]


def test_every_field_has_a_case(data):
    assert set(_cases(data)) == {f.path for f in _FIELDS}
    assert len(_FIELDS) == 28
    assert sum(not f.section for f in _FIELDS) == 17


@pytest.mark.parametrize("field", _FIELDS, ids=lambda f: f.path)
@pytest.mark.parametrize("command", ["estimate", "diagnose"])
def test_field(command, field, data, tmp_path, monkeypatch):
    good, bad, context = _cases(data, command)[field.path]
    run = Runner(tmp_path, monkeypatch)
    base = _base(command, data)
    if command not in field.reads:
        # Not read: an accepted value leaves every output as it was.
        assert run(command, _with(base, {field.path: good})) == run(command, base)
        return

    before = run(command, _with(base, context))
    after = run(command, _with(base, {**context, field.path: good}))
    assert after[0] == 0, after[2]
    assert after != before
    if field.path != "output_dir":
        if command == "estimate":
            names = ["run_metadata.json"] if field.path in (
                "input", "treatment_column") else ["estimates.json"]
        else:
            names = ["eta_bias.json", "positivity.json", "alpha_sweep.json"]
        assert any(after[3].get(f"out/{n}") != before[3].get(f"out/{n}") for n in names)

    rejected = run(command, _with(base, {**context, field.path: bad}))
    assert rejected[:2] == (1, "") and not rejected[3], rejected
    assert rejected[2].startswith("causal-rules: error: ")

    if field.flag is not None:
        # The flag alone gives exactly what the config field gives.
        by_flag = run(command, _with(base, context), _flag_argv(field, good))
        assert by_flag == after


# ---------------------------------------------------------------------------
# Error messages and exit codes of bad configs and flag combinations


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _run(argv, capsys):
    capsys.readouterr()
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.err


S = "sim.csv"  # a placeholder: these runs stop before the input is read
GOLDEN = [
    ("estimate", {"input": S, "frob": 1, "zed": 2}, [],
     1, "unknown config field(s): frob, zed"),
    ("estimate", {"input": S, "bootstrap": {"reps": 1}}, [],
     1, "unknown bootstrap field(s): reps"),
    ("diagnose", {"input": S, "diagnostic": {"nsim": 1, "abc": 2}}, [],
     1, "unknown diagnostic field(s): abc, nsim"),
    ("estimate", {"input": 3}, [], 1, "config field 'input' must be a string"),
    ("estimate", {"input": S, "itt_covariate": None}, [],
     1, "config field 'itt_covariate' must be a string"),
    ("estimate", {"input": S, "families": "static"}, [],
     1, "config field 'families' must be a list of strings"),
    ("estimate", {"input": S, "targets": [1, "2"]}, [],
     1, "config field 'targets' must be a list of integers"),
    ("estimate", {"input": S, "seed": 1.5}, [], 1, "config field 'seed' must be an integer"),
    ("estimate", {"input": S, "alpha": "0.1"}, [], 1, "config field 'alpha' must be a number"),
    ("diagnose", {"input": S, "diagnostic": {"refit_g": 0}}, [],
     1, "config field 'diagnostic.refit_g' must be a boolean"),
    ("diagnose", {"input": S, "diagnostic": {"alpha_sweep": ["a"]}}, [],
     1, "config field 'diagnostic.alpha_sweep' must be a list of numbers"),
    ("estimate", {"input": S, "truncate_weights": {"ipw": True}}, [],
     1, "config field 'truncate_weights' must be a boolean or an {estimator: boolean} object"),
    ("estimate", {"input": S, "q_interactions": [["V", 1, 2]]}, [],
     1, "config field 'q_interactions' must be a list of [covariate, level] pairs"),
    ("estimate", {"input": S, "bootstrap": 3}, [],
     1, "config field 'bootstrap' must be an object or null"),
    ("estimate", {"input": S, "diagnostic": {"dgp": None}}, [],
     1, "config field 'diagnostic.dgp' must be a string"),
    ("estimate", {"input": S}, ["--alpha", "1.5"], 1, "alpha must lie in [0, 1)"),
    ("estimate", {"input": S, "alpha": 1.5}, [], 1, "alpha must lie in [0, 1)"),
    ("estimate", {"input": S}, ["--targets", "9"], 1, "target 9 is outside 0..5"),
    ("estimate", {"input": S, "targets": []}, [], 1, "targets must not be empty"),
    ("estimate", {"input": S, "families": []}, [], 1, "families must not be empty"),
    ("estimate", {"input": S}, ["--families", "static,bogus"],
     1, "unknown families 'bogus'; choose from static, realistic, itt"),
    ("estimate", {"input": S}, ["--estimators", "ipw"],
     1, "unknown estimators 'ipw'; choose from gcomp, iptw, driptw, tmle"),
    ("diagnose", {}, ["--dgp", "no_violation", "--n-sim", "50", "--estimator", "ipw"],
     1, "estimator must be one of gcomp, iptw, driptw, tmle (got 'ipw')"),
    ("estimate", {"input": S, "empty_set_policy": "drop"}, [],
     1, "empty_set_policy must be one of error, assign_min_realistic (got 'drop')"),
    ("estimate", {"input": S, "itt_covariate": "gamma"}, [],
     1, "itt_covariate must be one of delta, appendix (got 'gamma')"),
    ("diagnose", {"input": S, "truncate_weights": {"iptw": False}}, [],
     1, "truncate_weights must be a single boolean for diagnose"),
    ("estimate", {"input": S, "bootstrap": {"interval": "bca"}}, [],
     1, "bootstrap config: interval must be one of ('percentile', 'normal'), got 'bca'"),
    ("estimate", {"input": S}, ["--bootstrap-replicates", "0"],
     1, "bootstrap config: bootstrap replicates must be >= 1"),
    ("estimate", {"input": S, "bootstrap": {"level": 1}}, [],
     1, "bootstrap config: confidence level must lie in (0, 1)"),
    ("diagnose", {}, ["--dgp", "no_violation", "--n-sim", "50", "--alpha-sweep", "0.1,0.05"],
     1, "alpha_sweep values must be sorted ascending"),
    ("diagnose", {}, ["--dgp", "no_violation", "--n-sim", "50", "--alpha-sweep", "0.1,1.5"],
     1, "alpha_sweep value must lie in [0, 1)"),
    ("diagnose", {}, [], 1, "exactly one data source is required: --dgp or --input"),
    ("diagnose", {"input": S}, ["--dgp", "no_violation"],
     1, "exactly one data source is required: --dgp or --input"),
    ("diagnose", {}, ["--dgp", "no_violation"],
     1, "n_sim is required when diagnosing a built-in system"),
    ("diagnose", {}, ["--dgp", "bogus", "--n-sim", "50"],
     1, "unknown generating system 'bogus'; choose from cohort, interaction, no_violation,"
        " null_effect, structural_zero"),
    ("diagnose", {}, ["--dgp", "no_violation", "--n-sim", "50", "--replicates", "0"],
     1, "replicates must be a positive integer"),
    ("diagnose", {}, ["--dgp", "no_violation", "--n-sim", "0"],
     1, "n_sim must be a positive integer"),
    ("estimate", {}, [], 1, "an input CSV is required (--input or config field 'input')"),
    ("estimate", {"input": "nope.csv"}, [],
     2, "[Errno 2] No such file or directory: 'nope.csv'"),
    ("diagnose", {"output_dir": None}, ["--dgp", "no_violation"],
     1, "config field 'output_dir' must be a string"),
    ("estimate", {"input": S, "alpha": "x", "empty_set_policy": 3}, [],
     1, "config field 'empty_set_policy' must be a string"),
    ("estimate", {"input": S, "alpha": 1.5, "empty_set_policy": "x"}, [],
     1, "alpha must lie in [0, 1)"),
    ("estimate", {"input": S, "targets": [9], "empty_set_policy": "x"}, [],
     1, "target 9 is outside 0..5"),
    ("estimate", {"input": S, "alpha": "x", "bootstrap": {"zz": 1}}, [],
     1, "config field 'alpha' must be a number"),
    ("diagnose", {"empty_set_policy": "x", "diagnostic": {"replicates": 0}}, [],
     1, "exactly one data source is required: --dgp or --input"),
]


@pytest.mark.parametrize("command, cfg, flags, code, message", GOLDEN)
def test_config_errors_keep_their_messages(command, cfg, flags, code, message, in_tmp, capsys):
    (in_tmp / "run.json").write_text(json.dumps(cfg))
    argv = [command, "--config", "run.json", *flags]
    if "output_dir" not in cfg:
        argv += ["--output-dir", "out"]
    assert _run(argv, capsys) == (code, f"causal-rules: error: {message}\n")
    assert not (in_tmp / "out").exists()


@pytest.mark.parametrize("command, text, message", [
    ("estimate", "{(", "config file is not valid JSON: Expecting property name enclosed in"
                       " double quotes: line 1 column 2 (char 1)"),
    ("estimate", "[1, 2]", "config file must hold a JSON object"),
    ("diagnose", "[1, 2]", "config file must hold a JSON object"),
])
def test_unreadable_configs_keep_their_messages(command, text, message, in_tmp, capsys):
    (in_tmp / "run.json").write_text(text)
    assert _run([command, "--config", "run.json"], capsys) == (
        1, f"causal-rules: error: {message}\n")
    assert _run([command, "--config", "missing.json"], capsys) == (
        1, "causal-rules: error: cannot read config file: [Errno 2] No such file or"
           " directory: 'missing.json'\n")


@pytest.mark.parametrize("argv", [
    ["estimate", "--input", "sim.csv"],
    ["diagnose", "--dgp", "no_violation"],
])
def test_a_missing_output_directory_keeps_its_message(argv, in_tmp, capsys):
    assert _run(argv, capsys) == (
        1, "causal-rules: error: an output directory is required"
           " (--output-dir or config field 'output_dir')\n")


# ---------------------------------------------------------------------------
# The README documents every field


def test_the_readme_config_section_names_every_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = re.search(r"^### JSON config\n(.*?)^##", readme, re.S | re.M).group(1)
    named = set(re.findall(r"`([a-z_.]+)`", section))
    missing = [f.path for f in _FIELDS if f.path not in named]
    assert not missing, f"README's JSON config section does not name {missing}"
