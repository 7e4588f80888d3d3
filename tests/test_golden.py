"""CLI outputs on fixed inputs against committed expected files.

Each case runs ``causalrules.cli.main`` on samples that ``simulate``
draws at fixed seeds from the five built-in systems, then compares the
JSON files it wrote with ``tests/golden/<case>/``: every float to 1e-12
(relative to its size above 1), every integer, string, boolean and null
exactly.

The expected files record the answers of the package as it is.  A
change that moves answers on purpose rewrites them with
``PYTHONPATH=src python tests/test_golden.py`` and explains each moved
value; a change that keeps answers leaves them alone.
"""

import json
import math
import shutil
import sys
from pathlib import Path

import pytest

from causalrules.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
STORED = ("estimates.json", "eta_bias.json", "positivity.json", "alpha_sweep.json")
TOL = 1e-12

# One sample per built-in system: (rows, seed).
SAMPLES = {
    "cohort": (1500, 1),
    "no_violation": (600, 2),
    "interaction": (600, 3),
    "structural_zero": (800, 4),
    "null_effect": (600, 5),
}

# Case name: (argv before --output-dir, config file contents or None).
CASES = {
    "cohort": (["estimate", "--input", "cohort.csv"], None),
    "no_violation": (["estimate", "--input", "no_violation.csv"], None),
    "interaction": (["estimate", "--input", "interaction.csv"], None),
    "structural_zero_untruncated": (
        ["estimate", "--input", "structural_zero.csv"], {"truncate_weights": False},
    ),
    "null_effect_alpha0": (["estimate", "--input", "null_effect.csv", "--alpha", "0"], None),
    "cohort_appendix": (
        ["estimate", "--input", "cohort.csv", "--alpha", "0.15"],
        {"itt_covariate": "appendix", "empty_set_policy": "assign_min_realistic"},
    ),
    "cohort_untruncated": (
        ["estimate", "--input", "cohort.csv", "--alpha", "0.1"],
        {"truncate_weights": {"iptw": False, "tmle": False}},
    ),
    "no_violation_percentile": (
        ["estimate", "--input", "no_violation.csv", "--bootstrap-replicates", "5",
         "--seed", "7"],
        None,
    ),
    "null_effect_normal": (
        ["estimate", "--input", "null_effect.csv", "--families", "static,itt"],
        {"bootstrap": {"replicates": 5, "interval": "normal", "seed": 3}},
    ),
    "structural_zero_sweep": (
        ["diagnose", "--dgp", "structural_zero", "--n-sim", "400", "--replicates", "5",
         "--estimator", "tmle", "--alpha-sweep", "0.0,0.1"],
        None,
    ),
}


def _simulate(workdir: Path) -> None:
    for dgp, (n, seed) in SAMPLES.items():
        rc = main(["simulate", "--dgp", dgp, "--n", str(n), "--seed", str(seed),
                   "--output", str(workdir / f"{dgp}.csv")])
        assert rc == 0, dgp


def _run(case: str, workdir: Path) -> Path:
    """Run one case with its inputs in ``workdir``; return its output directory."""
    argv, config = CASES[case]
    out = workdir / case
    argv = [str(workdir / a) if a.endswith(".csv") else a for a in argv]
    argv += ["--output-dir", str(out)]
    if config is not None:
        path = workdir / f"{case}.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert main(argv) == 0, case
    return out


def _differences(got, want, where: str = "") -> list[str]:
    if isinstance(want, float) and isinstance(got, float):
        if got == want or (math.isnan(got) and math.isnan(want)):
            return []
        if abs(got - want) <= TOL * max(1.0, abs(want)):
            return []
        return [f"{where}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if sorted(got) != sorted(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [d for key in want for d in _differences(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in _differences(g, w, f"{where}[{i}]")]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    _simulate(workdir)
    return workdir


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_outputs_match_the_golden_files(case, samples, capsys):
    out = _run(case, samples)
    capsys.readouterr()
    expected = sorted(p.name for p in (GOLDEN / case).iterdir())
    assert expected == sorted(p.name for p in out.iterdir() if p.name in STORED)
    for name in expected:
        got = json.loads((out / name).read_text())
        want = json.loads((GOLDEN / case / name).read_text())
        diffs = _differences(got, want, name)
        assert not diffs, "\n".join(diffs[:20])


def test_the_comparison_holds_floats_to_the_tolerance():
    assert _differences({"x": [1.0, 3e6]}, {"x": [1.0 + 5e-13, 3e6 + 1e-6]}) == []
    assert _differences(0.5, 0.5 + 2e-12) == [": 0.5 != 0.500000000002"]
    assert _differences(1, 1.0) and _differences("a", "b") and _differences(None, 0.0)
    assert _differences({"a": 1}, {"b": 1}) and _differences([1], [1, 2])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        _simulate(workdir)
        shutil.rmtree(GOLDEN, ignore_errors=True)
        for case in CASES:
            out = _run(case, workdir)
            (GOLDEN / case).mkdir(parents=True)
            for name in STORED:
                if (out / name).exists():
                    shutil.copyfile(out / name, GOLDEN / case / name)
    sys.exit(0)
