"""Checks on the files each CLI command writes.

The checks are meant to survive later changes to the package:

* every cell's point ``psi`` and relative risk ``theta`` match the
  references stored for the unshuffled sample to 1e-9, whatever the
  seed's row order;
* TMLE and RR-TMLE estimating-equation residuals are at most 1e-8;
* bootstrap intervals are finite, ordered, and lose at most 10% of the
  replicates in any cell (replicate values themselves are not compared:
  a change to how resamples are drawn may change them);
* ``diagnose`` truths match an exact enumeration of the system to
  1e-12, and the static rule at level 5, which the system makes
  infeasible for part of the population, is more biased downwards than
  the realistic rule at level 5.

Each check returns the operations it saw attempted and failed (a grid
cell's psi, a cell's RR, or a replicate) and a list of problems; any
problem makes the benchmark exit nonzero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import System, Workload

REFS_DIR = Path(__file__).resolve().parent / "refs"

FAMILIES = ("static", "realistic", "itt")
ESTIMATORS = ("gcomp", "iptw", "driptw", "tmle")
ALPHA = 0.05  # the CLI's default feasibility threshold

REF_TOL = 1e-9
RESIDUAL_TOL = 1e-8
TRUTH_TOL = 1e-12
MAX_FAILED_SHARE = 0.10


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def refs_path(n: int) -> Path:
    return REFS_DIR / f"cohort-{n}.json"


def load_refs(n: int) -> dict | None:
    """Reference ``{cell label: [psi, theta]}`` for the n-row sample, if stored."""
    path = refs_path(n)
    return json.loads(path.read_text()) if path.exists() else None


def cell_label(cell: dict) -> str:
    return f"{cell['family']}:{cell['target']}:{cell['estimator']}"


def grid_values(outdir: Path) -> dict:
    """``{cell label: [psi, theta]}`` from an ``estimate`` output directory."""
    report = json.loads((outdir / "estimates.json").read_text())
    return {
        cell_label(c): [
            None if c["psi"] is None else c["psi"]["psi"],
            None if c["rr"] is None else c["rr"]["theta"],
        ]
        for c in report["cells"]
    }


def check_estimate(outdir: Path, workload: Workload, refs: dict | None) -> Outcome:
    out = Outcome()
    report = json.loads((outdir / "estimates.json").read_text())
    meta = json.loads((outdir / "run_metadata.json").read_text())
    table = (outdir / "estimates_table.csv").read_text().splitlines()
    out.require(meta["n"] == workload.n and meta["dropped_rows"] == 0,
                f"run_metadata reports n={meta['n']}, dropped={meta['dropped_rows']}")
    out.require(len(table) == 1 + len(FAMILIES) * 5, f"table has {len(table)} lines")

    cells = report["cells"]
    want = {f"{f}:{t}:{e}" for f in FAMILIES for t in range(1, 6) for e in ESTIMATORS}
    out.require({cell_label(c) for c in cells} == want, "grid cells differ from the 60 expected")
    boot = workload.kind == "bootstrap"
    worst_replicate_loss = 0
    for c in cells:
        label = cell_label(c)
        tmle = c["estimator"] == "tmle"
        psi, rr = c["psi"], c["rr"]
        out.attempted += 2
        out.failed += (psi is None) + (rr is None)
        ref = None if refs is None else refs.get(label)
        if psi is not None:
            v = psi["psi"]
            out.require(_finite(v) and 0.0 <= v <= 1.0, f"{label}: psi {v} outside [0, 1]")
            if tmle:
                r = psi["diagnostics"]["score_residual"]
                out.require(_finite(r) and abs(r) <= RESIDUAL_TOL,
                            f"{label}: TMLE score residual {r}")
        if rr is not None:
            theta = rr["theta"]
            out.require(_finite(theta) and theta > 0.0, f"{label}: theta {theta}")
            if tmle:
                r = rr["score_residual"]
                out.require(rr["converged"] and _finite(r) and abs(r) <= RESIDUAL_TOL,
                            f"{label}: RR score residual {r}")
            else:
                ratio = rr["psi_numerator"] / rr["psi_denominator"]
                out.require(abs(theta - ratio) <= 1e-12 * abs(ratio),
                            f"{label}: theta is not psi_numerator / psi_denominator")
        if ref is not None:
            for name, got, expect in (("psi", psi and psi["psi"], ref[0]),
                                      ("theta", rr and rr["theta"], ref[1])):
                out.require(
                    got is not None and abs(got - expect) <= REF_TOL,
                    f"{label}: {name} {got!r} differs from reference {expect!r}",
                )
        if boot:
            for key, est in (("psi_interval", psi), ("rr_interval", rr)):
                if est is None:
                    continue
                iv = c[key]
                if iv is None:
                    out.problems.append(f"{label}: no {key}")
                    continue
                out.require(
                    _finite(iv["lower"]) and _finite(iv["upper"]) and iv["lower"] <= iv["upper"],
                    f"{label}: {key} [{iv['lower']}, {iv['upper']}] is not a finite interval",
                )
                out.require(iv["b_effective"] + iv["n_failed"] == workload.replicates,
                            f"{label}: {key} counts do not add up to B")
                out.require(iv["n_failed"] <= MAX_FAILED_SHARE * workload.replicates,
                            f"{label}: {key} lost {iv['n_failed']} replicates")
                worst_replicate_loss = max(worst_replicate_loss, iv["n_failed"])
    if boot:
        out.require(report["metadata"].get("bootstrap", {}).get("replicates") == workload.replicates,
                    "bootstrap metadata does not record B")
        out.attempted += workload.replicates
        out.failed += worst_replicate_loss
    return out


def exact_truths(system: System, alpha: float = ALPHA) -> dict:
    """Counterfactual means of every (family, target) rule by enumeration."""
    g, q, p = system.g, system.q, system.w_probs
    m, k = g.shape
    rows = np.arange(m)
    member = g >= alpha
    q_observed = (g * q).sum(axis=1)
    truths = {}
    for t in range(k):
        truths[("static", t)] = float(p @ q[:, t])
        assigned = np.full(m, -1)
        for level in range(t + 1):
            assigned = np.where(member[:, level], level, assigned)
        if (assigned < 0).any():
            raise ValueError(f"realistic rule {t} has no feasible level for some covariates")
        truths[("realistic", t)] = float(p @ q[rows, assigned])
        truths[("itt", t)] = float(p @ np.where(member[:, t], q[:, t], q_observed))
    return truths


def check_diagnose(outdir: Path, workload: Workload, truths: dict) -> Outcome:
    out = Outcome()
    report = json.loads((outdir / "eta_bias.json").read_text())
    positivity = json.loads((outdir / "positivity.json").read_text())
    r = workload.replicates
    out.require(report["replicates"] == r and report["n_sim"] == workload.n,
                "eta_bias.json does not record R and n_sim")
    out.require(len(positivity["levels"]) == 6, "positivity.json does not cover 6 levels")
    entries = {(e["family"], e["target"]): e for e in report["entries"]}
    out.require(set(entries) == set(truths), "bias entries differ from the 18 expected")
    n_failed = report["n_failed_replicates"]
    out.require(n_failed <= MAX_FAILED_SHARE * r, f"{n_failed} of {r} replicates failed")
    out.attempted += r + len(entries) * (r - n_failed)
    out.failed += n_failed
    for key, e in entries.items():
        out.failed += r - n_failed - e["n_effective"]
        expect = truths.get(key)
        out.require(expect is not None and abs(e["truth"] - expect) <= TRUTH_TOL,
                    f"{key}: truth {e['truth']!r} differs from enumeration {expect!r}")
        out.require(_finite(e["mean_estimate"]) and _finite(e["bias"]),
                    f"{key}: estimate is not finite")
    static5, realistic5 = entries.get(("static", 5)), entries.get(("realistic", 5))
    if static5 and realistic5:
        out.require(static5["bias"] < realistic5["bias"],
                    f"static-5 bias {static5['bias']:.4g} is not below "
                    f"realistic-5 bias {realistic5['bias']:.4g}")
    return out
