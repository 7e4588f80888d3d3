"""The benchmark's workloads and the inputs each one is given.

All three workloads run on the built-in ``cohort`` system: fifteen
binary covariates (2,880 support cells), six treatment levels with four
structurally impossible cells, and a binary outcome.  Input CSVs are
drawn here, from the system's coefficients, with the benchmark's own
sampler, so that a change to the package's simulator cannot change what
the benchmark measures.  The program receives only the CSV (or, for
``diagnose``, the system's name) and the flags a user would pass.

Each input size has one fixed sample, drawn with ``SAMPLE_SEED``; the
workload seed shuffles its rows and seeds the bootstrap and the
simulation.  How much work ``estimate`` does depends strongly on the
sample (the RR-TMLE loop takes 38 to 60 iterations on 50k-row samples
of different seeds), so a fresh sample per seed would make the
run-to-run spread about the sample rather than the program.  Shuffled
rows give the same estimates up to rounding, so one stored reference
serves every seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

DGP_NAME = "cohort"
SAMPLE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "estimate", "bootstrap" or "diagnose"
    n: int  # rows of the input CSV; --n-sim for diagnose
    replicates: int  # B for the bootstrap, R for diagnose, 0 otherwise


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("estimate-cohort-50k", "estimate", 50_000, 0),
        Workload("bootstrap-cohort-5k", "bootstrap", 5_000, 5),
        Workload("diagnose-cohort-iptw", "diagnose", 20_000, 10),
    )
}

# (n, replicates) of small variants of the workloads, for the harness's
# smoke test.
TINY = {
    "estimate-cohort-50k": (3_000, 0),
    "bootstrap-cohort-5k": (3_000, 2),
    "diagnose-cohort-iptw": (3_000, 2),
}


def tiny(workload: Workload) -> Workload:
    return Workload(workload.name, workload.kind, *TINY[workload.name])


# ---------------------------------------------------------------------------
# The generating system, evaluated independently of the package


@dataclass(frozen=True)
class System:
    """Support, probabilities and exact g and Q of the cohort system."""

    covariate_names: tuple[str, ...]
    support: np.ndarray  # (m, p) int8
    w_probs: np.ndarray  # (m,)
    g: np.ndarray  # (m, K) raw treatment probabilities
    q: np.ndarray  # (m, K) outcome probabilities


def cohort_system() -> System:
    """Enumerate the cohort system from its coefficients.

    Only the coefficients come from the package; probabilities are
    computed here so that they can serve as an oracle for its outputs.
    """
    from causalrules.dgps import DGP_REGISTRY

    gen = DGP_REGISTRY[DGP_NAME]()
    support = np.asarray(gen.w_support, dtype=np.int8)
    m, p = support.shape
    x = np.column_stack([np.ones(m), support.astype(float)])

    coef = np.asarray(gen.g_model.coef, dtype=float)  # (K-1, 1+p), -inf = pinned
    k = coef.shape[0] + 1
    eta = np.zeros((m, k))
    eta[:, 1:] = x @ np.where(np.isfinite(coef), coef, 0.0).T
    for level, col in zip(*np.nonzero(~np.isfinite(coef))):
        eta[x[:, col] == 1.0, level + 1] = -np.inf
    ex = np.exp(eta - eta.max(axis=1, keepdims=True))
    g = ex / ex.sum(axis=1, keepdims=True)

    if gen.q_model.design.interactions:
        raise ValueError("the oracle assumes an outcome model without interactions")
    qc = np.asarray(gen.q_model.coef, dtype=float)  # intercept, covariates, A=1..K-1
    base = qc[0] + support @ qc[1 : 1 + p]
    level_terms = np.concatenate([[0.0], qc[1 + p :]])
    q = 1.0 / (1.0 + np.exp(-(base[:, None] + level_terms[None, :])))
    return System(tuple(gen.covariate_names), support, np.asarray(gen.w_probs), g, q)


def draw(system: System, n: int, seed: int) -> np.ndarray:
    """n rows of (W..., A, Y) as an (n, p + 2) int8 array."""
    rng = np.random.default_rng(seed)
    rows = rng.choice(system.w_probs.size, size=n, p=system.w_probs)
    cum = np.cumsum(system.g[rows], axis=1)
    # Scaling by the row total keeps u below the last edge, and counting
    # edges <= u never lands on a level of probability zero.
    u = rng.random(n) * cum[:, -1]
    a = (cum <= u[:, None]).sum(axis=1)
    y = rng.random(n) < system.q[rows, a]
    return np.column_stack([system.support[rows], a, y]).astype(np.int8)


def csv_bytes(system: System, data: np.ndarray) -> bytes:
    """CSV text of single-digit rows, header ``covariates..., A, Y``."""
    header = ",".join(system.covariate_names + ("A", "Y")) + "\n"
    n, c = data.shape
    buf = np.full((n, 2 * c), ord(","), dtype=np.uint8)
    buf[:, 0::2] = data.astype(np.uint8) + ord("0")
    buf[:, -1] = ord("\n")
    return header.encode() + buf.tobytes()


def pattern_shares(data: np.ndarray, p: int) -> dict:
    """How much the rows share: distinct (W,A,Y), (W,A) and W patterns."""
    def distinct(columns: int) -> int:
        return int(np.unique(data[:, :columns], axis=0).shape[0])

    n, way = data.shape[0], distinct(p + 2)
    return {
        "n": n,
        "distinct_way": way,
        "distinct_way_share": way / n,
        "distinct_wa": distinct(p + 1),
        "distinct_w": distinct(p),
    }


def sample(workload: Workload) -> np.ndarray:
    """The workload's fixed sample of the system, in drawn order."""
    return draw(cohort_system(), workload.n, SAMPLE_SEED)


def write_inputs(workload: Workload, seed: int, path: Path) -> np.ndarray | None:
    """Write the workload's input CSV at ``path`` and return its rows.

    The rows are the fixed sample, shuffled by ``seed``.  ``diagnose``
    reads no file: its input is the system's name.
    """
    system = cohort_system()
    if workload.kind == "diagnose":
        return None
    data = draw(system, workload.n, SAMPLE_SEED)
    data = data[np.random.default_rng(seed).permutation(workload.n)]
    path.write_bytes(csv_bytes(system, data))
    return data


def argv(workload: Workload, seed: int, csv_path: Path, outdir: Path) -> list[str]:
    """The command line a user would type, minus the program name."""
    if workload.kind == "diagnose":
        return [
            "diagnose", "--dgp", DGP_NAME, "--estimator", "iptw",
            "--n-sim", str(workload.n), "--replicates", str(workload.replicates),
            "--seed", str(seed), "--output-dir", str(outdir),
        ]
    out = ["estimate", "--input", str(csv_path), "--output-dir", str(outdir)]
    if workload.kind == "bootstrap":
        out += ["--bootstrap-replicates", str(workload.replicates), "--seed", str(seed)]
    return out
