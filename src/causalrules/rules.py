"""Treatment rules: static, realistic, and intention-to-treat (ITT).

A static rule assigns the target level ``a`` to everyone.  A realistic
rule first forms the set of feasible levels

    D(W) = { a* : g(a* | W) >= alpha },

then assigns the highest feasible level not exceeding the target,
``d(a, W) = max { a* in D(W) : a* <= a }``.  An ITT rule assigns the
target when it is feasible and otherwise leaves the subject at their
observed level: ``d(a, A, W) = a`` if ``a in D(W)`` else ``A``.

Feasibility sets are always built from the *raw* fitted treatment
probabilities: with truncated ones and the default floor equal to alpha
every level would be declared feasible.  :func:`assign` is the one
place where a rule becomes feasibility sets and assigned levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RuleInfeasibleError, ValidationError
from .glm import TreatmentModel, _evaluate_models
from .ingest import Dataset

FAMILIES = ("static", "realistic", "itt")
EMPTY_SET_POLICIES = ("error", "assign_min_realistic")


@dataclass(frozen=True)
class Rule:
    """A treatment rule: family, target level, and feasibility threshold.

    ``alpha`` is ignored by static rules.  ``empty_set_policy`` controls
    realistic assignment when no feasible level lies at or below the
    target: ``"error"`` raises, ``"assign_min_realistic"`` falls back to
    the smallest feasible level.
    """

    family: str
    target: int
    alpha: float = 0.05
    empty_set_policy: str = "error"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown rule family {self.family!r}; expected one of {FAMILIES}")
        if self.target < 0:
            raise ValidationError("rule target must be a nonnegative treatment level")
        if not 0.0 <= self.alpha < 1.0:
            raise ValidationError("alpha must lie in [0, 1)")
        if self.empty_set_policy not in EMPTY_SET_POLICIES:
            raise ValidationError(
                f"unknown empty_set_policy {self.empty_set_policy!r}; "
                f"expected one of {EMPTY_SET_POLICIES}"
            )

    def label(self) -> str:
        return f"{self.family}:A={self.target}"


# ---------------------------------------------------------------------------
# Vectorized assignment over a dataset


def membership_matrix(g_probs: np.ndarray, alpha: float) -> np.ndarray:
    """Boolean (n, K) matrix of level feasibility, ties included."""
    return np.asarray(g_probs, dtype=float) >= alpha


def _first_rows(failed: np.ndarray, inverse: np.ndarray | None) -> list[int]:
    """The first ten input rows whose row of the feasibility matrix failed."""
    if inverse is not None:
        failed = failed[inverse]
    return np.nonzero(failed)[0][:10].tolist()


def realistic_assignments(
    member: np.ndarray,
    target: int,
    empty_set_policy: str = "error",
    inverse: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized d(a, W): highest feasible level <= target per row.

    ``member`` may hold one row per distinct pattern, with ``inverse``
    giving the pattern of every input row; errors then still name the
    input rows.
    """
    member = np.asarray(member, dtype=bool)
    n, k = member.shape
    if not 0 <= target < k:
        raise ValidationError(f"target {target} outside 0..{k - 1}")
    eligible = member[:, : target + 1]
    rev = eligible[:, ::-1]
    has = rev.any(axis=1)
    assigned = target - rev.argmax(axis=1)
    if not has.all():
        bad = ~has
        if empty_set_policy == "assign_min_realistic":
            any_member = member.any(axis=1)
            if not any_member[bad].all():
                rows = _first_rows(bad & ~any_member, inverse)
                raise RuleInfeasibleError(
                    f"rows with an empty feasible set: {rows}", rows=rows
                )
            assigned = np.where(bad, member.argmax(axis=1), assigned)
        else:
            rows = _first_rows(bad, inverse)
            raise RuleInfeasibleError(
                f"no feasible level at or below target {target} for rows {rows}",
                rows=rows,
            )
    return assigned.astype(np.int64)


def itt_assignments(member: np.ndarray, target: int, observed_a: np.ndarray) -> np.ndarray:
    """Vectorized d(a, A, W): target where feasible, observed level elsewhere."""
    member = np.asarray(member, dtype=bool)
    n, k = member.shape
    if not 0 <= target < k:
        raise ValidationError(f"target {target} outside 0..{k - 1}")
    return np.where(member[:, target], target, np.asarray(observed_a, dtype=np.int64))


def assign(
    rule: Rule,
    g_raw: np.ndarray | None,
    observed_a: np.ndarray,
    k_levels: int,
    member: np.ndarray | None = None,
    inverse: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Feasibility matrix and assigned level of every row under ``rule``.

    Feasibility comes from the raw treatment probabilities ``g_raw``,
    which may be None for static rules (or any rule with ``alpha == 0``,
    where every level is feasible by construction).  ``member``
    overrides the feasibility matrix.  When the rows are distinct
    patterns, ``inverse`` maps every input row to its pattern so that an
    infeasible rule names input rows (see :func:`realistic_assignments`).
    """
    if rule.target >= k_levels:
        raise ValidationError(f"rule target {rule.target} outside 0..{k_levels - 1}")
    if member is None:
        if rule.family == "static" or rule.alpha == 0.0:
            member = np.ones((len(observed_a), k_levels), dtype=bool)
        elif g_raw is None:
            raise ValidationError(f"{rule.family} rules need treatment probabilities")
        else:
            member = membership_matrix(g_raw, rule.alpha)
    if rule.family == "itt":
        return member, itt_assignments(member, rule.target, observed_a)
    return member, realistic_assignments(member, rule.target, rule.empty_set_policy, inverse)


def rule_assignments(
    g_probs_for_rules: np.ndarray | None,
    observed_a: np.ndarray,
    rule: Rule,
    k_levels: int,
) -> np.ndarray:
    """Assigned levels under ``rule`` for every row (see :func:`assign`)."""
    return assign(rule, g_probs_for_rules, observed_a, k_levels)[1]


# ---------------------------------------------------------------------------
# Reporting


def _g_raw_rows(dataset: Dataset, g_model: TreatmentModel) -> np.ndarray:
    """Raw ``g`` on every row, evaluated once per distinct covariate row."""
    first, inverse = dataset._w_groups()
    return _evaluate_models(dataset.w[first], dataset.covariate_names, g_model, None)[0][inverse]


def rule_assignment_table(
    dataset: Dataset,
    g_model: TreatmentModel,
    family: str,
    alpha: float = 0.05,
    empty_set_policy: str = "error",
) -> np.ndarray:
    """(K, K) counts of assigned levels: rows are targets, columns assignments.

    Every row sums to n.  For realistic rules the matrix is lower
    triangular (up to empty-set-policy fallbacks); for static rules it
    is n times the identity.
    """
    if family not in FAMILIES:
        raise ValidationError(f"unknown rule family {family!r}")
    k = dataset.n_treatment_levels
    probs = _g_raw_rows(dataset, g_model)
    table = np.zeros((k, k), dtype=np.int64)
    for target in range(k):
        rule = Rule(family=family, target=target, alpha=alpha, empty_set_policy=empty_set_policy)
        assigned = rule_assignments(probs, dataset.a, rule, k)
        table[target] = np.bincount(assigned, minlength=k)
    return table


@dataclass(frozen=True)
class LevelPositivity:
    """Fitted-probability summary for one treatment level."""

    level: int
    n_below_alpha: int
    frac_below_alpha: float
    g_min: float
    g_q05: float
    g_q25: float
    g_median: float


@dataclass(frozen=True)
class PositivityReport:
    """Per-level diagnostics of practical positivity at threshold alpha."""

    alpha: float
    n: int
    levels: tuple[LevelPositivity, ...]
    g_source: str

    @property
    def flagged_levels(self) -> tuple[int, ...]:
        return tuple(lv.level for lv in self.levels if lv.n_below_alpha > 0)

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "n": self.n,
            "g_source": self.g_source,
            "flagged_levels": list(self.flagged_levels),
            "levels": [
                {
                    "level": lv.level,
                    "n_below_alpha": lv.n_below_alpha,
                    "frac_below_alpha": lv.frac_below_alpha,
                    "g_min": lv.g_min,
                    "g_q05": lv.g_q05,
                    "g_q25": lv.g_q25,
                    "g_median": lv.g_median,
                }
                for lv in self.levels
            ],
        }


def positivity_report(
    dataset: Dataset,
    g_model: TreatmentModel,
    alpha: float = 0.05,
) -> PositivityReport:
    """Summarize how often each level's fitted probability falls below alpha."""
    if not 0.0 <= alpha < 1.0:
        raise ValidationError("alpha must lie in [0, 1)")
    probs = _g_raw_rows(dataset, g_model)
    n = dataset.n
    levels = []
    for a in range(dataset.n_treatment_levels):
        col = probs[:, a]
        below = int(np.count_nonzero(col < alpha))
        q05, q25, q50 = np.quantile(col, [0.05, 0.25, 0.50])
        levels.append(
            LevelPositivity(
                level=a,
                n_below_alpha=below,
                frac_below_alpha=below / n,
                g_min=float(col.min()),
                g_q05=float(q05),
                g_q25=float(q25),
                g_median=float(q50),
            )
        )
    return PositivityReport(
        alpha=alpha,
        n=n,
        levels=tuple(levels),
        g_source="raw",
    )
