"""Counterfactual mean and relative-risk estimators for treatment rules.

Four estimators of the rule-specific counterfactual outcome probability
``psi = E[Y_{d}]`` are provided:

* ``gcomp``   — G-computation: average the outcome regression at the
  assigned levels (for ITT rules, the observed outcome is kept on rows
  where the target is infeasible).
* ``iptw``    — inverse-probability-of-treatment weighting: average
  ``I(A = d) Y / g(A | W)`` (ITT rows with an infeasible target
  contribute their observed outcome with weight one).
* ``driptw``  — the doubly robust augmented IPTW estimator.
* ``tmle_mean`` — targeted substitution: a one-parameter logistic
  fluctuation of the outcome regression along the inverse-weight
  "clever covariate", then G-computation with the updated fit.  The
  returned estimate solves the doubly robust estimating equation, and
  the residual of that equation is recorded in the diagnostics.

``tmle_relative_risk`` targets the ratio ``theta = psi_a / psi_0``
directly with an iterated fluctuation whose covariate contrasts the two
rules; the plug-in numerator and denominator are refreshed at every
step and the iteration stops once the step size and the estimating
equation residual are both negligible.

``estimate_suite`` runs the full grid of rule families, target levels,
and estimators and collects the results in a tabular report.

Every estimator runs on one pattern table per dataset (``_evaluate``).
The models are evaluated once per dataset, on the distinct W rows only:
the raw treatment probabilities ``G`` and the logit of the outcome
regression ``M``, one column per level.  The (W, A) patterns are the
dataset's own (``Dataset._wa_patterns``), shared with the ``g`` and
``Q`` fits, so a dataset's rows are grouped once however many models
and estimators read them.  The estimators, the fluctuation score and
the relative-risk residual are all linear in the outcomes, so a mean
over rows is a sum over distinct points weighted by the rows each
stands for, divided by n.  Each term is summed where it lives:

* terms at a rule's assigned level, over the distinct W rows weighted by
  their row counts: the rule's ``d(W)`` (for an ITT rule, on the rows
  with a feasible target), ``G`` and ``M`` at ``d(W)``, the clever
  covariate there, and the G-computation, TMLE and relative-risk
  plug-ins;
* terms at the observed level, over the distinct (W, A) patterns where
  the clever covariate ``I(A = d)/g`` is nonzero, with their outcome
  successes out of trials: IPTW's ``h Y``, DR-IPTW's ``h (Y - Q)``, each
  fluctuation's score and information, the residuals and the weight
  summaries.  These are the patterns at their row's assigned level and
  the ones an ITT rule leaves alone; for a relative risk, the union over
  both rules, and every pattern under the ITT ``appendix`` covariate.
  Patterns left alone keep their observed level, with ``h = 1``, in the
  plug-ins too.

Every cell runs on the grid (``_grid``), also the one cell of
``estimate_psi`` and ``tmle_relative_risk``.  The grid walks rules, not
cells.  Each family's targets are assigned in one pass into records on
the table (``_Patterns.rule``), and the rules at one ``alpha`` share
one feasibility matrix.  Each rule is then read once per weight
denominator (``_Evaluation``): its support patterns, ``G`` and ``M`` at
its assigned levels, ``Q``, the clever covariate on both parts and the
DR-IPTW score.  G-computation, IPTW, DR-IPTW, the TMLE mean and
RR-TMLE all read that one evaluation, and every fluctuation starts from
the score at ``epsilon = 0`` its caller already holds.  Only the
current rule's evaluations and its family's target-0 ones, which the
relative risks divide by, are held.  Every inverse weight
``I(A = d)/g`` comes from ``_clever_covariate``.
Feasibility sets always use the raw probabilities (see ``rules``);
weight denominators use the truncated ones unless
``truncate_weights=False``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    CausalRulesError,
    ConvergenceError,
    EstimationError,
    ValidationError,
)
from .glm import (
    OutcomeDesign,
    OutcomeModel,
    TreatmentModel,
    _bare_expit,
    _evaluate_models,
    _expit,
    fit_fluctuation,
    fit_outcome_model,
    fit_treatment_model,
)
from .ingest import Dataset
from .rules import Rule, assign, membership_matrix

if TYPE_CHECKING:  # pragma: no cover
    from .inference import IntervalEstimate

ESTIMATORS = ("gcomp", "iptw", "driptw", "tmle")

# Below this, a denominator psi_0 is considered degenerate for ratios.
MIN_PSI_DENOMINATOR = 1e-10

# RR-TMLE stops after a step within both, or fails after _RR_MAX_ITER
# steps (see tmle_relative_risk).
_RR_EPS_TOL = 1e-6
_RR_RESIDUAL_TOL = 1e-8
_RR_MAX_ITER = 50


# ---------------------------------------------------------------------------
# Nuisance model specification


@dataclass(frozen=True)
class NuisanceSpec:
    """How to fit the nuisance models g(a|W) and Q(a,W) on a dataset.

    ``g_covariates=None`` means every dataset covariate, an empty tuple
    an intercept-only ``g``; ``Q`` reads every covariate, with the
    (covariate, level) product terms ``q_interactions``.
    """

    g_covariates: tuple[str, ...] | None = None
    q_interactions: tuple[tuple[str, int], ...] = ()
    alpha_trunc: float = 0.05

    def fit_g(self, dataset: Dataset) -> TreatmentModel:
        return fit_treatment_model(
            dataset, alpha_trunc=self.alpha_trunc, covariate_names=self.g_covariates
        )

    def fit_q(self, dataset: Dataset) -> OutcomeModel:
        design = OutcomeDesign(
            covariate_names=dataset.covariate_names,
            n_treatment_levels=dataset.n_treatment_levels,
            interactions=tuple(self.q_interactions),
        )
        return fit_outcome_model(dataset, design)


# ---------------------------------------------------------------------------
# The pattern table shared by every estimator


@dataclass(frozen=True)
class _RuleRows:
    """One rule on a pattern table (see :meth:`_Patterns.rule`).

    ``ruled`` marks the distinct covariate rows the rule moves: every row
    for static and realistic rules, the rows with a feasible target for
    ITT rules.  ``d`` holds the assigned level of every ruled covariate
    row and ``rows`` lists the ruled rows.  ``left`` marks the patterns
    on rows the rule leaves alone, which keep their observed level with
    weight one.  ``support`` marks the patterns where the clever
    covariate is nonzero: those at their row's assigned level and the
    ``left`` ones.
    """

    ruled: np.ndarray
    d: np.ndarray
    rows: np.ndarray
    left: np.ndarray
    support: np.ndarray


@dataclass(frozen=True)
class _Patterns:
    """A dataset's distinct covariate rows and (W, A) patterns, with its
    models evaluated on the covariate rows.

    Distinct covariate row ``j`` stands for ``n_w[j]`` input rows, and
    ``w_inverse`` gives the covariate row of every input row.  ``G`` is
    the raw ``g(a | W)`` and ``M`` the logit of ``Q(a, W)``, one row per
    distinct covariate row and one column per level (None for a missing
    model).  Pattern ``i`` lies on covariate row ``w[i]`` at level
    ``a[i]``, with ``successes[i]`` outcomes out of ``trials[i]`` rows.

    Terms at a rule's assigned level live on the covariate rows, weighted
    by ``n_w``: the rule's ``d(W)``, ``G`` and ``M`` there, the clever
    covariate there and every plug-in.  Terms at the observed level live
    on the patterns where the clever covariate is nonzero (the rule's
    ``support``): the weighted outcomes, the fluctuation and its score,
    and the weight summaries.  Patterns on rows an ITT rule leaves alone
    are read at their observed level for both kinds of term.
    """

    w: np.ndarray
    a: np.ndarray
    successes: np.ndarray
    trials: np.ndarray
    n_w: np.ndarray
    w_inverse: np.ndarray
    k: int
    G: np.ndarray | None
    M: np.ndarray | None
    _rules: dict = field(default_factory=dict, repr=False)
    _members: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return self.w_inverse.size

    def at_observed(self, x: np.ndarray, patterns: np.ndarray) -> np.ndarray:
        """``x``, one row per covariate row and one column per level, read
        at the observed level of each of ``patterns``."""
        return x.take(self.w[patterns] * self.k + self.a[patterns])

    def rule(self, rule: Rule) -> _RuleRows:
        """``rule`` on this table, built once per rule and shared by
        every estimator.

        A rule that cannot be assigned raises a copy of its kept error,
        which has no traceback: a raised error's frames hold the table,
        which would then live on in a cycle.
        """
        if rule not in self._rules:
            self.assign_rules([rule])
        hit = self._rules[rule]
        if isinstance(hit, CausalRulesError):
            raise copy.copy(hit)
        return hit

    def assign_rules(self, rules: list[Rule]) -> None:
        """Assign ``rules``, which differ only in target, in one pass
        (:func:`~causalrules.rules.assign`) and keep each one's record, or
        the error that rule alone raises, for :meth:`rule`.  Rules already
        kept are left as they are."""
        rules = [rule for rule in rules if rule not in self._rules]
        if not rules:
            return
        size = self.n_w.size
        # A covariate row has no observed level: an ITT rule's assigned
        # level is read only on the rows it moves, and the patterns on the
        # rows it leaves alone keep theirs.  An infeasible rule names input
        # rows through ``w_inverse``.
        try:
            member, assigned = assign(
                rules, self.G, np.zeros(size, dtype=np.int64), self.k,
                self._membership(rules[0]), inverse=self.w_inverse,
            )
        except CausalRulesError as exc:
            member, assigned = None, [exc.with_traceback(None)] * len(rules)
        for rule, d in zip(rules, assigned):
            if not isinstance(d, CausalRulesError):
                if rule.family == "itt":
                    ruled = member[:, rule.target]
                    rows = np.flatnonzero(ruled)
                    left = ~ruled[self.w]
                else:
                    ruled, rows, left = self._every_row
                d = _RuleRows(ruled, d, rows, left, left | (self.a == d[self.w]))
            self._rules[rule] = d

    @cached_property
    def _every_row(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``ruled``, ``rows`` and ``left`` of a rule that moves every
        covariate row (a static or realistic rule), made once per table
        and shared, read-only, by every such rule."""
        size = self.n_w.size
        arrays = (np.ones(size, dtype=bool), np.arange(size), np.zeros(self.w.size, dtype=bool))
        for x in arrays:
            x.flags.writeable = False
        return arrays

    def _membership(self, rule: Rule) -> np.ndarray | None:
        """The feasibility matrix ``rule`` reads off ``G``, made once per
        ``alpha`` and shared by every rule at it; None where :func:`assign`
        reads no ``G``."""
        if rule.family == "static" or rule.alpha == 0.0 or self.G is None:
            return None
        member = self._members.get(rule.alpha)
        if member is None:
            member = self._members[rule.alpha] = membership_matrix(self.G, rule.alpha)
            member.flags.writeable = False
        return member


def _evaluate(
    dataset: Dataset,
    g_model: TreatmentModel | None,
    q_model: OutcomeModel | None,
    G: np.ndarray | None = None,
) -> _Patterns:
    """A dataset's pattern table, with the models evaluated once.

    The W rows and (W, A) patterns are the dataset's own
    (``Dataset._wa_patterns``), which the ``g`` and ``Q`` fits read too.
    ``G`` and ``M`` are evaluated on the distinct W rows only
    (:func:`~causalrules.glm._evaluate_models`).  A caller that already
    holds ``g_model``'s raw probabilities on those rows, in the
    grouping's order, hands them in as ``G``.  Every estimator runs on
    the returned table.
    """
    k = dataset.n_treatment_levels
    w_first, w_index = dataset._w_groups()
    keys, successes, trials = dataset._wa_patterns()
    G_fit, M = _evaluate_models(
        dataset.w[w_first], dataset.covariate_names, g_model if G is None else None, q_model
    )
    G = G_fit if G is None else G
    w = keys // k
    return _Patterns(
        w=w,
        a=keys % k,
        successes=successes,
        trials=trials,
        n_w=np.bincount(w, weights=trials, minlength=w_first.size),
        w_inverse=w_index,
        k=k,
        G=G,
        M=M,
    )


def _weight_scale(G: np.ndarray | None, g_model: TreatmentModel | None, truncate: bool):
    """Probabilities for weight denominators: raw, or floored at ``alpha_trunc``."""
    if G is None or not truncate:
        return G
    return np.maximum(G, g_model.alpha_trunc)


class _Evaluation:
    """One rule on a pattern table, read at one weight denominator: what
    every estimator of the rule reads, each part made when a cell first
    reads it and then shared by the rule's cells.

    The rule's points are its support patterns ``obs`` at their observed
    level, then its ruled covariate rows at their assigned level ``at``.
    It holds the logit of ``Q`` (``m_obs``, ``m_at``) and ``Q`` (``q_obs``,
    ``q_at``) on both parts, ``G_weights`` at the assigned level
    (``g_at``), the clever covariate on the support (``h_obs``) and the
    support's successes ``s`` out of trials ``t``.  ``plug`` is every
    point's plug-in weight: the trials of the support patterns the rule
    leaves alone, 0 on the others, then the rows each ruled covariate row
    stands for.  ``score`` is the sum of the DR-IPTW residual
    ``h (Y - Q)`` over the support, the score at ``epsilon = 0`` of the
    rule's TMLE fluctuation.  A part that raises is not kept: each cell
    that reads it raises the error anew.
    """

    def __init__(self, table: _Patterns, rule: Rule, G_weights: np.ndarray | None):
        self.table, self.rule, self.G_weights = table, rule, G_weights

    @cached_property
    def rec(self) -> _RuleRows:
        return self.table.rule(self.rule)

    @cached_property
    def obs(self) -> np.ndarray:
        return np.flatnonzero(self.rec.support)

    @cached_property
    def s(self) -> np.ndarray:
        return self.table.successes[self.obs]

    @cached_property
    def t(self) -> np.ndarray:
        return self.table.trials[self.obs]

    @cached_property
    def m_obs(self) -> np.ndarray:
        return self.table.at_observed(self.table.M, self.obs)

    @cached_property
    def q_obs(self) -> np.ndarray:
        return _expit(self.m_obs)

    @cached_property
    def h_obs(self) -> np.ndarray:
        rec, w = self.rec, self.table.w[self.obs]
        g = self.table.at_observed(self.G_weights, self.obs)
        return _clever_covariate(rec.ruled[w], self.table.a[self.obs], rec.d[w], g)

    @cached_property
    def at(self) -> np.ndarray:
        return self.rec.d[self.rec.rows]

    def at_assigned(self, x: np.ndarray) -> np.ndarray:
        """``x``, one row per covariate row and one column per level, read
        at the ruled rows' assigned level."""
        return x.take(self.rec.rows * self.table.k + self.at)

    @cached_property
    def g_at(self) -> np.ndarray:
        return self.at_assigned(self.G_weights)

    @cached_property
    def m_at(self) -> np.ndarray:
        return self.at_assigned(self.table.M)

    @cached_property
    def q_at(self) -> np.ndarray:
        return _expit(self.m_at)

    @cached_property
    def plug(self) -> np.ndarray:
        return np.concatenate(
            (np.where(self.rec.left[self.obs], self.t, 0.0), self.table.n_w[self.rec.rows])
        )

    @cached_property
    def score(self) -> float:
        return float(self.h_obs @ (self.s - self.t * self.q_obs))

    def free_support(self) -> None:
        """Drop the parts on the support; a cell that reads one makes it
        again."""
        for name in ("obs", "s", "t", "m_obs", "q_obs", "h_obs", "plug", "score"):
            self.__dict__.pop(name, None)


def _clever_covariate(
    ruled: np.ndarray, eval_a: np.ndarray, level, g_eval: np.ndarray
) -> np.ndarray:
    """``I(eval_a = level) / g_eval`` on ruled points, 1 elsewhere.

    ``ruled`` marks the points to weight, for a rule the ones it moves:
    every point for static and realistic rules, points on covariate rows
    with a feasible target for ITT rules (the others keep their observed
    level and outcome, with weight one).  ``eval_a``, ``level`` and
    ``g_eval`` hold the evaluated level, the rule's level and ``g`` at
    every point (see :class:`_Evaluation`).
    """
    match = ruled & (eval_a == level)
    g = np.where(match, g_eval, 1.0)
    if np.any(g <= 0.0):
        raise EstimationError(
            "zero treatment probability on a matched row; cannot weight by 1/g "
            "(only possible with truncation disabled)"
        )
    return np.where(match, 1.0 / g, np.where(ruled, 0.0, 1.0))


def _weight_summary(
    weights: np.ndarray, trials: np.ndarray
) -> tuple[int, float | None, float | None, float | None]:
    """Count, min, max and mean of the nonzero weights over rows."""
    nz = weights > 0
    if not nz.any():
        return 0, None, None, None
    w, t = weights[nz], trials[nz]
    n_w = t.sum()
    return int(n_w), float(w.min()), float(w.max()), float(t @ w) / float(n_w)


# ---------------------------------------------------------------------------
# Result containers


@dataclass(frozen=True)
class EstimateDiagnostics:
    """Bookkeeping attached to a point estimate.

    ``n_weighted`` and ``weight_*`` summarise the nonzero weights over
    rows.  DR-IPTW leaves out the ITT rows the rule leaves alone, which
    IPTW and TMLE count with weight one.
    """

    n: int
    epsilon: float | None = None
    score_residual: float | None = None
    n_weighted: int | None = None
    weight_min: float | None = None
    weight_max: float | None = None
    weight_mean: float | None = None

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class CounterfactualEstimate:
    """Point estimate of psi = E[Y_d] for one rule and one estimator."""

    estimator: str
    rule: Rule
    psi: float
    diagnostics: EstimateDiagnostics

    def to_dict(self) -> dict:
        return {
            "estimator": self.estimator,
            "family": self.rule.family,
            "target": self.rule.target,
            "alpha": self.rule.alpha,
            "psi": self.psi,
            "diagnostics": self.diagnostics.to_dict(),
        }


@dataclass(frozen=True)
class RelativeRiskEstimate:
    """Estimate of theta = psi_target / psi_0 for one rule family."""

    estimator: str
    family: str
    target: int
    alpha: float
    theta: float
    psi_numerator: float
    psi_denominator: float
    iterations: int = 0
    converged: bool = True
    score_residual: float | None = None
    epsilons: tuple[float, ...] = ()

    def to_dict(self) -> dict:
        return {**vars(self), "epsilons": list(self.epsilons)}


# ---------------------------------------------------------------------------
# The four counterfactual-mean estimators


def _check_estimators(estimators) -> None:
    for est in estimators:
        if est not in ESTIMATORS:
            raise ValidationError(f"unknown estimator {est!r}; expected one of {ESTIMATORS}")


def _check_models(estimator: str, rule: Rule, G, M) -> None:
    need_g, need_q = _needs((estimator,), (rule.family,), rule.alpha)
    if need_q and M is None:
        raise ValidationError(f"{estimator} needs a fitted outcome model")
    if need_g and G is None:
        if estimator != "gcomp":
            raise ValidationError(f"{estimator} needs a fitted treatment model")
        raise ValidationError(f"{rule.family} rules with alpha > 0 need a fitted treatment model")


def _psi(estimator: str, ev: _Evaluation) -> CounterfactualEstimate:
    """psi of a known ``estimator`` off the rule's evaluation."""
    table, rule = ev.table, ev.rule
    _check_models(estimator, rule, table.G, table.M)
    rec, n = ev.rec, table.n
    if estimator == "gcomp":
        # The patterns the rule leaves alone give back their outcomes.
        psi = (
            float(table.n_w[rec.rows] @ ev.q_at) + float(table.successes[rec.left].sum())
        ) / n
        return CounterfactualEstimate(
            estimator="gcomp", rule=rule, psi=psi, diagnostics=EstimateDiagnostics(n=n),
        )
    h = ev.h_obs
    epsilon = residual = None
    weights = h
    if estimator == "iptw":
        psi = float(h @ ev.s) / n
    elif estimator == "driptw":
        # Patterns the rule leaves alone carry no weight here; their h = 1
        # and observed level in the plug-in give back their outcome.
        weights = np.where(rec.left[ev.obs], 0.0, h)
        psi = ev.score / n + float(ev.plug @ np.concatenate((ev.q_obs, ev.q_at))) / n
    else:
        # The fluctuation starts from DR-IPTW's Q and score at epsilon = 0.
        epsilon = fit_fluctuation(
            ev.s, h, ev.m_obs, trials=ev.t, n_obs=n, _start=(ev.q_obs, ev.score)
        ).epsilon
        if np.any(ev.g_at <= 0.0):
            level = "the target level" if rule.family == "itt" else "an assigned level"
            raise EstimationError(f"zero treatment probability at {level}")
        h_at = _clever_covariate(rec.ruled[rec.rows], ev.at, ev.at, ev.g_at)
        q = _expit(np.concatenate((ev.m_obs, ev.m_at)) + epsilon * np.concatenate((h, h_at)))
        psi = float(ev.plug @ q) / n
        residual = float(h @ (ev.s - ev.t * q[: h.size])) / n
    n_w, w_min, w_max, w_mean = _weight_summary(weights, ev.t)
    return CounterfactualEstimate(
        estimator=estimator,
        rule=rule,
        psi=psi,
        diagnostics=EstimateDiagnostics(
            n=n, epsilon=epsilon, score_residual=residual, n_weighted=n_w,
            weight_min=w_min, weight_max=w_max, weight_mean=w_mean,
        ),
    )


def estimate_psi(
    estimator: str,
    dataset: Dataset,
    g_model: TreatmentModel | None,
    q_model: OutcomeModel | None,
    rule: Rule,
    *,
    truncate_weights: bool = True,
) -> CounterfactualEstimate:
    """Dispatch to one of the four counterfactual-mean estimators by name.

    The estimate is the rule's one cell of the grid (:func:`_one_cell`).
    Only the models the estimator needs are evaluated: G-computation
    under a static rule (or at ``alpha == 0``) never touches ``g_model``.
    """
    need_g, need_q = _needs((estimator,), (rule.family,), rule.alpha)
    table = _evaluate(dataset, g_model if need_g else None, q_model if need_q else None)
    return _one_cell(
        table, (rule.family, rule.target, estimator, "psi"), g_model, alpha=rule.alpha,
        empty_set_policy=rule.empty_set_policy, truncate_weights=truncate_weights,
    )


def gcomp(
    dataset: Dataset,
    q_model: OutcomeModel,
    rule: Rule,
    g_model: TreatmentModel | None = None,
) -> CounterfactualEstimate:
    """G-computation: average the outcome regression at the assigned levels.

    ``g_model`` is only needed to build feasibility sets (realistic or
    ITT rules with ``alpha > 0``); static rules never touch it.  For ITT
    rules, rows where the target is infeasible keep their observed
    outcome.
    """
    return estimate_psi("gcomp", dataset, g_model, q_model, rule)


def iptw(
    dataset: Dataset,
    g_model: TreatmentModel,
    rule: Rule,
    *,
    truncate_weights: bool = True,
) -> CounterfactualEstimate:
    """IPTW: average ``I(A = d) Y / g(A | W)`` over the sample.

    For ITT rules, rows where the target is infeasible contribute their
    observed outcome with weight one.
    """
    return estimate_psi("iptw", dataset, g_model, None, rule, truncate_weights=truncate_weights)


def driptw(
    dataset: Dataset,
    g_model: TreatmentModel,
    q_model: OutcomeModel,
    rule: Rule,
    *,
    truncate_weights: bool = True,
) -> CounterfactualEstimate:
    """Doubly robust augmented IPTW.

    Adds the weighted outcome-regression residual to the G-computation
    term; consistent when either nuisance model is correct.
    """
    return estimate_psi(
        "driptw", dataset, g_model, q_model, rule, truncate_weights=truncate_weights
    )


def tmle_mean(
    dataset: Dataset,
    g_model: TreatmentModel,
    q_model: OutcomeModel,
    rule: Rule,
    *,
    truncate_weights: bool = True,
) -> CounterfactualEstimate:
    """Targeted substitution estimator of psi = E[Y_d].

    Fits the one-parameter logistic fluctuation of the outcome
    regression along the clever covariate ``I(A = d)/g(A|W)`` (for ITT
    rules, weight one on rows with an infeasible target), then averages
    the updated regression at the assigned levels.  The recorded
    ``score_residual`` is the sample mean of the efficient influence
    curve at the returned estimate, which the fluctuation drives to
    numerical zero.
    """
    return estimate_psi(
        "tmle", dataset, g_model, q_model, rule, truncate_weights=truncate_weights
    )


# ---------------------------------------------------------------------------
# Relative risks


def relative_risk_plugin(
    numerator: CounterfactualEstimate, denominator: CounterfactualEstimate
) -> RelativeRiskEstimate:
    """theta = psi_target / psi_0 from two point estimates of the same estimator."""
    if numerator.estimator != denominator.estimator:
        raise ValidationError("relative risk requires a common estimator")
    if numerator.rule.family != denominator.rule.family:
        raise ValidationError("relative risk requires a common rule family")
    if denominator.rule.target != 0:
        raise ValidationError("the relative-risk denominator is the target-0 rule")
    if abs(denominator.psi) < MIN_PSI_DENOMINATOR:
        raise EstimationError(
            f"denominator psi_0 = {denominator.psi:.3e} is numerically zero"
        )
    return RelativeRiskEstimate(
        estimator=numerator.estimator,
        family=numerator.rule.family,
        target=numerator.rule.target,
        alpha=numerator.rule.alpha,
        theta=numerator.psi / denominator.psi,
        psi_numerator=numerator.psi,
        psi_denominator=denominator.psi,
    )


def _rr_covariates(
    num: _Evaluation, den: _Evaluation, obs: np.ndarray, appendix: bool
) -> tuple[np.ndarray, np.ndarray]:
    """RR-TMLE's two clever covariates at the points: the patterns ``obs``
    at their observed level, then the ruled rows of ``num`` and of
    ``den`` at their assigned levels."""
    table, rec_num, rec_den = num.table, num.rec, den.rec
    g = np.concatenate((table.at_observed(num.G_weights, obs), num.g_at, den.g_at))
    # The assigned-level points: the ruled rows, and the patterns either
    # rule leaves alone, at their observed level.
    left = rec_num.left[obs] | rec_den.left[obs]
    if np.any(g[obs.size :] <= 0.0) or np.any(g[: obs.size][left] <= 0.0):
        raise EstimationError("zero treatment probability at an assigned level")
    rows = np.concatenate((table.w[obs], rec_num.rows, rec_den.rows))
    at = np.concatenate((table.a[obs], num.at, den.at))
    if appendix:
        # Rows with a feasible target get (1 - theta) / psi_0; the others
        # contrast the two realistic rules' covariates.
        real_num, real_den = (
            table.rule(replace(ev.rule, family="realistic")) for ev in (num, den)
        )
        infeasible = ~rec_num.ruled[rows]
        return (
            _clever_covariate(infeasible, at, real_num.d[rows], g),
            _clever_covariate(infeasible, at, real_den.d[rows], g),
        )
    return (
        _clever_covariate(rec_num.ruled[rows], at, rec_num.d[rows], g),
        _clever_covariate(rec_den.ruled[rows], at, rec_den.d[rows], g),
    )


def _rr_tmle(num: _Evaluation, den: _Evaluation, itt_covariate: str) -> RelativeRiskEstimate:
    """RR-TMLE off the evaluations of its two rules, at one denominator."""
    table, rule_num = num.table, num.rule
    family, target, alpha = rule_num.family, rule_num.target, rule_num.alpha
    _check_models("tmle", rule_num, table.G, table.M)
    rec_num, rec_den = num.rec, den.rec
    appendix = family == "itt" and itt_covariate == "appendix"
    # The points: the observed patterns, then each rule's ruled rows at its
    # assigned level, as the two evaluations hold them.  The appendix
    # covariate is nonzero on every pattern with a feasible target, and the
    # plug-ins read every pattern left alone.
    obs = np.flatnonzero(
        np.ones(table.a.size, dtype=bool) if appendix else rec_num.support | rec_den.support
    )
    n0, n1, n = obs.size, rec_num.rows.size, table.n
    h_num, h_den = _rr_covariates(num, den, obs, appendix)
    s0, t0 = table.successes[obs], table.trials[obs]
    plug = np.zeros((2, h_num.size))
    plug[0, :n0] = np.where(rec_num.left[obs], t0, 0.0)
    plug[1, :n0] = np.where(rec_den.left[obs], t0, 0.0)
    plug[0, n0 : n0 + n1] = table.n_w[rec_num.rows]
    plug[1, n0 + n1 :] = table.n_w[rec_den.rows]
    m = table.at_observed(table.M, obs)
    q = np.concatenate((_expit(m), num.q_at, den.q_at))
    m = np.concatenate((m, num.m_at, den.m_at))

    def plugins(q):
        """Plug-ins from ``q = Q`` at every point; the covariate at them
        serves the next step, and its score at them starts that step."""
        psi_num, psi_den = (float(v) / n for v in plug @ q)
        if psi_den < MIN_PSI_DENOMINATOR:
            raise EstimationError(
                f"denominator psi_0 = {psi_den:.3e} is numerically zero"
            )
        theta = psi_num / psi_den
        h = (h_num - theta * h_den) / psi_den
        return theta, psi_num, psi_den, h, float(h[:n0] @ (s0 - t0 * q[:n0]))

    epsilons: list[float] = []
    residual = np.inf
    theta, psi_num, psi_den, h, score = plugins(q)
    # Overflow is silenced in the whole loop, for every ``_bare_expit``.
    with np.errstate(over="ignore"):
        for _ in range(_RR_MAX_ITER):
            eps = fit_fluctuation(
                s0, h[:n0], m[:n0], trials=t0, n_obs=n, _start=(q[:n0], score)
            ).epsilon
            epsilons.append(eps)
            m = m + eps * h
            q = _bare_expit(m)
            theta, psi_num, psi_den, h, score = plugins(q)
            residual = score / n
            if abs(eps) < _RR_EPS_TOL and abs(residual) <= _RR_RESIDUAL_TOL:
                break
        else:
            raise ConvergenceError(
                f"relative-risk targeting did not converge in {_RR_MAX_ITER} iterations "
                f"(last epsilon {epsilons[-1]:.3e}, residual {residual:.3e})",
                trace=epsilons,
            )
    return RelativeRiskEstimate(
        estimator="tmle",
        family=family,
        target=target,
        alpha=alpha,
        theta=theta,
        psi_numerator=psi_num,
        psi_denominator=psi_den,
        iterations=len(epsilons),
        converged=True,
        score_residual=residual,
        epsilons=tuple(epsilons),
    )


def tmle_relative_risk(
    dataset: Dataset,
    g_model: TreatmentModel,
    q_model: OutcomeModel,
    family: str,
    target: int,
    *,
    alpha: float = 0.05,
    empty_set_policy: str = "error",
    truncate_weights: bool = True,
    itt_covariate: str = "delta",
) -> RelativeRiskEstimate:
    """Targeted estimator of theta = psi_target / psi_0 within one rule family.

    Iterates a one-parameter fluctuation whose covariate contrasts the
    target rule against the target-0 rule, scaled by the running
    plug-in estimates (which are refreshed every step).  Stops when the
    last step satisfied ``|epsilon| < 1e-6`` and the mean of the
    ratio-scale estimating function is within ``1e-8``; raises
    :class:`ConvergenceError` with the epsilon trace if 50 steps do not
    get there.  The rule is fixed (``_RR_EPS_TOL``, ``_RR_RESIDUAL_TOL``,
    ``_RR_MAX_ITER``): where targeting stops is part of the estimator.

    For ITT rules two covariates are available: ``itt_covariate="delta"``
    (default) contrasts the two ITT clever covariates, while
    ``"appendix"`` uses the variant that splits rows on feasibility of
    the target and contrasts realistic-rule indicators on the rest.
    """
    table = _evaluate(dataset, g_model, q_model)
    return _one_cell(
        table, (family, target, "tmle", "rr"), g_model, alpha=alpha,
        empty_set_policy=empty_set_policy, truncate_weights=truncate_weights,
        itt_covariate=itt_covariate,
    )


# ---------------------------------------------------------------------------
# The full estimation grid


def _needs(estimators, families, alpha: float) -> tuple[bool, bool]:
    """The nuisance models ``(g, Q)`` that cells of these estimators and
    rule families need.  Every estimator but G-computation weights by
    ``g`` and every one but IPTW reads ``Q``; realistic and ITT rules
    with ``alpha > 0`` need ``g`` for their feasibility sets."""
    need_g = any(e != "gcomp" for e in estimators) or (
        alpha > 0.0 and any(f != "static" for f in families)
    )
    return need_g, any(e != "iptw" for e in estimators)


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _grid(
    table: _Patterns,
    labels,
    g_model: TreatmentModel | None,
    *,
    alpha: float,
    empty_set_policy: str = "error",
    truncate_weights: bool | dict = True,
    itt_covariate: str = "delta",
) -> dict:
    """Each requested ``(family, target, estimator, "psi" | "rr")`` label's
    estimate on a pattern table, or the package error it raised.

    The labels are walked by rule: family by family, and target by target
    within a family, whatever their order.  A family's rules are assigned
    in one pass, and each rule is read once per weight denominator
    (:class:`_Evaluation`) for all of its cells.  Only the current rule's
    evaluations and the family's target-0 ones, which the relative risks
    divide by, are held.  Each psi is computed at most once, also when a
    plug-in relative risk reads it.  TMLE targets its relative risk
    directly; the other estimators take the plug-in ratio.
    ``truncate_weights`` may be a bool or a mapping from estimator name
    to bool.
    """
    if not isinstance(truncate_weights, dict):
        truncate_weights = dict.fromkeys(ESTIMATORS, truncate_weights)
    weights = {True: _weight_scale(table.G, g_model, True), False: table.G}
    out: dict = {}
    held: dict = {}  # (target, truncated) -> the evaluation of the family's rule
    # A kept error drops its traceback: the traceback's frames hold the
    # table, which would then live on in a reference cycle.

    def rule(family: str, target: int) -> Rule:
        return Rule(family=family, target=target, alpha=alpha, empty_set_policy=empty_set_policy)

    def evaluation(rule: Rule, est: str) -> _Evaluation:
        truncate = bool(truncate_weights.get(est, True))
        key = (rule.target, truncate)
        if key not in held:
            held[key] = _Evaluation(table, rule, weights[truncate])
        return held[key]

    def psi(family: str, target: int, est: str):
        label = (family, target, est, "psi")
        if label not in out:
            try:
                r = rule(family, target)
                _check_estimators((est,))
                out[label] = _psi(est, evaluation(r, est))
            except CausalRulesError as exc:
                out[label] = exc.with_traceback(None)
        return out[label]

    def relative_risk(family: str, target: int, est: str):
        try:
            if target == 0:
                raise ValidationError("relative-risk target must differ from the reference level 0")
            if est == "tmle":
                if itt_covariate not in ("delta", "appendix"):
                    raise ValidationError("itt_covariate must be 'delta' or 'appendix'")
                num, den = evaluation(rule(family, target), est), evaluation(rule(family, 0), est)
                return _rr_tmle(num, den, itt_covariate)
            num, den = psi(family, target, est), psi(family, 0, est)
            for part, value in (("numerator", num), ("denominator", den)):
                if isinstance(value, CausalRulesError):
                    raise EstimationError(f"{part} failed: {_describe(value)}")
            return relative_risk_plugin(num, den)
        except CausalRulesError as exc:
            return exc.with_traceback(None)

    by_rule: dict = {}
    for label in labels:
        by_rule.setdefault(label[0], {}).setdefault(label[1], []).append(label)
    for family, by_target in by_rule.items():
        targets = set(by_target)
        if any(label[3] == "rr" for group in by_target.values() for label in group):
            targets.add(0)  # the relative risks' denominator
        rules = []
        for target in targets:
            try:
                r = rule(family, target)
            except CausalRulesError:
                continue  # each of its cells raises the error
            if r.target < table.k:  # the others raise theirs alone
                rules.append(r)
        table.assign_rules(rules)
        for group in by_target.values():
            for key in [key for key in held if key[0] != 0]:
                del held[key]
            for label in group:
                if label[3] == "psi":
                    psi(*label[:3])
            # RR-TMLE reads its two rules at their assigned levels only, and a
            # plug-in ratio reads psi cells, which are kept in ``out``.
            for ev in held.values():
                ev.free_support()
            for label in group:
                if label[3] == "rr":
                    out[label] = relative_risk(*label[:3])
        held.clear()
    return {label: out[label] for label in labels}


def _one_cell(table: _Patterns, label: tuple, g_model: TreatmentModel | None, **options):
    """``label``'s estimate on a pattern table, from a grid of that one
    label (:func:`_grid`, which takes ``options``).  A failed cell raises
    a copy of its kept error, as :meth:`_Patterns.rule` does."""
    value = _grid(table, [label], g_model, **options)[label]
    if isinstance(value, CausalRulesError):
        raise copy.copy(value)
    return value


@dataclass
class SuiteCell:
    """One (family, target, estimator) cell of the estimation grid."""

    family: str
    target: int
    estimator: str
    psi: CounterfactualEstimate | None = None
    psi_error: str | None = None
    rr: RelativeRiskEstimate | None = None
    rr_error: str | None = None
    psi_interval: "IntervalEstimate | None" = None
    psi_interval_error: str | None = None
    rr_interval: "IntervalEstimate | None" = None
    rr_interval_error: str | None = None

    def to_dict(self) -> dict:
        d: dict = {"family": self.family, "target": self.target, "estimator": self.estimator}
        for name in ("psi", "rr", "psi_interval", "rr_interval"):
            value = getattr(self, name)
            d[name] = value.to_dict() if value else None
            d[f"{name}_error"] = getattr(self, f"{name}_error")
        return d


@dataclass
class EstimateReport:
    """Results of the full rule-family x target x estimator grid."""

    cells: list[SuiteCell]
    families: tuple[str, ...]
    targets: tuple[int, ...]
    estimators: tuple[str, ...]
    alpha: float
    metadata: dict = field(default_factory=dict)

    def cell(self, family: str, target: int, estimator: str) -> SuiteCell:
        for c in self.cells:
            if (c.family, c.target, c.estimator) == (family, target, estimator):
                return c
        raise KeyError((family, target, estimator))

    def to_dict(self) -> dict:
        return {
            "families": list(self.families),
            "targets": list(self.targets),
            "estimators": list(self.estimators),
            "alpha": self.alpha,
            "metadata": self.metadata,
            "cells": [c.to_dict() for c in self.cells],
        }

    def rr_table(self) -> tuple[list[str], list[list[str]]]:
        """Relative-risk table: one row per (family, target >= 1), one
        column per estimator, cells formatted ``est (lo, hi)``, or
        ``est (no interval)`` where the bootstrap gave that cell none."""
        header = ["family", "target"] + [ESTIMATOR_LABELS.get(e, e) for e in self.estimators]
        rows = []
        for family in self.families:
            for target in self.targets:
                if target == 0:
                    continue
                row = [family, str(target)]
                for est in self.estimators:
                    cell = self.cell(family, target, est)
                    row.append(_format_rr_cell(cell))
                rows.append(row)
        return header, rows


ESTIMATOR_LABELS = {
    "gcomp": "G-comp",
    "iptw": "IPTW",
    "driptw": "DR-IPTW",
    "tmle": "TMLE",
}


def _format_rr_cell(cell: SuiteCell) -> str:
    if cell.rr is None:
        return "" if cell.rr_error is None else f"error: {cell.rr_error}"
    text = f"{cell.rr.theta:.2f}"
    if cell.rr_interval is not None:
        text += f" ({cell.rr_interval.lower:.2f}, {cell.rr_interval.upper:.2f})"
    elif cell.rr_interval_error is not None:
        text += " (no interval)"
    return text


def estimate_suite(
    dataset: Dataset,
    g_model: TreatmentModel | None,
    q_model: OutcomeModel | None,
    *,
    families: tuple[str, ...] = ("static", "realistic", "itt"),
    targets: tuple[int, ...] | None = None,
    estimators: tuple[str, ...] = ESTIMATORS,
    alpha: float = 0.05,
    empty_set_policy: str = "error",
    truncate_weights: bool | dict = True,
    itt_covariate: str = "delta",
) -> EstimateReport:
    """Estimate psi for every (family, target, estimator) cell plus the
    relative risk of each target against target 0 within the family.

    The models are evaluated once, on the dataset's pattern table
    (:func:`_evaluate`), and every cell is computed from that table; each
    (family, target) rule is assigned once and shared by the cells.
    TMLE relative risks are targeted directly as in
    :func:`tmle_relative_risk`; the other estimators use the plug-in
    ratio.  Per-cell failures are recorded as messages
    instead of aborting the grid.  ``truncate_weights`` may be a bool or
    a mapping from estimator name to bool.
    """
    if targets is None:
        targets = tuple(range(1, dataset.n_treatment_levels))
    _check_estimators(estimators)
    table = _evaluate(dataset, g_model, q_model)
    cells = [SuiteCell(f, t, e) for f in families for e in estimators for t in targets]
    results = _grid(
        table,
        [(c.family, c.target, c.estimator, kind) for c in cells for kind in ("psi", "rr")
         if kind == "psi" or c.target != 0],
        g_model, alpha=alpha, empty_set_policy=empty_set_policy,
        truncate_weights=truncate_weights, itt_covariate=itt_covariate,
    )
    for cell in cells:
        for kind in ("psi", "rr"):
            value = results.get((cell.family, cell.target, cell.estimator, kind))
            if isinstance(value, CausalRulesError):
                setattr(cell, f"{kind}_error", _describe(value))
            elif value is not None:
                setattr(cell, kind, value)
    metadata = {"n": dataset.n, "alpha": alpha}
    if g_model is not None:
        metadata.update(
            {
                "alpha_trunc": g_model.alpha_trunc,
                "g_converged": g_model.info.converged,
                "g_structural_zeros": [[l, f] for l, f in g_model.structural_zeros],
                "g_truncated_cells": int(
                    table.n_w @ np.count_nonzero(table.G < g_model.alpha_trunc, axis=1)
                ),
            }
        )
    if q_model is not None:
        metadata["q_converged"] = q_model.info.converged
    return EstimateReport(
        cells=cells,
        families=tuple(families),
        targets=tuple(targets),
        estimators=tuple(estimators),
        alpha=alpha,
        metadata=metadata,
    )
