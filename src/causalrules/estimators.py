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

Every estimator runs on one pattern table per dataset (``_evaluate``):
the distinct (W, A) rows, each with its outcome successes out of trials.
The estimators, the fluctuation score and the relative-risk residual are
all linear in the outcomes, so a mean over rows is a sum over patterns
weighted by their trials, divided by n.  The models are evaluated once
per dataset, on the distinct W rows only: the raw treatment
probabilities ``G`` and the logit of the outcome regression ``M``, one
column per level.  The distinct W rows are the dataset's one grouping,
shared with the ``g`` and ``Q`` fits, so a dataset's rows are grouped
once however many models and estimators read them.  Each rule's
assignment is computed once per table and shared by every estimator.
Feasibility sets always use the raw probabilities (see ``rules``);
weight denominators use the truncated ones unless
``truncate_weights=False``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
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
    _evaluate_models,
    _expit,
    fit_fluctuation,
    fit_outcome_model,
    fit_treatment_model,
)
from .ingest import Dataset, _distinct_codes
from .rules import Rule, assign

if TYPE_CHECKING:  # pragma: no cover
    from .inference import IntervalEstimate

ESTIMATORS = ("gcomp", "iptw", "driptw", "tmle")

# Below this, a denominator psi_0 is considered degenerate for ratios.
MIN_PSI_DENOMINATOR = 1e-10


# ---------------------------------------------------------------------------
# Nuisance model specification


@dataclass(frozen=True)
class NuisanceSpec:
    """How to fit the nuisance models g(a|W) and Q(a,W) on a dataset.

    ``None`` covariate lists mean "all dataset covariates"; empty tuples
    give intercept-only models.  ``q_interactions`` lists
    (covariate, level) product terms added to the outcome design.
    """

    g_covariates: tuple[str, ...] | None = None
    q_covariates: tuple[str, ...] | None = None
    q_interactions: tuple[tuple[str, int], ...] = ()
    alpha_trunc: float = 0.05

    def fit_g(self, dataset: Dataset) -> TreatmentModel:
        return fit_treatment_model(
            dataset, alpha_trunc=self.alpha_trunc, covariate_names=self.g_covariates
        )

    def fit_q(self, dataset: Dataset) -> OutcomeModel:
        names = dataset.covariate_names if self.q_covariates is None else tuple(self.q_covariates)
        design = OutcomeDesign(
            covariate_names=names,
            n_treatment_levels=dataset.n_treatment_levels,
            interactions=tuple(self.q_interactions),
        )
        return fit_outcome_model(dataset, design)


# ---------------------------------------------------------------------------
# The pattern table shared by every estimator


@dataclass(frozen=True)
class _Patterns:
    """A dataset's distinct (W, A) patterns with its models evaluated on them.

    Pattern ``i`` has level ``a[i]`` and ``successes[i]`` outcomes out
    of ``trials[i]`` rows; ``inverse`` gives the pattern of every input
    row.  ``G`` is the raw ``g(a | W)`` and ``M`` the logit of
    ``Q(a, W)``, one row per pattern and one column per level (None for
    a missing model).
    """

    a: np.ndarray
    successes: np.ndarray
    trials: np.ndarray
    inverse: np.ndarray
    k: int
    G: np.ndarray | None
    M: np.ndarray | None
    _assignments: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return self.inverse.size

    def mean(self, values: np.ndarray) -> float:
        """Mean over rows of a value that is constant within each pattern."""
        return float(self.trials @ values) / self.n

    def assign(self, rule: Rule) -> tuple[np.ndarray, np.ndarray]:
        """Feasibility and assigned level of every pattern under ``rule``.

        Computed once per rule; a rule that cannot be assigned raises a
        copy of its kept error, which has no traceback: a raised error's
        frames hold the table, which would then live on in a cycle.
        """
        hit = self._assignments.get(rule)
        if hit is None:
            try:
                hit = assign(rule, self.G, self.a, self.k, inverse=self.inverse)
            except CausalRulesError as exc:
                hit = exc.with_traceback(None)
            self._assignments[rule] = hit
        if isinstance(hit, CausalRulesError):
            raise copy.copy(hit)
        return hit


def _evaluate(
    dataset: Dataset, g_model: TreatmentModel | None, q_model: OutcomeModel | None
) -> _Patterns:
    """Group a dataset into (W, A) patterns and evaluate the models once.

    The W patterns are the dataset's own grouping, which the ``g`` and
    ``Q`` fits read too.  ``G`` and ``M`` are evaluated on the distinct W
    rows only (:func:`~causalrules.glm._evaluate_models`), then read off
    per pattern.  Every estimator runs on the returned table.
    """
    k = dataset.n_treatment_levels
    w_first, w_index = dataset._w_groups()
    keys, inverse = _distinct_codes(w_index * k + dataset.a, w_first.size * k)
    G, M = (
        None if x is None else x[keys // k]
        for x in _evaluate_models(dataset.w[w_first], dataset.covariate_names, g_model, q_model)
    )
    return _Patterns(
        a=keys % k,
        successes=np.bincount(inverse, weights=dataset.y),
        trials=np.bincount(inverse).astype(float),
        inverse=inverse,
        k=k,
        G=G,
        M=M,
    )


def _weight_scale(G: np.ndarray | None, g_model: TreatmentModel | None, truncate: bool):
    """Probabilities for weight denominators: raw, or floored at ``alpha_trunc``."""
    if G is None or not truncate:
        return G
    return np.maximum(G, g_model.alpha_trunc)


def _clever_covariate(
    ruled: np.ndarray, eval_a: np.ndarray, level, g_eval: np.ndarray
) -> np.ndarray:
    """``I(eval_a = level) / g_eval`` on ruled rows, 1 elsewhere.

    ``ruled`` marks the patterns the rule moves: every pattern for
    static and realistic rules, patterns with a feasible target for ITT
    rules (the others keep their observed level and outcome, with weight
    one).  ``level`` is one level or the per-pattern assigned levels.
    ``eval_a`` and ``g_eval`` may stack several evaluation points, one
    row each, over the patterns.
    """
    match = ruled & (eval_a == level)
    if np.any(g_eval[match] <= 0.0):
        raise EstimationError(
            "zero treatment probability on a matched row; cannot weight by 1/g "
            "(only possible with truncation disabled)"
        )
    out = np.where(np.broadcast_to(ruled, match.shape), 0.0, 1.0)
    out[match] = 1.0 / g_eval[match]
    return out


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
    """Bookkeeping attached to a point estimate."""

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


def _augmented(ruled, h_obs, successes, trials, q_obs, q_assigned) -> np.ndarray:
    """Augmented-IPTW terms summed over each pattern's rows; rows the
    rule leaves alone keep their outcome."""
    return np.where(ruled, h_obs * (successes - trials * q_obs) + trials * q_assigned, successes)


def psi_from_arrays(
    estimator: str,
    rule: Rule,
    table: _Patterns,
    G_weights: np.ndarray | None,
) -> CounterfactualEstimate:
    """One estimate of psi = E[Y_d] from a dataset's pattern table.

    ``table`` holds the distinct (W, A) patterns with their outcome
    successes out of trials, the raw treatment probabilities ``G`` that
    define feasibility and the logit ``M`` of the outcome regression
    (see :func:`_evaluate`); ``G_weights`` are the probabilities used as
    weight denominators, one row per pattern.  Every mean over rows is a
    sum over patterns weighted by their trials, divided by
    ``n = sum(trials)``.
    """
    _check_estimators((estimator,))
    M = table.M
    _check_models(estimator, rule, table.G, M)
    a, s, t, n = table.a, table.successes, table.trials, table.n
    rows = np.arange(a.size)
    member, assigned = table.assign(rule)
    itt = rule.family == "itt"
    ruled = member[:, rule.target] if itt else np.ones(a.size, dtype=bool)
    if estimator == "gcomp":
        psi = float(np.sum(np.where(ruled, t * _expit(M[rows, assigned]), s))) / n
        return CounterfactualEstimate(
            estimator="gcomp", rule=rule, psi=psi, diagnostics=EstimateDiagnostics(n=n),
        )
    h_obs = _clever_covariate(ruled, a, assigned, G_weights[rows, a])
    epsilon = residual = None
    weights = h_obs
    if estimator == "iptw":
        psi = float(h_obs @ s) / n
    elif estimator == "driptw":
        # Rows with an infeasible ITT target carry no weight here.
        weights = np.where(ruled, h_obs, 0.0)
        q_obs, q_assigned = _expit(M[rows, a]), _expit(M[rows, assigned])
        psi = float(np.sum(_augmented(ruled, h_obs, s, t, q_obs, q_assigned))) / n
    else:
        m_obs = M[rows, a]
        epsilon = fit_fluctuation(s, h_obs, m_obs, trials=t).epsilon
        q1_obs = _expit(m_obs + epsilon * h_obs)
        g_assigned = G_weights[rows, assigned]
        if np.any(g_assigned[ruled] <= 0.0):
            at = "the target level" if itt else "an assigned level"
            raise EstimationError(f"zero treatment probability at {at}")
        # Rows the rule leaves alone keep q1_obs; dividing them by one
        # keeps an infeasible ITT target's zero g out of the update.
        q1_assigned = _expit(M[rows, assigned] + epsilon / np.where(ruled, g_assigned, 1.0))
        psi = table.mean(np.where(ruled, q1_assigned, q1_obs))
        residual = float(np.sum(_augmented(ruled, h_obs, s, t, q1_obs, q1_assigned))) / n - psi
    n_w, w_min, w_max, w_mean = _weight_summary(weights, t)
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

    Only the models the estimator needs are evaluated: G-computation
    under a static rule (or at ``alpha == 0``) never touches ``g_model``.
    """
    need_g, need_q = _needs((estimator,), (rule.family,), rule.alpha)
    table = _evaluate(dataset, g_model if need_g else None, q_model if need_q else None)
    return psi_from_arrays(
        estimator, rule, table, _weight_scale(table.G, g_model, truncate_weights)
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


def rr_tmle_from_arrays(
    family: str,
    target: int,
    table: _Patterns,
    G_weights: np.ndarray | None,
    *,
    alpha: float = 0.05,
    empty_set_policy: str = "error",
    eps_tol: float = 1e-6,
    residual_tol: float = 1e-8,
    max_iter: int = 50,
    itt_covariate: str = "delta",
) -> RelativeRiskEstimate:
    """Targeted estimate of theta = psi_target / psi_0 from a dataset's
    pattern table (see :func:`psi_from_arrays` and
    :func:`tmle_relative_risk`).  The plug-ins, the fluctuation and the
    residual are sums over patterns weighted by their trials, divided by
    ``n = sum(trials)``; the two rules' assignments are the table's."""
    if target == 0:
        raise ValidationError("relative-risk target must differ from the reference level 0")
    if itt_covariate not in ("delta", "appendix"):
        raise ValidationError("itt_covariate must be 'delta' or 'appendix'")
    rule_num = Rule(family=family, target=target, alpha=alpha, empty_set_policy=empty_set_policy)
    rule_den = Rule(family=family, target=0, alpha=alpha, empty_set_policy=empty_set_policy)
    M = table.M
    _check_models("tmle", rule_num, table.G, M)
    a, s, t = table.a, table.successes, table.trials
    rows = np.arange(a.size)
    member, d_num = table.assign(rule_num)
    _, d_den = table.assign(rule_den)
    # The three points where the fluctuation is evaluated, one row each:
    # the observed level, the numerator's and the denominator's assignment.
    at = np.stack((a, d_num, d_den))
    g_at, m_at = G_weights[rows, at], M[rows, at]
    if np.any(g_at[1:] <= 0.0):
        raise EstimationError("zero treatment probability at an assigned level")

    # Static and realistic rules move every row; ITT rules only the rows
    # whose target is feasible.
    itt = family == "itt"
    ruled_num = member[:, target] if itt else np.ones(a.size, dtype=bool)
    ruled_den = member[:, 0] if itt else ruled_num
    h_num = _clever_covariate(ruled_num, at, d_num, g_at)
    h_den = _clever_covariate(ruled_den, at, d_den, g_at)
    if itt and itt_covariate == "appendix":
        d_real_num, d_real_den = (
            table.assign(replace(rule, family="realistic"))[1] for rule in (rule_num, rule_den)
        )

        def covariates(theta: float, psi_num: float, psi_den: float) -> np.ndarray:
            realistic_part = (
                (at == d_real_num).astype(float) - theta * (at == d_real_den).astype(float)
            ) / (g_at * psi_den)
            const_part = 1.0 / psi_den - psi_num / psi_den**2
            return np.where(ruled_num, const_part, realistic_part)

    else:

        def covariates(theta: float, psi_num: float, psi_den: float) -> np.ndarray:
            return (h_num - theta * h_den) / psi_den

    def plugins():
        psi_num, psi_den = (table.mean(_expit(m)) for m in m_at[1:])
        if psi_den < MIN_PSI_DENOMINATOR:
            raise EstimationError(
                f"denominator psi_0 = {psi_den:.3e} is numerically zero"
            )
        return psi_num / psi_den, psi_num, psi_den

    epsilons: list[float] = []
    residual = np.inf
    theta, psi_num, psi_den = plugins()
    h = covariates(theta, psi_num, psi_den)
    for _ in range(max_iter):
        eps = fit_fluctuation(s, h[0], m_at[0], trials=t).epsilon
        epsilons.append(eps)
        m_at = m_at + eps * h
        theta, psi_num, psi_den = plugins()
        # The covariate at the new estimates serves the residual and the next step.
        h = covariates(theta, psi_num, psi_den)
        residual = float(h[0] @ (s - t * _expit(m_at[0]))) / table.n
        if abs(eps) < eps_tol and abs(residual) <= residual_tol:
            break
    else:
        raise ConvergenceError(
            f"relative-risk targeting did not converge in {max_iter} iterations "
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
    eps_tol: float = 1e-6,
    residual_tol: float = 1e-8,
    max_iter: int = 50,
    truncate_weights: bool = True,
    itt_covariate: str = "delta",
) -> RelativeRiskEstimate:
    """Targeted estimator of theta = psi_target / psi_0 within one rule family.

    Iterates a one-parameter fluctuation whose covariate contrasts the
    target rule against the target-0 rule, scaled by the running
    plug-in estimates (which are refreshed every step).  Stops when the
    last step satisfied ``|epsilon| < eps_tol`` and the mean of the
    ratio-scale estimating function is within ``residual_tol``; raises
    :class:`ConvergenceError` with the epsilon trace otherwise.

    For ITT rules two covariates are available: ``itt_covariate="delta"``
    (default) contrasts the two ITT clever covariates, while
    ``"appendix"`` uses the variant that splits rows on feasibility of
    the target and contrasts realistic-rule indicators on the rest.
    """
    table = _evaluate(dataset, g_model, q_model)
    return rr_tmle_from_arrays(
        family, target, table, _weight_scale(table.G, g_model, truncate_weights),
        alpha=alpha, empty_set_policy=empty_set_policy, eps_tol=eps_tol,
        residual_tol=residual_tol, max_iter=max_iter, itt_covariate=itt_covariate,
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
    rr_max_iter: int = 50,
) -> dict:
    """Each requested ``(family, target, estimator, "psi" | "rr")`` label's
    estimate on a pattern table, or the package error it raised.

    Each psi is computed at most once, also when a plug-in relative risk
    reads it.  TMLE targets its relative risk directly; the other
    estimators take the plug-in ratio.  ``truncate_weights`` may be a
    bool or a mapping from estimator name to bool.
    """
    if not isinstance(truncate_weights, dict):
        truncate_weights = dict.fromkeys(ESTIMATORS, truncate_weights)
    G_trunc = _weight_scale(table.G, g_model, True)
    weights = {e: G_trunc if truncate_weights.get(e, True) else table.G for e in ESTIMATORS}
    out: dict = {}
    # A kept error drops its traceback: the traceback's frames hold the
    # table, which would then live on in a reference cycle.

    def psi(family: str, target: int, est: str):
        label = (family, target, est, "psi")
        if label not in out:
            try:
                rule = Rule(
                    family=family, target=target, alpha=alpha, empty_set_policy=empty_set_policy
                )
                out[label] = psi_from_arrays(est, rule, table, weights.get(est))
            except CausalRulesError as exc:
                out[label] = exc.with_traceback(None)
        return out[label]

    for family, target, est, kind in labels:
        if kind == "psi":
            psi(family, target, est)
            continue
        try:
            if target == 0:
                raise ValidationError("relative-risk target must differ from the reference level 0")
            if est == "tmle":
                rr = rr_tmle_from_arrays(
                    family, target, table, weights[est], alpha=alpha,
                    empty_set_policy=empty_set_policy, itt_covariate=itt_covariate,
                    max_iter=rr_max_iter,
                )
            else:
                num, den = psi(family, target, est), psi(family, 0, est)
                for part, value in (("numerator", num), ("denominator", den)):
                    if isinstance(value, CausalRulesError):
                        raise EstimationError(f"{part} failed: {_describe(value)}")
                rr = relative_risk_plugin(num, den)
        except CausalRulesError as exc:
            rr = exc.with_traceback(None)
        out[(family, target, est, kind)] = rr
    return {label: out[label] for label in labels}


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
    rr_max_iter: int = 50,
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
        rr_max_iter=rr_max_iter,
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
                    table.trials @ np.count_nonzero(table.G < g_model.alpha_trunc, axis=1)
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
