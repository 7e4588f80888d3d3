"""Logistic and multinomial-logistic regression by Newton-Raphson.

Two nuisance models drive everything downstream:

* the treatment mechanism ``g(a | W)``, a multinomial logit of the
  treatment level on main effects of the covariates, and
* the outcome regression ``Q(a, W) = P(Y = 1 | A = a, W)``, a logistic
  regression on covariate main effects, treatment-level indicators, and
  optional covariate-by-level interactions.

Both fits take a :class:`~causalrules.ingest.Dataset`, whose covariates
are binary, and run on sufficient statistics rather than rows.  The
rows are grouped into distinct covariate patterns with per-level counts
(``g``) and into distinct (covariate, treatment) patterns with successes
out of trials (``Q``), so each Newton iteration costs the number of
patterns, not the number of rows.  The covariate patterns are the
dataset's own grouping, made once per dataset and shared with the
estimators.  Binary covariates make the patterns few: a 20,000-row draw
of the 15-covariate cohort system has about 2,400 distinct covariate
rows.

The ``g`` fit's Fisher information is one product per Newton iteration.
Each of its (level, level) blocks is a weighted sum of the same ``x x^T``
over the distinct rows, so the fit multiplies the blocks' row weights
with the products of every pair of design columns, made once per fit
(136 columns for the cohort's 16).  The covariates are binary, so those
pairs are int8, and they are cast to float 256 rows at a time, so the
fit holds no float array of that width.  The structural zeros are read
off one product too: the indicator of ones of every column against the
level counts.

The ``g`` and ``Q`` fits share one damped Newton driver.  It converges
on the sup-norm of the score (``GTOL``) and damps each step by
one line search: halve up to 40 times and take the first candidate
whose log-likelihood rose or whose score fell.  The fits raise on
perfect separation or singular designs instead of silently returning
garbage, and the module supports two features plain library GLMs do
not: offset-only one-parameter fluctuation fits (the targeting step)
and structural zeros.  The fluctuation's score is
monotone in its one parameter, so it is solved as a scalar root: Newton
steps inside a bracket that shrinks by the sign of the score, with
bisection as the safeguard.  It too takes successes out of trials, so
the estimators can target on distinct patterns.  A structural zero is a
(level, binary feature) cell with no observations; the MLE for that
coefficient diverges to minus infinity, so the fit pins the cell to
probability zero exactly, restricts each row's choice set accordingly,
and flags the pin on the fitted model.

Fitted models are evaluated in one place, :func:`_evaluate_models`, on
covariate rows whose columns have names; :func:`_columns_for` maps such
rows onto a model's covariates.

The logistic function is this module's own ``_expit``, which the
estimators import too, so the package needs numpy alone at run time.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    SeparationError,
    SingularInformationError,
    ValidationError,
)
from .ingest import Dataset, _distinct_codes, _distinct_rows

# Where each solver stops is part of the estimator, so no caller sets it.
# The g and Q fits converge at score sup-norm <= GTOL within MAX_ITER
# Newton steps; the fluctuation at |score| <= FLUCTUATION_GTOL within
# MAX_ITER steps.  Read when a fit runs.
GTOL = 1e-8
MAX_ITER = 100
FLUCTUATION_GTOL = 1e-10
# Beyond this, a binary-design coefficient is treated as diverging.
_SEPARATION_BOUND = 40.0
INTERCEPT_NAME = "(intercept)"


@dataclass(frozen=True)
class FitInfo:
    """Convergence record for a Newton fit."""

    converged: bool
    iterations: int
    grad_norm: float
    loglik: float

    @classmethod
    def from_dict(cls, d: dict) -> "FitInfo":
        """The record a fitted model's ``to_dict`` holds; absent keys take
        the values of an exact model."""
        return cls(
            bool(d.get("converged", True)),
            int(d.get("iterations", 0)),
            float(d.get("grad_norm", 0.0)),
            float(d.get("loglik", 0.0)),
        )


# ---------------------------------------------------------------------------
# Damped Newton: the one convergence policy of the g and Q fits


def _sup_norm(v: np.ndarray) -> float:
    return float(np.max(np.abs(v))) if v.size else 0.0


def _damped_newton(
    evaluate,
    information,
    check_separation,
    dim: int,
    n: int,
    model: str,
) -> tuple[np.ndarray, FitInfo]:
    """Maximise a concave log-likelihood over ``dim`` free parameters from zero.

    The model supplies what differs between fits: ``evaluate(theta)``
    returns ``(state, loglik, score)``, ``information(state)`` the
    Fisher information over the free parameters, and
    ``check_separation(theta)`` raises :class:`SeparationError` when a
    coefficient has passed the separation bound.

    Converges when the score sup-norm is <= ``GTOL`` within ``MAX_ITER``
    Newton steps.  Each step is damped by one line search that halves it
    up to 40 times and takes the first candidate whose log-likelihood
    rose or whose score sup-norm fell.  The second test matters at the
    log-likelihood's machine-precision plateau, where a whole Newton step
    can shrink the score by orders of magnitude while moving the
    log-likelihood by less than one ulp.  When the search finds nothing,
    or the budget runs out, the fit is accepted if the score is below a
    mean of 1e-8 per observation (the summed score grows with n, and so
    does the achievable plateau) and raises :class:`ConvergenceError`
    otherwise.  ``n`` is that number of observations (rows), not the
    number of distinct patterns the likelihood is summed over.
    """
    accept_tol = max(GTOL, 1e-8 * n)
    theta = np.zeros(dim)
    state, ll, score = evaluate(theta)
    gnorm = _sup_norm(score)
    trace: list[float] = []
    for it in range(MAX_ITER):
        trace.append(gnorm)
        if gnorm <= GTOL:
            return theta, FitInfo(True, it, gnorm, ll)
        try:
            step = np.linalg.solve(information(state), score)
        except np.linalg.LinAlgError:
            raise SingularInformationError(
                f"singular information matrix in {model} fit; "
                "design columns are collinear or degenerate"
            ) from None
        scale = 1.0
        for _ in range(40):
            cand = theta + scale * step
            c_state, c_ll, c_score = evaluate(cand)
            c_gnorm = _sup_norm(c_score)
            if c_ll > ll or c_gnorm < gnorm:
                break
            scale *= 0.5
        else:
            if gnorm <= accept_tol:
                return theta, FitInfo(True, it + 1, gnorm, ll)
            raise ConvergenceError(
                f"{model} fit stalled with score sup-norm {gnorm:.3e} > {accept_tol:.1e}",
                trace,
            )
        theta, state, ll, score, gnorm = cand, c_state, c_ll, c_score, c_gnorm
        check_separation(theta)
    if gnorm <= accept_tol:
        return theta, FitInfo(True, MAX_ITER, gnorm, ll)
    raise ConvergenceError(
        f"{model} fit did not converge in {MAX_ITER} iterations "
        f"(score sup-norm {gnorm:.3e})",
        trace,
    )


# ---------------------------------------------------------------------------
# Binary logistic regression


def _expit(x: np.ndarray) -> np.ndarray:
    """The logistic function ``expit(x) = 1 / (1 + exp(-x))``, elementwise.

    Agrees with ``scipy.special.expit`` to 2.3e-16.  Below x = -709.78,
    ``exp(-x)`` overflows to inf and the result is 0 (the true value is
    under 1.4e-308), so the overflow warning is silenced.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _bernoulli_loglik(eta: np.ndarray, y: np.ndarray, trials=1.0) -> float:
    # log P(y | eta) = y*eta - trials*log(1 + exp(eta)), stably; y counts
    # the successes out of trials
    return float(np.sum(y * eta - trials * np.logaddexp(0.0, eta)))


def _fit_binomial(
    X: np.ndarray,
    successes: np.ndarray,
    trials: np.ndarray,
    n: int,
    feature_names: tuple[str, ...],
) -> tuple[np.ndarray, FitInfo]:
    """Logistic regression of ``successes`` out of ``trials`` on the
    distinct design rows ``X``; ``n`` is the number of rows they stand for."""

    def evaluate(beta):
        eta = X @ beta
        p = _expit(eta)
        return p, _bernoulli_loglik(eta, successes, trials), X.T @ (successes - trials * p)

    def information(p):
        return (X * (trials * p * (1.0 - p))[:, None]).T @ X

    def check_separation(beta):
        if np.any(np.abs(beta) > _SEPARATION_BOUND):
            j = int(np.argmax(np.abs(beta)))
            raise SeparationError(
                f"perfect separation: coefficient for {feature_names[j]!r} diverges",
                feature=feature_names[j],
            )

    return _damped_newton(evaluate, information, check_separation, X.shape[1], n, "logistic")


@dataclass(frozen=True)
class _FluctuationInfo:
    """A fluctuation fit's convergence record, read like :class:`FitInfo`
    but without a log-likelihood, which no estimate reads."""

    converged: bool
    iterations: int
    grad_norm: float


@dataclass(frozen=True)
class FluctuationFit:
    """One-parameter logistic fluctuation fitted with a fixed offset.

    The model is ``logit P(Y=1) = offset + epsilon * h``; ``epsilon`` is
    the MLE.  ``h`` identically zero yields ``epsilon = 0`` exactly.
    """

    epsilon: float
    info: _FluctuationInfo


def fit_fluctuation(
    y: np.ndarray,
    h: np.ndarray,
    offset: np.ndarray,
    trials: np.ndarray | None = None,
    n_obs: float | None = None,
) -> FluctuationFit:
    """Fit the targeting fluctuation: logistic in ``h`` with no intercept.

    ``y`` counts the successes out of ``trials`` at each entry (one trial
    each when ``trials`` is None), so distinct patterns with their counts
    give the same fit as the rows they stand for.  ``epsilon`` is the
    root of the score ``s(e) = h . (y - trials * expit(offset + e h))``,
    which strictly decreases in ``e``.  The root is found by
    Newton steps inside a bracket that starts at ``+-40`` and shrinks by
    the sign of ``s`` at every iterate; a step that would leave the
    bracket, or one taken from an iterate where ``|s|`` did not fall, is
    replaced by bisection.  Converges at ``|s| <= FLUCTUATION_GTOL``
    (1e-10, tight so that downstream substitution estimators solve their
    estimating equation to near machine precision) within ``MAX_ITER``
    steps.  When the bracket collapses to float resolution first, the fit
    is accepted only if the mean score per observation is already below
    1e-8, where the number of observations is ``n_obs``, by default
    ``sum(trials)``.  Entries with ``h = 0`` change neither the score nor
    its slope, so a caller may leave them out and pass the number of
    observations they all stand for as ``n_obs``.  A root beyond ``+-40``
    raises :class:`SeparationError`.

    Known limit: where ``h`` weights only entries whose outcomes are all
    or nearly all successes, ``s`` is flat where it meets the tolerance
    (with all successes it only decays towards 0 as epsilon grows), so a
    wide interval of epsilons meets it and the fit stops anywhere in it.
    The same data as distinct patterns and as rows can then give
    epsilons about 1e-5 apart; in the test example (an interval over
    2e-4 wide) the TMLE estimates made from them agree to 1e-12.
    """
    y = np.asarray(y, dtype=float)
    h = np.asarray(h, dtype=float)
    offset = np.asarray(offset, dtype=float)
    if not (y.shape == h.shape == offset.shape):
        raise ValidationError("y, h, and offset must have matching shapes")
    if trials is None:
        t, n = 1.0, y.size
    else:
        t = np.asarray(trials, dtype=float)
        if t.shape != y.shape:
            raise ValidationError("trials must match the shape of y")
        n = float(t.sum())
    if n_obs is not None:
        n = n_obs
    if np.all(h == 0.0):
        return FluctuationFit(0.0, _FluctuationInfo(True, 0, 0.0))
    accept_tol = max(FLUCTUATION_GTOL, 1e-8 * n)
    lo, hi = -_SEPARATION_BOUND, _SEPARATION_BOUND
    eps, last = 0.0, math.inf
    trace: list[float] = []
    for it in range(MAX_ITER):
        p = _expit(offset + eps * h)
        score = float(h @ (y - t * p))
        trace.append(abs(score))
        if abs(score) <= FLUCTUATION_GTOL:
            break
        if score > 0.0:
            lo = eps
        else:
            hi = eps
        info = float((h * (t * p * (1.0 - p))) @ h)
        nxt = eps + score / info if info > 0.0 else math.nan
        # A Newton update below float resolution (nxt == eps) goes straight
        # to the collapse test; any other step bisects when it would leave
        # the bracket or when this iterate did not reduce |s|.
        if nxt != eps and (not lo < nxt < hi or abs(score) >= last):
            nxt = 0.5 * (lo + hi)
        if not lo < nxt < hi:
            # The bracket has collapsed to float resolution around eps; if
            # eps sits against a bound and s points outward, the root
            # lies beyond it.
            if abs(eps) >= math.nextafter(_SEPARATION_BOUND, 0.0) and score * eps > 0.0:
                raise SeparationError(
                    "perfect separation: coefficient for 'h' diverges", feature="h"
                )
            if abs(score) <= accept_tol:
                break
            raise ConvergenceError(
                f"fluctuation fit stalled with score {abs(score):.3e} > {accept_tol:.1e}",
                trace,
            )
        eps, last = nxt, abs(score)
    else:
        raise ConvergenceError(
            f"fluctuation fit did not converge in {MAX_ITER} iterations "
            f"(score {trace[-1]:.3e})",
            trace,
        )
    return FluctuationFit(eps, _FluctuationInfo(True, it, trace[-1]))


# ---------------------------------------------------------------------------
# Outcome regression Q(a, W)


@dataclass(frozen=True)
class OutcomeDesign:
    """Feature map for the outcome regression.

    Columns: intercept, covariate main effects, indicator columns for
    treatment levels ``1..K-1`` (level 0 is the reference), and optional
    ``(covariate, level)`` interaction columns.
    """

    covariate_names: tuple[str, ...]
    n_treatment_levels: int = 6
    interactions: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "covariate_names", tuple(self.covariate_names))
        inters = tuple((str(c), int(l)) for c, l in self.interactions)
        for cov, level in inters:
            if cov not in self.covariate_names:
                raise ValidationError(f"interaction covariate {cov!r} not in design")
            if not 1 <= level < self.n_treatment_levels:
                raise ValidationError(
                    f"interaction level {level} outside 1..{self.n_treatment_levels - 1}"
                )
        object.__setattr__(self, "interactions", inters)

    @property
    def column_names(self) -> tuple[str, ...]:
        names = [INTERCEPT_NAME]
        names += list(self.covariate_names)
        names += [f"A={l}" for l in range(1, self.n_treatment_levels)]
        names += [f"{c}:A={l}" for c, l in self.interactions]
        return tuple(names)

    def matrix(self, a, w: np.ndarray) -> np.ndarray:
        """Design rows for treatment ``a`` (scalar or length-n vector) and covariates ``w``."""
        w = np.asarray(w, dtype=float)
        if w.ndim == 1:
            w = w[None, :]
        n = w.shape[0]
        if w.shape[1] != len(self.covariate_names):
            raise ValidationError("covariate matrix width does not match design")
        a_vec = np.broadcast_to(np.asarray(a, dtype=np.int64), (n,))
        cols = [np.ones(n), *(w[:, j] for j in range(w.shape[1]))]
        cols += [(a_vec == l).astype(float) for l in range(1, self.n_treatment_levels)]
        name_index = {c: j for j, c in enumerate(self.covariate_names)}
        cols += [w[:, name_index[c]] * (a_vec == l) for c, l in self.interactions]
        return np.column_stack(cols)


@dataclass(frozen=True)
class OutcomeModel:
    """Fitted outcome regression ``Q(a, W)``."""

    design: OutcomeDesign
    coef: np.ndarray
    info: FitInfo

    def linear_predictor(self, a, w: np.ndarray) -> np.ndarray:
        """``m(a, W) = logit Q(a, W)`` for scalar or per-row ``a``."""
        return self.design.matrix(a, w) @ self.coef

    def predict(self, a, w: np.ndarray) -> np.ndarray:
        return _expit(self.linear_predictor(a, w))

    def to_dict(self) -> dict:
        return {
            "kind": "outcome",
            "covariate_names": list(self.design.covariate_names),
            "n_treatment_levels": self.design.n_treatment_levels,
            "interactions": [list(t) for t in self.design.interactions],
            "coef": [float(c) for c in self.coef],
            **vars(self.info),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "OutcomeModel":
        design = OutcomeDesign(
            covariate_names=tuple(d["covariate_names"]),
            n_treatment_levels=int(d["n_treatment_levels"]),
            interactions=tuple((c, int(l)) for c, l in d.get("interactions", [])),
        )
        coef = np.asarray(d["coef"], dtype=float)
        if coef.shape != (len(design.column_names),):
            raise ValidationError(
                f"outcome coef has shape {coef.shape}, expected ({len(design.column_names)},)"
            )
        return cls(design=design, coef=coef, info=FitInfo.from_dict(d))


def _columns_for(w: np.ndarray, have: tuple[str, ...], want: tuple[str, ...]) -> np.ndarray:
    """The columns ``want`` of covariate rows ``w`` whose columns are
    ``have``, in ``want`` order; ``w`` itself when the names agree."""
    have, want = tuple(have), tuple(want)
    if have == want:
        return w
    missing = [c for c in want if c not in have]
    if missing:
        raise ValidationError(f"model covariates not in the data: {missing}")
    return w[:, [have.index(c) for c in want]]


def _evaluate_models(
    w: np.ndarray, names: tuple[str, ...], g_model: TreatmentModel | None,
    q_model: OutcomeModel | None,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Raw ``g(a | W)`` and logit ``Q(a, W)`` on covariate rows ``w`` whose
    columns are ``names``: ``(m, K)`` arrays, one column per level, or
    None for an absent model."""
    G = M = None
    if g_model is not None:
        G = g_model.predict_raw(_columns_for(w, names, g_model.covariate_names))
    if q_model is not None:
        w_q = _columns_for(w, names, q_model.design.covariate_names)
        levels = range(q_model.design.n_treatment_levels)
        M = np.column_stack([q_model.linear_predictor(l, w_q) for l in levels])
    return G, M


def _covariate_patterns(dataset: Dataset, names: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of the covariates ``names``, in byte order, and the
    pattern of every row of the dataset.

    Read off the dataset's one grouping (``Dataset._w_groups``).  A
    covariate subset regroups the distinct rows rather than the rows;
    byte order is kept, so the patterns come out as :func:`_distinct_rows`
    would give them on all the rows.
    """
    w = _columns_for(dataset.w, dataset.covariate_names, names)
    first, inverse = dataset._w_groups()
    if w is dataset.w:
        return w[first], inverse
    sub_first, sub_inverse = _distinct_rows(w[first])
    return w[first[sub_first]], sub_inverse[inverse]


def fit_outcome_model(dataset: Dataset, design: OutcomeDesign | None = None) -> OutcomeModel:
    """Fit ``Q(a, W)`` on a dataset; default design is main effects plus level indicators.

    The fit runs on the distinct (W, A) rows, each with its outcome
    successes out of trials; only those rows get a design row.  The W
    patterns are the dataset's own grouping (:func:`_covariate_patterns`).
    The acceptance rule of :func:`_damped_newton` still counts every row
    of the dataset.  A treatment level with no rows leaves its indicator
    unidentified, so it raises :class:`SingularInformationError` naming
    the levels before any Newton step.
    """
    if design is None:
        design = OutcomeDesign(
            covariate_names=dataset.covariate_names,
            n_treatment_levels=dataset.n_treatment_levels,
        )
    elif design.n_treatment_levels != dataset.n_treatment_levels:
        raise ValidationError("design and dataset disagree on the number of treatment levels")
    k = dataset.n_treatment_levels
    absent = np.flatnonzero(np.bincount(dataset.a, minlength=k) == 0).tolist()
    if absent:
        raise SingularInformationError(
            f"treatment levels {absent} have no rows; the outcome model cannot "
            "estimate their indicators"
        )
    w, w_index = _covariate_patterns(dataset, design.covariate_names)
    keys, inverse = _distinct_codes(w_index * k + dataset.a, w.shape[0] * k)
    coef, fit_info = _fit_binomial(
        design.matrix(keys % k, w[keys // k]),
        np.bincount(inverse, weights=dataset.y),
        np.bincount(inverse).astype(float),
        dataset.n, design.column_names,
    )
    return OutcomeModel(design=design, coef=coef, info=fit_info)


# ---------------------------------------------------------------------------
# Treatment mechanism g(a | W): multinomial logit with structural zeros


def _detect_structural_zeros(X: np.ndarray, counts: np.ndarray) -> list[tuple[int, int]]:
    """Empty (level, column) margin cells; the MLE pins these to -inf.

    ``X`` holds distinct rows of a binary design and ``counts[i, l]`` the
    number of observations of level ``l`` at row ``i``.  Column 0 is the
    intercept, so a level observed nowhere pins on column 0 and needs no
    further pins.  Every column's seen levels come from one product of
    its indicator of ones with the counts (the intercept sees every
    observed level, so it adds no pin); only columns with a one somewhere
    define margin cells.  The pins come column by column, levels
    ascending within a column.
    """
    level_absent = counts.sum(axis=0) == 0
    ones = X == 1.0
    empty = ones.any(axis=0)[:, None] & ((ones.T @ counts) == 0) & ~level_absent
    pins = [(l, 0) for l in np.flatnonzero(level_absent).tolist()]
    return pins + [(l, c) for c, l in np.argwhere(empty).tolist()]


def _support_matrix(X: np.ndarray, pins: list[tuple[int, int]], k_levels: int) -> np.ndarray:
    n = X.shape[0]
    support = np.ones((n, k_levels), dtype=bool)
    for l, c in pins:
        support[X[:, c] == 1.0, l] = False
    return support


def _multinomial_probs(
    X: np.ndarray, B: np.ndarray, support: np.ndarray
) -> np.ndarray:
    """Row-wise probabilities of a multinomial logit restricted to ``support``.

    Worked level by level on a ``(K, n)`` array, so that every step is an
    elementwise operation over all rows: the row maximum is K-1 pairwise
    maxima, and the normaliser adds the levels left to right, the order
    in which numpy sums a row of K columns.  The result is the row-wise
    form's bit for bit, returned in row order.
    """
    levels = support.T
    supported = levels[0].copy()
    for row in levels[1:]:
        supported |= row
    if not supported.all():
        raise ValidationError("a covariate row has no supported treatment level")
    eta = np.empty(levels.shape)
    eta[0] = 0.0
    eta[1:] = (X @ B.T).T
    eta[~levels] = -np.inf
    top = eta[0].copy()
    for row in eta[1:]:
        np.maximum(top, row, out=top)
    eta -= top
    np.exp(eta, out=eta)
    total = eta[0].copy()
    for row in eta[1:]:
        total += row
    eta /= total
    return np.ascontiguousarray(eta.T)


@dataclass(frozen=True)
class TreatmentModel:
    """Fitted treatment mechanism ``g(a | W)``.

    ``coef`` has one row per non-reference level (1..K-1) over columns
    ``(intercept, covariates...)``.  ``structural_zeros`` lists the
    (level, feature name) cells pinned to probability zero; pinned
    entries of ``coef`` are stored as ``-inf``.  ``predict_raw`` returns
    the untruncated probabilities, which sum to one in every row
    (structurally zero cells are exactly zero).  The estimators floor
    them at ``alpha_trunc`` where they weight by ``1/g``.
    """

    covariate_names: tuple[str, ...]
    n_treatment_levels: int
    coef: np.ndarray
    structural_zeros: tuple[tuple[int, str], ...]
    alpha_trunc: float
    info: FitInfo

    @property
    def feature_names(self) -> tuple[str, ...]:
        return (INTERCEPT_NAME,) + tuple(self.covariate_names)

    def _pin_columns(self) -> list[tuple[int, int]]:
        names = self.feature_names
        return [(l, names.index(f)) for l, f in self.structural_zeros]

    def _design(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        if w.ndim == 1:
            w = w[None, :]
        if w.shape[1] != len(self.covariate_names):
            raise ValidationError("covariate matrix width does not match treatment model")
        return np.column_stack([np.ones(w.shape[0]), w])

    def predict_raw(self, w: np.ndarray) -> np.ndarray:
        """Untruncated ``(n, K)`` probabilities; rows sum to one."""
        X = self._design(w)
        B = np.where(np.isfinite(self.coef), self.coef, 0.0)
        support = _support_matrix(X, self._pin_columns(), self.n_treatment_levels)
        return _multinomial_probs(X, B, support)

    def to_dict(self) -> dict:
        coef = [[None if not math.isfinite(v) else float(v) for v in row] for row in self.coef]
        return {
            "kind": "treatment",
            "covariate_names": list(self.covariate_names),
            "n_treatment_levels": self.n_treatment_levels,
            "coef": coef,
            "structural_zeros": [[int(l), f] for l, f in self.structural_zeros],
            "alpha_trunc": self.alpha_trunc,
            **vars(self.info),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TreatmentModel":
        names = tuple(d["covariate_names"])
        k = int(d["n_treatment_levels"])
        rows = [[-np.inf if v is None else float(v) for v in row] for row in d["coef"]]
        if len(rows) != k - 1 or any(len(row) != 1 + len(names) for row in rows):
            raise ValidationError(
                f"treatment coef is not {k - 1} rows of {1 + len(names)} coefficients"
            )
        return cls(
            covariate_names=names,
            n_treatment_levels=k,
            coef=np.array(rows, dtype=float),
            structural_zeros=tuple((int(l), f) for l, f in d.get("structural_zeros", [])),
            alpha_trunc=float(d["alpha_trunc"]),
            info=FitInfo.from_dict(d),
        )


# Rows of the column pairs cast to float at a time by the information.
_PAIR_CHUNK = 256


def _column_pairs(w: np.ndarray) -> np.ndarray:
    """Products ``X[:, a] * X[:, b]`` of every pair ``a <= b`` of columns of
    the design ``X = [1, w]``, in :func:`numpy.triu_indices` order, in
    int8 like the binary covariates ``w`` of a dataset."""
    X = np.column_stack([np.ones(w.shape[0], dtype=np.int8), w])
    q = X.shape[1]
    pairs = np.empty((X.shape[0], q * (q + 1) // 2), dtype=np.int8)
    start = 0
    for a in range(q):
        np.multiply(X[:, a : a + 1], X[:, a:], out=pairs[:, start : start + q - a])
        start += q - a
    return pairs


def _multinomial_information(
    w: np.ndarray, totals: np.ndarray, free: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """The Fisher information of the multinomial logit on the distinct
    covariate rows ``w``, restricted to the ``free`` (level 1..K-1,
    design column) coefficients, as a function of the ``(m, K)``
    probabilities at the rows; ``totals`` counts the observations of each row.

    The information is ``sum_i totals_i (diag p_i - p_i p_i^T) (x) x_i x_i^T``
    over the non-reference levels (Boehning 1992, Ann. Inst. Stat. Math.
    44(1)), so its ``(l, m)`` block is ``sum_i totals_i p_il (d_lm - p_im)
    x_i x_i^T``: every block is a weighted sum of the same ``x x^T``.  One
    product of the blocks' row weights with the products of every pair
    of design columns (:func:`_column_pairs`) gives every block, and each
    entry is read off its block's row and its column pair.  The pairs
    are made once per fit; the weights are formed, and the pairs cast to
    float, ``_PAIR_CHUNK`` rows at a time, so no float array of
    ``m x q(q+1)/2`` is ever held.
    """
    pairs = _column_pairs(w)
    q = w.shape[1] + 1
    levels = free.shape[0]
    col_a, col_b = np.triu_indices(q)
    pair_of = np.empty((q, q), dtype=np.intp)
    pair_of[col_a, col_b] = pair_of[col_b, col_a] = np.arange(col_a.size)
    lev_l, lev_m = np.triu_indices(levels)
    block_of = np.empty((levels, levels), dtype=np.intp)
    block_of[lev_l, lev_m] = block_of[lev_m, lev_l] = np.arange(lev_l.size)
    # The free coefficients in row-major (level, column) order, as the
    # score lists them.
    lev, col = np.nonzero(free)
    entry = block_of[np.ix_(lev, lev)] * col_a.size + pair_of[np.ix_(col, col)]
    same = lev_l == lev_m

    def information(probs):
        blocks = np.zeros((lev_l.size, col_a.size))
        for s in range(0, pairs.shape[0], _PAIR_CHUNK):
            rows = slice(s, s + _PAIR_CHUNK)
            p = probs[rows, 1:]
            weights = totals[rows, None] * p[:, lev_l] * (same - p[:, lev_m])
            blocks += weights.T @ pairs[rows].astype(float, copy=False)
        return blocks.ravel()[entry]

    return information


def _fit_multinomial(
    w: np.ndarray,
    inverse: np.ndarray,
    a: np.ndarray,
    k_levels: int,
    covariate_names: tuple[str, ...],
    alpha_trunc: float,
) -> TreatmentModel:
    """A main-effects multinomial logit of treatment level on the distinct
    binary covariate rows ``w``, where ``inverse`` gives the row of ``w``
    of each observation and ``a`` its level (see :func:`fit_treatment_model`)."""
    if not 0.0 <= alpha_trunc < 1.0:
        raise ValidationError("alpha_trunc must lie in [0, 1)")
    n = a.size
    m, p = w.shape
    X = np.column_stack([np.ones(m), np.asarray(w, dtype=float)])
    counts = np.bincount(inverse * k_levels + a, minlength=m * k_levels)
    counts = counts.reshape(m, k_levels).astype(float)
    if not counts[:, 0].any():
        raise SingularInformationError(
            "treatment level 0 has no rows; it is the treatment model's reference "
            "level, so the other levels' coefficients are not identified"
        )
    totals = counts.sum(axis=1)
    observed = np.flatnonzero(counts)
    observed_counts = counts.ravel()[observed]
    q = p + 1
    names = (INTERCEPT_NAME,) + covariate_names
    pins = _detect_structural_zeros(X, counts)
    # Drop pins made redundant by an absent level (pinned on the intercept).
    absent = {l for l, c in pins if c == 0}
    pins = [(l, c) for l, c in pins if c == 0 or l not in absent]
    support = _support_matrix(X, pins, k_levels)
    if counts[~support].any():
        raise ValidationError("observed treatment level conflicts with a structural zero")
    free = np.ones((k_levels - 1, q), dtype=bool)
    for l, c in pins:
        if l >= 1:
            if c == 0:
                # Level never observed: the whole coefficient row is
                # unidentified (its probabilities are zero everywhere).
                free[l - 1, :] = False
            else:
                free[l - 1, c] = False
    free_flat = free.ravel()

    def coefficients(theta):
        B = np.zeros((k_levels - 1, q))
        B[free] = theta
        return B

    def evaluate(theta):
        probs = _multinomial_probs(X, coefficients(theta), support)
        score = (X.T @ (counts[:, 1:] - totals[:, None] * probs[:, 1:])).T.ravel()[free_flat]
        return probs, float(np.sum(observed_counts * np.log(probs.ravel()[observed]))), score

    information = _multinomial_information(w, totals, free)

    def check_separation(theta):
        mags = np.abs(coefficients(theta))
        if mags.max() > _SEPARATION_BOUND:
            l_bad, c_bad = np.unravel_index(int(np.argmax(mags)), mags.shape)
            raise SeparationError(
                f"perfect separation: coefficient for level {l_bad + 1}, "
                f"feature {names[c_bad]!r} diverges",
                feature=names[c_bad],
                level=int(l_bad + 1),
            )

    theta, fit_info = _damped_newton(
        evaluate, information, check_separation, int(free.sum()), n, "multinomial"
    )
    coef = coefficients(theta)
    for l, c in pins:
        if l >= 1:
            coef[l - 1, c] = -np.inf
    return TreatmentModel(
        covariate_names=covariate_names,
        n_treatment_levels=k_levels,
        coef=coef,
        structural_zeros=tuple((l, names[c]) for l, c in pins),
        alpha_trunc=alpha_trunc,
        info=fit_info,
    )


def fit_treatment_model(
    dataset: Dataset,
    alpha_trunc: float = 0.05,
    covariate_names: tuple[str, ...] | None = None,
) -> TreatmentModel:
    """Fit ``g(a | W)`` on a dataset, optionally on a covariate subset.

    A main-effects multinomial logit of treatment level on the
    covariates.  ``covariate_names=()`` fits an intercept-only model
    (empirical level frequencies).  Empty (level, feature) margin cells,
    including treatment levels that never occur at all, are structural
    zeros: their probabilities are estimated as exactly zero and flagged
    on the returned model rather than sent diverging.  Level 0 is the
    reference level, so a sample without it raises
    :class:`SingularInformationError` before any Newton step.  Genuine
    separation elsewhere raises :class:`SeparationError` naming the level
    and feature.

    The free coefficients are fitted by :func:`_damped_newton`, which
    stops by ``GTOL`` and ``MAX_ITER``, on the dataset's own grouping of
    its covariate rows (:func:`_covariate_patterns`), each with its count
    of every level, so the fit's cost follows the number of covariate
    patterns.
    """
    if covariate_names is None:
        covariate_names = dataset.covariate_names
    else:
        covariate_names = tuple(covariate_names)
    w, inverse = _covariate_patterns(dataset, covariate_names)
    return _fit_multinomial(
        w, inverse, dataset.a, dataset.n_treatment_levels, covariate_names, alpha_trunc
    )


# ---------------------------------------------------------------------------
# Model bundle serialization (used by the CLI's fit/simulate round trip)


def save_models(path, treatment: TreatmentModel, outcome: OutcomeModel, meta: dict | None = None) -> None:
    bundle = {
        "treatment": treatment.to_dict(),
        "outcome": outcome.to_dict(),
        "meta": dict(meta or {}),
    }
    with open(path, "w") as fh:
        json.dump(bundle, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_models(path) -> tuple[TreatmentModel, OutcomeModel, dict]:
    try:
        with open(path) as fh:
            bundle = json.load(fh)
        treatment = TreatmentModel.from_dict(bundle["treatment"])
        outcome = OutcomeModel.from_dict(bundle["outcome"])
        if outcome.design.n_treatment_levels != treatment.n_treatment_levels:
            raise ValidationError("the two models disagree on the number of treatment levels")
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise ValidationError(f"{path}: malformed model bundle ({exc})") from None
    return treatment, outcome, bundle.get("meta", {})
