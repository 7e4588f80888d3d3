"""Nonparametric bootstrap confidence intervals.

The resampling unit is the subject: each replicate draws n rows with
replacement, refits the models the requested cells need on the
replicate, and recomputes the requested statistics.  Replicates are
seeded from independent spawned streams of one root seed, so results
are reproducible and independent of evaluation order.  Replicates that fail
(separation on a resample, infeasible rule, ...) are dropped and
counted; more than 1% dropped warns, more than 10% raises.

Intervals are percentile by default; ``interval="normal"`` uses the
point estimate plus/minus a normal quantile times the replicate
standard deviation.  The quantile comes from the standard library's
``statistics.NormalDist``, so the package needs no scipy at run time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import CausalRulesError, EstimationError, ValidationError
from .estimators import (
    EstimateReport,
    NuisanceSpec,
    RelativeRiskEstimate,
    Rule,
    _describe,
    _evaluate,
    _grid,
    _needs,
)
from .ingest import Dataset

INTERVAL_METHODS = ("percentile", "normal")


def _check_count(value, what: str, least: int) -> None:
    """Raise a ValidationError unless ``value``, a replicate count or a
    seed, is an integer (a numpy one included) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(f"{what} must be >= {least}")


@dataclass(frozen=True)
class BootstrapConfig:
    """Bootstrap settings: replicate count, seed, interval type, level."""

    replicates: int = 1000
    seed: int = 0
    interval: str = "percentile"
    level: float = 0.95

    def __post_init__(self):
        _check_count(self.replicates, "bootstrap replicates", 1)
        _check_count(self.seed, "bootstrap seed", 0)
        if self.interval not in INTERVAL_METHODS:
            raise ValidationError(
                f"interval must be one of {INTERVAL_METHODS}, got {self.interval!r}"
            )
        if not 0.0 < self.level < 1.0:
            raise ValidationError("confidence level must lie in (0, 1)")


@dataclass(frozen=True)
class IntervalEstimate:
    """A point estimate with a bootstrap confidence interval."""

    point: float
    lower: float
    upper: float
    level: float
    method: str
    b_effective: int
    n_failed: int
    point_within: bool

    def to_dict(self) -> dict:
        return dict(vars(self))


def seeded_resample(n: int, rng: np.random.Generator) -> np.ndarray:
    """n row indices drawn uniformly with replacement."""
    if n < 1:
        raise ValidationError("cannot resample an empty dataset")
    return rng.integers(0, n, size=n)


def replicate_streams(seed: int, replicates: int) -> list[np.random.Generator]:
    """One independent generator per replicate, spawned from a root seed."""
    root = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in root.spawn(replicates)]


def interval_from_replicates(
    values: np.ndarray,
    point: float,
    level: float = 0.95,
    method: str = "percentile",
) -> IntervalEstimate:
    """Build an interval from finite replicate values of one statistic.

    ``level`` must lie in (0, 1) and ``method`` be one of
    ``INTERVAL_METHODS``; either is checked before any work, with the
    :class:`ValidationError` that :class:`BootstrapConfig` raises.
    """
    if method not in INTERVAL_METHODS:
        raise ValidationError(f"interval must be one of {INTERVAL_METHODS}, got {method!r}")
    if not 0.0 < level < 1.0:
        raise ValidationError("confidence level must lie in (0, 1)")
    values = np.asarray(values, dtype=float)
    finite = values[np.isfinite(values)]
    n_failed = int(values.size - finite.size)
    if finite.size == 0:
        raise EstimationError("no successful bootstrap replicates")
    if method == "percentile":
        tail = (1.0 - level) / 2.0
        lower, upper = np.quantile(finite, [tail, 1.0 - tail])
    else:
        z = NormalDist().inv_cdf(1.0 - (1.0 - level) / 2.0)
        sd = float(finite.std(ddof=1)) if finite.size > 1 else 0.0
        lower, upper = point - z * sd, point + z * sd
    return IntervalEstimate(
        point=float(point),
        lower=float(lower),
        upper=float(upper),
        level=level,
        method=method,
        b_effective=int(finite.size),
        n_failed=n_failed,
        point_within=bool(lower <= point <= upper),
    )


def _check_failures(
    n_failed: int, replicates: int, noun: str, stacklevel: int, where: str = ""
) -> None:
    """Raise when more than 10% of the ``noun`` replicates failed, warn above 1%.

    Both messages end in ``where``, which names the setting counted.  The
    warning points at the caller of the public entry, ``stacklevel`` up.
    """
    if n_failed > 0.10 * replicates:
        raise EstimationError(
            f"{n_failed} of {replicates} {noun} replicates failed (> 10%){where}"
        )
    if n_failed > 0.01 * replicates:
        warnings.warn(
            f"{n_failed} of {replicates} {noun} replicates failed and were dropped{where}",
            stacklevel=stacklevel,
        )


def bootstrap_statistics(
    dataset: Dataset,
    stat_fn,
    config: BootstrapConfig,
    n_stats: int,
    *, _stacklevel: int = 2,
) -> np.ndarray:
    """(replicates, n_stats) matrix of replicate statistics.

    ``stat_fn(dataset) -> array`` is applied to each resampled dataset.
    A replicate that raises a package error yields a NaN row; per-cell
    NaNs from ``stat_fn`` are kept as-is.  Failure accounting uses the
    all-NaN rows, and their warning names the frame ``_stacklevel`` up.
    A ``stat_fn`` that returns other than ``n_stats`` values raises
    :class:`ValidationError` at once, as a fault of the caller.
    """
    out = np.full((config.replicates, n_stats), np.nan)
    for b, rng in enumerate(replicate_streams(config.seed, config.replicates)):
        idx = seeded_resample(dataset.n, rng)
        resampled = dataset.take(idx)
        try:
            values = np.asarray(stat_fn(resampled), dtype=float)
        except CausalRulesError:
            continue
        if values.shape != (n_stats,):
            raise ValidationError(f"stat_fn returned shape {values.shape}, not ({n_stats},)")
        out[b] = values
    n_failed = int(np.isnan(out).all(axis=1).sum())
    _check_failures(n_failed, config.replicates, "bootstrap", _stacklevel + 1)
    return out


def _number(result):
    """A grid result's psi or theta, or the error it raised."""
    if isinstance(result, CausalRulesError):
        return result
    return result.theta if isinstance(result, RelativeRiskEstimate) else result.psi


def _refit_grid(dataset: Dataset, spec: NuisanceSpec, labels: list, settings: dict) -> list:
    """Each grid label's psi or theta on ``dataset`` (``estimators._grid``
    under ``settings``), or the error it raised, after refitting from
    ``spec`` only the models the labels need (``estimators._needs``)."""
    estimators, families = {lab[2] for lab in labels}, {lab[0] for lab in labels}
    need_g, need_q = _needs(estimators, families, settings["alpha"])
    g_model = spec.fit_g(dataset) if need_g else None
    q_model = spec.fit_q(dataset) if need_q else None
    results = _grid(_evaluate(dataset, g_model, q_model), labels, g_model, **settings)
    return [_number(results[lab]) for lab in labels]


def _grid_replicates(
    dataset: Dataset, spec: NuisanceSpec, labels: list, config: BootstrapConfig, settings: dict
) -> np.ndarray:
    """(replicates, labels) matrix of the labels' bootstrap values; a label
    that failed on a replicate reads NaN there; a failure warning names
    the caller of the public entry."""

    def values(ds: Dataset) -> list:
        return [
            np.nan if isinstance(v, CausalRulesError) else v
            for v in _refit_grid(ds, spec, labels, settings)
        ]

    return bootstrap_statistics(dataset, values, config, n_stats=len(labels), _stacklevel=4)


def bootstrap_ci(
    dataset: Dataset,
    spec: NuisanceSpec,
    rule: Rule,
    estimator: str,
    config: BootstrapConfig | None = None,
    parameter: str = "psi",
    *,
    truncate_weights: bool = True,
    itt_covariate: str = "delta",
) -> IntervalEstimate:
    """Bootstrap interval for one estimator under one rule.

    ``parameter="psi"`` targets the counterfactual mean of ``rule``;
    ``parameter="rr"`` targets the relative risk of ``rule.target``
    against target 0 in the same family.  Nuisance models are refit on
    every replicate from ``spec``; models a cell does not need are not
    fit (G-computation under a static rule never fits g).
    """
    if config is None:
        config = BootstrapConfig()
    if parameter not in ("psi", "rr"):
        raise ValidationError("parameter must be 'psi' or 'rr'")

    labels = [(rule.family, rule.target, estimator, parameter)]
    settings = dict(alpha=rule.alpha, empty_set_policy=rule.empty_set_policy,
                    truncate_weights=truncate_weights, itt_covariate=itt_covariate)
    (point,) = _refit_grid(dataset, spec, labels, settings)
    if isinstance(point, CausalRulesError):
        raise point
    reps = _grid_replicates(dataset, spec, labels, config, settings)
    return interval_from_replicates(reps[:, 0], point, config.level, config.interval)


def attach_bootstrap_intervals(
    report: EstimateReport,
    dataset: Dataset,
    spec: NuisanceSpec,
    config: BootstrapConfig,
    *,
    empty_set_policy: str = "error",
    truncate_weights: bool | dict = True,
    itt_covariate: str = "delta",
) -> EstimateReport:
    """Attach psi and relative-risk intervals to every cell of a report.

    One resample and one nuisance refit serve the whole grid per
    replicate, so the intervals across cells are computed from the same
    replicate datasets (and cells that coincide, such as static versus
    realistic at alpha 0, get identical intervals).  A cell with no
    finite replicate gets no interval; its ``psi_interval_error`` or
    ``rr_interval_error`` records why, and the other cells keep theirs.
    """
    found = [(cell, kind) for cell in report.cells for kind in ("psi", "rr")
             if getattr(cell, kind) is not None]
    if not found:
        return report
    reps = _grid_replicates(
        dataset, spec, [(c.family, c.target, c.estimator, kind) for c, kind in found], config,
        dict(alpha=report.alpha, empty_set_policy=empty_set_policy,
             truncate_weights=truncate_weights, itt_covariate=itt_covariate),
    )
    for j, (cell, kind) in enumerate(found):
        try:
            interval = interval_from_replicates(
                reps[:, j], _number(getattr(cell, kind)), config.level, config.interval
            )
        except EstimationError as exc:
            setattr(cell, f"{kind}_interval_error", _describe(exc))
        else:
            setattr(cell, f"{kind}_interval", interval)
    report.metadata["bootstrap"] = {
        "replicates": config.replicates,
        "seed": config.seed,
        "interval": config.interval,
        "level": config.level,
    }
    return report
