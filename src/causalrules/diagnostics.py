"""Simulation-based diagnostic for practical positivity bias.

The idea: treat the fitted system — the empirical covariate
distribution P(W), the fitted treatment mechanism g(a|W), and the
fitted outcome regression Q(a,W) — as a known generating distribution.
Under it, every rule-specific counterfactual mean has an exact value
computable by enumeration over the (finite) covariate support.  Repeated
simulation from the system followed by re-estimation then measures the
finite-sample bias of each estimator directly; bias concentrated in
static rules at sparsely supported levels, with realistic and ITT rules
unaffected, is the signature of a practical positivity violation rather
than confounding.

Generation always uses the raw (untruncated) treatment probabilities.
Every draw lands on one of the support cells, so generation reads ``g``
and ``Q`` off the support, where they are evaluated once per system by
the package's one evaluation entry (``glm._evaluate_models``), instead
of predicting them on the drawn rows.  It also hands each generated
dataset its grouping into distinct covariate rows, read off the
support's own grouping: a replicate's fits and estimators share that
grouping, and its rows are never grouped.

By default each replicate refits g — the feasibility sets are part of
the estimator — and the drift of the replicate-specific estimand (the
truth under the refit feasibility sets, with the refit g evaluated on
the support through the same entry) is recorded alongside.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CausalRulesError, EstimationError, ValidationError
from .estimators import NuisanceSpec, _check_estimators, _evaluate, _grid, _needs
from .glm import OutcomeModel, TreatmentModel, _evaluate_models, _expit
from .inference import _check_failures, replicate_streams
from .ingest import Dataset, _distinct_codes, _distinct_rows
from .rules import Rule, assign, membership_matrix

FAMILY_LABELS = {"static": "Static", "realistic": "Realistic", "itt": "ITT"}


@dataclass(frozen=True)
class GeneratingDistribution:
    """A fully known system (P(W), g(a|W), Q(a,W)) on a finite W support."""

    w_support: np.ndarray
    w_probs: np.ndarray
    covariate_names: tuple[str, ...]
    g_model: TreatmentModel
    q_model: OutcomeModel
    source_n: int | None = None

    def __post_init__(self):
        support = np.asarray(self.w_support, dtype=np.int8)
        probs = np.asarray(self.w_probs, dtype=float)
        if support.ndim != 2:
            raise ValidationError("w_support must be two-dimensional")
        if probs.shape != (support.shape[0],):
            raise ValidationError("w_probs length must match support rows")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
            raise ValidationError("w_probs must be a probability vector")
        if support.shape[1] != len(self.covariate_names):
            raise ValidationError("covariate_names length must match support columns")
        object.__setattr__(self, "w_support", support)
        object.__setattr__(self, "w_probs", probs)
        object.__setattr__(self, "covariate_names", tuple(self.covariate_names))

    @property
    def n_treatment_levels(self) -> int:
        return self.g_model.n_treatment_levels

    @classmethod
    def from_dataset(
        cls, dataset: Dataset, g_model: TreatmentModel, q_model: OutcomeModel
    ) -> "GeneratingDistribution":
        """Empirical covariate rows with uniform weights plus the fitted models."""
        return cls(
            w_support=dataset.w,
            w_probs=np.full(dataset.n, 1.0 / dataset.n),
            covariate_names=dataset.covariate_names,
            g_model=g_model,
            q_model=q_model,
            source_n=dataset.n,
        )

    def support_g_raw(self) -> np.ndarray:
        """Raw treatment probabilities on the support rows.

        Evaluated once per system; the returned array is read-only.
        """
        return self._support_models[0]

    def support_q(self) -> np.ndarray:
        """(m, K) outcome probabilities on the support rows.

        Evaluated once per system; the returned array is read-only.
        """
        return self._support_models[1]

    @cached_property
    def _support_models(self) -> tuple[np.ndarray, np.ndarray]:
        G, M = _evaluate_models(self.w_support, self.covariate_names, self.g_model, self.q_model)
        return _read_only(G), _read_only(_expit(M))

    @cached_property
    def _support_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """The support's distinct rows, in byte order: ``(first, inverse)``
        as :func:`~causalrules.ingest._distinct_rows` gives them."""
        return tuple(_read_only(x) for x in _distinct_rows(self.w_support))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _draw_levels(g_probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw of one treatment level per row from uniforms ``u``.

    A ``u`` above a row's rounded cumulative sum takes the row's last
    level of positive probability, never a structurally zero one.
    """
    k = g_probs.shape[1]
    a = (u[:, None] > np.cumsum(g_probs, axis=1)).sum(axis=1)
    past = np.flatnonzero(a == k)
    a[past] = k - 1 - np.argmax(g_probs[past, ::-1] > 0.0, axis=1)
    return a


def generate(
    gen: GeneratingDistribution, n: int, seed: int | np.random.Generator = 0
) -> Dataset:
    """Draw n iid observations (W, A, Y) from the generating system.

    Each observation draws a support cell, then its treatment level from
    the raw (untruncated) probabilities, so structurally zero cells
    never appear in generated data, then its outcome.  ``g`` and ``Q``
    are read off the support (:meth:`GeneratingDistribution.support_g_raw`
    and :meth:`~GeneratingDistribution.support_q`, evaluated once per
    system), never predicted on the drawn rows.

    The returned dataset comes with its grouping into distinct covariate
    rows: the distinct support rows are in byte order and the drawn ones
    are a subset of them, so ranking the drawn cells' support ranks gives
    exactly what grouping the drawn rows would.  The dataset is never
    grouped again.
    """
    if n < 1:
        raise ValidationError("n must be positive")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    cells = rng.choice(gen.w_support.shape[0], size=n, p=gen.w_probs)
    a = _draw_levels(gen.support_g_raw()[cells], rng.random(n))
    y = (rng.random(n) < gen.support_q()[cells, a]).astype(np.int64)
    support_first, support_inverse = gen._support_groups
    drawn, inverse = _distinct_codes(support_inverse[cells], support_first.size)
    first = np.full(drawn.size, n)
    np.minimum.at(first, inverse, np.arange(n))
    return Dataset(
        w=gen.w_support[cells],
        a=a,
        y=y,
        covariate_names=gen.covariate_names,
        n_treatment_levels=gen.n_treatment_levels,
        _groups=(first, inverse),
    )


def true_psi(
    gen: GeneratingDistribution,
    rule: Rule,
    member: np.ndarray | None = None,
) -> float:
    """Exact counterfactual mean under the generating system.

    Enumeration over the covariate support; for ITT rules the
    observed-treatment branch contributes the g-weighted average of Q
    over levels.  ``member`` overrides the feasibility matrix on the
    support rows (used to evaluate estimand drift under refit g).
    """
    g_raw, q_all = gen.support_g_raw(), gen.support_q()
    m, k = q_all.shape
    # Observed levels are not defined on the support; ITT rows off the
    # target take the g-weighted average of Q below instead.
    member, assigned = assign(rule, g_raw, np.zeros(m, dtype=np.int64), k, member)
    values = q_all[np.arange(m), assigned]
    if rule.family == "itt":
        q_bar = (g_raw * q_all).sum(axis=1)  # E[Y | W] under observed treatment
        values = np.where(member[:, rule.target], values, q_bar)
    return float(np.dot(gen.w_probs, values))


def true_relative_risk(
    gen: GeneratingDistribution,
    family: str,
    target: int,
    alpha: float = 0.05,
    empty_set_policy: str = "error",
) -> float:
    """Exact theta = psi_target / psi_0 under the generating system."""
    num, den = (
        true_psi(gen, Rule(family=family, target=t, alpha=alpha,
                           empty_set_policy=empty_set_policy))
        for t in (target, 0)
    )
    if abs(den) < 1e-12:
        raise EstimationError("true psi_0 is numerically zero")
    return num / den


# ---------------------------------------------------------------------------
# The bias diagnostic


@dataclass(frozen=True)
class BiasEntry:
    """Simulation summary for one (family, target) cell."""

    family: str
    target: int
    truth: float
    mean_estimate: float
    sd_estimate: float
    bias: float
    bias_pct: float | None
    n_effective: int
    drift: float | None = None
    drift_pct: float | None = None

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class BiasReport:
    """Estimated finite-sample bias of one estimator across rules."""

    estimator: str
    replicates: int
    n_sim: int
    seed: int
    alpha: float
    families: tuple[str, ...]
    targets: tuple[int, ...]
    entries: tuple[BiasEntry, ...]
    n_failed_replicates: int = 0

    def entry(self, family: str, target: int) -> BiasEntry:
        for e in self.entries:
            if (e.family, e.target) == (family, target):
                return e
        raise KeyError((family, target))

    def to_dict(self) -> dict:
        return {
            "estimator": self.estimator,
            "replicates": self.replicates,
            "n_sim": self.n_sim,
            "seed": self.seed,
            "alpha": self.alpha,
            "families": list(self.families),
            "targets": list(self.targets),
            "n_failed_replicates": self.n_failed_replicates,
            "entries": [e.to_dict() for e in self.entries],
        }

    def bias_table(self) -> tuple[list[str], list[list[str]]]:
        """Rows per target level, one bias-percent column per family."""
        header = ["target"] + [FAMILY_LABELS.get(f, f) for f in self.families]
        rows = []
        for target in self.targets:
            row = [str(target)]
            for family in self.families:
                e = self.entry(family, target)
                row.append("" if e.bias_pct is None else f"{e.bias_pct:.2f}%")
            rows.append(row)
        return header, rows


def eta_bias_diagnostic(
    gen: GeneratingDistribution,
    *,
    estimator: str = "iptw",
    families: tuple[str, ...] = ("static", "realistic", "itt"),
    targets: tuple[int, ...] | None = None,
    replicates: int = 500,
    n_sim: int | None = None,
    seed: int = 0,
    alpha: float = 0.05,
    spec: NuisanceSpec | None = None,
    refit_g: bool = True,
    empty_set_policy: str = "error",
    truncate_weights: bool = True,
    record_drift: bool = True,
) -> BiasReport:
    """Simulate from the generating system and measure estimator bias.

    Each replicate draws ``n_sim`` observations, refits the nuisance
    models the estimator needs (``refit_g=False`` reuses the generating
    treatment mechanism instead), re-estimates every (family, target)
    cell, and compares the average against the exact truth.  For
    realistic and ITT rules the truth under each replicate's refit
    feasibility sets is also tracked (``drift``): it measures how much
    the data-adaptive estimand itself moves, separately from estimation
    error around it.

    The generating system is evaluated on its support once, and each
    replicate's refit models once per replicate.  Replicates
    whose fits (or refit feasibility sets on the support) fail are
    dropped and counted; more than 10% failing raises, more than 1%
    warns.
    """
    _check_estimators((estimator,))
    if targets is None:
        targets = tuple(range(gen.n_treatment_levels))
    if n_sim is None:
        if gen.source_n is None:
            raise ValidationError(
                "n_sim is required for generating systems without a source dataset"
            )
        n_sim = gen.source_n
    if spec is None:
        spec = NuisanceSpec(alpha_trunc=gen.g_model.alpha_trunc)
    need_g, need_q = _needs((estimator,), families, alpha)

    cells = [(f, t) for f in families for t in targets]
    truth = {
        c: true_psi(gen, Rule(*c, alpha=alpha, empty_set_policy=empty_set_policy)) for c in cells
    }
    estimates: dict[tuple[str, int], list[float]] = {c: [] for c in cells}
    drifts: dict[tuple[str, int], list[float]] = {c: [] for c in cells}
    n_failed = 0

    for rng in replicate_streams(seed, replicates):
        ds = generate(gen, n_sim, rng)
        try:
            g_model = (spec.fit_g(ds) if refit_g else gen.g_model) if need_g else None
            q_model = spec.fit_q(ds) if need_q else None
            member_fit = None
            if record_drift and g_model is not None:
                g_fit = _evaluate_models(gen.w_support, gen.covariate_names, g_model, None)[0]
                member_fit = membership_matrix(g_fit, alpha)
        except CausalRulesError:
            n_failed += 1
            continue
        results = _grid(
            _evaluate(ds, g_model, q_model), [(f, t, estimator, "psi") for f, t in cells],
            g_model, alpha=alpha, empty_set_policy=empty_set_policy,
            truncate_weights=truncate_weights,
        )
        for c in cells:
            est = results[(*c, estimator, "psi")]
            if isinstance(est, CausalRulesError):
                continue
            estimates[c].append(est.psi)
            if member_fit is not None and est.rule.family in ("realistic", "itt") and alpha > 0.0:
                try:
                    drifts[c].append(true_psi(gen, est.rule, member_fit))
                except CausalRulesError:
                    pass
        # Free this replicate's arrays before the next one draws and fits.
        del ds

    _check_failures(n_failed, replicates, "diagnostic")

    entries = []
    for f, t in cells:
        values = np.asarray(estimates[(f, t)], dtype=float)
        if values.size == 0:
            raise EstimationError(f"no successful replicates for {f} target {t}")
        tru = truth[(f, t)]
        mean_est = float(values.mean())
        bias = mean_est - tru
        bias_pct = None if abs(tru) < 1e-12 else 100.0 * bias / tru
        drift = drift_pct = None
        dvals = drifts[(f, t)]
        if dvals:
            drift = float(np.mean(dvals) - tru)
            drift_pct = None if abs(tru) < 1e-12 else 100.0 * drift / tru
        entries.append(
            BiasEntry(
                family=f,
                target=t,
                truth=tru,
                mean_estimate=mean_est,
                sd_estimate=float(values.std(ddof=1)) if values.size > 1 else 0.0,
                bias=float(bias),
                bias_pct=bias_pct,
                n_effective=int(values.size),
                drift=drift,
                drift_pct=drift_pct,
            )
        )
    return BiasReport(
        estimator=estimator,
        replicates=replicates,
        n_sim=n_sim,
        seed=seed,
        alpha=alpha,
        families=tuple(families),
        targets=tuple(targets),
        entries=tuple(entries),
        n_failed_replicates=n_failed,
    )


@dataclass(frozen=True)
class AlphaSweepResult:
    """Bias diagnostics across a grid of feasibility thresholds."""

    alphas: tuple[float, ...]
    threshold_pct: float
    max_abs_bias_pct: tuple[float, ...]
    smallest_passing_alpha: float | None
    reports: tuple[BiasReport, ...] = field(repr=False, default=())

    def to_dict(self) -> dict:
        return {
            "alphas": list(self.alphas),
            "threshold_pct": self.threshold_pct,
            "max_abs_bias_pct": list(self.max_abs_bias_pct),
            "smallest_passing_alpha": self.smallest_passing_alpha,
            "reports": [r.to_dict() for r in self.reports],
        }


def alpha_sweep(
    gen: GeneratingDistribution,
    alphas,
    *,
    threshold_pct: float = 2.0,
    families: tuple[str, ...] = ("realistic", "itt"),
    **kwargs,
) -> AlphaSweepResult:
    """Run the bias diagnostic over a grid of alpha values.

    Reports the largest absolute bias percentage per alpha (across all
    family/target cells) and the smallest alpha at which it falls below
    ``threshold_pct``.  At ``alpha = 0`` realistic rules coincide with
    static ones, so the sweep's first entry reproduces the static
    diagnostic when 0 is included.
    """
    alphas = tuple(float(a) for a in alphas)
    if not alphas:
        raise ValidationError("alpha_sweep needs at least one alpha")
    if sorted(alphas) != list(alphas):
        raise ValidationError("alphas must be sorted ascending")
    if not 0.0 < threshold_pct < float("inf"):
        raise ValidationError("threshold_pct must be a finite positive number")
    reports = []
    max_abs = []
    for a in alphas:
        report = eta_bias_diagnostic(gen, alpha=a, families=families, **kwargs)
        reports.append(report)
        worst = max(
            (abs(e.bias_pct) for e in report.entries if e.bias_pct is not None),
            default=float("inf"),
        )
        max_abs.append(worst)
    passing = next(
        (a for a, w in zip(alphas, max_abs) if w < threshold_pct), None
    )
    return AlphaSweepResult(
        alphas=alphas,
        threshold_pct=threshold_pct,
        max_abs_bias_pct=tuple(max_abs),
        smallest_passing_alpha=passing,
        reports=tuple(reports),
    )


# ---------------------------------------------------------------------------
# Building blocks for explicit generating systems


def bernoulli_block_support(
    blocks: list[tuple[tuple[str, ...], list[tuple[tuple[int, ...], float]]]],
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Cartesian product of independent covariate blocks.

    Each block is ``(column_names, [(indicator_pattern, probability), ...])``;
    a plain Bernoulli(p) column is a one-column block with patterns
    ``(0,)`` and ``(1,)``.  Returns the full support matrix, the joint
    probabilities, and the concatenated column names.
    """
    names: list[str] = []
    for cols, cats in blocks:
        names.extend(cols)
        total = sum(p for _, p in cats)
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"block {cols} probabilities sum to {total}, not 1")
        for pattern, _ in cats:
            if len(pattern) != len(cols):
                raise ValidationError(f"block {cols} has a pattern of wrong width")
    rows = []
    probs = []
    for combo in itertools.product(*(cats for _, cats in blocks)):
        row: list[int] = []
        p = 1.0
        for pattern, prob in combo:
            row.extend(pattern)
            p *= prob
        rows.append(row)
        probs.append(p)
    return (
        np.asarray(rows, dtype=np.int8),
        np.asarray(probs, dtype=float),
        tuple(names),
    )


def bernoulli_support(
    names: tuple[str, ...], probs: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Support of independent Bernoulli covariates."""
    if len(names) != len(probs):
        raise ValidationError("names and probs must have matching lengths")
    blocks = [
        ((name,), [((0,), 1.0 - p), ((1,), p)]) for name, p in zip(names, probs)
    ]
    return bernoulli_block_support(blocks)
