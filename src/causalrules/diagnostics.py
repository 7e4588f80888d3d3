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
the package's one evaluation entry (``glm._evaluate_models``), and hands
each generated dataset its grouping into distinct covariate rows (see
:func:`generate`): a replicate's rows are never grouped.

By default each replicate refits g — the feasibility sets are part of
the estimator — and the drift of the replicate-specific estimand (the
truth under the refit feasibility sets) is recorded alongside.  A
replicate evaluates ``g`` once, on the support, and indexes the sample's
``G`` out of it.  One pass over the replicates serves every alpha of a
run; only the grid and the drift are made once per alpha.  The truths,
and each drift, take one ``true_psi`` call per rule family.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CausalRulesError, RuleInfeasibleError, ValidationError
from .estimators import NuisanceSpec, _check_estimators, _describe, _evaluate, _grid, _needs
from .glm import OutcomeModel, TreatmentModel, _evaluate_models, _expit
from .inference import _check_count, _check_failures, replicate_streams
from .ingest import Dataset, _binary, _check_levels, _check_unique, _distinct_rows, _group_codes
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
        support = np.asarray(self.w_support)
        probs = np.asarray(self.w_probs, dtype=float)
        if support.ndim != 2:
            raise ValidationError("w_support must be two-dimensional")
        # Checked before the cast, which would truncate 0.7 and NaN to 0.
        if not _binary(support):
            raise ValidationError("w_support must be 0 or 1 in every cell")
        support = support.astype(np.int8, copy=False)
        if probs.shape != (support.shape[0],):
            raise ValidationError("w_probs length must match support rows")
        if not (np.all(probs >= 0) and abs(probs.sum() - 1.0) <= 1e-9):
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
    def _support_g_cumulative(self) -> np.ndarray:
        """Raw ``g`` summed over levels ``0..a`` at every level ``a`` and
        support row, level-major (one row per level), made once per
        system for drawing levels."""
        return _read_only(np.ascontiguousarray(np.cumsum(self.support_g_raw(), axis=1).T))

    @cached_property
    def _support_q_bar(self) -> np.ndarray:
        """``E[Y | W]`` under the observed treatment, the g-weighted
        average of ``Q`` over levels at every support row, made once per
        system for the ITT truths."""
        return _read_only((self.support_g_raw() * self.support_q()).sum(axis=1))

    @cached_property
    def _cell_guide(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """The cumulative cell probabilities exactly as
        ``Generator.choice`` forms them, and a guide table over them
        (Chen and Asau, 1974), made once per system for drawing cells.

        The table cuts ``[0, 1)`` into ``B`` equal buckets, ``B`` the
        smallest power of two at least twice the support size, so that
        ``u * B`` and ``j / B`` are exact.  Bucket ``j`` holds the range
        of cell indices a uniform in ``[j / B, (j + 1) / B)`` can map to:
        ``lo[j]`` cells have a cumulative probability at most ``j / B``,
        and the cell at ``hi[j]`` has one at least ``(j + 1) / B``.
        Returns ``(cdf, lo, hi, steps)``, with ``steps`` the bisection
        steps that close the widest bucket.
        """
        cdf = self.w_probs.cumsum()
        cdf /= cdf[-1]
        buckets = 1 << (2 * cdf.size - 1).bit_length()
        edges = np.arange(buckets + 1) / buckets
        lo = cdf.searchsorted(edges[:-1], side="right")
        hi = cdf.searchsorted(edges[1:], side="left")
        steps = int((hi - lo).max()).bit_length()
        return _read_only(cdf), _read_only(lo), _read_only(hi), steps

    @cached_property
    def _support_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """The support's distinct rows, in byte order: ``(first, inverse)``
        as :func:`~causalrules.ingest._distinct_rows` gives them."""
        return tuple(_read_only(x) for x in _distinct_rows(self.w_support))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _draw_cells(gen: GeneratingDistribution, u: np.ndarray) -> np.ndarray:
    """The support cell of each uniform in ``u``: the number of cumulative
    cell probabilities at or below it, which is the cell
    ``rng.choice(m, p=gen.w_probs)`` draws from the same uniforms.

    Each uniform's guide bucket brackets its cell; a fixed number of
    bisection steps, vectorised over the uniforms, closes the bracket.
    """
    cdf, lo, hi, steps = gen._cell_guide
    bucket = (u * lo.size).astype(np.intp)
    first, last = lo[bucket], hi[bucket]
    for _ in range(steps):
        mid = (first + last) >> 1
        above = cdf[mid] > u
        last = np.where(above, mid, last)
        first = np.where(above, first, mid + 1)
    return first


def _draw_levels(gen: GeneratingDistribution, cells: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw of one treatment level at each of the support
    rows ``cells`` from uniforms ``u``, off the support's cumulative ``g``.

    The level is the number of cumulative sums below ``u``, counted one
    level at a time.  A ``u`` above a row's rounded cumulative sum takes
    the row's last level of positive probability, never a structurally
    zero one.
    """
    cumulative = gen._support_g_cumulative
    k = cumulative.shape[0]
    a = np.zeros(cells.size, np.int64)
    for level in cumulative:
        a += u > level[cells]
    past = np.flatnonzero(a == k)
    a[past] = k - 1 - np.argmax(gen.support_g_raw()[cells[past], ::-1] > 0.0, axis=1)
    return a


@dataclass(frozen=True, eq=False)
class _Draw(Dataset):
    """A generated dataset that also knows the support row of each of its
    distinct covariate rows, in the order of its grouping."""

    _support_rows: np.ndarray | None = field(default=None, repr=False, compare=False)


def generate(
    gen: GeneratingDistribution, n: int, seed: int | np.random.Generator = 0
) -> Dataset:
    """Draw n iid observations (W, A, Y) from the generating system.

    Each observation draws a support cell, by indexed search off the
    system's cumulative cell probabilities (the cells and the stream
    position ``rng.choice`` with ``p=w_probs`` gives), then its treatment
    level from the raw (untruncated) probabilities, so structurally zero cells
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
    _check_count(n, "n", 1)
    if not isinstance(seed, np.random.Generator):
        _check_count(seed, "seed", 0)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    cells = _draw_cells(gen, rng.random(n))
    a = _draw_levels(gen, cells, rng.random(n))
    y = (rng.random(n) < gen.support_q()[cells, a]).astype(np.int64)
    support_first, support_inverse = gen._support_groups
    first, inverse = _group_codes(support_inverse[cells], support_first.size)
    # The draw makes every other value valid; these the system does not.
    _check_unique(gen.covariate_names)
    _check_levels(a, gen.n_treatment_levels)
    return _Draw._checked(
        w=gen.w_support[cells],
        a=a,
        y=y,
        covariate_names=gen.covariate_names,
        n_treatment_levels=gen.n_treatment_levels,
        _groups=(first, inverse),
        _support_rows=cells[first],
    )


def true_psi(
    gen: GeneratingDistribution,
    rule: Rule | Sequence[Rule],
    member: np.ndarray | None = None,
) -> float | list[float | RuleInfeasibleError]:
    """Exact counterfactual mean under the generating system.

    Enumeration over the covariate support; for ITT rules the
    observed-treatment branch contributes the g-weighted average of Q
    over levels.  ``member`` overrides the feasibility matrix on the
    support rows (used to evaluate estimand drift under refit g).

    ``rule`` may also be a sequence of rules that differ only in target:
    they are assigned in one pass (:func:`~causalrules.rules.assign`),
    and the result is a list with one entry per rule: its truth, or the
    :class:`~causalrules.errors.RuleInfeasibleError` that rule alone
    raises.
    """
    g_raw, q_all = gen.support_g_raw(), gen.support_q()
    m, k = q_all.shape
    # Observed levels are not defined on the support; ITT rows off the
    # target take the g-weighted average of Q below instead.
    single = isinstance(rule, Rule)
    rules = [rule] if single else list(rule)
    member, assigned = assign(rules, g_raw, np.zeros(m, dtype=np.int64), k, member)
    rows = np.arange(m)
    truths = []
    for r, levels in zip(rules, assigned):
        if isinstance(levels, RuleInfeasibleError):
            # The rows it names are rows of the support, not of a dataset.
            truths.append(RuleInfeasibleError(
                str(levels).replace("rows", "support rows", 1), rows=levels.rows
            ))
            continue
        values = q_all[rows, levels]
        if r.family == "itt":
            values = np.where(member[:, r.target], values, gen._support_q_bar)
        truths.append(float(np.dot(gen.w_probs, values)))
    if single and isinstance(truths[0], RuleInfeasibleError):
        raise truths[0]
    return truths[0] if single else truths


# ---------------------------------------------------------------------------
# The bias diagnostic


@dataclass(frozen=True)
class BiasEntry:
    """Simulation summary for one (family, target) cell.  A cell with no
    successful replicate has null estimates and, only then, ``bias_error``."""

    family: str
    target: int
    truth: float
    mean_estimate: float | None
    sd_estimate: float | None
    bias: float | None
    bias_pct: float | None
    n_effective: int
    drift: float | None = None
    drift_pct: float | None = None
    bias_error: str | None = None

    def to_dict(self) -> dict:
        d = dict(vars(self))
        if self.bias_error is None:
            del d["bias_error"]
        return d


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
        d = dict(vars(self), families=list(self.families), targets=list(self.targets))
        d["entries"] = [e.to_dict() for e in d.pop("entries")]
        return d

    def bias_table(self) -> tuple[list[str], list[list[str]]]:
        """Rows per target level, one bias-percent column per family.

        A cell with no successful replicate reads ``error: <bias_error>``;
        one whose truth is 0, and so has no bias percent, is empty."""
        header = ["target"] + [FAMILY_LABELS.get(f, f) for f in self.families]
        rows = []
        for target in self.targets:
            row = [str(target)]
            for family in self.families:
                e = self.entry(family, target)
                if e.bias_error is not None:
                    row.append(f"error: {e.bias_error}")
                else:
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
    alpha: float | Sequence[float] = 0.05,
    spec: NuisanceSpec | None = None,
    refit_g: bool = True,
    empty_set_policy: str = "error",
    truncate_weights: bool = True,
    _stacklevel: int = 2,
) -> BiasReport | list[BiasReport]:
    """Simulate from the generating system and measure estimator bias.

    Each replicate draws ``n_sim`` observations, refits the nuisance
    models the estimator needs (``refit_g=False`` reuses the generating
    treatment mechanism instead), re-estimates every (family, target)
    cell, and compares the average against the exact truth.  For
    realistic and ITT rules the truth under each replicate's refit
    feasibility sets is also tracked (``drift``): it measures how much
    the data-adaptive estimand itself moves, separately from estimation
    error around it.

    Replicates whose fits (or refit feasibility sets on the support)
    fail are dropped and counted; more than 10% failing raises, more than
    1% warns at the frame ``_stacklevel`` up (the caller, by default).

    ``alpha`` may also be a sequence: one pass over the replicates then
    gives one report per entry, each equal to a call at that alpha alone.
    Each replicate draws, fits and builds its pattern table once, then
    runs the grid and drift once per distinct alpha; a failed ``g`` fails
    only the alphas that need it.  The first alpha's infeasible truth is
    raised before any draw, other alphas' errors after the pass, in order.
    """
    _check_estimators((estimator,))
    _check_count(replicates, "diagnostic replicates", 1)
    _check_count(seed, "diagnostic seed", 0)
    if targets is None:
        targets = tuple(range(gen.n_treatment_levels))
    if n_sim is None:
        if gen.source_n is None:
            raise ValidationError(
                "n_sim is required for generating systems without a source dataset"
            )
        n_sim = gen.source_n
    _check_count(n_sim, "n_sim", 1)
    if spec is None:
        spec = NuisanceSpec(alpha_trunc=gen.g_model.alpha_trunc)
    single = np.ndim(alpha) == 0
    alphas = [alpha] if single else list(alpha)
    if not alphas:
        raise ValidationError("alpha must hold at least one threshold")

    cells = [(f, t) for f in families for t in targets]
    labels = [(f, t, estimator, "psi") for f, t in cells]
    # Each alpha's truths, or the first error that stops them.
    truths = {}
    for a in dict.fromkeys(alphas):
        truths[a] = {}
        try:
            for f in families:
                rules = [Rule(f, t, alpha=a, empty_set_policy=empty_set_policy) for t in targets]
                for t, psi in zip(targets, true_psi(gen, rules) if rules else ()):
                    if isinstance(psi, RuleInfeasibleError):
                        raise psi
                    truths[a][(f, t)] = psi
        except CausalRulesError as exc:
            truths[a] = exc.with_traceback(None)
    if isinstance(truths[alphas[0]], CausalRulesError):
        raise truths[alphas[0]]
    live = [a for a, truth in truths.items() if not isinstance(truth, CausalRulesError)]
    need_g = {a: _needs((estimator,), families, a)[0] for a in live}
    need_q = _needs((estimator,), families, alphas[0])[1]
    estimates = {a: {c: [] for c in cells} for a in live}
    drifts = {a: {c: [] for c in cells} for a in live}
    first_errors = {a: {} for a in live}
    n_failed = dict.fromkeys(live, 0)

    for rng in replicate_streams(seed, replicates):
        ds = generate(gen, n_sim, rng)
        g_model = g_support = None
        try:
            if any(need_g.values()):
                g_model = spec.fit_g(ds) if refit_g else gen.g_model
                g_support = (
                    _evaluate_models(gen.w_support, gen.covariate_names, g_model, None)[0]
                    if refit_g else gen.support_g_raw()
                )
        except CausalRulesError:
            g_model = None
        # A failed g (or its refit feasibility sets on the support) fails
        # only the alphas that need it; a failed Q fails them all.
        ran = [a for a in live if g_support is not None or not need_g[a]]
        try:
            q_model = spec.fit_q(ds) if need_q and ran else None
        except CausalRulesError:
            ran = []
        for a in live:
            n_failed[a] += a not in ran
        if not ran:
            continue
        G = None if g_support is None else g_support[ds._support_rows]
        table = _evaluate(ds, g_model, q_model, G)
        for a in ran:
            results = _grid(table, labels, g_model, alpha=a, empty_set_policy=empty_set_policy,
                            truncate_weights=truncate_weights)
            member_fit = None if g_support is None or a == 0.0 else membership_matrix(g_support, a)
            drift_rules: dict[str, list[Rule]] = {"realistic": [], "itt": []}
            for c, label in zip(cells, labels):
                est = results[label]
                if isinstance(est, CausalRulesError):
                    first_errors[a].setdefault(c, est)
                    continue
                estimates[a][c].append(est.psi)
                if member_fit is not None and c[0] in drift_rules:
                    drift_rules[c[0]].append(est.rule)
            # One assignment pass per family; an infeasible target drops
            # only its own drift value.
            for rules in drift_rules.values():
                if rules:
                    for r, psi in zip(rules, true_psi(gen, rules, member_fit)):
                        if not isinstance(psi, RuleInfeasibleError):
                            drifts[a][(r.family, r.target)].append(psi)
        # Free this replicate's arrays before the next one draws and fits.
        del ds, table

    reports, entries = [], {}
    for a in alphas:
        if a not in entries:
            if isinstance(truths[a], CausalRulesError):
                raise truths[a]
            _check_failures(
                n_failed[a], replicates, "diagnostic", _stacklevel + 1, f" at alpha {a}"
            )
            entries[a] = tuple(
                _bias_entry(*c, truths[a][c], estimates[a][c], drifts[a][c],
                            first_errors[a].get(c))
                for c in cells
            )
        reports.append(BiasReport(estimator, replicates, n_sim, seed, a, tuple(families),
                                  tuple(targets), entries[a], n_failed[a]))
    return reports[0] if single else reports


def _bias_entry(family: str, target: int, truth: float, estimates: list, drifts: list,
                error: CausalRulesError | None) -> BiasEntry:
    """One cell's summary over its successful replicates; ``error`` is the
    cell's first failure, set whenever none succeeded (if every fit failed,
    the failure fraction has raised)."""
    values = np.asarray(estimates, dtype=float)
    if values.size == 0:
        return BiasEntry(family, target, truth, None, None, None, None, 0,
                         bias_error=f"no successful replicates; first failure: {_describe(error)}")
    mean_est = float(values.mean())
    bias = mean_est - truth
    drift = float(np.mean(drifts) - truth) if drifts else None

    def pct(x):
        return None if x is None or abs(truth) < 1e-12 else 100.0 * x / truth

    sd = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return BiasEntry(
        family, target, truth, mean_est, sd, bias, pct(bias), values.size, drift, pct(drift)
    )


@dataclass(frozen=True)
class AlphaSweepResult:
    """Bias diagnostics across a grid of feasibility thresholds."""

    alphas: tuple[float, ...]
    threshold_pct: float
    max_abs_bias_pct: tuple[float, ...]
    smallest_passing_alpha: float | None
    reports: tuple[BiasReport, ...] = field(repr=False, default=())

    @classmethod
    def from_reports(cls, reports, threshold_pct: float) -> "AlphaSweepResult":
        """The summary of bias reports at ascending alphas: each report's
        largest absolute bias percentage (across all family/target cells),
        and the first alpha at which it falls below ``threshold_pct``.  A
        cell without a successful replicate has no bounded bias, so its
        report's largest is infinite."""
        alphas = tuple(r.alpha for r in reports)
        max_abs = tuple(
            max((math.inf if e.bias_error else abs(e.bias_pct) for e in r.entries
                 if e.bias_error or e.bias_pct is not None), default=math.inf)
            for r in reports
        )
        passing = next((a for a, w in zip(alphas, max_abs) if w < threshold_pct), None)
        return cls(alphas, threshold_pct, max_abs, passing, tuple(reports))

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

    One pass over the replicates serves every alpha.  Reports the largest
    absolute bias percentage per alpha (across all family/target cells)
    and the smallest alpha at which it falls below ``threshold_pct``.  At
    ``alpha = 0`` realistic rules coincide with static ones, so the sweep's
    first entry reproduces the static diagnostic when 0 is included.
    """
    alphas = tuple(float(a) for a in alphas)
    if not alphas:
        raise ValidationError("alpha_sweep needs at least one alpha")
    if sorted(alphas) != list(alphas):
        raise ValidationError("alphas must be sorted ascending")
    if not 0.0 < threshold_pct < float("inf"):
        raise ValidationError("threshold_pct must be a finite positive number")
    reports = eta_bias_diagnostic(gen, alpha=alphas, families=families, _stacklevel=3, **kwargs)
    return AlphaSweepResult.from_reports(reports, threshold_pct)


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
    # itertools.product order: the last block varies fastest.  Each
    # cell's probability multiplies its blocks' left to right from 1.0.
    probs = np.ones(1)
    columns = []
    for i, (_, cats) in enumerate(blocks):
        patterns = np.asarray([pattern for pattern, _ in cats], dtype=np.int8)
        inner = math.prod(len(later) for _, later in blocks[i + 1:])
        columns.append(np.tile(np.repeat(patterns, inner, axis=0), (probs.size, 1)))
        probs = (probs[:, None] * np.asarray([p for _, p in cats], dtype=float)).ravel()
    return (
        np.hstack(columns) if columns else np.zeros((1, 0), dtype=np.int8),
        probs,
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
