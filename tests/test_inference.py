import warnings

import numpy as np
import pytest
from scipy.stats import norm

from causalrules import (
    BootstrapConfig,
    EstimationError,
    NuisanceSpec,
    Rule,
    ValidationError,
    attach_bootstrap_intervals,
    bootstrap_ci,
    bootstrap_statistics,
    estimate_suite,
    interval_from_replicates,
    seeded_resample,
)
from causalrules.errors import CausalRulesError
from causalrules.inference import replicate_streams


def test_seeded_resample_is_uniform_with_replacement():
    rng = np.random.default_rng(0)
    n = 10
    hits = 0
    draws = 100_000
    for _ in range(draws):
        idx = seeded_resample(n, rng)
        assert idx.shape == (n,)
        hits += int((idx == 0).sum())
    freq = hits / (draws * n)
    assert abs(freq - 0.1) < 0.0013  # ~4 standard errors


def test_replicate_streams_are_reproducible_and_distinct():
    a = [g.integers(0, 1 << 30) for g in replicate_streams(42, 5)]
    b = [g.integers(0, 1 << 30) for g in replicate_streams(42, 5)]
    c = [g.integers(0, 1 << 30) for g in replicate_streams(43, 5)]
    assert a == b
    assert a != c
    assert len(set(a)) == 5


def test_percentile_interval_matches_quantiles():
    rng = np.random.default_rng(1)
    values = rng.normal(0.3, 0.05, size=2000)
    ci = interval_from_replicates(values, point=0.3, level=0.95, method="percentile")
    lo, hi = np.quantile(values, [0.025, 0.975])
    assert ci.lower == pytest.approx(lo, abs=1e-12)
    assert ci.upper == pytest.approx(hi, abs=1e-12)
    assert ci.point_within
    assert ci.b_effective == 2000


def test_normal_interval_matches_closed_form():
    rng = np.random.default_rng(2)
    values = rng.normal(0.3, 0.05, size=500)
    ci = interval_from_replicates(values, point=0.31, level=0.9, method="normal")
    z = norm.ppf(0.95)
    sd = values.std(ddof=1)
    assert ci.lower == pytest.approx(0.31 - z * sd, abs=1e-12)
    assert ci.upper == pytest.approx(0.31 + z * sd, abs=1e-12)


@pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999, 0.9999])
def test_normal_interval_quantile_matches_scipy(level):
    # Replicates -1, 0, 1 have standard deviation exactly 1, so the upper
    # end about a point of 0 is the normal quantile itself.
    ci = interval_from_replicates(np.array([-1.0, 0.0, 1.0]), 0.0, level, "normal")
    z = norm.ppf(1.0 - (1.0 - level) / 2.0)
    assert abs(ci.upper - z) <= 1e-15
    assert ci.lower == -ci.upper


@pytest.mark.parametrize("method", ["percentile", "normal"])
@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, float("nan")])
def test_interval_rejects_a_level_outside_the_unit_interval(level, method):
    values = np.random.default_rng(4).normal(size=50)
    with pytest.raises(ValidationError, match=r"confidence level must lie in \(0, 1\)"):
        interval_from_replicates(values, 0.0, level=level, method=method)


def test_interval_rejects_an_unknown_method_before_any_work():
    with pytest.raises(ValidationError, match="interval must be one of"):
        interval_from_replicates(np.array([np.nan]), 0.0, method="studentized")


def test_intervals_nest_across_levels():
    rng = np.random.default_rng(3)
    values = rng.normal(0.0, 1.0, size=1000)
    for method in ("percentile", "normal"):
        ci80 = interval_from_replicates(values, 0.0, level=0.80, method=method)
        ci95 = interval_from_replicates(values, 0.0, level=0.95, method=method)
        assert ci95.lower <= ci80.lower <= ci80.upper <= ci95.upper


def test_single_replicate_collapses():
    ci = interval_from_replicates(np.array([0.42]), point=0.4, method="percentile")
    assert ci.lower == ci.upper == 0.42
    assert not ci.point_within
    with pytest.raises(EstimationError):
        interval_from_replicates(np.array([np.nan]), point=0.4)


def test_bootstrap_statistics_failure_accounting(data_nv):
    calls = {"i": 0}

    def flaky(ds):
        calls["i"] += 1
        if calls["i"] % 20 == 0:  # 5% of replicates
            raise CausalRulesError("synthetic failure")
        return np.array([ds.y.mean()])

    cfg = BootstrapConfig(replicates=100, seed=0)
    with pytest.warns(UserWarning, match="replicates failed"):
        reps = bootstrap_statistics(data_nv, flaky, cfg, n_stats=1)
    assert int(np.isnan(reps[:, 0]).sum()) == 5

    def broken(ds):
        raise CausalRulesError("always down")

    with pytest.raises(EstimationError, match="> 10%"):
        bootstrap_statistics(data_nv, broken, BootstrapConfig(replicates=20, seed=0), 1)


@pytest.mark.parametrize("k, entry", [
    *(pytest.param(k, "bootstrap_statistics", id=str(k)) for k in (1, 2, 10, 11)),
    *(pytest.param(2, e, id=e) for e in ("bootstrap_ci", "attach_bootstrap_intervals")),
])
def test_bootstrap_failure_thresholds(data_nv, k, entry):
    """Of 100 replicates, 1 failure (1%) is silent, 2 to 10 warn at the
    caller, and 11 (> 10%) raise.  The entries that refit on every
    replicate warn at their own caller too."""
    calls = {"i": 0}

    def fails_k_times(ds):
        calls["i"] += 1
        if calls["i"] <= k:
            raise CausalRulesError("synthetic failure")
        return np.array([ds.y.mean()])

    class FailsOnReplicates(NuisanceSpec):
        def fit_g(self, ds):
            if ds is not data_nv:
                fails_k_times(ds)
            return super().fit_g(ds)

    cfg, rule = BootstrapConfig(replicates=100, seed=0), Rule(family="static", target=1)
    if k > 10:
        with pytest.raises(EstimationError, match=f"{k} of 100 bootstrap replicates failed"):
            bootstrap_statistics(data_nv, fails_k_times, cfg, n_stats=1)
        return
    report = estimate_suite(data_nv, NuisanceSpec().fit_g(data_nv), None, families=("static",),
                            targets=(1,), estimators=("iptw",))
    # Each entry is called from here, so that a warning one frame too far
    # up would name pytest's frame instead of this file.
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        if entry == "bootstrap_statistics":
            reps = bootstrap_statistics(data_nv, fails_k_times, cfg, n_stats=1)
            n_failed = int(np.isnan(reps[:, 0]).sum())
        elif entry == "bootstrap_ci":
            n_failed = bootstrap_ci(data_nv, FailsOnReplicates(), rule, "iptw", cfg).n_failed
        else:
            attach_bootstrap_intervals(report, data_nv, FailsOnReplicates(), cfg)
            n_failed = report.cells[0].psi_interval.n_failed
    assert n_failed == k
    if k == 1:
        assert not record
    else:
        (w,) = record
        assert str(w.message) == f"{k} of 100 bootstrap replicates failed and were dropped"
        assert w.filename == __file__


def test_bootstrap_statistics_is_deterministic(data_nv):
    def stat(ds):
        return np.array([ds.y.mean(), ds.a.mean()])

    cfg = BootstrapConfig(replicates=30, seed=5)
    a = bootstrap_statistics(data_nv, stat, cfg, n_stats=2)
    b = bootstrap_statistics(data_nv, stat, cfg, n_stats=2)
    np.testing.assert_array_equal(a, b)
    c = bootstrap_statistics(data_nv, stat, BootstrapConfig(replicates=30, seed=6), 2)
    assert not np.array_equal(a, c)


def test_bootstrap_config_validation():
    with pytest.raises(ValidationError):
        BootstrapConfig(replicates=0)
    with pytest.raises(ValidationError):
        BootstrapConfig(interval="studentized")
    with pytest.raises(ValidationError):
        BootstrapConfig(level=1.0)
    # numpy's generators take no negative seed, and used to raise their own
    # ValueError at the first resample.
    with pytest.raises(ValidationError, match="bootstrap seed must be >= 0"):
        BootstrapConfig(seed=-1)
    # A fractional count used to pass here and fail in the resampling.
    with pytest.raises(ValidationError, match="bootstrap replicates must be an integer, got 2.5"):
        BootstrapConfig(replicates=2.5)
    with pytest.raises(ValidationError, match="bootstrap seed must be an integer"):
        BootstrapConfig(seed=1.0)
    assert BootstrapConfig(replicates=np.int64(3), seed=np.int64(0)).replicates == 3


def test_bootstrap_ci_psi_and_rr(data_nv):
    spec = NuisanceSpec()
    cfg = BootstrapConfig(replicates=40, seed=9)
    rule = Rule(family="realistic", target=3, alpha=0.05)
    ci = bootstrap_ci(data_nv, spec, rule, "gcomp", cfg)
    assert ci.lower < ci.point < ci.upper
    assert ci.b_effective == 40
    again = bootstrap_ci(data_nv, spec, rule, "gcomp", cfg)
    assert (ci.lower, ci.upper) == (again.lower, again.upper)
    rr = bootstrap_ci(data_nv, spec, rule, "driptw", cfg, parameter="rr")
    assert rr.lower < rr.upper
    with pytest.raises(ValidationError):
        bootstrap_ci(data_nv, spec, rule, "gcomp", cfg, parameter="ate")


def test_attach_bootstrap_intervals_shares_replicates(data_nv, models_nv):
    g_model, q_model = models_nv
    report = estimate_suite(
        data_nv, g_model, q_model,
        families=("static", "realistic"), targets=(2,),
        estimators=("gcomp", "tmle"), alpha=0.0,
    )
    cfg = BootstrapConfig(replicates=25, seed=1)
    attach_bootstrap_intervals(report, data_nv, NuisanceSpec(), cfg)
    for cell in report.cells:
        assert cell.psi_interval is not None
        assert cell.rr_interval is not None
        assert cell.psi_interval.b_effective == 25
    # At alpha = 0 the realistic rule is the static rule, and because all
    # cells share replicate draws the intervals agree exactly.
    s = report.cell("static", 2, "gcomp")
    r = report.cell("realistic", 2, "gcomp")
    assert s.psi_interval.lower == r.psi_interval.lower
    assert s.psi_interval.upper == r.psi_interval.upper
    assert report.metadata["bootstrap"]["replicates"] == 25


def test_bootstrap_ci_equals_the_grid_interval_of_every_cell(data_nv):
    """``bootstrap_ci`` and ``attach_bootstrap_intervals`` share one replicate
    engine, so on the same draws every psi and RR interval is identical."""
    spec = NuisanceSpec()
    cfg = BootstrapConfig(replicates=4, seed=3, level=0.9)
    report = estimate_suite(data_nv, spec.fit_g(data_nv), spec.fit_q(data_nv),
                            targets=(1, 2), alpha=0.1)
    attach_bootstrap_intervals(report, data_nv, spec, cfg)
    assert len(report.cells) == 3 * 2 * 4
    for cell in report.cells:
        rule = Rule(family=cell.family, target=cell.target, alpha=0.1)
        for parameter in ("psi", "rr"):
            ci = bootstrap_ci(data_nv, spec, rule, cell.estimator, cfg, parameter=parameter)
            assert ci == getattr(cell, f"{parameter}_interval"), (cell, parameter)


@pytest.mark.parametrize("estimators, families, unused", [
    (("gcomp",), ("static",), "fit_treatment_model"),
    (("iptw",), ("static", "realistic", "itt"), "fit_outcome_model"),
])
def test_grid_replicates_fit_only_the_models_their_cells_need(
    monkeypatch, data_nv, models_nv, estimators, families, unused
):
    """G-computation under static rules never fits g and IPTW never fits Q,
    also when a replicate serves a whole report."""
    import causalrules.estimators as est_module

    g_model, q_model = models_nv
    report = estimate_suite(data_nv, g_model, q_model, families=families,
                            targets=(2,), estimators=estimators)
    calls = []
    original = getattr(est_module, unused)
    monkeypatch.setattr(est_module, unused, lambda *a, **k: calls.append(1) or original(*a, **k))
    attach_bootstrap_intervals(report, data_nv, NuisanceSpec(), BootstrapConfig(replicates=3))
    assert calls == []
    assert all(c.psi_interval.b_effective == 3 for c in report.cells)


@pytest.mark.parametrize("estimator", ["gcomp", "iptw", "driptw", "tmle"])
def test_rr_interval_at_target_zero_is_rejected_before_any_replicate(
    monkeypatch, data_nv, estimator
):
    """G-computation used to refit B times and return [1, 1]; TMLE raised."""
    import causalrules.inference as inference

    def no_replicates(*args, **kwargs):
        raise AssertionError("a replicate was drawn")

    monkeypatch.setattr(inference, "bootstrap_statistics", no_replicates)
    with pytest.raises(ValidationError, match="must differ from the reference level 0"):
        bootstrap_ci(data_nv, NuisanceSpec(), Rule(family="static", target=0), estimator,
                     BootstrapConfig(replicates=3), parameter="rr")
