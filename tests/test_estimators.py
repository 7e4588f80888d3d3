import gc
import itertools
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit

from causalrules import (
    DGP_REGISTRY,
    ConvergenceError,
    CounterfactualEstimate,
    Dataset,
    EstimationError,
    FitError,
    GeneratingDistribution,
    Rule,
    RuleInfeasibleError,
    ValidationError,
    driptw,
    estimate_psi,
    estimate_suite,
    fit_outcome_model,
    fit_treatment_model,
    gcomp,
    generate,
    iptw,
    make_outcome_model,
    make_treatment_model,
    relative_risk_plugin,
    tmle_mean,
    tmle_relative_risk,
)
from causalrules import errors, estimators, glm
from causalrules.errors import CausalRulesError
from causalrules.estimators import (
    ESTIMATORS,
    MIN_PSI_DENOMINATOR,
    EstimateDiagnostics,
    RelativeRiskEstimate,
    _describe,
    _evaluate,
    _grid,
    _Patterns,
    _weight_scale,
    psi_from_arrays,
    rr_tmle_from_arrays,
)
from causalrules.glm import fit_fluctuation
from causalrules.rules import (
    EMPTY_SET_POLICIES,
    FAMILIES,
    assign,
    membership_matrix,
    realistic_assignments,
)

# A fully hand-checkable setup: K=3, g = (1/4, 1/2, 1/4) for every row,
# Q(0)=0.2, Q(1)=0.6, Q(2)=0.8 regardless of the covariate.
G3 = make_treatment_model(("x",), [[math.log(2.0), 0.0], [0.0, 0.0]])
Q3 = make_outcome_model(("x",), 3, [math.log(0.25), 0.0, math.log(6.0), math.log(16.0)])

DS3 = Dataset(
    w=np.array([[0], [1], [0], [1], [0]]),
    a=np.array([0, 1, 1, 2, 0]),
    y=np.array([1, 0, 1, 1, 0]),
    covariate_names=("x",),
    n_treatment_levels=3,
)


def test_stub_models_are_what_the_hand_calcs_assume():
    probs = G3.predict_raw(DS3.w)
    np.testing.assert_allclose(probs, np.tile([0.25, 0.5, 0.25], (5, 1)), atol=1e-12)
    for a, want in ((0, 0.2), (1, 0.6), (2, 0.8)):
        np.testing.assert_allclose(Q3.predict(a, DS3.w), want, atol=1e-12)


def test_static_point_estimates_by_hand():
    rule = Rule(family="static", target=1)
    assert gcomp(DS3, Q3, rule).psi == pytest.approx(0.6, abs=1e-12)
    # Arm-1 rows have Y = 0, 1 and weight 1/0.5: (0 + 2) / 5.
    assert iptw(DS3, G3, rule).psi == pytest.approx(0.4, abs=1e-12)
    # 0.6 + mean of weighted residuals (-1.2 + 0.8)/5.
    assert driptw(DS3, G3, Q3, rule).psi == pytest.approx(0.52, abs=1e-12)
    # The fluctuated regression is constant in W here, so TMLE lands on
    # the arm-1 empirical mean.
    est = tmle_mean(DS3, G3, Q3, rule)
    assert est.psi == pytest.approx(0.5, abs=1e-10)
    assert abs(est.diagnostics.score_residual) <= 1e-8
    assert est.diagnostics.epsilon == pytest.approx(-math.log(1.5) / 2.0, abs=1e-9)


def test_realistic_assignment_respects_feasible_set():
    # alpha = 0.3 leaves only level 1 feasible (g = 0.5).
    for target in (1, 2):
        rule = Rule(family="realistic", target=target, alpha=0.3)
        assert gcomp(DS3, Q3, rule, G3).psi == pytest.approx(0.6, abs=1e-12)
    with pytest.raises(RuleInfeasibleError):
        gcomp(DS3, Q3, Rule(family="realistic", target=0, alpha=0.3), G3)
    fallback = Rule(family="realistic", target=0, alpha=0.3,
                    empty_set_policy="assign_min_realistic")
    assert gcomp(DS3, Q3, fallback, G3).psi == pytest.approx(0.6, abs=1e-12)


def test_itt_with_nowhere_feasible_target_returns_mean_outcome():
    """When the target is feasible nowhere every ITT estimator reduces to
    the sample mean of Y, each through a different formula."""
    rule = Rule(family="itt", target=2, alpha=0.3)
    want = DS3.y.mean()
    assert gcomp(DS3, Q3, rule, G3).psi == pytest.approx(want, abs=1e-12)
    assert iptw(DS3, G3, rule).psi == pytest.approx(want, abs=1e-12)
    assert driptw(DS3, G3, Q3, rule).psi == pytest.approx(want, abs=1e-12)
    assert tmle_mean(DS3, G3, Q3, rule).psi == pytest.approx(want, abs=1e-10)


def test_plugin_relative_risk():
    est1 = gcomp(DS3, Q3, Rule(family="static", target=1))
    est0 = gcomp(DS3, Q3, Rule(family="static", target=0))
    rr = relative_risk_plugin(est1, est0)
    assert rr.theta == pytest.approx(3.0, abs=1e-10)
    assert rr.psi_numerator == pytest.approx(0.6, abs=1e-12)
    with pytest.raises(ValidationError):
        relative_risk_plugin(est1, est1)  # denominator must target level 0


def test_plugin_relative_risk_guards_zero_denominator():
    zero = CounterfactualEstimate(
        estimator="gcomp", rule=Rule(family="static", target=0), psi=0.0,
        diagnostics=EstimateDiagnostics(n=5),
    )
    one = CounterfactualEstimate(
        estimator="gcomp", rule=Rule(family="static", target=1), psi=0.4,
        diagnostics=EstimateDiagnostics(n=5),
    )
    with pytest.raises(EstimationError, match="numerically zero"):
        relative_risk_plugin(one, zero)


def test_driptw_collapses_to_iptw_when_q_is_zero():
    q_zero = make_outcome_model(("x",), 3, [-800.0, 0.0, 0.0, 0.0])
    assert q_zero.predict(1, DS3.w).max() == 0.0
    for family, alpha in (("static", 0.05), ("realistic", 0.3), ("itt", 0.3)):
        for target in (1, 2):
            rule = Rule(family=family, target=target, alpha=alpha)
            a = driptw(DS3, G3, q_zero, rule).psi
            b = iptw(DS3, G3, rule).psi
            if family == "itt":
                # Infeasible rows contribute raw Y in both forms.
                assert a == pytest.approx(b, abs=1e-12)
            else:
                assert a == b


def test_driptw_collapses_to_gcomp_when_q_is_exact():
    y_det = (DS3.a >= 1).astype(int)
    ds = Dataset(w=DS3.w, a=DS3.a, y=y_det, covariate_names=("x",),
                 n_treatment_levels=3)
    q_exact = make_outcome_model(("x",), 3, [-800.0, 0.0, 1600.0, 1600.0])
    np.testing.assert_array_equal(q_exact.predict(ds.a, ds.w), y_det)
    for family, alpha in (("static", 0.05), ("realistic", 0.3), ("itt", 0.3)):
        for target in (1, 2):
            rule = Rule(family=family, target=target, alpha=alpha)
            a = driptw(ds, G3, q_exact, rule).psi
            b = gcomp(ds, q_exact, rule, G3).psi
            assert a == pytest.approx(b, abs=1e-12)


def test_iptw_with_intercept_only_g_is_the_arm_mean(data_nv):
    from causalrules import fit_treatment_model

    g_flat = fit_treatment_model(data_nv, covariate_names=())
    for a in range(6):
        rule = Rule(family="static", target=a)
        est = iptw(data_nv, g_flat, rule, truncate_weights=False)
        arm_mean = data_nv.y[data_nv.a == a].mean()
        assert est.psi == pytest.approx(arm_mean, abs=1e-10)


def test_weight_truncation_rescales_exactly():
    rng = np.random.default_rng(23)
    n = 100
    a = np.repeat([0, 1, 2], [2, 49, 49])
    y = np.zeros(n, dtype=int)
    y[a == 0] = 1
    ds = Dataset(w=rng.integers(0, 2, (n, 1)), a=a, y=y, covariate_names=("x",),
                 n_treatment_levels=3)
    from causalrules import fit_treatment_model

    g_flat = fit_treatment_model(ds, covariate_names=())  # raw g(0) = 0.02
    rule = Rule(family="static", target=0)
    raw = iptw(ds, g_flat, rule, truncate_weights=False).psi
    floored = iptw(ds, g_flat, rule, truncate_weights=True).psi
    assert raw == pytest.approx(1.0, abs=1e-9)
    assert floored == pytest.approx(0.4, abs=1e-9)  # scaled by 0.02/0.05


def test_tmle_solves_its_estimating_equation(data_nv, models_nv):
    g_model, q_model = models_nv
    for family in ("static", "realistic", "itt"):
        for target in (0, 2, 5):
            rule = Rule(family=family, target=target, alpha=0.05)
            est = tmle_mean(data_nv, g_model, q_model, rule)
            assert abs(est.diagnostics.score_residual) <= 1e-8, (family, target)


def test_tmle_equals_driptw_at_updated_q(data_nv, models_nv):
    """Reconstruct Q1 from the reported epsilon and evaluate the augmented
    IPTW formula directly; the targeted substitution must agree."""
    g_model, q_model = models_nv
    rule = Rule(family="realistic", target=2, alpha=0.05)
    est = tmle_mean(data_nv, g_model, q_model, rule)
    eps = est.diagnostics.epsilon

    probs_raw = g_model.predict_raw(data_nv.w)
    probs_trunc = np.maximum(probs_raw, g_model.alpha_trunc)
    member = probs_raw >= rule.alpha
    # Highest feasible level at or below the target, row by row.
    assigned = np.array([
        max(l for l in range(rule.target + 1) if member[i, l])
        for i in range(data_nv.n)
    ])
    g_obs = probs_trunc[np.arange(data_nv.n), data_nv.a]
    h_obs = np.where(data_nv.a == assigned, 1.0 / g_obs, 0.0)
    q1_obs = expit(q_model.linear_predictor(data_nv.a, data_nv.w) + eps * h_obs)
    g_d = probs_trunc[np.arange(data_nv.n), assigned]
    q1_d = expit(q_model.linear_predictor(assigned, data_nv.w) + eps / g_d)
    by_hand = np.mean(h_obs * (data_nv.y - q1_obs) + q1_d)
    assert est.psi == pytest.approx(float(q1_d.mean()), abs=1e-12)
    assert est.psi == pytest.approx(by_hand, abs=1e-9)


def test_tmle_relative_risk_converges(data_nv, models_nv):
    g_model, q_model = models_nv
    for family in ("static", "realistic", "itt"):
        rr = tmle_relative_risk(data_nv, g_model, q_model, family, 3)
        assert rr.converged
        assert abs(rr.epsilons[-1]) < 1e-6
        assert abs(rr.score_residual) <= 1e-8
        assert rr.theta == pytest.approx(rr.psi_numerator / rr.psi_denominator,
                                         abs=1e-12)
        assert rr.iterations <= 50


def test_relative_risk_targeting_stops_at_its_iteration_budget(monkeypatch, data_nv, models_nv):
    g_model, q_model = models_nv
    # One step is not enough to converge here.
    monkeypatch.setattr(estimators, "_RR_MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match="did not converge in 1 iterations") as err:
        tmle_relative_risk(data_nv, g_model, q_model, "static", 2)
    assert len(err.value.trace) == 1


def test_itt_appendix_covariate_converges_and_recovers_the_null():
    problems = []
    for name, factory in DGP_REGISTRY.items():
        ds = generate(factory(), 1500, seed=31)
        g_model, q_model = fit_treatment_model(ds), fit_outcome_model(ds)
        for target in (1, 3, 5):
            rr = tmle_relative_risk(ds, g_model, q_model, "itt", target,
                                    itt_covariate="appendix")
            if not rr.converged or abs(rr.epsilons[-1]) >= 1e-6:
                problems.append(f"{name} {target}: eps {rr.epsilons[-1]:.1e}")
            if abs(rr.score_residual) > 1e-8:
                problems.append(f"{name} {target}: residual {rr.score_residual:.1e}")
    assert not problems, problems

    gen = DGP_REGISTRY["null_effect"]()
    thetas = []
    for child in np.random.SeedSequence(404).spawn(25):
        ds = generate(gen, 2000, np.random.default_rng(child))
        g_model, q_model = fit_treatment_model(ds), fit_outcome_model(ds)
        thetas.append(tmle_relative_risk(ds, g_model, q_model, "itt", 3,
                                         itt_covariate="appendix").theta)
    thetas = np.asarray(thetas)
    z = abs(thetas.mean() - 1.0) / (thetas.std(ddof=1) / np.sqrt(thetas.size))
    assert z <= 3.0, (thetas.mean(), z)


def test_estimate_suite_cells_equal_the_per_rule_entry_points(data_nv, models_nv):
    """The grid runs on arrays evaluated once; every cell must equal what
    the public per-rule functions return, exactly."""
    g_model, q_model = models_nv
    report = estimate_suite(data_nv, g_model, q_model, alpha=0.1,
                            truncate_weights={"iptw": False})
    assert len(report.cells) == 3 * 5 * 4
    for cell in report.cells:
        assert cell.psi_error is None and cell.rr_error is None, cell
        truncate = cell.estimator != "iptw"
        psi = {
            t: estimate_psi(cell.estimator, data_nv, g_model, q_model,
                            Rule(family=cell.family, target=t, alpha=0.1),
                            truncate_weights=truncate)
            for t in (0, cell.target)
        }
        assert cell.psi == psi[cell.target]
        if cell.estimator == "tmle":
            rr = tmle_relative_risk(data_nv, g_model, q_model, cell.family, cell.target,
                                    alpha=0.1, truncate_weights=truncate)
        else:
            rr = relative_risk_plugin(psi[cell.target], psi[0])
        assert cell.rr == rr


def test_estimate_psi_dispatch_validation(data_nv, models_nv):
    g_model, q_model = models_nv
    rule = Rule(family="static", target=1)
    with pytest.raises(ValidationError, match="unknown estimator"):
        estimate_psi("ipw", data_nv, g_model, q_model, rule)
    with pytest.raises(ValidationError, match="outcome model"):
        estimate_psi("gcomp", data_nv, g_model, None, rule)
    with pytest.raises(ValidationError, match="treatment model"):
        estimate_psi("iptw", data_nv, None, q_model, rule)
    # gcomp under a static rule never needs g.
    est = estimate_psi("gcomp", data_nv, None, q_model, rule)
    assert 0.0 <= est.psi <= 1.0


def test_estimate_suite_grid(data_nv, models_nv):
    g_model, q_model = models_nv
    report = estimate_suite(
        data_nv, g_model, q_model,
        families=("static", "realistic", "itt"), targets=(1, 3),
    )
    assert len(report.cells) == 3 * 2 * 4
    for cell in report.cells:
        assert cell.psi_error is None, cell
        assert cell.rr_error is None, cell
        assert cell.rr is not None
    c = report.cell("realistic", 3, "tmle")
    assert c.rr.converged
    header, rows = report.rr_table()
    assert header == ["family", "target", "G-comp", "IPTW", "DR-IPTW", "TMLE"]
    assert len(rows) == 6
    assert all(len(r) == 6 for r in rows)
    meta = report.metadata
    assert meta["n"] == data_nv.n
    assert meta["g_converged"] and meta["q_converged"]


def test_estimate_suite_records_cell_failures(data_nv, models_nv):
    g_model, q_model = models_nv
    report = estimate_suite(
        data_nv, g_model, q_model,
        families=("static", "realistic"), targets=(5,), alpha=0.45,
        estimators=("gcomp",),
    )
    static_cell = report.cell("static", 5, "gcomp")
    assert static_cell.psi is not None
    real_cell = report.cell("realistic", 5, "gcomp")
    assert real_cell.psi is None
    assert "RuleInfeasibleError" in real_cell.psi_error
    d = report.to_dict()
    assert d["cells"][0]["family"] == "static"


def test_untruncated_weights_at_a_structural_zero_fail_only_the_tmle_cells():
    """Level 5 has structural zeros, so with untruncated weights every
    TMLE cell would divide by a zero ``g`` at the level it assigns; its
    error names that level, and the other estimators keep their psi."""
    ds = generate(DGP_REGISTRY["structural_zero"](), 800, 4)
    report = estimate_suite(
        ds, fit_treatment_model(ds), fit_outcome_model(ds), alpha=0.0,
        truncate_weights=False, targets=(5,),
    )
    message = "EstimationError: zero treatment probability at {}"
    for family in ("static", "realistic", "itt"):
        tmle = report.cell(family, 5, "tmle")
        assert tmle.psi is None and tmle.rr is None
        level = "the target level" if family == "itt" else "an assigned level"
        assert tmle.psi_error == message.format(level)
        assert tmle.rr_error == message.format("an assigned level")
        for est, psi in (("gcomp", 0.044807), ("iptw", 0.012589), ("driptw", 0.046235)):
            cell = report.cell(family, 5, est)
            assert cell.psi_error is None
            assert cell.psi.psi == pytest.approx(psi, abs=1e-6)


def test_infeasible_rule_errors_name_input_rows():
    """The grid runs on distinct (W, A) patterns, yet an infeasible
    realistic rule must name the first failing input rows, exactly as a
    row-by-row assignment does (the failing rows here are not 0..9)."""
    ds = generate(DGP_REGISTRY["cohort"](), 600, seed=5)
    g_model, q_model = fit_treatment_model(ds), fit_outcome_model(ds)
    member = membership_matrix(g_model.predict_raw(ds.w), 0.3)
    for policy in EMPTY_SET_POLICIES:
        with pytest.raises(RuleInfeasibleError) as err:
            realistic_assignments(member, 1, policy)
        assert err.value.rows != list(range(10))
        want = f"RuleInfeasibleError: {err.value}"
        report = estimate_suite(ds, g_model, q_model, families=("realistic",),
                                targets=(1,), alpha=0.3, empty_set_policy=policy)
        for cell in report.cells:
            assert cell.psi_error == want, (policy, cell.estimator)
            rr_want = want if cell.estimator == "tmle" else (
                f"EstimationError: numerator failed: {want}")
            assert cell.rr_error == rr_want, (policy, cell.estimator)


# ---------------------------------------------------------------------------
# The fitted grid is a function of the sample's patterns and their shares


@st.composite
def _small_systems(draw, levels=(2, 4)):
    """A random system on 1-3 binary covariates, uniform over their
    patterns, with 2-4 treatment levels (or as many as ``levels`` spans)."""
    p = draw(st.integers(1, 3))
    k = draw(st.integers(*levels))
    names = tuple(f"w{j}" for j in range(p))
    coef = st.floats(-1.5, 1.5, allow_nan=False, allow_subnormal=False)
    g = make_treatment_model(names, draw(arrays(float, (k - 1, p + 1), elements=coef)))
    q = make_outcome_model(names, k, draw(arrays(float, p + k, elements=coef)))
    support = np.array([[(j >> b) & 1 for b in range(p)] for j in range(2 ** p)])
    return GeneratingDistribution(support, np.full(2 ** p, 2.0 ** -p), names, g, q)


@st.composite
def _small_samples(draw):
    """A sample of 150-300 rows from a random system (:func:`_small_systems`)."""
    gen = draw(_small_systems())
    return generate(gen, draw(st.integers(150, 300)), seed=draw(st.integers(0, 2 ** 31)))


def _fitted_grid(ds, scale=1):
    """Every psi and theta of the grid fitted on ``ds``; a failed cell or
    fit gives its exception type (row numbers in messages follow the order).

    The g and Q fits stop on the summed score, which grows with the number
    of rows, so their tolerance ``glm.GTOL`` is scaled with it: a sample
    repeated ``scale`` times then takes the same Newton iterates and stops
    at the same one.
    """
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(glm, "GTOL", scale * glm.GTOL)
            g_model, q_model = fit_treatment_model(ds), fit_outcome_model(ds)
        report = estimate_suite(ds, g_model, q_model)
    except FitError as exc:
        return type(exc).__name__
    return {
        (c.family, c.target, c.estimator): (
            c.psi.psi if c.psi else c.psi_error.split(":")[0],
            c.rr.theta if c.rr else (c.rr_error or "").split(":")[0],
        )
        for c in report.cells
    }


@pytest.mark.parametrize("copies", [1, 2])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_grid_is_invariant_to_row_order_and_duplication(copies, data):
    """Shuffling the rows (copies=1) or repeating every row (copies=2)
    leaves every estimate unchanged."""
    ds = data.draw(_small_samples())
    rows = np.random.default_rng(0).permutation(np.tile(np.arange(ds.n), copies))
    want, got = _fitted_grid(ds), _fitted_grid(ds.take(rows), scale=copies)
    if isinstance(want, str):
        assert got == want
        return
    assert got.keys() == want.keys()
    for key, values in want.items():
        for a, b in zip(got[key], values):
            if isinstance(b, str):
                assert a == b, key
            else:
                assert abs(a - b) <= 1e-10, key


def _expanded(ds, table):
    """``table``'s data with one covariate row and one pattern per input
    row, each one trial."""
    rows = np.arange(ds.n)
    return _Patterns(
        w=rows, a=ds.a, successes=ds.y.astype(float), trials=np.ones(ds.n),
        n_w=np.ones(ds.n), w_inverse=rows, k=table.k,
        G=table.G[table.w_inverse], M=table.M[table.w_inverse],
    )


def _outcome(fn, *args, **kwargs):
    """The estimate as a dict, or the failure as (type name, message)."""
    try:
        return fn(*args, **kwargs).to_dict()
    except CausalRulesError as exc:
        return type(exc).__name__, str(exc)


def _assert_same(got, want, where):
    if isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= 1e-12, (where, got, want)
    elif isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            _assert_same(got[key], want[key], (where, key))
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want), (where, got, want)
        for u, v in zip(got, want):
            _assert_same(u, v, where)
    else:
        assert got == want, (where, got, want)


def _recorded(fn, *args, **kwargs):
    """:func:`_outcome` of ``fn``, and the ``(successes, trials, h, offset)``
    of every fluctuation it fits, in order."""
    problems = []

    def recording(y, h, offset, trials=None, n_obs=None):
        problems.append((y, 1.0 if trials is None else trials, h, offset))
        return fit_fluctuation(y, h, offset, trials=trials, n_obs=n_obs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimators, "fit_fluctuation", recording)
        return _outcome(fn, *args, **kwargs), problems


def _assert_same_estimate(got, want, where, problems):
    """:func:`_assert_same`, but each epsilon by :func:`_flat_or_equal`
    against the fluctuation ``problems`` that gave ``want``'s."""
    if isinstance(got, dict) and isinstance(want, dict):
        got, want = _assert_epsilons(got, want, where, problems)
    _assert_same(got, want, where)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_estimators_on_patterns_equal_the_expanded_rows(data):
    """Every estimator on (W, A) patterns with successes out of trials
    equals the same estimator on one row per observation: psi, theta and
    residuals to 1e-12, every count exactly, and every failure with the
    same type and message (rows named included).  Epsilons match to 1e-12
    too, except where the fluctuation score is flat (see
    :func:`_flat_or_equal`)."""
    ds = data.draw(_small_samples())
    alpha = data.draw(st.sampled_from([0.0, 0.1, 0.3, 0.5]))
    policy = data.draw(st.sampled_from(EMPTY_SET_POLICIES))
    truncate = data.draw(st.booleans())
    try:
        g_model, q_model = fit_treatment_model(ds), fit_outcome_model(ds)
    except FitError:
        return
    grouped = _evaluate(ds, g_model, q_model)
    assert grouped.a.size < ds.n
    tables = [
        (table, _weight_scale(table.G, g_model, truncate))
        for table in (grouped, _expanded(ds, grouped))
    ]
    for family in FAMILIES:
        for target in range(ds.n_treatment_levels):
            rule = Rule(family=family, target=target, alpha=alpha, empty_set_policy=policy)
            for est in ESTIMATORS:
                got = _outcome(psi_from_arrays, est, rule, *tables[0])
                want, problems = _recorded(psi_from_arrays, est, rule, *tables[1])
                _assert_same_estimate(got, want, (rule, est), problems)
            for covariate in ("delta", "appendix") if target else ():
                options = dict(alpha=alpha, empty_set_policy=policy, itt_covariate=covariate)
                got = _outcome(rr_tmle_from_arrays, family, target, *tables[0], **options)
                want, problems = _recorded(
                    rr_tmle_from_arrays, family, target, *tables[1], **options
                )
                _assert_same_estimate(got, want, (rule, covariate), problems)


def test_a_flat_fluctuation_score_fixes_psi_but_not_epsilon():
    """Every outcome at the target level is 1, so the TMLE score
    ``s(e) = h . (y - trials * expit(m + e h))`` only decays towards 0 as
    ``e`` grows and is flat where it meets the tolerance.  The grouped and
    the expanded tables may then stop at different epsilons; what holds
    on both is ``|s| <= 1e-10`` and the same psi to 1e-12."""
    names = ("w0",)
    gen = GeneratingDistribution(
        np.array([[0], [1]]), np.array([0.5, 0.5]), names,
        make_treatment_model(names, np.array([[0.12, -0.6], [-0.23, -1.42], [-1.13, 0.51]])),
        make_outcome_model(names, 4, np.array([1.94, 0.35, -0.35, 1.49, 1.44])),
    )
    ds = generate(gen, 207, seed=1472190201)
    assert ds.y[ds.a == 3].all()
    g_model, q_model = fit_treatment_model(ds), fit_outcome_model(ds)
    grouped = _evaluate(ds, g_model, q_model)
    rule = Rule(family="static", target=3)
    psis = []
    for table in (grouped, _expanded(ds, grouped)):
        G_weights = _weight_scale(table.G, g_model, True)
        est = psi_from_arrays("tmle", rule, table, G_weights)
        h = np.where(table.a == 3, 1.0 / G_weights[table.w, 3], 0.0)
        m = table.M[table.w, table.a]

        def score(e):
            return float(h @ (table.successes - table.trials * expit(m + e * h)))

        eps = est.diagnostics.epsilon
        # Every epsilon within 1e-4 of the one found meets the tolerance.
        for e in (eps - 1e-4, eps, eps + 1e-4):
            assert abs(score(e)) <= 1e-10
        psis.append(est.psi)
    assert abs(psis[0] - psis[1]) <= 1e-12


# ---------------------------------------------------------------------------
# The grid against a per-pattern reference
#
# The package reads every term at a rule's assigned level on the distinct
# covariate rows, and every observed-level term, the fluctuation among
# them, on the patterns where the clever covariate is nonzero.  The
# reference below reads every term on every (W, A) pattern, grouped here
# from the rows, with the formulas written out in full.

# The golden samples (tests/test_golden.py): system -> (rows, seed).
_GOLDEN_SAMPLES = {
    "cohort": (1500, 1),
    "no_violation": (600, 2),
    "interaction": (600, 3),
    "structural_zero": (800, 4),
    "null_effect": (600, 5),
}


def _per_pattern(ds, table):
    """The rows of ``ds`` grouped into (W, A) patterns, with ``table``'s
    g and Q read off on every pattern."""
    k = table.k
    keys, inverse = np.unique(table.w_inverse * k + ds.a, return_inverse=True)
    w = keys // k
    return dict(
        a=keys % k, k=k, inverse=inverse, n=ds.n, w=w,
        s=np.bincount(inverse, weights=ds.y), t=np.bincount(inverse).astype(float),
        G=None if table.G is None else table.G[w], M=None if table.M is None else table.M[w],
    )


def _ref_covariate(ruled, eval_a, level, g_eval):
    match = ruled & (eval_a == level)
    g = np.where(match, g_eval, 1.0)
    if np.any(g <= 0.0):
        raise EstimationError(
            "zero treatment probability on a matched row; cannot weight by 1/g "
            "(only possible with truncation disabled)"
        )
    return np.where(match, 1.0 / g, np.where(ruled, 0.0, 1.0))


def _ref_assign(p, rule):
    """Assigned level and ruled mask of every pattern."""
    member, d = assign(rule, p["G"], p["a"], p["k"], inverse=p["inverse"])
    return d, member[:, rule.target] if rule.family == "itt" else np.ones(d.size, dtype=bool)


def _ref_weights(p, G_weights):
    return None if G_weights is None else G_weights[p["w"]]


def _ref_psi(est, rule, p, G_weights, problems):
    """One psi cell on every pattern; records the fluctuation it fits."""
    s, t, n = p["s"], p["t"], p["n"]
    d, ruled = _ref_assign(p, rule)
    at = np.stack((p["a"], d))
    flat = at + p["k"] * np.arange(d.size)
    g_at = None if est == "gcomp" else _ref_weights(p, G_weights).take(flat)
    m_at = None if est == "iptw" else p["M"].take(flat)
    if est == "gcomp":
        psi = float(np.sum(np.where(ruled, t * expit(m_at[1]), s))) / n
        return CounterfactualEstimate(est, rule, psi, EstimateDiagnostics(n=n))
    h = _ref_covariate(ruled, at[0], d, g_at[0])
    epsilon = residual = None
    weights = h
    if est == "iptw":
        psi = float(h @ s) / n
    elif est == "driptw":
        weights = np.where(ruled, h, 0.0)
        psi = float(h @ (s - t * expit(m_at[0]))) / n + float(t @ expit(m_at[1])) / n
    else:
        problems.append((s, t, h, m_at[0]))
        epsilon = fit_fluctuation(s, h, m_at[0], trials=t).epsilon
        if np.any(g_at[1, ruled] <= 0.0):
            level = "the target level" if rule.family == "itt" else "an assigned level"
            raise EstimationError(f"zero treatment probability at {level}")
        m_at = m_at + epsilon * np.stack((h, _ref_covariate(ruled, at[1], d, g_at[1])))
        psi = float(t @ expit(m_at[1])) / n
        residual = float(h @ (s - t * expit(m_at[0]))) / n
    nz = weights > 0
    n_w = int(t[nz].sum()) if nz.any() else 0
    summary = (
        (n_w, float(weights[nz].min()), float(weights[nz].max()),
         float(t[nz] @ weights[nz]) / n_w) if nz.any() else (0, None, None, None)
    )
    return CounterfactualEstimate(est, rule, psi, EstimateDiagnostics(
        n=n, epsilon=epsilon, score_residual=residual, n_weighted=summary[0],
        weight_min=summary[1], weight_max=summary[2], weight_mean=summary[3],
    ))


def _ref_rr(family, target, p, G_weights, alpha, policy, covariate, problems):
    """One RR-TMLE cell on every pattern; records every fluctuation it fits."""
    s, t, n = p["s"], p["t"], p["n"]
    rules = [Rule(family, level, alpha, policy) for level in (target, 0)]
    (d_num, ruled_num), (d_den, ruled_den) = (_ref_assign(p, r) for r in rules)
    at = np.stack((p["a"], d_num, d_den))
    flat = at + p["k"] * np.arange(d_num.size)
    g_at, m_at = _ref_weights(p, G_weights).take(flat), p["M"].take(flat)
    if np.any(g_at[1:] <= 0.0):
        raise EstimationError("zero treatment probability at an assigned level")
    if family == "itt" and covariate == "appendix":
        h_num, h_den = (
            _ref_covariate(~ruled_num, at, _ref_assign(p, replace(r, family="realistic"))[0], g_at)
            for r in rules
        )
    else:
        h_num = _ref_covariate(ruled_num, at, d_num, g_at)
        h_den = _ref_covariate(ruled_den, at, d_den, g_at)

    def plugins():
        psi_num, psi_den = (float(t @ expit(m)) / n for m in m_at[1:])
        if psi_den < MIN_PSI_DENOMINATOR:
            raise EstimationError(f"denominator psi_0 = {psi_den:.3e} is numerically zero")
        theta = psi_num / psi_den
        return theta, psi_num, psi_den, (h_num - theta * h_den) / psi_den

    epsilons = []
    theta, psi_num, psi_den, h = plugins()
    for _ in range(50):
        problems.append((s, t, h[0], m_at[0]))
        eps = fit_fluctuation(s, h[0], m_at[0], trials=t).epsilon
        epsilons.append(eps)
        m_at = m_at + eps * h
        theta, psi_num, psi_den, h = plugins()
        residual = float(h[0] @ (s - t * expit(m_at[0]))) / n
        if abs(eps) < 1e-6 and abs(residual) <= 1e-8:
            break
    else:
        raise ConvergenceError(
            f"relative-risk targeting did not converge in 50 iterations "
            f"(last epsilon {epsilons[-1]:.3e}, residual {residual:.3e})",
            trace=epsilons,
        )
    return RelativeRiskEstimate(
        "tmle", family, target, alpha, theta, psi_num, psi_den, len(epsilons), True,
        residual, tuple(epsilons),
    )


def _flat_or_equal(eps, want, problem):
    """Epsilons match to 1e-12 unless the fluctuation score is flat there:
    a fit stops anywhere in an interval where ``|s| <= 1e-10`` (see
    ``fit_fluctuation``), so ``eps`` must then solve the score equation of
    the fluctuation ``problem = (successes, trials, h, offset)`` that gave
    ``want`` to that tolerance."""
    if abs(eps - want) <= 1e-12:
        return True
    s, t, h, m = problem
    return abs(float(h @ (s - t * expit(m + eps * h)))) <= 1e-10


def _split_epsilons(d):
    """An estimate's dict without its epsilons, and the epsilons."""
    d = dict(d)
    if "epsilons" in d:
        return d, list(d.pop("epsilons"))
    d["diagnostics"] = dict(d["diagnostics"])
    return d, [d["diagnostics"].pop("epsilon")]


def _assert_epsilons(got, want, where, problems):
    """The epsilons of two estimate dicts agree by :func:`_flat_or_equal`
    on ``problems``, the fluctuations that gave ``want``'s; returns both
    dicts without them."""
    (got, eps_got), (want, eps_want) = _split_epsilons(got), _split_epsilons(want)
    assert len(eps_got) == len(eps_want), where
    for i, (e, f) in enumerate(zip(eps_got, eps_want)):
        assert (e is None) == (f is None), where
        assert e is None or _flat_or_equal(e, f, problems[i]), (where, i, e, f)
    return got, want


def _assert_matches(got, want, where, problems):
    """``got`` equals ``want``: floats to 1e-12 (relative above 1),
    every integer, string and None exactly, epsilons by
    :func:`_flat_or_equal`."""
    if isinstance(want, CausalRulesError) or isinstance(got, CausalRulesError):
        assert _describe(got) == _describe(want), where
        return
    got, want = _assert_epsilons(got.to_dict(), want.to_dict(), where, problems)
    assert got.keys() == want.keys(), where

    def same(u, v, key):
        if isinstance(v, dict):
            assert u.keys() == v.keys(), (where, key)
            for name in v:
                same(u[name], v[name], (key, name))
        elif isinstance(v, float):
            assert isinstance(u, float) and abs(u - v) <= 1e-12 * max(1.0, abs(v)), (where, key, u, v)
        else:
            assert type(u) is type(v) and u == v, (where, key, u, v)

    for key in want:
        same(got[key], want[key], key)


def _assert_grid_matches_reference(ds, g_model, q_model, settings):
    """Every psi cell of the grid, and every RR-TMLE cell when there is
    an outcome model, equals the reference under ``settings``."""
    table = _evaluate(ds, g_model, q_model)
    p = _per_pattern(ds, table)
    k = ds.n_treatment_levels
    for alpha, truncate, policy, covariate in settings:
        estimators = ESTIMATORS if q_model is not None else ("iptw",)
        labels = [(f, tg, e, "psi") for f in FAMILIES for tg in range(k) for e in estimators]
        if q_model is not None:
            labels += [(f, tg, "tmle", "rr") for f in FAMILIES for tg in range(1, k)]
        got = _grid(table, labels, g_model, alpha=alpha, empty_set_policy=policy,
                    truncate_weights=truncate, itt_covariate=covariate)
        G_weights = _weight_scale(table.G, g_model, truncate)
        for family, target, est, kind in labels:
            problems = []
            try:
                if kind == "psi":
                    rule = Rule(family, target, alpha, policy)
                    want = _ref_psi(est, rule, p, G_weights, problems)
                else:
                    want = _ref_rr(family, target, p, G_weights, alpha, policy, covariate,
                                   problems)
            except CausalRulesError as exc:
                want = exc
            where = (q_model is None, alpha, truncate, policy, covariate,
                     family, target, est, kind)
            _assert_matches(got[(family, target, est, kind)], want, where, problems)


@pytest.mark.parametrize("system", sorted(_GOLDEN_SAMPLES))
def test_the_grid_matches_a_per_pattern_reference(system):
    """Every psi cell and every RR-TMLE cell of the grid, on the golden
    sample of each system, at three alphas, with and without truncated
    weights, under both empty-set policies and both ITT covariates,
    equals the reference; so does an IPTW grid with no outcome model."""
    ds = generate(DGP_REGISTRY[system](), *_GOLDEN_SAMPLES[system])
    g_model, q_model = fit_treatment_model(ds), fit_outcome_model(ds)
    settings = list(itertools.product(
        (0.0, 0.05, 0.3), (True, False), EMPTY_SET_POLICIES, ("delta", "appendix")
    ))
    _assert_grid_matches_reference(ds, g_model, q_model, settings)
    _assert_grid_matches_reference(
        ds, g_model, None, [s for s in settings if s[3] == "delta"]
    )


def test_a_zero_probability_at_an_observed_level_left_alone_matches_the_reference():
    """Row 1 of DS3 is observed at level 1, which this g rules out where
    x = 1.  ITT target 1 at alpha 0.3 leaves that row alone, so its
    pattern keeps its observed level: with untruncated weights RR-TMLE
    fails there ("zero treatment probability at an assigned level"), as
    it does when every pattern is read at every point."""
    g_model = make_treatment_model(
        ("x",), [[math.log(2.0), 0.0], [0.0, 0.0]], structural_zeros=((1, "x"),)
    )
    settings = [(0.3, truncate, "error", covariate)
                for truncate in (True, False) for covariate in ("delta", "appendix")]
    _assert_grid_matches_reference(DS3, g_model, Q3, settings)
    results = _grid(_evaluate(DS3, g_model, Q3), [("itt", 1, "tmle", "rr")], g_model,
                    alpha=0.3, truncate_weights=False)
    assert _describe(results[("itt", 1, "tmle", "rr")]) == (
        "EstimationError: zero treatment probability at an assigned level"
    )


# ---------------------------------------------------------------------------
# Properties of the rule families on random systems


@settings(max_examples=30, deadline=None, derandomize=True)
@given(gen=_small_systems(), alphas=st.lists(st.floats(0.0, 0.6), min_size=2, max_size=4))
def test_feasible_sets_only_shrink_as_alpha_grows(gen, alphas):
    """A level feasible at some alpha is feasible at every smaller alpha,
    for realistic and ITT rules alike, and alpha 0 makes every level
    feasible."""
    alphas = sorted([0.0] + alphas)
    g_raw = gen.support_g_raw()
    m, k = g_raw.shape
    observed = np.zeros(m, dtype=np.int64)
    for target in range(k):
        for family in ("realistic", "itt"):
            members = []
            for alpha in alphas:
                rule = Rule(family, target, alpha, empty_set_policy="assign_min_realistic")
                try:
                    members.append(assign(rule, g_raw, observed, k)[0])
                except RuleInfeasibleError:
                    members.append(membership_matrix(g_raw, alpha))
            assert members[0].all()
            for wider, narrower in zip(members, members[1:]):
                assert not (narrower & ~wider).any(), (family, target, alphas)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_alpha_zero_rules_equal_the_static_rule(data):
    """At alpha = 0 every level is feasible, so realistic and ITT rules
    give the static rule's psi and relative risk, or its failure, under
    every estimator."""
    gen = data.draw(_small_systems())
    ds = generate(gen, data.draw(st.integers(150, 300)), seed=data.draw(st.integers(0, 2 ** 31)))
    try:
        g_model, q_model = fit_treatment_model(ds), fit_outcome_model(ds)
    except FitError:
        g_model, q_model = gen.g_model, gen.q_model
    report = estimate_suite(ds, g_model, q_model, alpha=0.0)

    def outcome(cell):
        return (
            cell.psi.psi if cell.psi else cell.psi_error,
            cell.rr.theta if cell.rr else cell.rr_error,
        )

    for est in ESTIMATORS:
        for target in report.targets:
            static = outcome(report.cell("static", target, est))
            for family in ("realistic", "itt"):
                assert outcome(report.cell(family, target, est)) == static, (family, target, est)


_TYPED_ERRORS = {
    name for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, CausalRulesError)
}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    gen=_small_systems(levels=(3, 6)),
    n=st.integers(200, 2000),
    seed=st.integers(0, 2 ** 31),
    alpha=st.sampled_from([0.0, 0.05, 0.1]),
    itt_covariate=st.sampled_from(["delta", "appendix"]),
)
def test_tmle_cells_solve_their_score_equations(gen, n, seed, alpha, itt_covariate):
    """Every TMLE psi and RR-TMLE cell of the grid either records a typed
    error or leaves its score residual within 1e-8."""
    ds = generate(gen, n, seed=seed)
    try:
        g_model, q_model = fit_treatment_model(ds), fit_outcome_model(ds)
    except FitError:
        return  # e.g. a level the sample never drew
    report = estimate_suite(
        ds, g_model, q_model, estimators=("tmle",), alpha=alpha, itt_covariate=itt_covariate,
    )
    for c in report.cells:
        if c.psi is None:
            assert c.psi_error.split(":")[0] in _TYPED_ERRORS, c.psi_error
        else:
            assert abs(c.psi.diagnostics.score_residual) <= 1e-8, c
        if c.rr is None:
            assert c.rr_error.split(":")[0] in _TYPED_ERRORS, c.rr_error
        else:
            assert abs(c.rr.score_residual) <= 1e-8, c


def test_grid_errors_keep_no_pattern_table_alive(data_nv, models_nv):
    """A failed cell keeps its error, but not the error's traceback, whose
    frames hold the pattern table: in a replicate loop every replicate's
    table would otherwise outlive it, until the cyclic collector ran."""
    g_model, q_model = models_nv
    gc.disable()
    try:
        table = _evaluate(data_nv, g_model, q_model)
        alive = weakref.ref(table)
        results = _grid(
            table,
            [("realistic", 2, "gcomp", "psi"), ("realistic", 2, "gcomp", "rr"),
             ("realistic", 2, "tmle", "rr"), ("static", 0, "iptw", "rr")],
            g_model, alpha=0.9,
        )
        del table
        assert alive() is None
    finally:
        gc.enable()
    assert all(isinstance(r, CausalRulesError) for r in results.values()), results


def test_a_pattern_table_makes_one_membership_matrix_per_alpha(monkeypatch, data_nv, models_nv):
    """Every realistic and ITT rule at one alpha reads the same feasibility
    matrix off the table's G; static rules and alpha = 0 read none."""
    import causalrules.estimators as est_module

    g_model, q_model = models_nv
    made = []

    def counted(g_probs, alpha):
        made.append(alpha)
        return membership_matrix(g_probs, alpha)

    monkeypatch.setattr(est_module, "membership_matrix", counted)
    table = _evaluate(data_nv, g_model, q_model)
    labels = [(f, t, e, "psi") for f in FAMILIES for t in range(6) for e in ESTIMATORS]
    labels += [(f, t, "tmle", "rr") for f in FAMILIES for t in range(1, 6)]
    for alpha in (0.05, 0.0, 0.1, 0.05):
        _grid(table, labels, g_model, alpha=alpha)
    assert made == [0.05, 0.1]


def test_a_failed_one_cell_call_keeps_no_pattern_table_alive(monkeypatch):
    """The table keeps a rule's assignment error without its traceback and
    raises a copy, so the error a caller catches does not tie the table
    into a reference cycle."""
    import causalrules.estimators as est_module

    sample = generate(DGP_REGISTRY["structural_zero"](), 2000, seed=0)
    g_model, q_model = fit_treatment_model(sample), fit_outcome_model(sample)
    original, alive = est_module._evaluate, []

    def evaluate(*args):
        table = original(*args)
        alive.append(weakref.ref(table))
        return table

    monkeypatch.setattr(est_module, "_evaluate", evaluate)
    gc.disable()
    try:
        try:
            estimate_psi("gcomp", sample, g_model, q_model, Rule("realistic", 2, alpha=0.9))
        except RuleInfeasibleError:
            pass
        else:
            pytest.fail("the rule should have no feasible level")
        assert len(alive) == 1 and alive[0]() is None
    finally:
        gc.enable()
