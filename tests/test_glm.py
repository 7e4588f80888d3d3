import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize, minimize_scalar
from scipy.special import expit, logit, logsumexp

from causalrules import (
    DGP_REGISTRY,
    ConvergenceError,
    Dataset,
    OutcomeDesign,
    SeparationError,
    SingularInformationError,
    ValidationError,
    cohort_dgp,
    fit_fluctuation,
    fit_outcome_model,
    fit_treatment_model,
    generate,
    load_models,
    save_models,
)
from causalrules import glm
from causalrules.estimators import _weight_scale
from causalrules.glm import INTERCEPT_NAME, _columns_for
from causalrules.ingest import _distinct_rows


# ---------------------------------------------------------------------------
# Binary logistic


def _logistic(X, y, feature_names=None):
    """Logistic regression of 0/1 ``y`` on the design ``X`` through the
    ``Q`` fit's core, on the distinct rows of ``X`` with their successes
    out of trials; returns the coefficients and the fit record."""
    first, inverse = _distinct_rows(X)
    names = feature_names or tuple(f"x{j}" for j in range(X.shape[1]))
    return glm._fit_binomial(
        X[first], np.bincount(inverse, weights=y), np.bincount(inverse).astype(float),
        len(y), names,
    )


def _dataset(w, a, k_levels, names=None):
    """A dataset of 0/1 covariate rows ``w`` and levels ``a``; every outcome is 0."""
    names = names or tuple(f"w{j}" for j in range(w.shape[1]))
    return Dataset(w=w, a=np.asarray(a), y=np.zeros(len(a), dtype=int),
                   covariate_names=names, n_treatment_levels=k_levels)


def test_expit_matches_scipy():
    """The package's own logistic function against SciPy's, over normal
    draws at scales 0.5 to 300 and past both ends of exp's range."""
    rng = np.random.default_rng(0)
    x = np.concatenate(
        [rng.normal(0.0, scale, 5000) for scale in (0.5, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0)]
        + [np.array([709.0, -709.0, 745.0, -745.0, 800.0, -800.0])]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = glm._expit(x)
        edges = glm._expit(np.array([-np.inf, 0.0, np.inf, np.nan]))
    assert np.max(np.abs(got - expit(x))) <= 2.3e-16
    assert edges[:3].tolist() == [0.0, 0.5, 1.0]
    assert np.isnan(edges[3])


def test_logistic_saturated_closed_form():
    """Saturated two-cell fit: the MLE matches the empirical logits.

    x=0 cell has P(Y=1)=1/4 and x=1 has 3/4, so the intercept is
    logit(1/4) = -log 3 and the slope is logit(3/4) - logit(1/4) = 2 log 3.
    """
    x = np.repeat([0.0, 1.0], 4)
    y = np.array([1, 0, 0, 0, 1, 1, 1, 0], dtype=float)
    X = np.column_stack([np.ones(8), x])
    coef, info = _logistic(X, y)
    assert info.converged
    np.testing.assert_allclose(coef, [-math.log(3.0), 2.0 * math.log(3.0)], atol=1e-8)


def test_logistic_matches_true_coefficients_at_large_n():
    rng = np.random.default_rng(4)
    n = 50_000
    beta = np.array([-0.4, 0.9, -0.7])
    X = np.column_stack([np.ones(n), rng.integers(0, 2, n), rng.integers(0, 2, n)])
    y = (rng.random(n) < expit(X @ beta)).astype(float)
    coef, _ = _logistic(X, y)
    # Wald SEs from the inverse information at the fit.
    p = expit(X @ coef)
    info = (X * (p * (1 - p))[:, None]).T @ X
    se = np.sqrt(np.diag(np.linalg.inv(info)))
    assert np.all(np.abs(coef - beta) < 3.0 * se)


def test_logistic_separation_names_feature():
    x = np.repeat([0.0, 1.0], 10)
    X = np.column_stack([np.ones(20), x])
    with pytest.raises(SeparationError) as err:
        _logistic(X, x.copy(), feature_names=("(intercept)", "EXPOSED"))
    assert err.value.feature == "EXPOSED"


def test_logistic_iteration_budget(monkeypatch):
    rng = np.random.default_rng(6)
    X = np.column_stack([np.ones(60), rng.integers(0, 2, 60)])
    y = rng.integers(0, 2, 60).astype(float)
    monkeypatch.setattr(glm, "MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match="logistic fit did not converge in 1 iterations"):
        _logistic(X, y)


def test_multinomial_iteration_budget(monkeypatch):
    ds = generate(cohort_dgp(), 500, seed=0)
    monkeypatch.setattr(glm, "MAX_ITER", 1)
    with pytest.raises(ConvergenceError,
                       match="multinomial fit did not converge in 1 iterations") as err:
        fit_treatment_model(ds)
    assert len(err.value.trace) == 1


def test_identical_covariate_columns_make_both_fits_singular():
    """Two copies of one covariate leave the split of its coefficient
    between them unidentified, in ``Q`` and in ``g`` alike."""
    ds = generate(DGP_REGISTRY["no_violation"](), 600, seed=2)
    twin = Dataset(w=np.column_stack([ds.w, ds.w[:, :1]]), a=ds.a, y=ds.y,
                   covariate_names=ds.covariate_names + ("twin",),
                   n_treatment_levels=ds.n_treatment_levels)
    for fit in (fit_outcome_model, fit_treatment_model):
        with pytest.raises(SingularInformationError, match="collinear or degenerate"):
            fit(twin)


def test_a_treatment_level_with_no_rows_is_named_by_the_outcome_fit():
    """Levels 2-5 never occur: ``g`` pins them on the intercept, and the
    ``Q`` fit names them instead of reporting a singular design."""
    ds = generate(cohort_dgp(), 2000, seed=0)
    sample = ds.take(np.flatnonzero(ds.a < 2))
    assert fit_treatment_model(sample).structural_zeros[:4] == tuple(
        (l, INTERCEPT_NAME) for l in range(2, 6))
    with pytest.raises(SingularInformationError,
                       match=r"treatment levels \[2, 3, 4, 5\] have no rows"):
        fit_outcome_model(sample)


@pytest.mark.parametrize("dropped", [[0], [0, 1]])
def test_a_sample_without_the_reference_level_is_named_by_the_treatment_fit(dropped):
    """Level 0 is the multinomial logit's reference: without it no other
    level's coefficients are identified, whichever levels remain."""
    ds = generate(cohort_dgp(), 3000, seed=0)
    sample = ds.take(np.flatnonzero(~np.isin(ds.a, dropped)))
    with pytest.raises(SingularInformationError,
                       match=r"^treatment level 0 has no rows; it is the treatment model's "
                             r"reference level"):
        fit_treatment_model(sample)


# ---------------------------------------------------------------------------
# Fluctuation


def _fluct_case(seed, n=120):
    rng = np.random.default_rng(seed)
    offset = rng.normal(0.0, 0.8, n)
    h = rng.normal(0.0, 1.0, n) / np.maximum(rng.random(n), 0.1)
    y = (rng.random(n) < expit(offset + 0.3 * h)).astype(float)
    return y, h, offset


def test_fluctuation_matches_scalar_optimizer():
    """Cross-check the Newton epsilon against direct 1-d likelihood search."""
    for seed in range(6):
        y, h, offset = _fluct_case(seed)
        fit = fit_fluctuation(y, h, offset)

        def nll(eps):
            eta = offset + eps * h
            return -(y * np.log(expit(eta)) + (1 - y) * np.log(expit(-eta))).sum()

        ref = minimize_scalar(nll, bounds=(-3.0, 3.0), method="bounded",
                              options={"xatol": 1e-12})
        assert abs(fit.epsilon - ref.x) < 1e-6


def test_fluctuation_zero_covariate_gives_zero_epsilon():
    y = np.array([0.0, 1.0, 1.0, 0.0])
    fit = fit_fluctuation(y, np.zeros(4), np.full(4, 0.3))
    assert fit.epsilon == 0.0
    assert fit.info.converged


def test_fluctuation_solves_score_to_tolerance():
    for seed in (11, 12, 13):
        y, h, offset = _fluct_case(seed, n=700)
        fit = fit_fluctuation(y, h, offset)
        score = h @ (y - expit(offset + fit.epsilon * h))
        assert abs(score) / y.size <= 1e-8


def _score(y, h, offset, eps):
    return float(h @ (y - expit(offset + eps * h)))


def test_fluctuation_recovers_from_an_overshooting_newton_step():
    """RR-style contrast over g floored at 0.05 on a rare outcome: the
    full Newton step from 0 lands past the root with a larger score, so
    the bracket must catch it."""
    rng = np.random.default_rng(0)
    n = 200
    g = np.maximum(rng.random((n, 2)), 0.05)
    a = rng.integers(0, 2, n)
    h = np.where(a == 1, 1.0 / g[:, 1], -1.3 / g[:, 0])
    offset = rng.normal(-4.0, 0.5, n)
    y = (rng.random(n) < expit(offset + 0.15 * h)).astype(float)
    p0 = expit(offset)
    s0 = _score(y, h, offset, 0.0)
    s1 = _score(y, h, offset, s0 / float((h * h) @ (p0 * (1.0 - p0))))
    assert s1 * s0 < 0.0 and abs(s1) > abs(s0)

    fit = fit_fluctuation(y, h, offset)
    assert fit.info.converged
    assert abs(_score(y, h, offset, fit.epsilon)) <= 1e-10
    # Minimise the squared score: unlike the log-likelihood it carries no
    # large constant, so Brent's method can resolve its minimum to 1e-12.
    ref = minimize_scalar(lambda e: _score(y, h, offset, e) ** 2,
                          bracket=(-1.0, 1.0), method="brent", tol=1e-14)
    assert abs(fit.epsilon - ref.x) < 1e-9


def test_fluctuation_on_successes_out_of_trials_equals_the_expanded_rows():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        m = 40
        trials = rng.integers(1, 6, m)
        offset = rng.normal(0.0, 0.8, m)
        h = rng.normal(0.0, 1.0, m) / np.maximum(rng.random(m), 0.1)
        successes = rng.binomial(trials, expit(offset + 0.3 * h))
        rows = np.repeat(np.arange(m), trials)
        # The first successes[i] rows of pattern i have y = 1.
        within = np.arange(rows.size) - np.repeat(np.cumsum(trials) - trials, trials)
        y = (within < successes[rows]).astype(float)
        grouped = fit_fluctuation(successes.astype(float), h, offset, trials=trials)
        expanded = fit_fluctuation(y, h[rows], offset[rows])
        assert abs(grouped.epsilon - expanded.epsilon) <= 1e-12
        assert grouped.info.iterations == expanded.info.iterations


def test_a_fluctuation_on_its_nonzero_entries_equals_the_full_fit():
    """Entries with h = 0 change neither the score nor its slope.  Left
    out, with the observations they stand for passed as ``n_obs``, they
    give the same fit, also where h is so large that no float epsilon
    brings |s| to its tolerance and the fit is accepted on the mean score
    per observation; without ``n_obs`` that mean is taken over 4
    observations, not 1,000,004, and the fit stalls."""
    h = np.array([1.0, -0.7, 0.4, 0.0]) * 1e11
    y = np.array([1.0, 0.0, 1.0, 3e5])
    trials = np.array([1.0, 1.0, 2.0, 1e6])
    offset = np.array([0.2, -0.1, 0.3, 0.0])
    full = fit_fluctuation(y, h, offset, trials=trials)
    assert full.info.grad_norm > 1e-10
    part = fit_fluctuation(y[:3], h[:3], offset[:3], trials=trials[:3], n_obs=trials.sum())
    assert part.epsilon == full.epsilon
    assert part.info.iterations == full.info.iterations
    with pytest.raises(ConvergenceError, match="stalled"):
        fit_fluctuation(y[:3], h[:3], offset[:3], trials=trials[:3])


def test_fluctuation_separation_names_h():
    h = np.tile([-0.1, 0.1], 10)
    with pytest.raises(SeparationError) as err:
        fit_fluctuation((h > 0).astype(float), h, np.zeros(20))
    assert err.value.feature == "h"


def test_fluctuation_iteration_budget(monkeypatch):
    y, h, offset = _fluct_case(0)
    monkeypatch.setattr(glm, "MAX_ITER", 1)
    with pytest.raises(ConvergenceError,
                       match="fluctuation fit did not converge in 1 iterations") as err:
        fit_fluctuation(y, h, offset)
    assert len(err.value.trace) == 1


_finite = dict(allow_nan=False, allow_infinity=False, allow_subnormal=False)


@st.composite
def _fluct_inputs(draw):
    n = draw(st.integers(1, 30))
    y = draw(arrays(float, n, elements=st.sampled_from([0.0, 1.0])))
    h = draw(arrays(float, n, elements=st.floats(-20.0, 20.0, **_finite)))
    offset = draw(arrays(float, n, elements=st.floats(-6.0, 6.0, **_finite)))
    return y, h, offset


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_fluct_inputs())
def test_fluctuation_solves_the_score_on_random_inputs(case):
    y, h, offset = case
    # The score decreases in epsilon; keep inputs whose root is inside +-40.
    assume(_score(y, h, offset, -40.0) > 0.0 > _score(y, h, offset, 40.0))
    fit = fit_fluctuation(y, h, offset)
    assert abs(_score(y, h, offset, fit.epsilon)) <= max(1e-10, 1e-8 * y.size)
    s0 = _score(y, h, offset, 0.0)
    if abs(s0) <= 1e-10:
        assert fit.epsilon == 0.0
    else:
        assert np.sign(fit.epsilon) == np.sign(s0)


# ---------------------------------------------------------------------------
# Multinomial treatment model


def test_multinomial_intercept_only_matches_frequencies():
    a = np.repeat([0, 1, 2], [10, 10, 20])
    model = fit_treatment_model(_dataset(np.zeros((40, 0)), a, 3))
    probs = model.predict_raw(np.zeros((1, 0)))
    np.testing.assert_allclose(probs[0], [0.25, 0.25, 0.50], atol=1e-9)
    # Against level 0, the intercepts are the log frequency ratios.
    np.testing.assert_allclose(model.coef[:, 0], [0.0, math.log(2.0)], atol=1e-8)


def test_multinomial_two_levels_equals_logistic():
    rng = np.random.default_rng(7)
    w = rng.integers(0, 2, size=(300, 2))
    a = (rng.random(300) < expit(-0.3 + 0.8 * w[:, 0] - 0.5 * w[:, 1])).astype(int)
    model = fit_treatment_model(_dataset(w, a, 2))
    ref, _ = _logistic(np.column_stack([np.ones(300), w]), a.astype(float))
    np.testing.assert_allclose(model.coef[0], ref, atol=1e-8)


def test_multinomial_rows_sum_to_one(models_nv, data_nv):
    g_model, _ = models_nv
    probs = g_model.predict_raw(data_nv.w)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert probs.min() >= 0.0


def test_truncation_floors_without_renormalizing():
    a = np.repeat([0, 1, 2], [2, 49, 49])
    model = fit_treatment_model(_dataset(np.zeros((100, 0)), a, 3), alpha_trunc=0.05)
    raw = model.predict_raw(np.zeros((1, 0)))
    trunc = _weight_scale(raw, model, truncate=True)
    assert _weight_scale(raw, model, truncate=False) is raw
    np.testing.assert_allclose(raw[0], [0.02, 0.49, 0.49], atol=1e-9)
    np.testing.assert_allclose(trunc[0], [0.05, 0.49, 0.49], atol=1e-9)
    assert trunc[0].sum() > 1.0  # floored, not renormalized


def test_structural_zero_pinned_to_exact_zero():
    rng = np.random.default_rng(8)
    n = 600
    frail = rng.integers(0, 2, n)
    a = np.where(
        frail == 1,
        rng.integers(0, 2, n),          # level 2 never occurs for frail rows
        rng.integers(0, 3, n),
    )
    model = fit_treatment_model(_dataset(frail[:, None], a, 3, ("FRAIL",)))
    assert (2, "FRAIL") in model.structural_zeros
    probs = model.predict_raw(np.array([[1.0], [0.0]]))
    assert probs[0, 2] == 0.0
    assert probs[1, 2] > 0.0
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert model.coef[1, 1] == -np.inf
    assert model.info.converged


def _multinomial_probs_rowwise(X, B, support):
    """The row-wise form: each row's maximum and normaliser reduced over its K columns."""
    eta = np.zeros((X.shape[0], support.shape[1]))
    eta[:, 1:] = X @ B.T
    eta = np.where(support, eta, -np.inf)
    ex = np.exp(eta - eta.max(axis=1, keepdims=True))
    return ex / ex.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("name", [*DGP_REGISTRY, "random"])
def test_level_major_probabilities_equal_the_rowwise_form_bit_for_bit(name):
    """On every system's support with its structural-zero pins, and on
    random rows with random supports, at the system's coefficients and
    at random ones; a row with no supported level is still rejected."""
    rng = np.random.default_rng(3)
    if name == "random":
        X = np.column_stack([np.ones(20_000), rng.integers(0, 2, (20_000, 7))]).astype(float)
        support = rng.random((20_000, 6)) < 0.8
        support[np.arange(20_000), rng.integers(0, 6, 20_000)] = True
        coefs = [rng.normal(scale=3.0, size=(5, 8)) for _ in range(5)]
    else:
        gen = DGP_REGISTRY[name]()
        g = gen.g_model
        X = g._design(_columns_for(gen.w_support, gen.covariate_names, g.covariate_names))
        support = glm._support_matrix(X, g._pin_columns(), g.n_treatment_levels)
        assert support.all() == (name not in ("structural_zero", "cohort"))
        own = np.where(np.isfinite(g.coef), g.coef, 0.0)
        coefs = [own] + [rng.normal(scale=3.0, size=own.shape) for _ in range(20)]
    for B in coefs:
        got = glm._multinomial_probs(X, B, support)
        assert got.flags.c_contiguous
        assert got.tobytes() == _multinomial_probs_rowwise(X, B, support).tobytes()
    support[-1] = False
    with pytest.raises(ValidationError, match="no supported treatment level"):
        glm._multinomial_probs(X, coefs[0], support)


def test_absent_level_pins_intercept():
    a = np.repeat([0, 1], [30, 30])  # level 2 never observed at all
    model = fit_treatment_model(_dataset(np.zeros((60, 0)), a, 3))
    assert (2, INTERCEPT_NAME) in model.structural_zeros
    probs = model.predict_raw(np.zeros((1, 0)))
    assert probs[0, 2] == 0.0
    np.testing.assert_allclose(probs[0, :2], [0.5, 0.5], atol=1e-9)


def test_multinomial_separation_names_level_and_feature():
    """Level 2 occurs exactly where X1 = 1 and X2 = 0.  Its empty margin
    cell on X2 is pinned; on the rows left, X1 alone predicts level 2, a
    separation no margin cell shows, so X1's slope diverges."""
    w = np.repeat([[0, 0], [1, 0], [0, 1], [1, 1]], 6, axis=0)
    a = np.where((w[:, 0] == 1) & (w[:, 1] == 0), 2, np.tile([0, 1], 12))
    with pytest.raises(SeparationError) as err:
        fit_treatment_model(_dataset(w, a, 3, ("X1", "X2")))
    assert err.value.level == 2
    assert err.value.feature == "X1"


# ---------------------------------------------------------------------------
# The damped Newton driver shared by the g and Q fits


@st.composite
def _overlapping_designs(draw, k_levels):
    """Binary main-effects designs in which every covariate pattern shows
    every level, so the MLE is finite and nothing is pinned."""
    p = draw(st.integers(1, 3))
    patterns = np.array(
        [[(j >> b) & 1 for b in range(p)] for j in range(2 ** p)], dtype=float
    )
    counts = draw(arrays(np.int64, (2 ** p, k_levels), elements=st.integers(1, 6)))
    rows = np.repeat(np.arange(2 ** p), counts.sum(axis=1))
    levels = np.concatenate([np.repeat(np.arange(k_levels), c) for c in counts])
    return patterns[rows], levels


def _reference_fit(X, levels, k_levels):
    """Minimise the multinomial negative log-likelihood (level 0 is the
    reference) with BFGS on its analytic gradient."""
    q = X.shape[1]
    onehot = np.eye(k_levels)[levels]

    def nll(beta):
        eta = np.column_stack([np.zeros(len(X)), X @ beta.reshape(k_levels - 1, q).T])
        logp = eta - logsumexp(eta, axis=1, keepdims=True)
        grad = -(X.T @ (onehot - np.exp(logp))[:, 1:]).T.ravel()
        return -float(np.sum(logp[np.arange(len(X)), levels])), grad

    res = minimize(nll, np.zeros((k_levels - 1) * q), jac=True, method="BFGS",
                   options={"gtol": 1e-11, "maxiter": 1000})
    return res.x.reshape(k_levels - 1, q)


@pytest.mark.parametrize("k_levels", [2, 3])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_damped_newton_matches_a_general_optimizer(k_levels, data):
    w, levels = data.draw(_overlapping_designs(k_levels))
    n = len(levels)
    X = np.column_stack([np.ones(n), w])
    if k_levels == 2:
        coef = _logistic(X, levels.astype(float))[0][None, :]
    else:
        coef = fit_treatment_model(_dataset(w, levels, k_levels)).coef
    eta = np.column_stack([np.zeros(n), X @ coef.T])
    probs = np.exp(eta - logsumexp(eta, axis=1, keepdims=True))
    score = X.T @ (np.eye(k_levels)[levels] - probs)[:, 1:]
    assert np.abs(score).max() <= max(1e-8, 1e-8 * n)
    np.testing.assert_allclose(coef, _reference_fit(X, levels, k_levels), atol=1e-5)


def test_plateau_step_is_taken_without_a_second_search(monkeypatch):
    """This cohort sample reaches the log-likelihood's machine-precision
    plateau before its score converges; the Newton step there shrinks the
    score, so the line search takes it at once and every iteration costs
    one probability evaluation."""
    ds = generate(cohort_dgp(), 2000, seed=0)
    calls = {"n": 0}
    probs = glm._multinomial_probs

    def counted(*args):
        calls["n"] += 1
        return probs(*args)

    monkeypatch.setattr(glm, "_multinomial_probs", counted)
    model = fit_treatment_model(ds)
    assert calls["n"] <= model.info.iterations + 1


def test_treatment_fit_works_on_distinct_covariate_rows(monkeypatch):
    """Every probability evaluation of the g fit sees one row per distinct
    covariate pattern, however often the sample repeats them."""
    ds = generate(cohort_dgp(), 2000, seed=0)
    distinct = np.unique(ds.w, axis=0).shape[0]
    rows: list[int] = []
    probs = glm._multinomial_probs

    def counted(X, B, support):
        rows.append(X.shape[0])
        return probs(X, B, support)

    monkeypatch.setattr(glm, "_multinomial_probs", counted)
    for sample in (ds, ds.take(np.tile(np.arange(ds.n), 3))):
        rows.clear()
        fit_treatment_model(sample)
        assert rows and set(rows) == {distinct}


def test_treatment_fit_on_a_covariate_subset_equals_fitting_the_columns():
    """A subset regroups the dataset's distinct rows; the fit equals the
    g fit's core on the subset's columns grouped from the rows."""
    ds = generate(cohort_dgp(), 3000, seed=4)
    names = ("SMK.CURR", "AGE.5", "CARD", "FEMALE")
    model = fit_treatment_model(ds, covariate_names=names)
    w = _columns_for(ds.w, ds.covariate_names, names)
    first, inverse = _distinct_rows(w)
    direct = glm._fit_multinomial(
        w[first], inverse, ds.a, ds.n_treatment_levels, names, 0.05
    )
    np.testing.assert_array_equal(model.coef, direct.coef)
    assert model.structural_zeros == direct.structural_zeros
    assert model.info == direct.info


def _information_by_blocks(X, totals, probs, free):
    """The multinomial Fisher information from its definition: block
    (l, m) is X^T diag(totals p_l (1{l = m} - p_m)) X, over the free
    coefficients in row-major (level, column) order."""
    k, q = probs.shape[1], X.shape[1]
    info = np.empty(((k - 1) * q, (k - 1) * q))
    for l in range(1, k):
        for m in range(1, k):
            weight = totals * probs[:, l] * ((l == m) - probs[:, m])
            info[(l - 1) * q : l * q, (m - 1) * q : m * q] = X.T @ (X * weight[:, None])
    flat = free.ravel()
    return info[np.ix_(flat, flat)]


def _free_coefficients(model):
    """Which (level 1..K-1, design column) coefficients the fit left free."""
    names = model.feature_names
    free = np.ones((model.n_treatment_levels - 1, len(names)), dtype=bool)
    for l, f in model.structural_zeros:
        if l >= 1:
            if f == INTERCEPT_NAME:
                free[l - 1, :] = False
            else:
                free[l - 1, names.index(f)] = False
    return free


_COHORT_SUBSET = ("SMK.CURR", "AGE.5", "HLT.POOR", "CARD", "FEMALE")


@pytest.mark.parametrize(
    "name, subset",
    [(name, None) for name in DGP_REGISTRY] + [("cohort", _COHORT_SUBSET)],
)
def test_information_equals_its_blocks_at_the_fitted_probabilities(name, subset):
    """The one product over column pairs gives every block of the
    information as the block-by-block definition does, pins included."""
    ds = generate(DGP_REGISTRY[name](), 3000, seed=5)
    model = fit_treatment_model(ds, covariate_names=subset)
    w, inverse = glm._covariate_patterns(ds, model.covariate_names)
    totals = np.bincount(inverse, minlength=w.shape[0]).astype(float)
    probs = model.predict_raw(w)
    free = _free_coefficients(model)
    if name in ("cohort", "structural_zero"):
        assert not free.all()
    got = glm._multinomial_information(w, totals, free)(probs)
    X = np.column_stack([np.ones(w.shape[0]), w])
    want = _information_by_blocks(X, totals, probs, free)
    assert got.shape == want.shape == (free.sum(), free.sum())
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_the_fit_holds_no_float_array_of_the_column_pairs():
    """A dataset's column pairs stay int8 and are cast to float a chunk of
    rows at a time, so the fit never allocates an m x q(q+1)/2 float array."""
    ds = generate(cohort_dgp(), 20_000, seed=0)
    m = ds._w_groups()[0].size
    q = ds.w.shape[1] + 1
    float_pairs = m * q * (q + 1) // 2 * 8
    assert glm._column_pairs(ds.w[:5]).dtype == np.int8
    tracemalloc.start()
    try:
        fit_treatment_model(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < float_pairs


def _structural_zeros_by_column(X, counts):
    """Empty (level, column) cells of a binary design, one column at a
    time: absent levels on the intercept, then every column with a one
    somewhere and, within it, each level seen elsewhere but not on its ones."""
    k = counts.shape[1]
    absent = counts.sum(axis=0) == 0
    pins = [(l, 0) for l in range(k) if absent[l]]
    for c in range(1, X.shape[1]):
        col = X[:, c]
        if not (col == 1.0).any():
            continue
        seen = counts[col == 1.0].sum(axis=0) > 0
        pins += [(l, c) for l in range(k) if not (absent[l] or seen[l])]
    return pins


def test_structural_zeros_from_one_product_match_the_per_column_definition():
    """Columns: intercept, a column that pins level 1, an all-zero column,
    and a column that pins levels 1 and 3; level 2 is absent everywhere."""
    X = np.array([
        [1, 1, 0, 0],
        [1, 1, 0, 1],
        [1, 0, 0, 0],
        [1, 0, 0, 1],
    ], dtype=float)
    counts = np.array([
        [3, 0, 0, 1],
        [1, 0, 0, 0],
        [0, 2, 0, 4],
        [2, 0, 0, 0],
    ], dtype=float)
    want = [(2, 0), (1, 1), (1, 3), (3, 3)]
    assert _structural_zeros_by_column(X, counts) == want
    assert glm._detect_structural_zeros(X, counts) == want
    for name, make in DGP_REGISTRY.items():
        for n in (100, 2000):
            ds = generate(make(), n, seed=1)
            w, inverse = glm._covariate_patterns(ds, ds.covariate_names)
            X = np.column_stack([np.ones(w.shape[0]), w])
            k = ds.n_treatment_levels
            counts = np.bincount(inverse * k + ds.a, minlength=w.shape[0] * k)
            counts = counts.reshape(-1, k).astype(float)
            pins = glm._detect_structural_zeros(X, counts)
            assert pins == _structural_zeros_by_column(X, counts), (name, n)


# ---------------------------------------------------------------------------
# Outcome design and model


def test_outcome_design_columns():
    design = OutcomeDesign(("V", "U"), n_treatment_levels=3, interactions=(("V", 2),))
    assert design.column_names == (
        INTERCEPT_NAME, "V", "U", "A=1", "A=2", "V:A=2"
    )
    row = design.matrix(2, np.array([[1.0, 0.0]]))
    np.testing.assert_allclose(row, [[1, 1, 0, 0, 1, 1]])
    row = design.matrix(np.array([1]), np.array([[1.0, 1.0]]))
    np.testing.assert_allclose(row, [[1, 1, 1, 1, 0, 0]])


def test_outcome_design_validates_interactions():
    with pytest.raises(ValidationError):
        OutcomeDesign(("V",), 3, interactions=(("U", 1),))
    with pytest.raises(ValidationError):
        OutcomeDesign(("V",), 3, interactions=(("V", 0),))


def test_outcome_model_recovers_probabilities(gen_nv, data_nv):
    from causalrules import generate

    big = generate(gen_nv, 50_000, seed=21)
    q_model = fit_outcome_model(big)
    w_support = gen_nv.w_support.astype(float)
    for a in range(6):
        np.testing.assert_allclose(
            q_model.predict(a, w_support),
            gen_nv.q_model.predict(a, w_support),
            atol=0.02,
        )


def test_treatment_model_recovers_probabilities(gen_nv):
    from causalrules import generate

    big = generate(gen_nv, 50_000, seed=22)
    g_model = fit_treatment_model(big)
    got = g_model.predict_raw(gen_nv.w_support.astype(float))
    want = gen_nv.support_g_raw()
    np.testing.assert_allclose(got, want, atol=0.015)


def test_select_covariates_reorders_by_name(data_nv):
    names = data_nv.covariate_names
    sub = _columns_for(data_nv.w, names, ("U", "V"))
    np.testing.assert_array_equal(sub[:, 0], data_nv.w[:, 1])
    np.testing.assert_array_equal(sub[:, 1], data_nv.w[:, 0])
    assert _columns_for(data_nv.w, names, names) is data_nv.w
    with pytest.raises(ValidationError, match="MISSING"):
        _columns_for(data_nv.w, names, ("MISSING",))


def test_model_bundle_round_trip(tmp_path, models_nv, data_nv):
    g_model, q_model = models_nv
    path = tmp_path / "models.json"
    save_models(path, g_model, q_model, meta={"n": data_nv.n})
    g2, q2, meta = load_models(path)
    assert meta["n"] == data_nv.n
    np.testing.assert_allclose(
        g2.predict_raw(data_nv.w), g_model.predict_raw(data_nv.w), atol=1e-12
    )
    np.testing.assert_allclose(
        q2.predict(data_nv.a, data_nv.w), q_model.predict(data_nv.a, data_nv.w),
        atol=1e-12,
    )
    assert g2.structural_zeros == g_model.structural_zeros


def test_structural_zero_survives_serialization(tmp_path):
    """A level absent among frail rows is saved as a null coefficient and
    read back as a zero probability, at the middle level and the top one."""
    for absent in (2, 1):
        rng = np.random.default_rng(9)
        n = 400
        frail = rng.integers(0, 2, n)
        present = np.delete(np.arange(3), absent)
        a = np.where(frail == 1, present[rng.integers(0, 2, n)], rng.integers(0, 3, n))
        model = fit_treatment_model(_dataset(frail[:, None], a, 3, ("FRAIL",)))
        d = model.to_dict()
        # -inf serialized as null, and only there.
        assert [[c is None for c in row] for row in d["coef"]] == [
            [(l, c) == (absent - 1, 1) for c in range(2)] for l in range(2)
        ]
        from causalrules.glm import TreatmentModel

        back = TreatmentModel.from_dict(d)
        probs = back.predict_raw(np.array([[1.0]]))
        assert probs[0, absent] == 0.0


def test_intercept_only_treatment_model(data_nv):
    model = fit_treatment_model(data_nv, covariate_names=())
    probs = model.predict_raw(np.zeros((1, 0)))
    freq = np.bincount(data_nv.a, minlength=data_nv.n_treatment_levels) / data_nv.n
    np.testing.assert_allclose(probs[0], freq, atol=1e-8)
