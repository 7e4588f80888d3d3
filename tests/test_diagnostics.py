import numpy as np
import pytest

from causalrules import (
    DGP_REGISTRY,
    Dataset,
    GeneratingDistribution,
    NuisanceSpec,
    Rule,
    ValidationError,
    alpha_sweep,
    cohort_dgp,
    estimate_suite,
    eta_bias_diagnostic,
    generate,
    make_outcome_model,
    make_treatment_model,
    positivity_report,
    true_psi,
    true_relative_risk,
)
from causalrules import diagnostics, glm, ingest
from causalrules.diagnostics import (
    _draw_levels,
    bernoulli_block_support,
    bernoulli_support,
)
from causalrules.glm import _columns_for
from causalrules.ingest import _distinct_rows


@pytest.fixture(scope="module")
def tiny_gen():
    # One binary covariate Z with P(Z=1) = 0.25 and three treatment levels.
    # raw g: Z=0 -> (0.25, 0.25, 0.50), Z=1 -> (0.40, 0.40, 0.20)
    # Q:     Z=0 -> (1/2, 2/3, 1/3),   Z=1 -> (3/4, 6/7, 3/5)
    return GeneratingDistribution(
        w_support=np.array([[0], [1]], dtype=np.int8),
        w_probs=np.array([0.75, 0.25]),
        covariate_names=("Z",),
        g_model=make_treatment_model(("Z",), [[0.0, 0.0], [np.log(2), -np.log(4)]]),
        q_model=make_outcome_model(("Z",), 3, [0.0, np.log(3), np.log(2), -np.log(2)]),
    )


def test_support_probabilities(tiny_gen):
    np.testing.assert_allclose(
        tiny_gen.support_g_raw(), [[0.25, 0.25, 0.5], [0.4, 0.4, 0.2]], atol=1e-12
    )
    np.testing.assert_allclose(
        tiny_gen.support_q(),
        [[0.5, 2 / 3, 1 / 3], [0.75, 6 / 7, 0.6]],
        atol=1e-12,
    )


def test_true_psi_hand_mixture(tiny_gen):
    static2 = true_psi(tiny_gen, Rule(family="static", target=2))
    assert static2 == pytest.approx(0.75 * (1 / 3) + 0.25 * 0.6, abs=1e-12)

    # At alpha 0.25, Z=1 cannot reach level 2 (g = 0.20) and falls back to 1.
    real2 = true_psi(tiny_gen, Rule(family="realistic", target=2, alpha=0.25))
    assert real2 == pytest.approx(0.75 * (1 / 3) + 0.25 * (6 / 7), abs=1e-12)

    # Under the intention-to-treat rule those subjects keep their observed
    # treatment, contributing the g-weighted average of Q.
    itt2 = true_psi(tiny_gen, Rule(family="itt", target=2, alpha=0.25))
    q_bar = 0.4 * 0.75 + 0.4 * (6 / 7) + 0.2 * 0.6
    assert itt2 == pytest.approx(0.75 * (1 / 3) + 0.25 * q_bar, abs=1e-12)

    theta = true_relative_risk(tiny_gen, "realistic", 2, alpha=0.25)
    psi0 = 0.75 * 0.5 + 0.25 * 0.75
    assert theta == pytest.approx(real2 / psi0, abs=1e-12)

    with pytest.raises(ValidationError):
        true_psi(tiny_gen, Rule(family="static", target=3))


def test_true_psi_member_override(tiny_gen):
    member = np.array([[True, True, False], [True, True, False]])
    forced = true_psi(
        tiny_gen, Rule(family="realistic", target=2, alpha=0.25), member=member
    )
    assert forced == pytest.approx(0.75 * (2 / 3) + 0.25 * (6 / 7), abs=1e-12)


def test_generate_matches_analytic_margins(gen_nv):
    n = 60_000
    ds = generate(gen_nv, n, seed=4)
    g = gen_nv.support_g_raw()
    q = gen_nv.support_q()
    for j, row in enumerate(gen_nv.w_support):
        freq = np.mean(np.all(ds.w == row, axis=1))
        p = gen_nv.w_probs[j]
        assert abs(freq - p) < 4 * np.sqrt(p * (1 - p) / n)
    pa = gen_nv.w_probs @ g
    for a in range(6):
        freq = np.mean(ds.a == a)
        assert abs(freq - pa[a]) < 4 * np.sqrt(pa[a] * (1 - pa[a]) / n)
    ey = float(gen_nv.w_probs @ (g * q).sum(axis=1))
    assert abs(ds.y.mean() - ey) < 4 * np.sqrt(ey * (1 - ey) / n)


def test_generate_is_seed_reproducible(gen_nv):
    assert generate(gen_nv, 100, seed=7) == generate(gen_nv, 100, seed=7)
    with pytest.raises(ValidationError):
        generate(gen_nv, 0)


def _generate_rowwise(gen, n, seed):
    """W, A and Y as a generator that predicts g and Q on every drawn row
    draws them, from the same stream of random numbers."""
    rng = np.random.default_rng(seed)
    cells = rng.choice(gen.w_support.shape[0], size=n, p=gen.w_probs)
    w = gen.w_support[cells]
    w_g = _columns_for(w, gen.covariate_names, gen.g_model.covariate_names)
    a = _draw_levels(gen.g_model.predict_raw(w_g), rng.random(n))
    w_q = _columns_for(w, gen.covariate_names, gen.q_model.design.covariate_names)
    y = (rng.random(n) < gen.q_model.predict(a, w_q)).astype(np.int64)
    return w, a, y


def _from_cohort_sample():
    """An empirical system whose support repeats rows: a cohort sample
    with the cohort's own models."""
    cohort = cohort_dgp()
    sample = generate(cohort, 1500, seed=2)
    return GeneratingDistribution.from_dataset(sample, cohort.g_model, cohort.q_model)


@pytest.mark.parametrize("name", [*DGP_REGISTRY, "from_dataset"])
def test_generate_reads_the_support_bit_for_bit(name):
    """Reading g and Q off the support draws exactly what predicting them
    on the drawn rows draws, and the grouping handed to the dataset is
    the grouping of its rows."""
    gen = _from_cohort_sample() if name == "from_dataset" else DGP_REGISTRY[name]()
    for n, seed in ((4000, 0), (257, 9)):
        ds = generate(gen, n, seed)
        w, a, y = _generate_rowwise(gen, n, seed)
        np.testing.assert_array_equal(ds.w, w)
        np.testing.assert_array_equal(ds.a, a)
        np.testing.assert_array_equal(ds.y, y)
        first, inverse = ds._w_groups()
        want_first, want_inverse = _distinct_rows(ds.w)
        np.testing.assert_array_equal(first, want_first)
        np.testing.assert_array_equal(inverse, want_inverse)


def test_support_evaluations_are_computed_once_and_read_only():
    gen = cohort_dgp()
    for read in (gen.support_g_raw, gen.support_q):
        assert read() is read()
        with pytest.raises(ValueError, match="read-only"):
            read()[0, 0] = 0.5


def test_each_dataset_is_grouped_once(monkeypatch):
    """One estimate_suite call with its fitted g and Q groups the rows
    once; a generated dataset arrives grouped and is never grouped again,
    and a system groups its support once."""
    sizes = []
    group = ingest._distinct_rows

    def counted(x):
        sizes.append(x.shape[0])
        return group(x)

    for module in (ingest, glm, diagnostics):
        monkeypatch.setattr(module, "_distinct_rows", counted)
    gen = cohort_dgp()
    sample = generate(gen, 5000, seed=0)
    generate(gen, 100, seed=1)
    assert sizes == [gen.w_support.shape[0]]

    spec = NuisanceSpec()
    loaded = Dataset(w=sample.w, a=sample.a, y=sample.y, covariate_names=sample.covariate_names)
    sizes.clear()
    estimate_suite(loaded, spec.fit_g(loaded), spec.fit_q(loaded))
    assert sizes == [loaded.n]

    sizes.clear()
    estimate_suite(sample, spec.fit_g(sample), spec.fit_q(sample))
    positivity_report(sample, gen.g_model)
    eta_bias_diagnostic(gen, estimator="tmle", targets=(0, 2), replicates=2, n_sim=3000,
                        empty_set_policy="assign_min_realistic")
    assert sizes == []


def test_eta_bias_with_covariate_subsets_is_unchanged():
    """The g and Q fits on covariate subsets regroup the distinct rows, not
    the rows.  The numbers below were computed by grouping the subset's
    rows directly."""
    spec = NuisanceSpec(
        g_covariates=("AGE.4", "AGE.5", "HLT.POOR", "CARD", "FEMALE"),
        q_covariates=("SMK.CURR", "AGE.5", "HLT.FAIR", "DECLINE"),
    )
    report = eta_bias_diagnostic(
        cohort_dgp(), estimator="driptw", targets=(0, 3, 5), replicates=4, n_sim=2000,
        seed=3, spec=spec, empty_set_policy="assign_min_realistic",
    )
    want = [
        ("static", 0, 0.14359144263619741, 0.024936335271548683, None),
        ("static", 3, 0.11599399868540525, 0.023017987208829374, None),
        ("static", 5, 0.0984689039465536, 0.007250215744392245, None),
        ("realistic", 0, 0.14359144263619741, 0.024936335271548683, 0.0),
        ("realistic", 3, 0.11403351236488904, 0.020968174274303798, -0.00034960012996662626),
        ("realistic", 5, 0.1072218658968805, 0.012445436929737017, 0.001911917967051785),
        ("itt", 0, 0.14359144263619741, 0.024936335271548683, 0.0),
        ("itt", 3, 0.11630824851139637, 0.019320682926385235, -0.0010304177731883524),
        ("itt", 5, 0.10695105471676071, 0.006570980722238062, -0.0019019983957336006),
    ]
    assert report.n_failed_replicates == 0
    for e, (family, target, mean, sd, drift) in zip(report.entries, want, strict=True):
        assert (e.family, e.target) == (family, target)
        assert e.mean_estimate == pytest.approx(mean, abs=1e-12)
        assert e.sd_estimate == pytest.approx(sd, abs=1e-12)
        assert e.drift == (None if drift is None else pytest.approx(drift, abs=1e-12))


def test_draw_levels_never_draws_a_structural_zero():
    """On cohort rows whose top level is structurally zero, the rounded
    cumulative sum can end just below 1; a uniform above it takes the
    row's last supported level. Uniforms below it draw as before."""
    g = cohort_dgp().support_g_raw()
    rows = (g[:, -1] == 0.0) & (np.cumsum(g, axis=1)[:, -1] < np.nextafter(1.0, 0.0))
    assert rows.any()
    a = _draw_levels(g, np.full(len(g), np.nextafter(1.0, 0.0)))
    assert np.all(g[np.arange(len(g)), a] > 0.0)
    for row in np.flatnonzero(rows):
        assert a[row] == np.flatnonzero(g[row])[-1]
    u = np.random.default_rng(0).random(len(g))
    naive = np.minimum((u[:, None] > np.cumsum(g, axis=1)).sum(axis=1), g.shape[1] - 1)
    np.testing.assert_array_equal(_draw_levels(g, u), naive)


def test_from_dataset_uses_empirical_support(data_nv, models_nv):
    g_model, q_model = models_nv
    gen = GeneratingDistribution.from_dataset(data_nv, g_model, q_model)
    assert gen.source_n == data_nv.n
    np.testing.assert_allclose(gen.w_probs, 1.0 / data_nv.n)
    psi = true_psi(gen, Rule(family="static", target=1))
    assert psi == pytest.approx(q_model.predict(1, data_nv.w).mean(), abs=1e-12)


def test_eta_bias_known_g_is_unbiased(gen_nv):
    report = eta_bias_diagnostic(
        gen_nv, estimator="iptw", replicates=400, n_sim=800, seed=3,
        refit_g=False, truncate_weights=False,
    )
    assert report.families == ("static", "realistic", "itt")
    assert report.targets == tuple(range(6))
    assert len(report.entries) == 18
    for e in report.entries:
        assert e.n_effective == 400
        se = e.sd_estimate / np.sqrt(e.n_effective)
        assert abs(e.bias) < 4 * se
        expected = true_psi(
            gen_nv, Rule(family=e.family, target=e.target, alpha=0.05)
        )
        assert e.truth == pytest.approx(expected, abs=1e-12)
        if e.family == "static":
            assert e.drift is None
        else:
            # feasibility sets from the true mechanism match the estimand
            assert abs(e.drift) < 1e-12


def test_eta_bias_requires_n_sim(gen_nv):
    with pytest.raises(ValidationError, match="n_sim"):
        eta_bias_diagnostic(gen_nv, replicates=2)


def test_replicate_whose_refit_g_misses_a_support_row_is_dropped():
    """At n = 100 some refits pin a cohort level away on a covariate a
    support row carries, leaving that row with no supported level; the
    replicate is dropped and counted instead of aborting the run, and the
    unsupported row is caught before any arithmetic warns about it."""
    with pytest.warns(UserWarning, match="2 of 20 diagnostic replicates failed") as record:
        report = eta_bias_diagnostic(
            cohort_dgp(), estimator="iptw", replicates=20, n_sim=100, seed=0,
            empty_set_policy="assign_min_realistic",
        )
    assert report.n_failed_replicates == 2
    assert not [w for w in record if issubclass(w.category, RuntimeWarning)]
    assert [w.filename for w in record if w.category is UserWarning] == [__file__]


def test_bias_report_table_and_dict(gen_nv):
    report = eta_bias_diagnostic(
        gen_nv, estimator="gcomp", families=("static", "realistic"),
        targets=(0, 2, 5), replicates=30, n_sim=400, seed=1,
    )
    header, rows = report.bias_table()
    assert header == ["target", "Static", "Realistic"]
    assert [r[0] for r in rows] == ["0", "2", "5"]
    assert all(cell.endswith("%") for row in rows for cell in row[1:])
    d = report.to_dict()
    assert d["estimator"] == "gcomp"
    assert len(d["entries"]) == 6
    assert report.entry("realistic", 2).drift is not None
    assert report.entry("static", 2).drift is None
    with pytest.raises(KeyError):
        report.entry("itt", 0)


def test_alpha_sweep_threshold_logic(gen_nv):
    with pytest.raises(ValidationError, match="ascending"):
        alpha_sweep(gen_nv, [0.1, 0.05], replicates=2, n_sim=50)
    with pytest.raises(ValidationError):
        alpha_sweep(gen_nv, [])
    for threshold in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValidationError, match="threshold_pct must be a finite positive"):
            alpha_sweep(gen_nv, [0.05], replicates=2, n_sim=50, threshold_pct=threshold)
    sweep = alpha_sweep(
        gen_nv, [0.0, 0.05], estimator="iptw", refit_g=False,
        replicates=60, n_sim=400, seed=2, threshold_pct=50.0,
    )
    assert sweep.alphas == (0.0, 0.05)
    assert len(sweep.max_abs_bias_pct) == 2
    assert len(sweep.reports) == 2
    assert sweep.smallest_passing_alpha == 0.0
    d = sweep.to_dict()
    assert d["threshold_pct"] == 50.0

    strict = alpha_sweep(
        gen_nv, [0.05], estimator="iptw", refit_g=False,
        replicates=30, n_sim=300, seed=2, threshold_pct=1e-12,
    )
    assert strict.smallest_passing_alpha is None


def test_bernoulli_support_probabilities():
    support, probs, names = bernoulli_support(("A", "B"), (0.5, 0.25))
    assert names == ("A", "B")
    assert support.shape == (4, 2)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    lookup = {tuple(r): p for r, p in zip(support.tolist(), probs)}
    assert lookup[(0, 0)] == pytest.approx(0.375)
    assert lookup[(1, 1)] == pytest.approx(0.125)
    with pytest.raises(ValidationError):
        bernoulli_support(("A",), (0.5, 0.25))


def test_bernoulli_block_support_one_hot():
    support, probs, names = bernoulli_block_support(
        [
            (("X1", "X2"), [((0, 0), 0.2), ((1, 0), 0.5), ((0, 1), 0.3)]),
            (("Z",), [((0,), 0.6), ((1,), 0.4)]),
        ]
    )
    assert names == ("X1", "X2", "Z")
    assert support.shape == (6, 3)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    lookup = {tuple(r): p for r, p in zip(support.tolist(), probs)}
    assert lookup[(1, 0, 1)] == pytest.approx(0.2)
    with pytest.raises(ValidationError, match="sum"):
        bernoulli_block_support([(("X",), [((0,), 0.5), ((1,), 0.4)])])
    with pytest.raises(ValidationError, match="width"):
        bernoulli_block_support([(("X",), [((0, 1), 0.5), ((1,), 0.5)])])


def test_generating_distribution_validation():
    g = make_treatment_model(("Z",), [[0.0, 0.0]])
    q = make_outcome_model(("Z",), 2, [0.0, 0.0, 0.0])
    support = np.array([[0], [1]], dtype=np.int8)
    with pytest.raises(ValidationError, match="probability"):
        GeneratingDistribution(support, np.array([0.6, 0.6]), ("Z",), g, q)
    with pytest.raises(ValidationError, match="length"):
        GeneratingDistribution(support, np.array([1.0]), ("Z",), g, q)
    with pytest.raises(ValidationError, match="covariate_names"):
        GeneratingDistribution(support, np.array([0.5, 0.5]), ("Z", "Y"), g, q)


def test_model_covariates_must_live_on_support():
    g = make_treatment_model(("MISSING",), [[0.0, 0.0]])
    q = make_outcome_model(("Z",), 2, [0.0, 0.0, 0.0])
    gen = GeneratingDistribution(
        np.array([[0], [1]], dtype=np.int8), np.array([0.5, 0.5]), ("Z",), g, q
    )
    with pytest.raises(ValidationError, match="MISSING"):
        gen.support_g_raw()


def test_eta_bias_computes_only_the_psi_of_its_cells(monkeypatch, gen_nv):
    """The diagnostic asks the grid engine for psi cells only: TMLE cells
    never run the relative-risk targeting."""
    import causalrules.estimators as est_module

    calls = []
    original = est_module.rr_tmle_from_arrays
    monkeypatch.setattr(est_module, "rr_tmle_from_arrays",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    report = eta_bias_diagnostic(gen_nv, estimator="tmle", targets=(0, 2), replicates=2,
                                 n_sim=400)
    assert calls == []
    assert all(e.n_effective == 2 for e in report.entries)


def test_an_unknown_estimator_is_rejected_before_any_draw(monkeypatch, gen_nv):
    draws = []
    monkeypatch.setattr(diagnostics, "generate", lambda *a, **k: draws.append(1))
    message = "unknown estimator 'bogus'; expected one of \\('gcomp', 'iptw', 'driptw', 'tmle'\\)"
    with pytest.raises(ValidationError, match=message):
        eta_bias_diagnostic(gen_nv, estimator="bogus", replicates=20, n_sim=400)
    with pytest.raises(ValidationError, match=message):
        alpha_sweep(gen_nv, (0.0, 0.1), estimator="bogus", replicates=20, n_sim=400)
    assert draws == []
