import itertools
import warnings

import numpy as np
import pytest

from causalrules import (
    DGP_REGISTRY,
    BootstrapConfig,
    CausalRulesError,
    Dataset,
    GeneratingDistribution,
    NuisanceSpec,
    OutcomeDesign,
    Rule,
    RuleInfeasibleError,
    ValidationError,
    alpha_sweep,
    bootstrap_ci,
    cohort_dgp,
    estimate_suite,
    eta_bias_diagnostic,
    fit_outcome_model,
    generate,
    make_outcome_model,
    make_treatment_model,
    positivity_report,
    true_psi,
)
from causalrules import dgps, diagnostics, glm, ingest
from causalrules.diagnostics import (
    _draw_levels,
    bernoulli_block_support,
    bernoulli_support,
)
from causalrules.glm import _columns_for
from causalrules.ingest import _distinct_rows
from causalrules.rules import EMPTY_SET_POLICIES, membership_matrix


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

    real0 = true_psi(tiny_gen, Rule(family="realistic", target=0, alpha=0.25))
    psi0 = 0.75 * 0.5 + 0.25 * 0.75
    assert real2 / real0 == pytest.approx(real2 / psi0, abs=1e-12)

    with pytest.raises(ValidationError):
        true_psi(tiny_gen, Rule(family="static", target=3))


def test_true_psi_member_override(tiny_gen):
    member = np.array([[True, True, False], [True, True, False]])
    forced = true_psi(
        tiny_gen, Rule(family="realistic", target=2, alpha=0.25), member=member
    )
    assert forced == pytest.approx(0.75 * (2 / 3) + 0.25 * (6 / 7), abs=1e-12)


def _truths_per_rule(gen, family_rules, member=None):
    """``true_psi`` of each rule alone, or the infeasibility it raises."""
    out = []
    for rule in family_rules:
        try:
            out.append(true_psi(gen, rule, member))
        except RuleInfeasibleError as exc:
            out.append(exc)
    return out


def _assert_same_truths(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, RuleInfeasibleError):
            assert isinstance(g, RuleInfeasibleError)
            assert (str(g), g.rows) == (str(w), w.rows)
        else:
            assert g == w


@pytest.mark.parametrize("name", DGP_REGISTRY)
def test_the_truths_of_a_family_from_one_call_equal_one_call_per_rule(name):
    """One ``true_psi`` call per family, in one assignment pass, gives each
    rule's truth bit for bit, and each infeasible rule its own error."""
    gen = DGP_REGISTRY[name]()
    k = gen.n_treatment_levels
    infeasible = 0
    for alpha in (0.05, 0.1, 0.3):
        for policy in EMPTY_SET_POLICIES:
            for family in ("static", "realistic", "itt"):
                for targets in (range(k), range(k)[::-2]):
                    family_rules = [Rule(family, t, alpha=alpha, empty_set_policy=policy)
                                    for t in targets]
                    want = _truths_per_rule(gen, family_rules)
                    _assert_same_truths(true_psi(gen, family_rules), want)
                    infeasible += sum(isinstance(w, RuleInfeasibleError) for w in want)
    if name == "cohort":
        assert infeasible > 0


def test_a_refit_membership_infeasible_at_one_target_drops_only_its_drift(monkeypatch):
    """Knocking levels 0 and 1 off one support row of each replicate's
    refit feasibility sets leaves realistic target 1 infeasible there:
    only its drift is dropped, every other value is unchanged, and the
    drift truths equal one ``true_psi`` call per rule."""
    gen = cohort_dgp()
    kwargs = dict(estimator="iptw", targets=(1, 3, 5), replicates=2, n_sim=2000, seed=4)
    base = eta_bias_diagnostic(gen, **kwargs)
    members = []

    def knocked(g_probs, alpha):
        member = membership_matrix(g_probs, alpha)
        member[7, :2], member[7, 2] = False, True
        members.append(member)
        return member

    monkeypatch.setattr(diagnostics, "membership_matrix", knocked)
    report = eta_bias_diagnostic(gen, **kwargs)
    assert len(members) == 2
    for family in ("realistic", "itt"):
        family_rules = [Rule(family, t) for t in (1, 3, 5)]
        for member in members:
            _assert_same_truths(
                true_psi(gen, family_rules, member), _truths_per_rule(gen, family_rules, member)
            )
    for e, b in zip(report.entries, base.entries, strict=True):
        for field in ("truth", "mean_estimate", "sd_estimate"):
            assert getattr(e, field) == getattr(b, field)
        if (e.family, e.target) == ("realistic", 1):
            assert b.drift is not None and e.drift is None
        elif e.family == "itt" and e.target == 1:
            assert e.drift is not None
        else:
            assert e.drift == b.drift


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


def _draw_levels_rowwise(g_probs, u):
    """Inverse-CDF draw of one level per row from each drawn row's own
    cumulative sum of ``g``; a ``u`` past a row's rounded total takes its
    last level of positive probability."""
    k = g_probs.shape[1]
    a = (u[:, None] > np.cumsum(g_probs, axis=1)).sum(axis=1)
    past = np.flatnonzero(a == k)
    a[past] = k - 1 - np.argmax(g_probs[past, ::-1] > 0.0, axis=1)
    return a


def _generate_rowwise(gen, n, seed):
    """W, A and Y as a generator that predicts g and Q on every drawn row
    draws them, from the same stream of random numbers."""
    rng = np.random.default_rng(seed)
    cells = rng.choice(gen.w_support.shape[0], size=n, p=gen.w_probs)
    w = gen.w_support[cells]
    w_g = _columns_for(w, gen.covariate_names, gen.g_model.covariate_names)
    a = _draw_levels_rowwise(gen.g_model.predict_raw(w_g), rng.random(n))
    w_q = _columns_for(w, gen.covariate_names, gen.q_model.design.covariate_names)
    y = (rng.random(n) < gen.q_model.predict(a, w_q)).astype(np.int64)
    return w, a, y


def _from_cohort_sample():
    """An empirical system whose support repeats rows: a cohort sample
    with the cohort's own models."""
    cohort = cohort_dgp()
    sample = generate(cohort, 1500, seed=2)
    return GeneratingDistribution.from_dataset(sample, cohort.g_model, cohort.q_model)


def _zero_cell_system():
    """Cohort with its first, its last and every third cell at probability zero."""
    cohort = cohort_dgp()
    p = cohort.w_probs.copy()
    p[::3] = p[-1] = 0.0
    return GeneratingDistribution(
        cohort.w_support, p / p.sum(), cohort.covariate_names, cohort.g_model, cohort.q_model
    )


@pytest.mark.parametrize("name", [*DGP_REGISTRY, "from_dataset", "zero_cells"])
def test_generate_reads_the_support_bit_for_bit(name):
    """Reading g and Q off the support draws exactly what predicting them
    on the drawn rows draws, and the grouping handed to the dataset is
    the grouping of its rows.  The cells, drawn by indexed search off the
    system's guide table, are the ones ``rng.choice`` draws, from the
    same uniforms and leaving the stream at the same place; so are those
    of uniforms on a bucket edge, just below one, on a cumulative cell
    probability, and just below 1."""
    systems = {"from_dataset": _from_cohort_sample, "zero_cells": _zero_cell_system}
    gen = systems.get(name, DGP_REGISTRY.get(name))()
    m = gen.w_support.shape[0]
    if name == "from_dataset":
        assert _distinct_rows(gen.w_support)[0].size < m
    cdf = gen.w_probs.cumsum()
    cdf /= cdf[-1]
    buckets = gen._cell_guide[1].size
    assert buckets & (buckets - 1) == 0 and 2 * m <= buckets < 4 * m
    edges = np.arange(buckets) / buckets
    u = np.concatenate(
        [edges, np.nextafter(edges[1:], 0.0), cdf[cdf < 1.0], [np.nextafter(1.0, 0.0)]]
    )
    cells = diagnostics._draw_cells(gen, u)
    np.testing.assert_array_equal(cells, cdf.searchsorted(u, side="right"))
    assert np.all(gen.w_probs[cells] > 0.0)
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
        np.testing.assert_array_equal(gen.w_support[ds._support_rows], ds.w[first])


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

    class SubsetSpec(NuisanceSpec):
        def fit_q(self, dataset):
            names = ("SMK.CURR", "AGE.5", "HLT.FAIR", "DECLINE")
            return fit_outcome_model(dataset, OutcomeDesign(names, dataset.n_treatment_levels))

    spec = SubsetSpec(g_covariates=("AGE.4", "AGE.5", "HLT.POOR", "CARD", "FEMALE"))
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
    gen = cohort_dgp()
    g = gen.support_g_raw()
    every_row = np.arange(len(g))
    rows = (g[:, -1] == 0.0) & (np.cumsum(g, axis=1)[:, -1] < np.nextafter(1.0, 0.0))
    assert rows.any()
    a = _draw_levels(gen, every_row, np.full(len(g), np.nextafter(1.0, 0.0)))
    assert np.all(g[np.arange(len(g)), a] > 0.0)
    for row in np.flatnonzero(rows):
        assert a[row] == np.flatnonzero(g[row])[-1]
    u = np.random.default_rng(0).random(len(g))
    naive = np.minimum((u[:, None] > np.cumsum(g, axis=1)).sum(axis=1), g.shape[1] - 1)
    np.testing.assert_array_equal(_draw_levels(gen, every_row, u), naive)


@pytest.mark.parametrize("name", DGP_REGISTRY)
def test_draw_levels_off_the_cached_cumulative_g_match_the_rowwise_cumsum(name):
    """Drawing off the support's cumulative g, made once per system, gives
    the level the drawn row's own cumulative sum gives, draw for draw;
    every seventh uniform sits at the largest float below 1, where a
    rounded total short of 1 sends the draw to the fallback."""
    gen = DGP_REGISTRY[name]()
    g = gen.support_g_raw()
    total = np.cumsum(g, axis=1)[:, -1]
    past = 0
    for seed in (0, 1, 2, 3):
        rng = np.random.default_rng(seed)
        cells = rng.choice(len(g), size=3000, p=gen.w_probs)
        u = rng.random(cells.size)
        u[::7] = np.nextafter(1.0, 0.0)
        a = _draw_levels(gen, cells, u)
        np.testing.assert_array_equal(a, _draw_levels_rowwise(g[cells], u))
        assert np.all(g[cells, a] > 0.0)
        past += int(np.count_nonzero(u > total[cells]))
    if name == "cohort":
        assert past > 0


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


@pytest.mark.parametrize("entry", ["eta_bias_diagnostic", "alpha_sweep"])
def test_replicate_whose_refit_g_misses_a_support_row_is_dropped(entry):
    """At n = 100 some refits pin a cohort level away on a covariate a
    support row carries, leaving that row with no supported level; the
    replicate is dropped and counted instead of aborting the run, and the
    unsupported row is caught before any arithmetic warns about it.  The
    warning names the line that called either entry."""
    kwargs = dict(estimator="iptw", families=("static", "realistic", "itt"), replicates=20,
                  n_sim=100, seed=0, empty_set_policy="assign_min_realistic")
    with pytest.warns(UserWarning, match="2 of 20 diagnostic replicates failed") as record:
        if entry == "alpha_sweep":
            (report,) = alpha_sweep(cohort_dgp(), [0.05], **kwargs).reports
        else:
            report = eta_bias_diagnostic(cohort_dgp(), **kwargs)
    assert report.n_failed_replicates == 2
    assert not [w for w in record if issubclass(w.category, RuntimeWarning)]
    assert [w.filename for w in record if w.category is UserWarning] == [__file__]


@pytest.mark.parametrize("gen, alphas, kwargs, failed", [
    pytest.param(
        "no_violation", (0.1, 0.02, 0.1, 0.05),
        dict(estimator="tmle", replicates=6, n_sim=400, seed=1), [0, 0, 0, 0],
        id="repeated-out-of-order",
    ),
    # At alpha 0 G-computation needs no g, so the two replicates whose g
    # fails here count as failed only at the alphas that read g.
    pytest.param(
        "cohort", (0.05, 0.0, 0.1),
        dict(estimator="gcomp", families=("realistic", "itt"), replicates=20, n_sim=150,
             seed=0, empty_set_policy="assign_min_realistic"), [2, 0, 2],
        id="gcomp-g-needed-at-some-alphas",
    ),
])
def test_a_sequence_of_alphas_equals_one_call_per_alpha(gen, alphas, kwargs, failed):
    gen = DGP_REGISTRY[gen]()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        want = [eta_bias_diagnostic(gen, alpha=a, **kwargs) for a in alphas]
        got = eta_bias_diagnostic(gen, alpha=list(alphas), **kwargs)
    assert got == want
    assert [r.alpha for r in got] == list(alphas)
    assert [r.n_failed_replicates for r in got] == failed
    assert any(e.drift is not None for e in got[0].entries)


@pytest.mark.parametrize("alphas, message, draws", [
    ((0.05, 0.15), "12 of 20 diagnostic replicates failed (> 10%)", 20),
    ((0.15, 0.05), "no feasible level at or below target 0 for support rows [0, 4,", 0),
])
def test_a_sequence_of_alphas_raises_what_the_calls_in_its_order_raise(
    monkeypatch, alphas, message, draws
):
    """At alpha 0.05 more than 10% of these replicates fail, and at 0.15
    the truth of realistic target 0 is undefined.  Whichever comes first
    is raised, the undefined truth before any draw."""
    gen = cohort_dgp()
    kwargs = dict(estimator="gcomp", families=("realistic", "itt"), replicates=20, n_sim=100,
                  seed=0)
    with pytest.raises(CausalRulesError) as by_call:
        for a in alphas:
            eta_bias_diagnostic(gen, alpha=a, **kwargs)
    drawn, draw = [], diagnostics.generate
    monkeypatch.setattr(diagnostics, "generate", lambda *a: drawn.append(1) or draw(*a))
    with pytest.raises(type(by_call.value)) as at_once:
        eta_bias_diagnostic(gen, alpha=list(alphas), **kwargs)
    assert str(by_call.value).startswith(message)
    assert str(at_once.value) == str(by_call.value)
    assert len(drawn) == draws


@pytest.mark.parametrize("refit_g, failed", [(True, 2), (False, 0)])
def test_a_replicate_reads_its_sample_g_off_the_support(monkeypatch, refit_g, failed):
    """Every replicate with a g has it on the support (the refit, or the
    system's own), and the sample's G is indexed out of it and equals
    predicting g on the sample's distinct rows.  Predicting G instead
    drops the same replicates and gives the same estimates.  Of this
    seed's refits, one fails to fit and one misses a support row, which
    drops its replicate."""
    kwargs = dict(
        estimator="iptw", replicates=20, n_sim=100, seed=0, refit_g=refit_g,
        empty_set_policy="assign_min_realistic",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        indexed = eta_bias_diagnostic(cohort_dgp(), **kwargs)
    evaluate, handed = diagnostics._evaluate, []

    def predicted(ds, g_model, q_model, G=None):
        if G is not None:
            w = ds.w[ds._w_groups()[0]]
            want = g_model.predict_raw(_columns_for(w, ds.covariate_names, g_model.covariate_names))
            np.testing.assert_allclose(G, want, rtol=1e-12, atol=1e-15)
        handed.append(G is not None)
        return evaluate(ds, g_model, q_model)

    monkeypatch.setattr(diagnostics, "_evaluate", predicted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        reference = eta_bias_diagnostic(cohort_dgp(), **kwargs)
    assert set(handed) == {True}
    assert indexed.n_failed_replicates == reference.n_failed_replicates
    assert indexed.n_failed_replicates == failed
    for got, want in zip(indexed.entries, reference.entries, strict=True):
        assert got.n_effective == want.n_effective
        assert got.mean_estimate == pytest.approx(want.mean_estimate, abs=1e-12)
        assert got.drift == (None if want.drift is None else pytest.approx(want.drift, abs=1e-12))


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


def _block_support_itertools(blocks):
    """The support and probabilities cell by cell in ``itertools.product``
    order, each probability multiplied left to right from 1.0."""
    rows, probs = [], []
    for combo in itertools.product(*(cats for _, cats in blocks)):
        row, p = [], 1.0
        for pattern, prob in combo:
            row.extend(pattern)
            p *= prob
        rows.append(row)
        probs.append(p)
    return np.asarray(rows, dtype=np.int8), np.asarray(probs, dtype=float)


def test_bernoulli_block_support_one_hot(monkeypatch):
    """Also: every built-in system's support, and the empty product, equal
    the cell-by-cell form bit for bit."""
    seen = []

    def recorded(blocks):
        seen.append(blocks)
        return bernoulli_block_support(blocks)

    monkeypatch.setattr(diagnostics, "bernoulli_block_support", recorded)
    monkeypatch.setattr(dgps, "bernoulli_block_support", recorded)
    for make in DGP_REGISTRY.values():
        make()
    assert len(seen) == len(DGP_REGISTRY)
    for blocks in seen + [[]]:
        support, probs, _ = bernoulli_block_support(blocks)
        want_support, want_probs = _block_support_itertools(blocks)
        assert support.dtype == want_support.dtype
        np.testing.assert_array_equal(support, want_support)
        assert probs.tobytes() == want_probs.tobytes()

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
    with pytest.raises(ValidationError, match="probability"):
        GeneratingDistribution(support, np.array([np.nan, 0.5]), ("Z",), g, q)
    with pytest.raises(ValidationError, match="length"):
        GeneratingDistribution(support, np.array([1.0]), ("Z",), g, q)
    with pytest.raises(ValidationError, match="covariate_names"):
        GeneratingDistribution(support, np.array([0.5, 0.5]), ("Z", "Y"), g, q)


@pytest.mark.parametrize("value", [0.7, np.nan, 2.0])
def test_a_support_cell_that_is_not_0_or_1_is_rejected(value):
    """Cast to int8 unchecked, 0.7 and NaN would become 0 and the support
    would hold a row the caller never gave."""
    g = make_treatment_model(("Z",), [[0.0, 0.0]])
    q = make_outcome_model(("Z",), 2, [0.0, 0.0, 0.0])
    support = np.array([[0.0], [value]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="w_support must be 0 or 1"):
            GeneratingDistribution(support, np.array([0.5, 0.5]), ("Z",), g, q)


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
    original = est_module._rr_tmle
    monkeypatch.setattr(est_module, "_rr_tmle",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    report = eta_bias_diagnostic(gen_nv, estimator="tmle", targets=(0, 2), replicates=2,
                                 n_sim=400)
    assert calls == []
    assert all(e.n_effective == 2 for e in report.entries)
    # No targets: no cells, no truths, an empty report.
    assert eta_bias_diagnostic(gen_nv, targets=(), replicates=2, n_sim=400).entries == ()


def test_gcomp_cells_at_alpha_zero_never_fit_g(monkeypatch, gen_nv, data_nv):
    """At alpha 0 every level is feasible, so G-computation under realistic
    and ITT rules reads no g: neither a bootstrap nor the diagnostic fits it."""
    import causalrules.estimators as est_module

    def no_g(*args, **kwargs):
        raise AssertionError("g was fitted")

    monkeypatch.setattr(est_module, "fit_treatment_model", no_g)
    ci = bootstrap_ci(data_nv, NuisanceSpec(), Rule("realistic", 2, alpha=0.0), "gcomp",
                      BootstrapConfig(replicates=3))
    assert ci.b_effective == 3
    report = eta_bias_diagnostic(gen_nv, estimator="gcomp", families=("realistic", "itt"),
                                 targets=(2,), alpha=0.0, replicates=2, n_sim=400)
    assert [e.n_effective for e in report.entries] == [2, 2]


def test_an_unknown_estimator_is_rejected_before_any_draw(monkeypatch, gen_nv):
    draws = []
    monkeypatch.setattr(diagnostics, "generate", lambda *a, **k: draws.append(1))
    message = "unknown estimator 'bogus'; expected one of \\('gcomp', 'iptw', 'driptw', 'tmle'\\)"
    with pytest.raises(ValidationError, match=message):
        eta_bias_diagnostic(gen_nv, estimator="bogus", replicates=20, n_sim=400)
    with pytest.raises(ValidationError, match=message):
        alpha_sweep(gen_nv, (0.0, 0.1), estimator="bogus", replicates=20, n_sim=400)
    assert draws == []


@pytest.mark.parametrize("kwargs, message", [
    ({"replicates": 0}, "diagnostic replicates must be >= 1"),
    ({"replicates": -3}, "diagnostic replicates must be >= 1"),
    ({"replicates": 2.5}, "diagnostic replicates must be an integer, got 2.5"),
    ({"seed": -1}, "diagnostic seed must be >= 0"),
])
def test_bad_replicate_counts_and_seeds_are_rejected_before_any_draw(
    monkeypatch, gen_nv, kwargs, message
):
    draws = []
    monkeypatch.setattr(diagnostics, "generate", lambda *a, **k: draws.append(1))
    with pytest.raises(ValidationError, match=message):
        eta_bias_diagnostic(gen_nv, n_sim=400, **{"replicates": 2, **kwargs})
    assert draws == []


def test_generate_rejects_a_negative_seed(gen_nv):
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        generate(gen_nv, 10, seed=-1)
    assert generate(gen_nv, 10, seed=np.int64(1)).n == 10


@pytest.mark.parametrize("n_sim, message", [
    (100.5, "n_sim must be an integer, got 100.5"),
    (0, "n_sim must be >= 1"),
])
def test_a_bad_simulation_size_is_rejected_before_any_draw(monkeypatch, gen_nv, n_sim, message):
    draws = []
    monkeypatch.setattr(diagnostics, "generate", lambda *a, **k: draws.append(1))
    with pytest.raises(ValidationError, match=message):
        eta_bias_diagnostic(gen_nv, replicates=2, n_sim=n_sim)
    assert draws == []


@pytest.mark.parametrize("n, message", [
    (2.5, "n must be an integer, got 2.5"),
    (-1, "n must be >= 1"),
])
def test_generate_rejects_a_size_that_is_not_a_positive_integer(gen_nv, n, message):
    with pytest.raises(ValidationError, match=message):
        generate(gen_nv, n, seed=0)
    assert generate(gen_nv, np.int64(3), seed=0).n == 3
