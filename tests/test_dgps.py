import numpy as np
import pytest

from causalrules import (
    DGP_REGISTRY,
    GeneratingDistribution,
    Rule,
    ValidationError,
    cohort_dgp,
    interaction_dgp,
    make_outcome_model,
    make_treatment_model,
    no_violation_dgp,
    null_effect_dgp,
    structural_zero_dgp,
    true_psi,
)


def test_registry_names_and_types():
    assert set(DGP_REGISTRY) == {
        "cohort", "no_violation", "interaction", "structural_zero", "null_effect",
    }
    for factory in DGP_REGISTRY.values():
        gen = factory()
        assert isinstance(gen, GeneratingDistribution)
        assert gen.w_probs.sum() == pytest.approx(1.0, abs=1e-9)
        rows = gen.support_g_raw()
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)


def test_positivity_margins():
    assert no_violation_dgp().support_g_raw().min() > 0.11
    assert interaction_dgp().support_g_raw().min() > 0.08
    assert null_effect_dgp().support_g_raw().min() > 0.12
    g = structural_zero_dgp().support_g_raw()
    assert g.min() == 0.0
    assert g[g > 0].min() > 0.11


def test_structural_zero_is_subgroup_specific():
    gen = structural_zero_dgp()
    g = gen.support_g_raw()
    h = gen.w_support[:, gen.covariate_names.index("H")] == 1
    assert np.all(g[h, 5] == 0.0)
    assert np.all(g[~h, 5] > 0.05)


def test_null_effect_theta_is_one():
    gen = null_effect_dgp()
    for family in ("static", "realistic", "itt"):
        for target in range(1, 6):
            psi, psi0 = (true_psi(gen, Rule(family=family, target=t, alpha=0.05))
                         for t in (target, 0))
            assert psi / psi0 == pytest.approx(1.0, abs=1e-12)


def test_cohort_margins():
    gen = cohort_dgp()
    assert gen.w_support.shape == (2880, 15)
    assert gen.n_treatment_levels == 6
    pa = gen.w_probs @ gen.support_g_raw()
    np.testing.assert_allclose(pa, [0.33, 0.18, 0.15, 0.13, 0.11, 0.10], atol=5e-5)
    mortality = float(
        gen.w_probs @ (gen.support_g_raw() * gen.support_q()).sum(axis=1)
    )
    assert mortality == pytest.approx(0.120, abs=5e-5)
    assert gen.g_model.structural_zeros == (
        (3, "AGE.5"), (5, "AGE.5"), (4, "HLT.POOR"), (5, "HLT.POOR"),
    )


def test_cohort_impossible_cells():
    gen = cohort_dgp()
    g = gen.support_g_raw()
    names = gen.covariate_names
    age5 = gen.w_support[:, names.index("AGE.5")] == 1
    poor = gen.w_support[:, names.index("HLT.POOR")] == 1
    assert np.all(g[age5][:, [3, 5]] == 0.0)
    assert np.all(g[poor][:, [4, 5]] == 0.0)
    assert np.all(g[~age5 & ~poor] > 0.0)


def test_cohort_coefficients_are_log_factors():
    gen = cohort_dgp()
    g = gen.g_model
    j = g.covariate_names.index("AGE.1") + 1
    assert g.coef[1, j] == pytest.approx(np.log(1.57), abs=1e-12)
    j = g.covariate_names.index("SMK.CURR") + 1
    assert g.coef[0, j] == pytest.approx(np.log(0.65), abs=1e-12)
    cols = gen.q_model.design.column_names
    q_coef = gen.q_model.coef
    assert q_coef[cols.index("SMK.CURR")] == pytest.approx(np.log(3.73), abs=1e-12)
    assert q_coef[cols.index("A=4")] == pytest.approx(np.log(0.45), abs=1e-12)


def test_make_model_validation():
    with pytest.raises(ValidationError):
        make_treatment_model(("Z",), [[0.0]])
    with pytest.raises(ValidationError, match="unknown feature"):
        make_treatment_model(("Z",), [[0.0, 0.0]], structural_zeros=((1, "Q"),))
    with pytest.raises(ValidationError, match="out of range"):
        make_treatment_model(("Z",), [[0.0, 0.0]], structural_zeros=((7, "Z"),))
    with pytest.raises(ValidationError, match="length"):
        make_outcome_model(("Z",), 2, [0.0, 0.0])
