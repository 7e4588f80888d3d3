import numpy as np
import pytest

from causalrules import (
    Dataset,
    Rule,
    RuleInfeasibleError,
    ValidationError,
    fit_treatment_model,
    itt_assignments,
    membership_matrix,
    positivity_report,
    realistic_assignments,
    rule_assignment_table,
)
from causalrules.rules import assign


def assign_one(probs, rule, observed_a=0):
    """Assigned level of a single covariate profile."""
    probs = np.asarray([probs], dtype=float)
    return int(assign(rule, probs, np.array([observed_a]), probs.shape[1])[1][0])


def feasible_levels(probs, alpha):
    """Levels an ITT rule moves a one-row profile to (observed level -1)."""
    return {
        t for t in range(len(probs))
        if assign_one(probs, Rule(family="itt", target=t, alpha=alpha), observed_a=-1) == t
    }


# Scalar oracle for the vectorized assignments: the definitions in the
# rules module docstring, applied one profile at a time.
def scalar_realistic(probs, alpha, target, empty_set_policy):
    members = [a for a, p in enumerate(probs) if p >= alpha]
    eligible = [a for a in members if a <= target]
    if eligible:
        return max(eligible)
    if empty_set_policy == "assign_min_realistic" and members:
        return min(members)
    raise RuleInfeasibleError("empty feasible set")


def scalar_itt(probs, alpha, target, observed_a):
    return target if probs[target] >= alpha else int(observed_a)


def test_rule_validation():
    with pytest.raises(ValidationError):
        Rule(family="dynamic", target=1)
    with pytest.raises(ValidationError):
        Rule(family="static", target=-1)
    with pytest.raises(ValidationError):
        Rule(family="realistic", target=1, alpha=1.0)
    with pytest.raises(ValidationError):
        Rule(family="itt", target=1, empty_set_policy="skip")
    assert Rule(family="itt", target=2).label() == "itt:A=2"


def test_rule_target_must_be_an_integer():
    # A float target used to pass and fail later with a bare TypeError or
    # IndexError inside the assignments.
    for target in (1.5, 1.0, "1", True):
        with pytest.raises(ValidationError, match="rule target must be an integer"):
            Rule(family="static", target=target)
    assert Rule(family="realistic", target=np.int64(1)).target == 1


def test_realistic_set_includes_ties():
    assert feasible_levels([0.05, 0.6, 0.3, 0.05], alpha=0.05) == {0, 1, 2, 3}
    assert feasible_levels([0.049, 0.6, 0.3, 0.051], alpha=0.05) == {1, 2, 3}


def test_assign_realistic_caps_at_highest_feasible():
    probs = [0.2, 0.2, 0.05, 0.3, 0.05, 0.05]
    assert feasible_levels(probs, alpha=0.1) == {0, 1, 3}
    assert assign_one(probs, Rule(family="realistic", target=5, alpha=0.1)) == 3
    # Target feasible: assign it directly.
    assert assign_one(probs, Rule(family="realistic", target=1, alpha=0.1)) == 1


def test_assign_realistic_empty_set_policy():
    probs = [0.01, 0.01, 0.5, 0.47]  # feasible {2, 3}
    rule = Rule(family="realistic", target=1, alpha=0.05)
    with pytest.raises(RuleInfeasibleError):
        assign_one(probs, rule)
    fallback = Rule(family="realistic", target=1, alpha=0.05,
                    empty_set_policy="assign_min_realistic")
    assert assign_one(probs, fallback) == 2


def test_assign_itt():
    probs = [0.3, 0.3, 0.2, 0.1, 0.05, 0.05]
    rule = Rule(family="itt", target=4, alpha=0.1)
    assert assign_one(probs, rule, observed_a=1) == 1  # 4 infeasible: keep observed
    rule2 = Rule(family="itt", target=2, alpha=0.1)
    assert assign_one(probs, rule2, observed_a=5) == 2  # 2 feasible: switch


def test_vectorized_assignments_match_scalar():
    rng = np.random.default_rng(14)
    n, k = 250, 6
    probs = rng.dirichlet(np.ones(k), size=n)
    observed = rng.integers(0, k, n)
    for alpha in (0.02, 0.05, 0.12):
        member = membership_matrix(probs, alpha)
        for target in range(k):
            want = np.array([
                scalar_realistic(probs[i], alpha, target, "assign_min_realistic")
                for i in range(n)
            ])
            got = realistic_assignments(member, target, "assign_min_realistic")
            np.testing.assert_array_equal(got, want)
            want = np.array([scalar_itt(probs[i], alpha, target, observed[i]) for i in range(n)])
            np.testing.assert_array_equal(itt_assignments(member, target, observed), want)
            itt_rule = Rule(family="itt", target=target, alpha=alpha)
            np.testing.assert_array_equal(assign(itt_rule, probs, observed, k)[1], want)
        # All targets at once, in any order, from one pass over the levels.
        targets = [3, 0, 5, 1]
        for target, got in zip(targets, realistic_assignments(member, targets,
                                                              "assign_min_realistic")):
            np.testing.assert_array_equal(
                got, realistic_assignments(member, target, "assign_min_realistic"))
        for target, got in zip(targets, itt_assignments(member, targets, observed)):
            np.testing.assert_array_equal(got, itt_assignments(member, target, observed))


def test_realistic_assignment_bounds():
    """Assigned level is feasible and never exceeds the target."""
    rng = np.random.default_rng(15)
    probs = rng.dirichlet(np.full(6, 0.7), size=400)
    member = membership_matrix(probs, 0.05)
    for target in range(6):
        assigned = realistic_assignments(member, target, "assign_min_realistic")
        over = assigned > target
        # Rows over target can only be empty-set fallbacks.
        assert np.all(member[np.arange(400), assigned])
        assert np.all(~member[over, : target + 1].any(axis=1))


def test_feasible_sets_shrink_in_alpha():
    rng = np.random.default_rng(16)
    probs = rng.dirichlet(np.ones(6), size=300)
    sizes = []
    for alpha in (0.0, 0.02, 0.05, 0.10, 0.20):
        member = membership_matrix(probs, alpha)
        sizes.append(member.sum())
        if alpha == 0.0:
            assert member.all()
    assert all(b <= a for a, b in zip(sizes, sizes[1:]))


def test_alpha_zero_realistic_equals_static():
    rng = np.random.default_rng(17)
    probs = rng.dirichlet(np.ones(6), size=100)
    observed = rng.integers(0, 6, 100)
    for target in range(6):
        static = assign(Rule(family="static", target=target), None, observed, 6)[1]
        realistic = assign(
            Rule(family="realistic", target=target, alpha=0.0), probs, observed, 6
        )[1]
        itt = assign(Rule(family="itt", target=target, alpha=0.0), probs, observed, 6)[1]
        assert np.array_equal(static, realistic)
        assert np.array_equal(static, itt)
        assert np.all(static == target)


def test_realistic_rules_need_probabilities():
    with pytest.raises(ValidationError, match="probabilities"):
        assign(Rule(family="realistic", target=1, alpha=0.05), None, np.zeros(5, dtype=int), 6)


def test_assign_rejects_a_target_outside_the_levels():
    for family in ("static", "realistic", "itt"):
        with pytest.raises(ValidationError, match=r"^target 6 outside 0\.\.5$"):
            assign(Rule(family, 6), np.full((2, 6), 1 / 6), np.zeros(2, dtype=int), 6)


def test_rules_assigned_together_must_differ_only_in_target():
    probs = np.full((5, 6), 1 / 6)
    observed = np.zeros(5, dtype=int)
    for rules in ([], [Rule("realistic", 1), Rule("itt", 2)],
                  [Rule("realistic", 1), Rule("realistic", 2, alpha=0.1)]):
        with pytest.raises(ValidationError, match="differ only in target"):
            assign(rules, probs, observed, 6)


def test_infeasible_rows_are_reported():
    member = np.zeros((4, 3), dtype=bool)
    member[:, 2] = True
    member[1] = False  # row 1: empty feasible set
    with pytest.raises(RuleInfeasibleError) as err:
        realistic_assignments(member, 1, "error")
    assert 1 in err.value.rows
    with pytest.raises(RuleInfeasibleError) as err:
        realistic_assignments(member, 1, "assign_min_realistic")
    assert err.value.rows == [1]


def test_rule_assignment_table(data_nv, models_nv):
    g_model, _ = models_nv
    k, n = data_nv.n_treatment_levels, data_nv.n
    static = rule_assignment_table(data_nv, g_model, "static")
    np.testing.assert_array_equal(static, n * np.eye(k, dtype=int))
    realistic = rule_assignment_table(data_nv, g_model, "realistic", alpha=0.05)
    assert realistic.sum(axis=1).tolist() == [n] * k
    assert np.triu(realistic, 1).sum() == 0  # never above the target
    itt = rule_assignment_table(data_nv, g_model, "itt", alpha=0.05)
    assert itt.sum(axis=1).tolist() == [n] * k
    # With a harsher threshold, fewer rows can reach the top level.
    harsh = rule_assignment_table(data_nv, g_model, "itt", alpha=0.3)
    assert harsh[5, 5] <= itt[5, 5]


def test_positivity_report(data_nv, models_nv):
    g_model, _ = models_nv
    rep = positivity_report(data_nv, g_model, alpha=0.05)
    assert rep.n == data_nv.n
    assert len(rep.levels) == data_nv.n_treatment_levels
    probs = g_model.predict_raw(data_nv.w)
    for lv in rep.levels:
        assert lv.n_below_alpha == int((probs[:, lv.level] < 0.05).sum())
        assert 0.0 <= lv.g_min <= lv.g_q05 <= lv.g_q25 <= lv.g_median
    d = rep.to_dict()
    assert d["alpha"] == 0.05
    assert len(d["levels"]) == 6
    # A sky-high threshold flags every level.
    strict = positivity_report(data_nv, g_model, alpha=0.9)
    assert list(strict.flagged_levels) == list(range(6))


def test_a_probability_equal_to_alpha_is_feasible_and_not_below_alpha():
    """An intercept-only fit on a balanced two-level sample gives g = 0.5
    exactly.  At alpha = 0.5 membership counts the tie as feasible, so the
    positivity report must not count it as below alpha."""
    ds = Dataset(w=np.array([[0], [1], [0], [1]]), a=np.array([0, 0, 1, 1]),
                 y=np.zeros(4, dtype=int), covariate_names=("H",), n_treatment_levels=2)
    g_model = fit_treatment_model(ds, covariate_names=())
    probs = g_model.predict_raw(np.zeros((1, 0)))
    assert probs.tolist() == [[0.5, 0.5]]
    assert membership_matrix(probs, 0.5).all()
    rep = positivity_report(ds, g_model, alpha=0.5)
    assert [lv.n_below_alpha for lv in rep.levels] == [0, 0]
    assert list(rep.flagged_levels) == []
