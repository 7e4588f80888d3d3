"""Ready-made generating systems for demos, diagnostics, and tests.

Each factory returns a :class:`~causalrules.diagnostics.GeneratingDistribution`
built from explicit coefficients, so every counterfactual quantity has
an exact, enumerable truth.  ``cohort_dgp`` mimics the shape of an
elderly-cohort physical-activity study: fifteen binary confounders, six
activity levels whose feasibility degrades sharply with age and poor
health (including four structurally impossible cells), and five-year
mortality around twelve percent.  The remaining factories are small
two-covariate systems engineered for specific behaviors: clean
positivity, a strong treatment-covariate interaction, a structural
zero in a high-risk subgroup, and a null treatment effect.
"""

from __future__ import annotations

import numpy as np

from .diagnostics import (
    GeneratingDistribution,
    bernoulli_block_support,
    bernoulli_support,
)
from .errors import ValidationError
from .glm import INTERCEPT_NAME, FitInfo, OutcomeDesign, OutcomeModel, TreatmentModel, _columns_for
from .ingest import DEFAULT_COVARIATES

_EXACT = FitInfo(converged=True, iterations=0, grad_norm=0.0, loglik=0.0)


def make_treatment_model(
    covariate_names: tuple[str, ...],
    coef_rows,
    structural_zeros: tuple[tuple[int, str], ...] = (),
    alpha_trunc: float = 0.05,
) -> TreatmentModel:
    """Treatment mechanism from explicit coefficients.

    ``coef_rows`` has one row per level 1..K-1 over columns
    ``(intercept, covariates...)``; cells named in ``structural_zeros``
    are forced to probability zero.
    """
    coef = np.array(coef_rows, dtype=float)
    if coef.ndim != 2 or coef.shape[1] != len(covariate_names) + 1:
        raise ValidationError("coef_rows must be (K-1, 1 + n_covariates)")
    names = (INTERCEPT_NAME,) + tuple(covariate_names)
    for level, feature in structural_zeros:
        if feature not in names:
            raise ValidationError(f"structural zero names unknown feature {feature!r}")
        if not 0 <= level <= coef.shape[0]:
            raise ValidationError(f"structural zero level {level} out of range")
        if level >= 1:
            coef[level - 1, names.index(feature)] = -np.inf
    return TreatmentModel(
        covariate_names=tuple(covariate_names),
        n_treatment_levels=coef.shape[0] + 1,
        coef=coef,
        structural_zeros=tuple((int(l), f) for l, f in structural_zeros),
        alpha_trunc=alpha_trunc,
        info=_EXACT,
    )


def make_outcome_model(
    covariate_names: tuple[str, ...],
    n_treatment_levels: int,
    coef,
    interactions: tuple[tuple[str, int], ...] = (),
) -> OutcomeModel:
    """Outcome regression from explicit coefficients (see ``OutcomeDesign``)."""
    design = OutcomeDesign(
        covariate_names=tuple(covariate_names),
        n_treatment_levels=n_treatment_levels,
        interactions=interactions,
    )
    coef = np.asarray(coef, dtype=float)
    if coef.shape != (len(design.column_names),):
        raise ValidationError(
            f"coef must have length {len(design.column_names)} (design columns)"
        )
    return OutcomeModel(design=design, coef=coef, info=_EXACT)


def no_violation_dgp(alpha_trunc: float = 0.05) -> GeneratingDistribution:
    """Two confounders, six levels, every cell probability well above 0.05.

    All three rule families coincide conceptually (nothing is
    infeasible), so every estimator is consistent at every target.
    """
    support, probs, names = bernoulli_support(("V", "U"), (0.5, 0.4))
    g = make_treatment_model(
        names,
        [
            [-0.05, 0.30, -0.25],
            [-0.10, -0.30, 0.20],
            [-0.15, 0.20, -0.15],
            [-0.20, -0.20, 0.30],
            [-0.25, 0.25, -0.20],
        ],
        alpha_trunc=alpha_trunc,
    )
    q = make_outcome_model(
        names, 6,
        [-1.2, 0.8, -0.6, -0.15, -0.30, -0.50, -0.70, -0.40],
    )
    return GeneratingDistribution(
        w_support=support, w_probs=probs, covariate_names=names, g_model=g, q_model=q
    )


def interaction_dgp(alpha_trunc: float = 0.05) -> GeneratingDistribution:
    """Strong treatment-by-covariate interaction in the outcome.

    A main-effects-only outcome regression is badly misspecified here
    while the treatment mechanism stays easy to model — the classic
    setting for exercising double robustness.
    """
    support, probs, names = bernoulli_support(("V", "U"), (0.5, 0.4))
    g = make_treatment_model(
        names,
        [
            [-0.10, 0.45, 0.10],
            [-0.10, -0.45, -0.10],
            [-0.20, 0.40, 0.10],
            [-0.20, -0.40, -0.10],
            [-0.30, 0.35, 0.08],
        ],
        alpha_trunc=alpha_trunc,
    )
    q = make_outcome_model(
        names, 6,
        [
            -1.4, 1.0, -0.5,
            -0.2, -0.4, -0.6, -0.8, -0.5,
            1.2, -1.2, 1.2, -1.2, 1.2,
        ],
        interactions=(("V", 1), ("V", 2), ("V", 3), ("V", 4), ("V", 5)),
    )
    return GeneratingDistribution(
        w_support=support, w_probs=probs, covariate_names=names, g_model=g, q_model=q
    )


def structural_zero_dgp(alpha_trunc: float = 0.05) -> GeneratingDistribution:
    """A high-risk subgroup (30% prevalence) that never reaches level 5.

    ``g(5 | H=1) = 0`` exactly while the subgroup's mortality is
    strongly elevated, so static level-5 estimates extrapolate into a
    cell the data cannot support; realistic and ITT rules step around
    it.  All non-zero cells stay comfortably above 0.05.
    """
    support, probs, names = bernoulli_support(("H", "F"), (0.3, 0.5))
    g = make_treatment_model(
        names,
        [
            [-0.15, -0.10, 0.10],
            [-0.30, -0.20, 0.05],
            [-0.45, -0.30, -0.05],
            [-0.60, -0.20, -0.10],
            [-0.75, 0.00, 0.05],
        ],
        structural_zeros=((5, "H"),),
        alpha_trunc=alpha_trunc,
    )
    q = make_outcome_model(
        names, 6,
        [-2.2, 1.6, 0.3, -0.05, -0.10, -0.15, -0.20, -0.25],
    )
    return GeneratingDistribution(
        w_support=support, w_probs=probs, covariate_names=names, g_model=g, q_model=q
    )


def null_effect_dgp(alpha_trunc: float = 0.05) -> GeneratingDistribution:
    """Confounded treatment but no treatment effect: theta = 1 everywhere."""
    support, probs, names = bernoulli_support(("H", "F"), (0.4, 0.5))
    g = make_treatment_model(
        names,
        [
            [-0.05, 0.20, -0.10],
            [-0.10, -0.20, 0.10],
            [-0.15, 0.15, -0.10],
            [-0.20, -0.15, 0.12],
            [-0.25, 0.10, -0.08],
        ],
        alpha_trunc=alpha_trunc,
    )
    q = make_outcome_model(
        names, 6,
        [-1.5, 1.0, -0.5, 0.0, 0.0, 0.0, 0.0, 0.0],
    )
    return GeneratingDistribution(
        w_support=support, w_probs=probs, covariate_names=names, g_model=g, q_model=q
    )


# Multiplicative per-covariate factors on the relative risk of each
# activity level against level 0 (columns: levels 1..5), and mortality
# odds ratios, for the cohort-shaped system.  Zeros are structural:
# the oldest age band is never seen at levels 3 and 5, poor self-rated
# health never at levels 4 and 5.
_COHORT_G_FACTORS = {
    "AGE.1": (1.16, 1.57, 1.37, 1.32, 1.44),
    "AGE.2": (1.37, 1.57, 1.47, 1.32, 1.37),
    "AGE.4": (0.74, 0.94, 0.83, 0.83, 1.02),
    "AGE.5": (0.24, 1.03, 0.00, 1.04, 0.00),
    "HLT.EX": (1.09, 1.10, 1.46, 1.29, 1.67),
    "HLT.FAIR": (0.56, 0.58, 0.47, 0.39, 0.45),
    "HLT.POOR": (0.50, 0.43, 0.33, 0.00, 0.00),
    "NRB.POOR": (0.55, 0.40, 0.29, 0.07, 0.17),
    "NRB.FAIR": (0.78, 0.82, 0.70, 0.99, 0.53),
    "SMK.CURR": (0.65, 0.43, 0.32, 0.61, 0.33),
    "SMK.EX": (1.00, 1.23, 1.09, 1.25, 1.20),
    "CARD": (0.90, 1.29, 1.18, 0.89, 1.46),
    "CHRON": (1.19, 1.14, 1.13, 1.11, 0.93),
    "FEMALE": (0.94, 0.86, 0.82, 0.89, 0.55),
    "DECLINE": (0.67, 0.39, 0.52, 0.37, 0.33),
}

_COHORT_STRUCTURAL_ZEROS = (
    (3, "AGE.5"),
    (5, "AGE.5"),
    (4, "HLT.POOR"),
    (5, "HLT.POOR"),
)

_COHORT_Q_ODDS_RATIOS = {
    "AGE.1": 0.12,
    "AGE.2": 0.43,
    "AGE.4": 3.41,
    "AGE.5": 5.74,
    "HLT.EX": 0.76,
    "HLT.FAIR": 2.01,
    "HLT.POOR": 2.84,
    "NRB.POOR": 1.94,
    "NRB.FAIR": 0.89,
    "SMK.CURR": 3.73,
    "SMK.EX": 1.38,
    "CARD": 1.60,
    "CHRON": 1.44,
    "FEMALE": 0.52,
    "DECLINE": 1.46,
}

_COHORT_Q_LEVEL_ODDS_RATIOS = (0.86, 0.81, 0.78, 0.45, 0.80)

# Level intercepts and the outcome intercept are calibrated numerically
# so that the marginal activity distribution decreases from about a
# third at level 0 towards a tenth at level 5 and marginal five-year
# mortality lands near 12%.
_COHORT_G_INTERCEPTS = (-0.0079, -0.2642, -0.1297, -0.2637, 0.0048)
_COHORT_Q_INTERCEPT = -2.7162

# Marginal covariate-block distribution (illustrative).
_COHORT_BLOCKS = [
    (("FEMALE",), [((0,), 0.45), ((1,), 0.55)]),
    (
        ("AGE.1", "AGE.2", "AGE.4", "AGE.5"),
        [
            ((1, 0, 0, 0), 0.18),
            ((0, 1, 0, 0), 0.30),
            ((0, 0, 0, 0), 0.30),
            ((0, 0, 1, 0), 0.17),
            ((0, 0, 0, 1), 0.05),
        ],
    ),
    (
        ("HLT.EX", "HLT.FAIR", "HLT.POOR"),
        [
            ((1, 0, 0), 0.25),
            ((0, 0, 0), 0.45),
            ((0, 1, 0), 0.22),
            ((0, 0, 1), 0.08),
        ],
    ),
    (
        ("NRB.FAIR", "NRB.POOR"),
        [((0, 0), 0.55), ((1, 0), 0.30), ((0, 1), 0.15)],
    ),
    (("CARD",), [((0,), 0.75), ((1,), 0.25)]),
    (("CHRON",), [((0,), 0.60), ((1,), 0.40)]),
    (
        ("SMK.CURR", "SMK.EX"),
        [((0, 0), 0.45), ((1, 0), 0.15), ((0, 1), 0.40)],
    ),
    (("DECLINE",), [((0,), 0.70), ((1,), 0.30)]),
]


def cohort_dgp(alpha_trunc: float = 0.05) -> GeneratingDistribution:
    """Cohort-shaped system on the full fifteen-covariate schema.

    Treatment-level factors and mortality odds ratios follow the fitted
    pattern of an elderly physical-activity cohort (with four
    structurally impossible treatment cells); the covariate
    distribution and the intercepts are illustrative.
    """
    support, probs, names = bernoulli_block_support(_COHORT_BLOCKS)
    # Reorder into the canonical schema order.
    support = _columns_for(support, names, DEFAULT_COVARIATES)
    names = DEFAULT_COVARIATES

    with np.errstate(divide="ignore"):
        g_coef = np.column_stack(
            [np.asarray(_COHORT_G_INTERCEPTS)]
            + [np.log(np.asarray(_COHORT_G_FACTORS[c])) for c in names]
        )
    g = make_treatment_model(
        names, g_coef, structural_zeros=_COHORT_STRUCTURAL_ZEROS, alpha_trunc=alpha_trunc
    )
    q_coef = np.concatenate(
        [
            [_COHORT_Q_INTERCEPT],
            [np.log(_COHORT_Q_ODDS_RATIOS[c]) for c in names],
            np.log(np.asarray(_COHORT_Q_LEVEL_ODDS_RATIOS)),
        ]
    )
    q = make_outcome_model(names, 6, q_coef)
    return GeneratingDistribution(
        w_support=support, w_probs=probs, covariate_names=names, g_model=g, q_model=q
    )


DGP_REGISTRY = {
    "cohort": cohort_dgp,
    "no_violation": no_violation_dgp,
    "interaction": interaction_dgp,
    "structural_zero": structural_zero_dgp,
    "null_effect": null_effect_dgp,
}
