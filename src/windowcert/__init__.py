"""Certification of neutrality from W-block window aggregates.

Decides, from finitely many block sums of a positive signal, whether the
underlying configuration is neutral (constant), non-neutral, or unresolvable,
with exact integer identifiability certificates and noise-tolerant thresholds.
"""

from .certify import (
    CertReport,
    CostedCandidates,
    Decision,
    decide_certificate,
    eps_bound,
    eps_meaning_set,
    estimate_lipschitz,
    meaning_set,
    pipeline,
    rank_candidates,
)
from .cost import (
    RatioBand,
    cost,
    cost_log,
    lipschitz_constant,
    quadratic_upper_bound,
    rcl_residual,
    separable_cost,
    tolerance_epsilon,
)
from .loggeom import certificate_value, conservation, defect, project_mean_zero
from .prony import PronyModel, prony_reconstruct
from .rankcert import (
    RankCertificate,
    certify_witness,
    det_mod,
    hankel_witness_det,
    jacobian,
    search_witness,
)
from .signal import (
    ExponentialMixture,
    RationalParams,
    WindowData,
    generate_sequence,
    mixture_sequence,
    mixture_window_params,
    window_map,
    window_sums,
)
from .synth import (
    CaseStudyFixture,
    add_multiplicative_noise,
    case_a_fixture,
    case_b_fixture,
    collision_pair,
    recurrence_fit_residual,
)

__all__ = [
    "CertReport",
    "CaseStudyFixture",
    "CostedCandidates",
    "Decision",
    "ExponentialMixture",
    "PronyModel",
    "RankCertificate",
    "RatioBand",
    "RationalParams",
    "WindowData",
    "add_multiplicative_noise",
    "case_a_fixture",
    "case_b_fixture",
    "certificate_value",
    "certify_witness",
    "collision_pair",
    "conservation",
    "cost",
    "cost_log",
    "decide_certificate",
    "defect",
    "det_mod",
    "eps_bound",
    "eps_meaning_set",
    "estimate_lipschitz",
    "generate_sequence",
    "hankel_witness_det",
    "jacobian",
    "lipschitz_constant",
    "meaning_set",
    "mixture_sequence",
    "mixture_window_params",
    "pipeline",
    "project_mean_zero",
    "prony_reconstruct",
    "quadratic_upper_bound",
    "rank_candidates",
    "rcl_residual",
    "recurrence_fit_residual",
    "search_witness",
    "separable_cost",
    "tolerance_epsilon",
    "window_map",
    "window_sums",
]
