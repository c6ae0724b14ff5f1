"""Network formation among information-gathering agents.

A library and CLI for a link-formation game in which agents hold correlated
information described by an entropic vector, sponsor costly links to gather
more, and optionally choose how much information to produce. Ships exhaustive
equilibrium enumeration, closed-form structural and efficiency predictors
with cross-validation against brute force, and a batch experiment front end.
"""
from .entropy import (
    EntropicVector,
    JointPmf,
    ShannonReport,
    ShannonViolation,
    family_pair_redundancy,
    family_independent,
    family_max_correlated,
    from_joint_pmfs,
    subset_mask,
    validate_shannon,
)
from .formation_game import (
    BenefitFunction,
    CostModel,
    GameConfig,
)
from .equilibrium import (
    CapExceededError,
    EquilibriumReport,
    enumerate_games,
    enumerate_nash,
    social_optimum,
)
from .analytic import (
    ConnectivityRegion,
    Prediction,
    classify_homogeneous,
    component_structures,
    mil_predict,
    poa_monotonicity_sweep,
    poa_predict,
    region_heterogeneous,
    thresholds_homogeneous,
)
from .production import (
    Aggregation,
    FewSweepPoint,
    ProductionGameConfig,
    few_sweep,
    h_bar,
    production_ne_mask,
    shape_mask,
)
from .verification import VerifyReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "Aggregation",
    "BenefitFunction",
    "CapExceededError",
    "ConnectivityRegion",
    "CostModel",
    "EntropicVector",
    "EquilibriumReport",
    "FewSweepPoint",
    "GameConfig",
    "JointPmf",
    "Prediction",
    "ProductionGameConfig",
    "ShannonReport",
    "ShannonViolation",
    "VerifyReport",
    "classify_homogeneous",
    "component_structures",
    "enumerate_games",
    "enumerate_nash",
    "family_pair_redundancy",
    "family_independent",
    "family_max_correlated",
    "few_sweep",
    "from_joint_pmfs",
    "h_bar",
    "mil_predict",
    "poa_monotonicity_sweep",
    "poa_predict",
    "production_ne_mask",
    "region_heterogeneous",
    "run_verification",
    "shape_mask",
    "social_optimum",
    "subset_mask",
    "thresholds_homogeneous",
    "validate_shannon",
]
