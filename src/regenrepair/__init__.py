"""Exact storage-bandwidth tradeoffs and executable codes for centralized
multi-node repair in distributed storage.

The tradeoff side works in exact rational arithmetic; the code side builds
finite-field constructions whose multi-failure repairs are verified
bit-for-bit. The command line entry point lives in regenrepair.cli.
"""

from .ambr import AdaptiveMBRCode
from .framework import (
    CouplingSystem,
    InvalidHelperCountError,
    InvalidRepairInputError,
    RepairTranscript,
    SingularCouplingError,
)
from .gf import Field, Matrix
from .ia import IACode, UnsupportedPatternError
from .mds import MDSStripeCode
from .pm import PMCode
from .tradeoff import (
    CurvePoint,
    InfeasibleBandwidthError,
    InvalidScenarioError,
    Scenario,
    SystemParams,
    TradeoffPoint,
    alpha_star,
    compare_strategies,
    cut_value,
    gamma_mbmr,
    gamma_min_for_alpha,
    mbcr_check,
    mbmr_point,
    min_cut_oracle,
    msmr_point,
    optimal_scenario,
    tradeoff_curve,
)
from .workbench import (
    AssignmentNotFoundError,
    SplitRandom,
    SweepReport,
    build_code,
    emit_comparison,
    emit_curve,
    run_sweep,
    search_assignment,
    verify_exact_repair,
)

__all__ = [
    "AdaptiveMBRCode",
    "AssignmentNotFoundError",
    "CouplingSystem",
    "CurvePoint",
    "Field",
    "IACode",
    "InfeasibleBandwidthError",
    "InvalidHelperCountError",
    "InvalidRepairInputError",
    "InvalidScenarioError",
    "MDSStripeCode",
    "Matrix",
    "PMCode",
    "RepairTranscript",
    "Scenario",
    "SingularCouplingError",
    "SplitRandom",
    "SweepReport",
    "SystemParams",
    "TradeoffPoint",
    "UnsupportedPatternError",
    "alpha_star",
    "build_code",
    "compare_strategies",
    "cut_value",
    "emit_comparison",
    "emit_curve",
    "gamma_mbmr",
    "gamma_min_for_alpha",
    "mbcr_check",
    "mbmr_point",
    "min_cut_oracle",
    "msmr_point",
    "optimal_scenario",
    "run_sweep",
    "search_assignment",
    "tradeoff_curve",
    "verify_exact_repair",
]
