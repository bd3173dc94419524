"""Covert air-to-ground link performance toolkit.

Closed-form detection-error, outage and capacity metrics for a UAV
transmitter under a power-detecting warden, in omnidirectional microwave
("om") and directional mmWave ("dm") modes, with covertness-constrained
power/rate optimization and a deterministic Monte Carlo validation oracle.
"""

__version__ = "1.0.0"

from .channel import NakagamiLaw, NoiseModel, PathLoss, RicianLaw
from .detection import (
    DepResult,
    ExpectedDep,
    expected_min_dep,
    min_dep,
)
from .errors import (
    A2GError,
    DegenerateArrayError,
    DomainError,
    QuadratureError,
    ScenarioError,
)
from .geometry import AntennaSpec, NodePosition, SCurveParams
from .oracle import (
    McEstimate,
    mc_ergodic_capacity,
    mc_expected_min_dep,
    mc_outage,
)
from .planner import (
    ModeDecision,
    OptimizationResult,
    maximize_csc,
    maximize_ecr,
    select_mode,
)
from .scenario import BandModel, Scenario, default_scenario, load_scenario, loads_scenario
from .throughput import csc, ecr, outage, snr_threshold
from .validation import CellReport, run_validation

__all__ = [
    "__version__",
    "A2GError", "DomainError", "ScenarioError", "DegenerateArrayError",
    "QuadratureError",
    "NodePosition", "AntennaSpec", "SCurveParams",
    "RicianLaw", "NakagamiLaw", "PathLoss", "NoiseModel",
    "Scenario", "BandModel", "default_scenario", "load_scenario",
    "loads_scenario",
    "DepResult", "ExpectedDep", "min_dep", "expected_min_dep",
    "snr_threshold", "outage", "ecr", "csc",
    "OptimizationResult", "ModeDecision", "maximize_ecr", "maximize_csc",
    "select_mode",
    "McEstimate", "mc_expected_min_dep", "mc_outage", "mc_ergodic_capacity",
    "CellReport", "run_validation",
]
