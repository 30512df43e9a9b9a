"""Exact intersection numbers and balanced-cone duality for complete
intersections in products of projective spaces."""

from .cones import (
    Cone2D,
    Pairing,
    Ray,
    det2,
    dual_cone,
    is_subcone,
    ray_normalize,
)
from .errors import (
    ComputationError,
    DegeneratePairingError,
    DegreeMismatchError,
    GeometryError,
    ScenarioError,
    UnknownNameError,
    ValidationError,
)
from .pipeline import (
    GapReport,
    Scenario,
    balanced_cone,
    balanced_image_closure,
    divisor_bound_functional,
    gap_report,
    integrate_forms,
)
from .ring import AmbientSpace
from .scenario_io import (
    DEMO_SCENARIO_JSON,
    parse_scenario,
    quintic_conifold_scenario,
    scenario_to_document,
    serialize_scenario,
)
from .variety import CompleteIntersection

__version__ = "0.1.0"

__all__ = [
    "AmbientSpace",
    "CompleteIntersection",
    "Cone2D",
    "ComputationError",
    "DEMO_SCENARIO_JSON",
    "DegeneratePairingError",
    "DegreeMismatchError",
    "GapReport",
    "GeometryError",
    "Pairing",
    "Ray",
    "Scenario",
    "ScenarioError",
    "UnknownNameError",
    "ValidationError",
    "balanced_cone",
    "balanced_image_closure",
    "det2",
    "divisor_bound_functional",
    "dual_cone",
    "gap_report",
    "integrate_forms",
    "is_subcone",
    "parse_scenario",
    "quintic_conifold_scenario",
    "ray_normalize",
    "scenario_to_document",
    "serialize_scenario",
]
