"""Pulse-coupled oscillator networks that desynchronise into the splay state.

Event-driven hybrid simulation, circle geometry, response-function
validation, Lyapunov analysis and hybrid-closeness comparison of recorded
arcs.  The flow is exact: a common shift on nominal runs, closed form
under a sinusoidal disturbance, and one Gauss-Legendre panel per row
under a custom one; perturbed crossings are found by bracketed Newton.
"""

from .analysis import (
    ClosenessReport,
    LyapunovTrace,
    MonotoneVerdict,
    closeness,
    distance_to_splay,
    lyapunov,
    verify_monotone,
    vtilde,
)
from .circle import (
    TWO_PI,
    GapProfile,
    gap_profile,
    geodesic,
    min_pairwise_geodesic,
    shortest_arc_length,
    shortest_arc_oracle,
    splay_arc_length,
)
from .model import (
    CheckResult,
    InvalidPhaseResponseError,
    JumpBranch,
    PhaseResponse,
    ValidationReport,
    firing_indices,
    in_bad_set,
    in_flow_set,
    in_jump_set,
    in_splay_set,
    jump_map,
    validate_prc,
)
from .prc import (
    BROKEN,
    broken_step,
    broken_steep,
    broken_zero,
    linear_family,
    load_table_prc,
    paper_prc,
    piecewise_linear,
    prc_from_spec,
    table_prc,
)
from .sim import (
    HybridArc,
    HybridTime,
    JumpEvent,
    Perturbation,
    SimConfig,
    ZenoViolationError,
    flow_to_next_event,
    read_trajectory_csv,
    run,
    write_events_csv,
    write_trajectory_csv,
)

__version__ = "0.1.0"

__all__ = [
    "TWO_PI",
    "BROKEN",
    "CheckResult",
    "ClosenessReport",
    "GapProfile",
    "HybridArc",
    "HybridTime",
    "InvalidPhaseResponseError",
    "JumpBranch",
    "JumpEvent",
    "LyapunovTrace",
    "MonotoneVerdict",
    "Perturbation",
    "PhaseResponse",
    "SimConfig",
    "ValidationReport",
    "ZenoViolationError",
    "broken_step",
    "broken_steep",
    "broken_zero",
    "closeness",
    "distance_to_splay",
    "firing_indices",
    "flow_to_next_event",
    "gap_profile",
    "geodesic",
    "in_bad_set",
    "in_flow_set",
    "in_jump_set",
    "in_splay_set",
    "jump_map",
    "linear_family",
    "load_table_prc",
    "lyapunov",
    "min_pairwise_geodesic",
    "paper_prc",
    "piecewise_linear",
    "prc_from_spec",
    "read_trajectory_csv",
    "run",
    "shortest_arc_length",
    "shortest_arc_oracle",
    "splay_arc_length",
    "table_prc",
    "validate_prc",
    "verify_monotone",
    "vtilde",
    "write_events_csv",
    "write_trajectory_csv",
]
