"""Ellipsoidal stability certification and feedback synthesis for quadratic-bilinear systems."""

__version__ = "0.1.0"

from .systems import (
    QBSystem,
    ValidationReport,
    symmetrize_quadratic,
    validate,
    eval_dynamics,
    shift_equilibrium,
    close_loop,
    stack,
    load_system,
    save_system,
)
from .lmi import DecisionLayout, SdpProblem, assemble, layout, petersen_parts, delta_norm
from .sdp import SolverConfig, SdpSolution, solve, kkt_residuals, check_block_feasibility
from .certify import (
    Certificate,
    Ellipsoid,
    Infeasible,
    SweepResult,
    UnionRegion,
    max_trace,
    sweep_epsilon,
    optimize_epsilon,
    extract_gain,
    ellipsoid_volume,
    union_volume,
    serialize_certificate,
    deserialize_certificate,
)
from .verify import Trajectory, VerificationReport, vdot, sample_check, simulate, convergence_check
from . import models
