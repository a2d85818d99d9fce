"""Benchmark systems and parametric test families.

The two literature benchmarks are transcribed digit for digit; the 9-state
shear-flow model ships as a bundled coefficient data file with provenance
notes (see ``data/shear_flow_9.json``) because its coefficients come from
the model's original reference rather than from printed matrices.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .errors import DataFileError
from .systems import QBSystem, _densify_h, symmetrize_quadratic

__all__ = [
    "two_state",
    "three_state_qb",
    "shear_flow_9",
    "scalar_family",
    "get_model",
    "model_names",
]


def two_state() -> QBSystem:
    """Two-state quadratic system used for the planar ROA benchmark.

    dx1/dt = -50 x1 - 16 x2 + 13.8 x1 x2
    dx2/dt =  13 x1 -  9 x2 +  5.5 x1 x2
    """
    A = np.array([[-50.0, -16.0], [13.0, -9.0]])
    H = np.array([[0.0, 6.9, 6.9, 0.0],
                  [0.0, 2.75, 2.75, 0.0]])
    return QBSystem(A=A, H=H)


def three_state_qb() -> QBSystem:
    """Three-state, two-input QB benchmark for stabilizability estimation."""
    A = np.array([[-1.7, 1.7, 0.0],
                  [1.37, -1.0, -0.7],
                  [0.7, 1.0, -1.6]])
    B = np.array([[0.8, 3.2],
                  [1.1, 0.2],
                  [7.5, 0.6]])
    D1 = np.array([[0.0, -1.0, 0.0],
                   [0.0, 0.0, 0.0],
                   [1.0, 0.5, 0.0]])
    D2 = np.array([[1.0, 0.0, 0.0],
                   [0.0, 0.0, 0.0],
                   [0.0, -1.0, 0.1]])
    H1 = np.array([[0.0, 0.0, 0.0],
                   [0.0, 0.0, 0.0],
                   [0.0, 0.1, 0.0]])
    H2 = np.array([[0.0, 0.0, 0.0],
                   [0.0, 0.0, -0.5],
                   [0.1, 0.0, 0.0]])
    H3 = np.array([[0.0, 0.0, 0.0],
                   [0.0, -0.5, 0.0],
                   [0.0, 0.0, 0.0]])
    H = np.hstack([H1, H2, H3])
    return QBSystem(A=A, H=H, B=B, D=(D1, D2))


_SHEAR_FLOW_FILE = "shear_flow_9.json"


def _shear_flow_doc() -> dict:
    try:
        path = resources.files("qbstab").joinpath("data", _SHEAR_FLOW_FILE)
        text = path.read_text(encoding="utf-8")
    except (FileNotFoundError, ModuleNotFoundError, OSError) as exc:
        raise DataFileError(
            f"bundled coefficient file {_SHEAR_FLOW_FILE!r} is missing; "
            "the 9-state shear-flow model is unavailable") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFileError(f"corrupt coefficient file {_SHEAR_FLOW_FILE!r}: {exc}") from exc


def shear_flow_9(Re: float) -> QBSystem:
    """Nine-state reduced model of a sinusoidally forced shear flow.

    Coefficients are loaded from the bundled data file; the linear part is
    affine in 1/Re (A = A0 + A1/Re) and the quadratic part is constant.  The
    state measures the deviation from the laminar profile, so the origin is
    the equilibrium of interest.
    """
    if Re <= 0:
        raise ValueError(f"Re must be positive, got {Re}")
    doc = _shear_flow_doc()
    n = int(doc["n"])
    # a 1/Re that overflows gives an infinite A, which QBSystem rejects
    with np.errstate(over="ignore"):
        A = np.asarray(doc["A0"], dtype=float) + np.asarray(doc["A1"], dtype=float) / float(Re)
    return QBSystem(A=A, H=symmetrize_quadratic(_densify_h(doc["H"], n), n))


def scalar_family(a: float, h: float, b: float = 0.0, d: float = 0.0) -> QBSystem:
    """One-state family dx/dt = a x + h x^2 + d x u + b u (closed-form test oracle).

    With no input the analysis trace maximum has the closed form
    p*(eps, alpha) = -eps (2 a + eps h^2 + alpha) whenever positive.
    """
    A = np.array([[float(a)]])
    H = np.array([[float(h)]])
    if b == 0.0 and d == 0.0:
        return QBSystem(A=A, H=H)
    return QBSystem(A=A, H=H, B=np.array([[float(b)]]), D=(np.array([[float(d)]]),))


# name -> (constructor, default parameters)
_REGISTRY = {
    "two-state": (two_state, {}),
    "three-state-qb": (three_state_qb, {}),
    "shear-flow-9": (shear_flow_9, {"Re": 120.0}),
    "scalar": (scalar_family, {"a": -1.0, "h": 1.0, "b": 0.0, "d": 0.0}),
}


def model_names() -> list[str]:
    return sorted(_REGISTRY)


def get_model(name: str, **params) -> QBSystem:
    """Instantiate a registry model by name, passing parameters through."""
    try:
        ctor, defaults = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown model {name!r}; available: {model_names()}")
    merged = {**defaults, **params}
    unknown = set(merged) - set(defaults)
    if unknown:
        raise TypeError(f"model {name!r} takes no parameters {sorted(unknown)}")
    return ctor(**merged) if merged else ctor()
