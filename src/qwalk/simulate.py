"""Exact dense state-vector execution of schedules.

Walk phases are applied spectrally: rotate into the eigenbasis, phase each
component by exp(-i*eigenvalue*t), rotate back.  That keeps every primitive
exactly unitary at float64 precision, which is the whole point; the O(N^2)
cost per operation is irrelevant at the scales this package targets.

The ancilla qubit is the leading tensor factor (amplitude layout
[block0, block1]).  During a schedule it is attached lazily at the first
ancilla operation and detached at the end.  Mid-schedule detaching is
deliberately not attempted: inside conjugated-oracle regions the transient
states are legitimately ancilla-entangled, and only at stage boundaries or
the end of the schedule is the ancilla guaranteed back in |0>.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SimulationError
from .schedule import (
    AncillaHadamard,
    AncillaPhase,
    ControlledWalkPhase,
    GlobalPhase,
    OraclePhase,
    PrimitiveOp,
    Schedule,
    WalkPhase,
)
from .spectral import Spectrum

NORM_TOL = 1e-10
DETACH_TOL = 1e-9

_SQRT_HALF = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitudes over n vertices, optionally tensored
    with one ancilla qubit (dimension 2n, ancilla block-major)."""

    amps: np.ndarray
    n: int

    def __post_init__(self) -> None:
        if len(self.amps) not in (self.n, 2 * self.n):
            raise SimulationError(
                f"amplitude length {len(self.amps)} matches neither n={self.n} "
                f"nor 2n={2 * self.n}"
            )
        norm = float(np.linalg.norm(self.amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise SimulationError(f"state norm defect: {abs(norm - 1.0):.3e}")

    @property
    def has_ancilla(self) -> bool:
        return len(self.amps) == 2 * self.n


def _state(amps: np.ndarray, n: int) -> StateVector:
    amps = np.ascontiguousarray(amps, dtype=complex)
    amps.flags.writeable = False
    return StateVector(amps, n)


def vertex_state(n: int, v: int) -> StateVector:
    if not 0 <= v < n:
        raise SimulationError(f"vertex {v} out of range for n={n}")
    amps = np.zeros(n, dtype=complex)
    amps[v] = 1.0
    return _state(amps, n)


def uniform_state(n: int) -> StateVector:
    return _state(np.full(n, 1.0 / np.sqrt(n), dtype=complex), n)


def block_uniform_state(n: int, start: int, stop: int) -> StateVector:
    """Uniform superposition over the index range [start, stop)."""
    if not 0 <= start < stop <= n:
        raise SimulationError(f"bad block [{start}, {stop}) for n={n}")
    amps = np.zeros(n, dtype=complex)
    amps[start:stop] = 1.0 / np.sqrt(stop - start)
    return _state(amps, n)


def from_amplitudes(amps: np.ndarray, n: int | None = None) -> StateVector:
    arr = np.asarray(amps, dtype=complex)
    return _state(arr.copy(), n if n is not None else len(arr))


# ---------------------------------------------------------------------------
# Primitive applications (pure: each returns a new state)
# ---------------------------------------------------------------------------

def _blocks(state: StateVector) -> tuple[np.ndarray, np.ndarray]:
    if not state.has_ancilla:
        raise SimulationError("operation requires an attached ancilla")
    return state.amps[: state.n], state.amps[state.n :]


def apply_walk_phase(
    state: StateVector, spectrum: Spectrum, t: float, *, controlled: bool = False
) -> StateVector:
    """Spectral application of the walk: phase eigencomponent i by
    exp(-i*lambda_i*t).  With controlled=True only the ancilla-1 block
    evolves."""
    if spectrum.n != state.n:
        raise SimulationError(
            f"spectrum dimension {spectrum.n} does not match state n={state.n}"
        )
    phases = np.exp(-1j * spectrum.eigenvalues * t)
    basis = spectrum.eigenvectors

    def evolve(block: np.ndarray) -> np.ndarray:
        return basis @ (phases * (basis.T @ block))

    if not state.has_ancilla:
        if controlled:
            raise SimulationError("controlled walk requires an attached ancilla")
        return _state(evolve(state.amps), state.n)
    b0, b1 = _blocks(state)
    if controlled:
        return _state(np.concatenate([b0, evolve(b1)]), state.n)
    return _state(np.concatenate([evolve(b0), evolve(b1)]), state.n)


def apply_oracle_phase(
    state: StateVector, marked: int, theta: float, sign: int = 1
) -> StateVector:
    """Multiply the marked vertex amplitude by exp(-i*sign*theta) in every
    ancilla block."""
    if not 0 <= marked < state.n:
        raise SimulationError(f"marked vertex {marked} out of range for n={state.n}")
    factor = cmath.exp(-1j * sign * theta)
    amps = state.amps.copy()
    amps[marked] *= factor
    if state.has_ancilla:
        amps[state.n + marked] *= factor
    return _state(amps, state.n)


def apply_ancilla_hadamard(state: StateVector) -> StateVector:
    b0, b1 = _blocks(state)
    return _state(
        np.concatenate([(b0 + b1) * _SQRT_HALF, (b0 - b1) * _SQRT_HALF]), state.n
    )


def apply_ancilla_phase(state: StateVector, theta: float) -> StateVector:
    b0, b1 = _blocks(state)
    return _state(np.concatenate([b0, np.exp(1j * theta) * b1]), state.n)


def apply_global_phase(state: StateVector, gamma: float) -> StateVector:
    return _state(np.exp(1j * gamma) * state.amps, state.n)


def attach_ancilla(state: StateVector) -> StateVector:
    """Tensor an ancilla |0> onto the state (ancilla leading)."""
    if state.has_ancilla:
        raise SimulationError("ancilla already attached")
    return _state(
        np.concatenate([state.amps, np.zeros(state.n, dtype=complex)]), state.n
    )


def detach_ancilla(state: StateVector, *, tol: float = DETACH_TOL) -> StateVector:
    """Project onto ancilla |0> and renormalize.

    The mass on ancilla |1> must be below ``tol``; anything larger means
    a disentanglement guarantee was broken upstream.
    """
    b0, b1 = _blocks(state)
    leak = float(np.linalg.norm(b1) ** 2)
    if leak > tol:
        raise SimulationError(f"ancilla entangled at detach point: |1> mass {leak:.3e}")
    return _state(b0 / np.linalg.norm(b0), state.n)


def _project_ancilla(state: StateVector) -> StateVector:
    """Measurement-free projection used by read-only observables."""
    if not state.has_ancilla:
        return state
    b0 = state.amps[: state.n]
    norm = float(np.linalg.norm(b0))
    if norm < 1e-12:
        raise SimulationError("no amplitude left on ancilla |0>")
    return _state(b0 / norm, state.n)


# ---------------------------------------------------------------------------
# Schedule execution
# ---------------------------------------------------------------------------

def apply_op(
    state: StateVector,
    op: PrimitiveOp,
    spectrum: Spectrum,
    marked: int | None = None,
) -> StateVector:
    if isinstance(op, WalkPhase):
        return apply_walk_phase(state, spectrum, op.t)
    if isinstance(op, ControlledWalkPhase):
        return apply_walk_phase(state, spectrum, op.t, controlled=True)
    if isinstance(op, OraclePhase):
        if marked is None:
            raise SimulationError("schedule contains oracle ops but no marked vertex")
        return apply_oracle_phase(state, marked, op.theta, op.sign)
    if isinstance(op, AncillaHadamard):
        return apply_ancilla_hadamard(state)
    if isinstance(op, AncillaPhase):
        return apply_ancilla_phase(state, op.theta)
    if isinstance(op, GlobalPhase):
        return apply_global_phase(state, op.gamma)
    raise SimulationError(f"unknown primitive op {op!r}")


def _needs_ancilla(op: PrimitiveOp) -> bool:
    return isinstance(op, (AncillaHadamard, AncillaPhase, ControlledWalkPhase))


def run_schedule(
    state: StateVector,
    schedule: Schedule,
    spectrum: Spectrum,
    marked: int | None = None,
    *,
    on_stage: Callable[[int, StateVector], None] | None = None,
) -> StateVector:
    """Apply every op in order, managing the ancilla automatically.

    The ancilla is attached at the first op that needs it and detached at
    the end of the schedule if it was attached here (with the entanglement
    gate); a state that already carried an ancilla keeps it.  When given,
    ``on_stage(i, state)`` runs after the last op of stage i, before any
    detach, for every stage the schedule declares.
    """
    attached_here = False
    bounds = schedule.stage_boundaries[1:]
    spans = zip((0, *bounds), (*bounds, len(schedule.ops)))
    for stage, (start, end) in enumerate(spans):
        for op in schedule.ops[start:end]:
            if _needs_ancilla(op) and not state.has_ancilla:
                state = attach_ancilla(state)
                attached_here = True
            state = apply_op(state, op, spectrum, marked)
        if on_stage is not None and schedule.stage_boundaries:
            on_stage(stage, state)
    if attached_here:
        state = detach_ancilla(state)
    return state


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------

def fidelity(state: StateVector, target: int | StateVector | np.ndarray) -> float:
    """Squared overlap with a vertex index or an explicit target state."""
    st = _project_ancilla(state)
    if isinstance(target, (int, np.integer)):
        if not 0 <= target < st.n:
            raise SimulationError(f"vertex {target} out of range for n={st.n}")
        return float(abs(st.amps[int(target)]) ** 2)
    t_amps = target.amps if isinstance(target, StateVector) else np.asarray(target)
    if len(t_amps) != st.n:
        raise SimulationError(
            f"target dimension {len(t_amps)} does not match state n={st.n}"
        )
    return float(abs(np.vdot(t_amps, st.amps)) ** 2)


def measure_distribution(state: StateVector) -> np.ndarray:
    """Vertex probability distribution (ancilla projected onto |0> first)."""
    st = _project_ancilla(state)
    probs = np.abs(st.amps) ** 2
    return probs / probs.sum()


def state_to_csv(state: StateVector) -> str:
    """CSV dump: index, real part, imaginary part, probability."""
    st = _project_ancilla(state)
    lines = ["index,re,im,probability"]
    for i, a in enumerate(st.amps):
        lines.append(f"{i},{a.real:.12g},{a.imag:.12g},{abs(a) ** 2:.12g}")
    return "\n".join(lines) + "\n"
