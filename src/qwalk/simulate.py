"""Exact dense state-vector execution of schedules.

States are written in the vertex basis.  ``run_schedule`` rotates the
state into the spectrum's eigenbasis once and back once at the end (two
O(N^2) real products on the (re, im) pairs).  In between, every op but the
oracle is diagonal, and the oracle acts on both ancilla values: conjugated
by the prefix U of earlier stages it is U O U^dagger = I + (e^{-i alpha}
- 1) sum_a |w_a><w_a| with w_a = U|a, m>, exactly and for any state.  So
every schedule, synthesized or read from JSON, costs O(N) per stage
iteration (``_run_stages``).  ``apply_op`` and the per-op primitives
remain the op-by-op reference.  Every primitive stays exactly unitary.

The ancilla qubit is the leading tensor factor (amplitude layout
[block0, block1]), attached at the first op that needs it; only at stage
boundaries or the end of a schedule is it guaranteed back in |0>.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SimulationError
from .schedule import (
    FORWARD,
    AncillaHadamard,
    AncillaPhase,
    ControlledWalkPhase,
    GlobalPhase,
    OraclePhase,
    PrimitiveOp,
    Schedule,
    Stage,
    WalkPhase,
)
from .spectral import Spectrum

NORM_TOL = 1e-10
DETACH_TOL = 1e-9

_SQRT_HALF = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class StateVector:
    """Normalized complex vertex amplitudes over n vertices, optionally
    tensored with one ancilla qubit (dimension 2n, ancilla block-major)."""

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


def _rotate(basis: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """``basis @ block`` for each row of ``blocks``, as real products on
    the float64 (re, im) view, so no complex copy of ``basis`` is made."""
    pairs = np.ascontiguousarray(blocks, dtype=complex).view(np.float64)
    return (basis @ pairs.reshape(*blocks.shape, 2)).view(complex).reshape(blocks.shape)


def _check_dimension(spectrum: Spectrum, state: StateVector) -> None:
    if spectrum.n != state.n:
        raise SimulationError(
            f"spectrum dimension {spectrum.n} does not match state n={state.n}"
        )


def apply_walk_phase(
    state: StateVector, spectrum: Spectrum, t: float, *, controlled: bool = False
) -> StateVector:
    """Spectral application of the walk: rotate each block into the
    eigenbasis, phase eigencomponent i by exp(-i*lambda_i*t) and rotate
    back, O(N^2).  With controlled=True only the ancilla-1 block evolves."""
    _check_dimension(spectrum, state)
    if controlled and not state.has_ancilla:
        raise SimulationError("controlled walk requires an attached ancilla")
    phases = np.exp(-1j * spectrum.eigenvalues * t)
    vectors = spectrum.eigenvectors
    blocks = _rotate(vectors.T, state.amps.reshape(-1, state.n))
    if controlled:
        blocks[1] = phases * blocks[1]
    else:
        blocks = phases * blocks
    return _state(_rotate(vectors, blocks).ravel(), state.n)


def apply_oracle_phase(
    state: StateVector, marked: int, theta: float, sign: int = 1
) -> StateVector:
    """Multiply the marked vertex amplitude by exp(-i*sign*theta) in every
    ancilla block."""
    _marked_vertex(marked, state.n)
    amps = state.amps.copy()
    amps[marked :: state.n] *= cmath.exp(-1j * sign * theta)
    return _state(amps, state.n)


def _marked_vertex(marked: int | None, n: int) -> int:
    if marked is None:
        raise SimulationError("schedule contains oracle ops but no marked vertex")
    if not 0 <= marked < n:
        raise SimulationError(f"marked vertex {marked} out of range for n={n}")
    return marked


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
    return _state(np.concatenate([state.amps, np.zeros(state.n, dtype=complex)]), state.n)


def detach_ancilla(state: StateVector, *, tol: float = DETACH_TOL) -> StateVector:
    """Project onto ancilla |0> and renormalize.

    The mass on ancilla |1> must be below ``tol``; anything larger means
    a disentanglement guarantee was broken upstream.
    """
    return _state(_detached(*_blocks(state), tol), state.n)


def _detached(b0: np.ndarray, b1: np.ndarray, tol: float = DETACH_TOL) -> np.ndarray:
    """Block 0 renormalized, once block 1 is checked to carry at most ``tol``."""
    leak = float(np.linalg.norm(b1) ** 2)
    if leak > tol:
        raise SimulationError(f"ancilla entangled at detach point: |1> mass {leak:.3e}")
    return b0 / np.linalg.norm(b0)


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
        return apply_oracle_phase(state, marked, op.theta, op.sign)
    if isinstance(op, AncillaHadamard):
        return apply_ancilla_hadamard(state)
    if isinstance(op, AncillaPhase):
        return apply_ancilla_phase(state, op.theta)
    if isinstance(op, GlobalPhase):
        return apply_global_phase(state, op.gamma)
    raise SimulationError(f"unknown primitive op {op!r}")


def _kick_kernel(stage: Stage, eigenvalues: np.ndarray) -> np.ndarray:
    """``target_phase_ops(stage.walk_time, stage.kick)`` as one 2x2 ancilla
    matrix per eigencomponent, ``m[r, c, i]``, so that block r after it is
    sum over c of m[r, c] * block c before it, in the eigenbasis.  H c(W) H
    is [[a, b], [b, a]] with a, b = (1 +- e^{-i lambda t}) / 2, and the
    circuit is that matrix on both sides of diag(1, e^{i theta})."""
    phi = np.exp(-1j * eigenvalues * stage.walk_time)
    z = cmath.exp(1j * stage.kick)
    a, b = (1 + phi) / 2, (1 - phi) / 2
    off = a * b * (1 + z)
    return np.array([[a * a + b * b * z, off], [off, b * b + a * a * z]])


def run_schedule(
    state: StateVector,
    schedule: Schedule,
    spectrum: Spectrum,
    marked: int | None = None,
    *,
    on_stage: Callable[[int, StateVector], None] | None = None,
) -> StateVector:
    """Apply the schedule in the eigenbasis, managing the ancilla.

    The result is the state ``apply_op`` gives op by op, up to rounding.
    The ancilla is detached at the end (with the entanglement gate) unless
    the state arrived carrying it.  When given, ``on_stage(i, state)`` runs
    after stage i, before any detach, for every stage of the schedule.
    """
    _check_dimension(spectrum, state)
    vectors, n = spectrum.eigenvectors, state.n
    blocks = _rotate(vectors.T, state.amps.reshape(-1, n))
    carried = len(blocks) == 2
    for stage, blocks in enumerate(_run_stages(blocks, schedule, spectrum, marked)):
        if on_stage is not None:
            on_stage(stage, _state(_rotate(vectors, blocks).ravel(), n))
    if len(blocks) == 2 and not carried:
        blocks = _detached(*blocks)[None]
    return _state(_rotate(vectors, blocks).ravel(), n)


def _run_stages(blocks, schedule, spectrum, marked):
    """A stage tree on eigenbasis blocks, yielding the blocks after each
    stage.  A pass over the pair w_a = U|a, m> alone stores the pair at the
    start of each stage; then the stages run in order, each iteration a
    fused kick and a rank-2 oracle update, or their adjoints in reverse.
    A schedule without stages needs no marked vertex."""
    stages = schedule.stages
    if not stages:
        return
    row = spectrum.eigenvectors[_marked_vertex(marked, spectrum.n)]
    starts = [np.eye(2)[:, :, None] * row]
    kicks = [_kick_kernel(st, spectrum.eigenvalues) for st in stages]

    def power(x: np.ndarray, k: int, adjoint: bool = False) -> np.ndarray:
        # every iteration of stage k on the rows of x, shape (R, 2, N); the
        # kick kernel is symmetric, so its adjoint is its conjugate
        w = starts[k].reshape(2, -1)
        kick = kicks[k].conj() if adjoint else kicks[k]
        factor = cmath.exp((1j if adjoint else -1j) * stages[k].params.alpha) - 1
        for _ in range(stages[k].params.iterations):
            if not adjoint:
                x = (kick * x[:, None]).sum(axis=2)
            x = x + factor * ((x.reshape(len(x), -1) @ w.conj().T) @ w).reshape(x.shape)
            if adjoint:
                x = (kick * x[:, None]).sum(axis=2)
        return x

    for k in range(len(stages) - 1):
        starts.append(power(starts[k], k))
    forward = schedule.direction == FORWARD
    x = np.vstack([blocks, np.zeros((2 - len(blocks), len(row)))])[None]
    for k in range(len(stages)) if forward else reversed(range(len(stages))):
        x = power(x, k, adjoint=not forward)
        yield x[0]


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
    if isinstance(target, StateVector):
        target = _project_ancilla(target).amps
    t_amps = np.asarray(target)
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
