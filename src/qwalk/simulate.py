"""Exact dense state-vector execution of schedules.

Every op but the oracle is diagonal in the eigenbasis, and the oracle acts
on both ancilla values: conjugated by the prefix U of earlier stages it is
U O U^dagger = I + (e^{-i alpha} - 1) sum_a |w_a><w_a| with w_a = U|a, m>,
exactly and for any state.  So a schedule costs O(r) per stage iteration
in any r-dimensional frame where the walk is diagonal (``_run_stages``).
A run from vertices S with oracles on S stays in span{E_g|s>}, which
``vertex_frame`` spans with at most |S| coordinates per eigenvalue and no
N x N product; every pipeline runs there, on the Laplacian or the
adjacency spectrum.  ``run_schedule`` takes any vertex-basis state and
rotates it into the eigenbasis and back, O(N^2); it, ``apply_op`` and the
per-op primitives are the references the frame runs are tested against,
and every one is exactly unitary.

The ancilla qubit is the leading tensor factor (amplitude layout
[block0, block1]), attached at the first op that needs it; only at stage
boundaries or the end of a schedule is it guaranteed back in |0>.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .depth import SKIP_MASS_TOL
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
    row = vectors[_marked_vertex(marked, n)] if schedule.stages else None
    blocks = _rotate(vectors.T, state.amps.reshape(-1, n))
    report = on_stage and (lambda i, b: on_stage(i, _state(_rotate(vectors, b).ravel(), n)))
    blocks = _run_stages(blocks, schedule, spectrum.eigenvalues, row, report)
    return _state(_rotate(vectors, blocks).ravel(), n)


@dataclass(frozen=True)
class Frame:
    """Orthonormal coordinates on span{E_g|s>} over eigenspaces g and s in
    ``vertices``: coordinate j lies in ``spectrum.groups[group[j]]``, of
    eigenvalue ``values[j]``, and row k of ``coords`` is |vertices[k]>."""

    vertices: tuple[int, ...]
    values: np.ndarray
    group: np.ndarray
    coords: np.ndarray

    def run(
        self, blocks: np.ndarray, schedule: Schedule, k: int = 0,
        on_stage: Callable[[int, np.ndarray], None] | None = None,
    ) -> np.ndarray:
        """``run_schedule`` on (1 or 2, r) ancilla blocks of coordinates,
        with m = vertices[k]; ``on_stage`` gets the blocks."""
        return _run_stages(blocks, schedule, self.values, self.coords[k], on_stage)


def vertex_frame(spectrum: Spectrum, vertices: Sequence[int]) -> Frame:
    """The frame of ``vertices``: per eigenspace g, the eigenvectors of the
    Gram matrix (E_g)_st = sum over i in g of V[s, i] V[t, i] with eigenvalue
    above ``SKIP_MASS_TOL`` (a vertex may have no mass on g).  O(N |S|^2)."""
    vertices = tuple(_marked_vertex(v, spectrum.n) for v in vertices)
    rows = spectrum.eigenvectors[list(vertices)]
    starts = [g.indices[0] for g in spectrum.groups]  # groups are index runs
    gram = np.add.reduceat(rows[:, None] * rows, starts, axis=2)
    lam, vecs = np.linalg.eigh(gram.T)
    group, j = np.nonzero(lam > SKIP_MASS_TOL)
    coords = (np.sqrt(lam[group, j])[:, None] * vecs[group, :, j]).T
    return Frame(vertices, np.array([g.value for g in spectrum.groups])[group], group, coords)


def lift(spectrum: Spectrum, frame: Frame, x: np.ndarray) -> StateVector:
    """The vertex-basis state with coordinates x, one row per ancilla block
    or a single row, in the frame of one vertex s, where coordinate j is
    E_g|s> / coords[0, j]: one N x N product per row."""
    x = np.atleast_2d(x)
    per_group = np.zeros((len(x), len(spectrum.groups)), dtype=complex)
    per_group[:, frame.group] = x / frame.coords[0]
    y = spectrum.eigenvectors[frame.vertices[0]] * np.repeat(
        per_group, [g.multiplicity for g in spectrum.groups], axis=1)
    return _state(_rotate(spectrum.eigenvectors, y).ravel(), spectrum.n)


def _run_stages(blocks, schedule, eigenvalues, row, on_stage=None):
    """A stage tree on ancilla blocks in a frame where the walk is diagonal
    with ``eigenvalues`` and m has coordinates ``row``.  A pass over the
    pair w_a = U|a, m> alone stores the pair at the start of each stage;
    then the stages run in order, each iteration a fused kick and a rank-2
    oracle update, or their adjoints in reverse.  The norm check and the
    detach gate close every run; a schedule without stages needs no m."""
    stages, carried = schedule.stages, len(blocks) == 2
    starts = [np.eye(2)[:, :, None] * row] if stages else []
    kicks = [_kick_kernel(st, eigenvalues) for st in stages]

    def power(x: np.ndarray, k: int, adjoint: bool = False) -> np.ndarray:
        # every iteration of stage k on the rows of x, shape (R, 2, r); the
        # kick kernel is symmetric, so its adjoint is its conjugate
        w = starts[k].reshape(2, -1)
        w_adj = w.conj().T
        kick = kicks[k].conj() if adjoint else kicks[k]
        factor = cmath.exp((1j if adjoint else -1j) * stages[k].params.alpha) - 1
        for _ in range(stages[k].params.iterations):
            if not adjoint:
                x = (kick * x[:, None]).sum(axis=2)
            x = x + factor * ((x.reshape(len(x), -1) @ w_adj) @ w).reshape(x.shape)
            if adjoint:
                x = (kick * x[:, None]).sum(axis=2)
        return x

    for k in range(len(stages) - 1):
        starts.append(power(starts[k], k))
    forward = schedule.direction == FORWARD
    x = np.vstack([blocks, np.zeros((2 - len(blocks), blocks.shape[1]))])[None]
    for i, k in enumerate(range(len(stages)) if forward else reversed(range(len(stages)))):
        x = power(x, k, adjoint=not forward)
        blocks = x[0]
        if on_stage is not None:
            on_stage(i, blocks)
    StateVector(blocks.ravel(), blocks.shape[1])  # the norm check
    return _detached(*blocks)[None] if len(blocks) == 2 and not carried else blocks


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
