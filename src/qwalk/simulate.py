"""Exact dense state-vector execution of schedules.

Every op but the oracle is diagonal in the eigenbasis, and the oracle acts
on both ancilla values: conjugated by the prefix U of earlier stages it is
U O U^dagger = I + (e^{-i alpha} - 1) sum_a |w_a><w_a| with w_a = U|a, m>,
exactly and for any state.  So a schedule costs O(r) per stage iteration
in any r-dimensional frame where the walk is diagonal (``_run_stages``).
A run from vertex m with its oracle on m stays in span{E_g|m>}, which
``vertex_frames`` spans with one coordinate per eigenspace m has mass on,
from the eigenvectors' rows and with no N x N product; every pipeline
runs there, on the Laplacian or the adjacency spectrum.  The executor
runs R rows at once, each with its own marked vertex, kicks and oracle
angles: vertices that keep the same eigenspaces share a frame, and rows
whose schedules share their stage structure share every iteration, so
one pass of numpy calls serves a whole sweep.  ``run_schedule`` takes any
vertex-basis state and rotates it into the eigenbasis and back, O(N^2);
it, ``apply_op`` and the per-op primitives are the references the frame
runs are tested against, and every one is exactly unitary.

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
        _check_norms(self.amps[None])

    @property
    def has_ancilla(self) -> bool:
        return len(self.amps) == 2 * self.n


def _check_norms(amps: np.ndarray) -> None:
    """Raise on the first row of ``amps`` whose norm is off 1 by more than
    ``NORM_TOL``."""
    defect = np.abs(np.linalg.norm(amps.reshape(len(amps), -1), axis=1) - 1.0)
    for d in defect[defect > NORM_TOL][:1]:
        raise SimulationError(f"state norm defect: {d:.3e}")


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
    """``basis @ block`` for each row of ``blocks``, as one real product
    with the float64 (re, im) view of the blocks as columns, so no complex
    copy of ``basis`` is made."""
    columns = np.ascontiguousarray(np.asarray(blocks, dtype=complex).T).view(np.float64)
    return (basis @ columns).view(complex).T


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
    return _state(detach_blocks(np.stack(_blocks(state))[None], tol).ravel(), state.n)


def detach_blocks(blocks: np.ndarray, tol: float = DETACH_TOL) -> np.ndarray:
    """Block 0 of each row of (R, 2, n) ancilla blocks renormalized, shape
    (R, 1, n), once block 1 of every row is checked to carry at most
    ``tol``; the first row that does not raises."""
    norms = np.linalg.norm(blocks, axis=2)
    leak = norms[:, 1] ** 2
    for mass in leak[leak > tol][:1]:
        raise SimulationError(f"ancilla entangled at detach point: |1> mass {mass:.3e}")
    return blocks[:, :1] / norms[:, :1, None]


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


def _kick_kernels(walk_times: np.ndarray, kicks: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``target_phase_ops(walk_times[i, k], kicks[i, k])``, stage k of row
    i, as one 2x2 ancilla matrix per coordinate, ``m[i, k, r, c, j]``, so
    that block r after it is sum over c of m[i, k, r, c] * block c before
    it, in a frame where the walk is diagonal with ``values``.  H c(W) H is
    [[a, b], [b, a]] with a, b = (1 +- e^{-i lambda t}) / 2, and the
    circuit is that matrix on both sides of diag(1, e^{i theta})."""
    phi = np.exp(-1j * walk_times[..., None] * values)
    z = np.exp(1j * kicks)[..., None]
    a, b = (1 + phi) / 2, (1 - phi) / 2
    m = np.empty((*phi.shape[:2], 2, 2, phi.shape[2]), dtype=complex)
    m[:, :, 0, 0], m[:, :, 1, 1] = a * a + b * b * z, b * b + a * a * z
    m[:, :, 0, 1] = m[:, :, 1, 0] = a * b * (1 + z)
    return m


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
    rows = vectors[[_marked_vertex(marked, n)]] if schedule.stages else None
    blocks = _rotate(vectors.T, state.amps.reshape(-1, n))
    report = on_stage and (lambda i, b: on_stage(i, _state(_rotate(vectors, b[0]).ravel(), n)))
    blocks = _run_stages(blocks[None], [schedule], spectrum.eigenvalues, rows, report)[0]
    return _state(_rotate(vectors, blocks).ravel(), n)


@dataclass(frozen=True)
class Frame:
    """Orthonormal coordinates on span{E_g|m>} over the eigenspaces g of
    vertex m, for R vertices that keep the same eigenspaces: coordinate j
    is E_g|m> / ||E_g|m>|| for g = ``spectrum.groups[group[j]]``, of
    eigenvalue ``values[j]``, and ``coords[i]`` is |vertices[i]> in its
    frame, so ``coords[i, j]`` is ||E_g|vertices[i]>||."""

    vertices: np.ndarray
    values: np.ndarray
    group: np.ndarray
    coords: np.ndarray

    def run(
        self, blocks: np.ndarray, schedules: Sequence[Schedule],
        on_stage: Callable[[int, np.ndarray], None] | None = None,
    ) -> np.ndarray:
        """``run_schedule`` on (R, 1 or 2, r) ancilla blocks of coordinates,
        row i running ``schedules[i]`` with m = vertices[i]; ``on_stage``
        gets the (R, 2, r) blocks."""
        return _run_stages(blocks, schedules, self.values, self.coords, on_stage)


def group_sums(spectrum: Spectrum, x: np.ndarray) -> np.ndarray:
    """x summed over the indices of each eigenspace group (an index run),
    along its last axis: with x = V[u] * V[v], the entries (E_g)_uv."""
    return np.add.reduceat(x, [g.indices[0] for g in spectrum.groups], axis=-1)


def vertex_frames(
    spectrum: Spectrum, vertices: Sequence[int], keys: Sequence | None = None
) -> list[tuple[list[int], Frame]]:
    """The frames of vertices, one ``Frame`` per set of kept eigenspaces
    and per key, each with the indices of its vertices in ``vertices``;
    with ``keys[i]`` the stage structure of row i's schedule, each frame's
    rows can share one executor pass.  A vertex keeps the eigenspaces g on
    which its mass (E_g)_mm is above ``SKIP_MASS_TOL``, O(N) per vertex."""
    vertices = np.asarray(vertices, dtype=int)
    for v in vertices.tolist():
        _marked_vertex(v, spectrum.n)
    rows = spectrum.eigenvectors[vertices]
    mass = group_sums(spectrum, rows * rows)
    kept = mass > SKIP_MASS_TOL
    patterns: dict[tuple, list[int]] = {}
    for i, pattern in enumerate(kept):
        patterns.setdefault((pattern.tobytes(), keys[i] if keys else None), []).append(i)
    values = np.array([g.value for g in spectrum.groups])
    frames = []
    for idx in patterns.values():
        group = np.flatnonzero(kept[idx[0]])
        frames.append((idx, Frame(vertices[idx], values[group], group,
                                  np.sqrt(mass[idx][:, group]))))
    return frames


def vertex_frame(spectrum: Spectrum, vertex: int) -> Frame:
    """The one-row frame of one vertex."""
    return vertex_frames(spectrum, [vertex])[0][1]


def lift(spectrum: Spectrum, frame: Frame, x: np.ndarray) -> np.ndarray:
    """The vertex-basis amplitudes, norm-checked, of coordinates x, shape
    (R, blocks, r), in the frame's rows: one N x N product for every row
    and block."""
    per_group = np.zeros((*x.shape[:2], len(spectrum.groups)), dtype=complex)
    per_group[..., frame.group] = x / frame.coords[:, None]
    y = spectrum.eigenvectors[frame.vertices][:, None] * np.repeat(
        per_group, [g.multiplicity for g in spectrum.groups], axis=2)
    amps = _rotate(spectrum.eigenvectors, y.reshape(-1, spectrum.n)).reshape(y.shape)
    _check_norms(amps)
    return amps


def _run_stages(blocks, schedules, values, rows, on_stage=None):
    """Stage trees on R rows of (1 or 2, r) ancilla blocks, row i running
    ``schedules[i]`` with its marked vertex at coordinates ``rows[i]``, in
    a frame where the walk is diagonal with ``values``.  The rows share
    their stage structure and keep their own kicks and oracle angles.  A
    pass over the pair w_a = U|a, m> alone stores the pair at the start of
    each stage; then the stages run in order, each iteration a fused kick
    and a rank-2 oracle update, or their adjoints in reverse.  The norm
    check and the detach gate close every run and raise on the first row
    that fails them; a schedule without stages needs no m."""
    structure = schedules[0].structure
    if any(s.structure != structure for s in schedules):
        raise SimulationError("the rows of one run must share their stage structure")
    count, width, carried = len(blocks), 2 * blocks.shape[2], blocks.shape[1] == 2
    stages = schedules[0].stages
    walk, kick, alpha = np.array(
        [[(st.walk_time, st.kick, st.params.alpha) for st in s.stages] for s in schedules]
    ).reshape(count, len(stages), 3).transpose(2, 0, 1)
    kicks = _kick_kernels(walk, kick, values)
    starts = [np.eye(2)[:, :, None] * rows[:, None, None]] if stages else []

    def power(x: np.ndarray, k: int, adjoint: bool = False) -> np.ndarray:
        # every iteration of stage k on x, shape (R, A, 2, r); the kick
        # kernel is symmetric, so its adjoint is its conjugate
        w = starts[k].reshape(count, 2, width)
        w_adj = w.conj().transpose(0, 2, 1)
        w = (np.exp((1j if adjoint else -1j) * alpha[:, k]) - 1)[:, None, None] * w
        kernel = (kicks[:, k].conj() if adjoint else kicks[:, k])[:, None]
        for _ in range(stages[k].params.iterations):
            if not adjoint:
                x = (kernel * x[:, :, None]).sum(axis=3)
            x = x + ((x.reshape(count, -1, width) @ w_adj) @ w).reshape(x.shape)
            if adjoint:
                x = (kernel * x[:, :, None]).sum(axis=3)
        return x

    for k in range(len(stages) - 1):
        starts.append(power(starts[k], k))
    forward = schedules[0].direction == FORWARD
    if stages and not carried:  # the ancilla attaches at the first kick
        blocks = np.concatenate([blocks, np.zeros_like(blocks)], axis=1)
    x = blocks[:, None]
    for i, k in enumerate(range(len(stages)) if forward else reversed(range(len(stages)))):
        x = power(x, k, adjoint=not forward)
        if on_stage is not None:
            on_stage(i, x[:, 0])
    x = x[:, 0]
    _check_norms(x)
    return detach_blocks(x) if x.shape[1] == 2 and not carried else x


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
