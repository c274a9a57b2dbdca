"""Exact dense state-vector execution of schedules.

Every op but the oracle is diagonal in the eigenbasis, and the oracle acts
on both ancilla values: conjugated by the prefix U of earlier stages it is
U O U^dagger = I + (e^{-i alpha} - 1) sum_a |w_a><w_a| with w_a = U|a, m>,
exactly and for any state.  So a schedule costs O(r) per stage iteration
in any r-dimensional frame where the walk is diagonal (``run_stages``),
and a stage's iteration is one fixed (2r x 2r) unitary per row, the kick
and that rank-2 update.  A narrow batch builds the matrix once per stage
and applies each iteration as one product with it; a wide one keeps the
per-coordinate form, which needs no (2r)^2 array.
A run from vertex m with its oracle on m stays in span{E_g|m>}, which
``frame_coords`` spans with one coordinate per eigenspace group, read
off m's masses (a closed form's, or a row of a decomposition's table)
with no N x N product and no eigenvector; every pipeline runs there, on
the Laplacian or the adjacency spectrum, and only ``lift`` reads
eigenvectors (``lift_columns`` a closed form's Gram columns instead).
A coordinate on an
eigenspace m has no mass on is exactly 0 and stays so: the start and the
oracle pair w_a are 0 there, and the kick acts on each coordinate alone,
so the stage matrix has only the kick there too.
So the executor runs one schedule on R rows at once, each with its own
marked vertex, and the rows share every iteration: one pass of numpy
calls serves every row of a sweep that runs that schedule.  What depends
on no row, the kick kernels and the oracle gains, is compiled once per
stage tree and eigenvalue set (``compile_stages``, a ``StagePlan``);
a context keeps the plan of each tree it synthesized, so repeated runs
on a prepared graph build only their pairs and stage matrices.
``run_schedule`` takes any vertex-basis state and rotates it into the
eigenbasis and back, O(N^2); it, ``apply_op`` and the per-op primitives
are the references the frame runs are tested against, and every one is
exactly unitary.

The ancilla qubit is the leading tensor factor (amplitude layout
[block0, block1]), attached at the first op that needs it; only at stage
boundaries or the end of a schedule is it guaranteed back in |0>.
"""

from __future__ import annotations

import cmath
import functools
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
    OraclePhase,
    PrimitiveOp,
    Schedule,
    Stage,
)
from .spectral import Spectrum

NORM_TOL = 1e-10
DETACH_TOL = 1e-9
#: The most entries, rows x (2r)^2, of a batch whose stages run as
#: dense matrices (measured in ``run_stages``)
_DENSE_ENTRIES = 2048

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


def attach_ancilla(state: StateVector) -> StateVector:
    """Tensor an ancilla |0> onto the state (ancilla leading)."""
    if state.has_ancilla:
        raise SimulationError("ancilla already attached")
    return _state(np.concatenate([state.amps, np.zeros(state.n, dtype=complex)]), state.n)


def detach_ancilla(state: StateVector) -> StateVector:
    """Project onto ancilla |0> and renormalize.

    The mass on ancilla |1> must be at most ``DETACH_TOL``; anything
    larger means a disentanglement guarantee was broken upstream.
    """
    return _state(detach_blocks(np.stack(_blocks(state))[None]).ravel(), state.n)


def detach_blocks(blocks: np.ndarray) -> np.ndarray:
    """Block 0 of each row of (R, 2, n) ancilla blocks renormalized, shape
    (R, 1, n), once block 1 of every row is checked to carry at most
    ``DETACH_TOL``; the first row that does not raises."""
    norms = np.linalg.norm(blocks, axis=2)
    leak = norms[:, 1] ** 2
    for mass in leak[leak > DETACH_TOL][:1]:
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
    if isinstance(op, ControlledWalkPhase):
        return apply_walk_phase(state, spectrum, op.t, controlled=True)
    if isinstance(op, OraclePhase):
        return apply_oracle_phase(state, marked, op.theta, op.sign)
    if isinstance(op, AncillaHadamard):
        return apply_ancilla_hadamard(state)
    if isinstance(op, AncillaPhase):
        return apply_ancilla_phase(state, op.theta)
    raise SimulationError(f"unknown primitive op {op!r}")


def _kick_kernels(walk_times: np.ndarray, kicks: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``target_phase_ops(walk_times[k], kicks[k])``, stage k, as one 2x2
    ancilla matrix per coordinate, ``m[k, r, c, j]``, so that block r after
    it is sum over c of m[k, r, c] * block c before it, in a frame where the
    walk is diagonal with ``values``.  H c(W) H is [[a, b], [b, a]] with a,
    b = (1 +- e^{-i lambda t}) / 2, and the circuit is that matrix on both
    sides of diag(1, e^{i theta}).  Each matrix is symmetric and unitary, so
    the kick D, the block-diagonal (2r x 2r) matrix they make
    (``_kick_matrices``), is too, and its adjoint is its conjugate."""
    phi = np.exp(-1j * walk_times[:, None] * values)
    z = np.exp(1j * kicks)[:, None]
    a, b = (1 + phi) / 2, (1 - phi) / 2
    m = np.empty((len(phi), 2, 2, phi.shape[1]), dtype=complex)
    m[:, 0, 0], m[:, 1, 1] = a * a + b * b * z, b * b + a * a * z
    m[:, 0, 1] = m[:, 1, 0] = a * b * (1 + z)
    return m


def _kick_matrices(kernels: np.ndarray) -> np.ndarray:
    """The kick kernels of ``_kick_kernels``, (S, 2, 2, r), each laid out
    as the block-diagonal (2r x 2r) matrix D that acts on row vectors x,
    the flattened (2, r) blocks: block r of x D is the sum over c of the
    kernel's entry (r, c) times block c of x."""
    stages, _, _, r = kernels.shape
    d = np.zeros((stages, 2, r, 2, r), dtype=complex)
    j = np.arange(r)
    d[:, :, j, :, j] = kernels.transpose(3, 0, 2, 1)
    return d.reshape(stages, 2 * r, 2 * r)


@dataclass(frozen=True, eq=False)
class StagePlan:
    """A stage tree compiled on one eigenvalue set (``compile_stages``):
    the part of every run of the tree that depends on no row.  A plan
    serves the tree in both directions, so a schedule and its dagger share
    one.  ``kernels`` are the kicks of ``_kick_kernels``, (S, 2, 2, r),
    ``gains`` each stage's c = e^{-i alpha} - 1, and ``kicks`` the kernels
    as block-diagonal (2r x 2r) matrices, built on first use by a batch
    narrow enough for the dense form."""

    stages: tuple[Stage, ...]
    kernels: np.ndarray
    gains: np.ndarray

    @functools.cached_property
    def kicks(self) -> np.ndarray:
        return _kick_matrices(self.kernels)


def compile_stages(stages: tuple[Stage, ...], values: np.ndarray) -> StagePlan:
    """The plan of a stage tree in a frame where the walk is diagonal with
    ``values``: one gather of (walk time, kick, alpha) over the stages and
    one ``_kick_kernels`` call."""
    walk, kick, alpha = np.array(
        [(st.walk_time, st.kick, st.params.alpha) for st in stages]).reshape(-1, 3).T
    return StagePlan(stages, _kick_kernels(walk, kick, values), np.exp(-1j * alpha) - 1)


def _stage_matrix(kick: np.ndarray, pair: np.ndarray, gain: complex) -> np.ndarray:
    """One stage's iteration, the kick and then the oracle, as one (2r x
    2r) matrix per row that acts on row vectors: T = D + (D w^dagger)(c
    w), with D the stage's ``kick`` matrix, w a row's oracle ``pair`` (R,
    2, 2, r) flattened to (R, 2, 2r) and c the stage's ``gain`` e^{-i
    alpha} - 1.  A coordinate that is 0 in w has only its kick in T, so it
    stays exactly 0 in x."""
    w = pair.reshape(len(pair), 2, -1)
    return kick + (kick @ w.conj().transpose(0, 2, 1)) @ (gain * w)


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
    plan = compile_stages(schedule.stages, spectrum.eigenvalues)
    blocks = run_stages(blocks[None], schedule, plan, rows, report)[0]
    return _state(_rotate(vectors, blocks).ravel(), n)


def frame_coords(masses: np.ndarray) -> np.ndarray:
    """Row i: vertex m_i in its frame, whose coordinate g is the unit
    vector E_g|m> / ||E_g|m>|| for every eigenspace group g, shape (R, G),
    from the vertices' masses (E_g)_mm, (R, G): ||E_g|m>|| where the mass
    is above ``SKIP_MASS_TOL``, and exactly 0 on the eigenspaces m has no
    mass on.  Such a coordinate stays 0 through every run from |m> with
    its oracle on m, so rows of different vertices share one executor
    pass.  O(G) per vertex, and no eigenvector is read."""
    return np.sqrt(np.where(masses > SKIP_MASS_TOL, masses, 0.0))


def divide_coords(x: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """x / coords where a frame coordinate is nonzero, and 0 where it is 0."""
    out = np.zeros(np.broadcast_shapes(x.shape, coords.shape), dtype=np.result_type(x, coords))
    return np.divide(x, coords, out=out, where=coords > 0)


def lift(
    vectors: np.ndarray, multiplicities: Sequence[int], vertices: Sequence[int],
    coords: np.ndarray, x: np.ndarray,
) -> np.ndarray:
    """The vertex-basis amplitudes, norm-checked, of x, shape (R, blocks,
    G), in the frames of vertices, whose ``frame_coords`` are coords, with
    the eigenvectors as columns of ``vectors`` in groups of
    ``multiplicities``: one N x N product for every row and block."""
    per_group = divide_coords(x, coords[:, None])
    y = vectors[vertices][:, None] * np.repeat(per_group, multiplicities, axis=2)
    amps = _rotate(vectors, y.reshape(-1, len(vectors))).reshape(y.shape)
    _check_norms(amps)
    return amps


def lift_columns(columns: np.ndarray, coords: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``lift`` from the Gram columns (E_g)_{w m} of each row's vertex m
    over every vertex w, shape (R, N, G), in place of eigenvectors: O(N G)
    per row and block."""
    amps = np.einsum("rbg,rwg->rbw", divide_coords(x, coords[:, None]), columns)
    _check_norms(amps)
    return amps


def run_stages(
    blocks: np.ndarray, schedule: Schedule, plan: StagePlan,
    rows: np.ndarray | None, on_stage: Callable[[int, np.ndarray], None] | None = None,
) -> np.ndarray:
    """The stage tree of ``schedule``, compiled as ``plan``, on R rows of
    (1 or 2, r) ancilla blocks, row i with its marked vertex at coordinates
    ``rows[i]``, in the frame of the plan's values.  A pass over the
    pair w_a = U|a, m> alone stores the pair at the start of each stage;
    then the stages run in order, or their adjoints in reverse.  A stage's
    iteration is T = D + (D w^dagger)(c w) on row vectors, D the kick and
    c = e^{-i alpha} - 1.  A batch whose stage matrices hold at most
    ``_DENSE_ENTRIES`` = 2048 entries, R (2r)^2, builds each T once
    (``_stage_matrix``), and every iteration of the pair pass and of the
    run is one batched product with T, or with T^dagger in reverse; a
    wider batch runs each iteration as the per-coordinate kick and the
    rank-2 oracle update, O(r) per row, with no (2r)^2 array.  The two
    agree to rounding.  On sampling rows of seven families, 1 to 64 rows
    and one BLAS thread, the dense form took 0.54 to 0.96 of the
    per-coordinate time up to 2048 entries and lost on most batches from
    6272.  ``run_schedule``'s frame has r = N, so it runs dense only below
    N = 23.  The kick kernels, gains and kick matrices depend only on the
    stage tree and the values, so they come from the plan, which a
    context compiles once per tree it synthesized; the pairs and the stage
    matrices depend on the rows and are built on every call.  The norm
    check and the detach gate close every run and raise on the first row
    that fails them; a schedule without stages needs no m.
    ``on_stage(i, blocks)`` gets the (R, 2, r) blocks after stage i."""
    if plan.stages is not schedule.stages:
        raise SimulationError("the plan was compiled for another stage tree")
    count, width, carried = len(blocks), 2 * blocks.shape[2], blocks.shape[1] == 2
    stages, kernels, gains = schedule.stages, plan.kernels, plan.gains
    kicks = plan.kicks if count * width**2 <= _DENSE_ENTRIES else None
    pairs = [np.eye(2)[:, :, None] * rows[:, None, None]] if stages else []
    matrices = []

    def power(x: np.ndarray, k: int, adjoint: bool = False) -> np.ndarray:
        # every iteration of stage k, or of its adjoint, on x, shape (R, A, 2, r)
        times = stages[k].params.iterations
        if kicks is not None:
            t = matrices[k].conj().transpose(0, 2, 1) if adjoint else matrices[k]
            y = x.reshape(count, -1, width)
            for _ in range(times):
                y = y @ t
            return y.reshape(x.shape)
        # T^dagger = (I + w^dagger conj(c) w) conj(D): the kick is symmetric,
        # so its adjoint is its conjugate
        kernel, gain = kernels[k], gains[k]
        if adjoint:
            kernel, gain = kernel.conj(), gain.conj()
        w = pairs[k].reshape(count, 2, width)
        w_adj, w = w.conj().transpose(0, 2, 1), gain * w
        for _ in range(times):
            if not adjoint:
                x = (kernel * x[:, :, None]).sum(axis=3)
            x = x + ((x.reshape(count, -1, width) @ w_adj) @ w).reshape(x.shape)
            if adjoint:
                x = (kernel * x[:, :, None]).sum(axis=3)
        return x

    for k in range(len(stages)):
        if kicks is not None:
            matrices.append(_stage_matrix(kicks[k], pairs[k], gains[k]))
        if k + 1 < len(stages):
            pairs.append(power(pairs[k], k))
    forward = schedule.direction == FORWARD
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
