"""Alternating-walk schedule synthesis.

A schedule is a flat, immutable sequence of primitive operations.  Each
active refinement level contributes one amplitude-amplification stage that
rotates the current kept state onto the next one:

* the target-side phase comes from the walk reflection wrapped in an
  ancilla phase-kickback circuit, so an arbitrary relative phase can be
  applied with two controlled walk steps;
* the source-side phase is the marked-vertex oracle, conjugated by the
  already-emitted prefix so it acts on the current kept state rather than
  on the start vertex.

With both phases matched to the same analytic angle the stage rotation
lands exactly, so the whole schedule maps the start state to the target
with fidelity 1 up to floating-point error.  The marked vertex never
appears in the ops; it is bound at simulation time, which is what makes
search schedules identical for every hidden vertex.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .depth import OVERLAP_FLOOR, DepthChain
from .errors import ScheduleError

#: Overlaps at least this close to 1 mark a stage as a skip.
SKIP_OVERLAP = 1.0 - 1e-12

FORWARD = "forward"
REVERSED = "reversed"
LAPLACIAN = "laplacian"
ADJACENCY = "adjacency"


# ---------------------------------------------------------------------------
# Primitive operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WalkPhase:
    """Continuous walk for time t; negative t means reverse evolution."""

    t: float


@dataclass(frozen=True)
class OraclePhase:
    """Marked-vertex phase: multiplies the marked amplitude by
    exp(-i * sign * theta)."""

    theta: float
    sign: int = 1


@dataclass(frozen=True)
class AncillaHadamard:
    """Hadamard on the ancilla qubit."""


@dataclass(frozen=True)
class AncillaPhase:
    """diag(1, exp(i*theta)) on the ancilla qubit."""

    theta: float


@dataclass(frozen=True)
class ControlledWalkPhase:
    """Walk for time t on the ancilla-is-1 block; negative t reverses."""

    t: float


@dataclass(frozen=True)
class GlobalPhase:
    """Multiplies the whole state by exp(i*gamma); bookkeeping only."""

    gamma: float


PrimitiveOp = (
    WalkPhase
    | OraclePhase
    | AncillaHadamard
    | AncillaPhase
    | ControlledWalkPhase
    | GlobalPhase
)


@dataclass(frozen=True)
class StageParams:
    """Analytic parameters of one amplitude-amplification stage.

    ``p`` is the smallest non-negative integer with
    sin(pi/(4p+6)) <= overlap, that is
    p >= (pi - 6*arcsin(overlap)) / (4*arcsin(overlap)), which keeps the
    matched phase ``alpha`` = 2*arcsin(sin(pi/(4p+6))/overlap) real.  The
    rotation then lands exactly after p + 1 two-phase iterations, the
    fewest exact amplification allows; ``iterations`` exposes this count,
    which the synthesizer emits.
    """

    overlap: float
    p: int
    alpha: float

    @property
    def iterations(self) -> int:
        return self.p + 1


@dataclass(frozen=True)
class Schedule:
    """Immutable flat operation list with cost metadata.

    ``stage_boundaries[i]`` is the op index where active stage i begins and
    ``stage_levels[i]`` the refinement level it implements.  ``total_time``
    sums magnitudes: |t| over walk segments plus |theta| over oracle and
    ancilla phases.  ``global_phase`` is the angle by which the final state
    leads the ideal target (never asserted; fidelity is phase-insensitive).
    """

    ops: tuple[PrimitiveOp, ...] = ()
    direction: str = FORWARD
    hamiltonian: str = LAPLACIAN
    stage_boundaries: tuple[int, ...] = ()
    stage_levels: tuple[int, ...] = ()
    global_phase: float = 0.0
    total_time: float = 0.0
    oracle_count: int = 0


# ---------------------------------------------------------------------------
# Stage parameters
# ---------------------------------------------------------------------------

def stage_params(overlap: float) -> StageParams:
    """Analytic repetition count and matched phase for one stage."""
    if not 0.0 < overlap < 1.0:
        raise ScheduleError(f"overlap must lie in (0, 1), got {overlap!r}")
    half_angle = math.asin(overlap)
    bound = (math.pi - 6.0 * half_angle) / (4.0 * half_angle)
    p = max(0, math.ceil(bound - 1e-12))
    # the tolerance on p may leave the ratio a rounding error above 1
    alpha = 2.0 * math.asin(min(1.0, math.sin(math.pi / (4 * p + 6)) / overlap))
    return StageParams(overlap, p, alpha)


def reflection_time(level_gcd: int) -> float:
    """Walk time pi/g: the walk then acts as +1 on the kept set and -1 on
    the split-off set of the level with gcd g."""
    if level_gcd < 1:
        raise ScheduleError(f"level gcd must be positive, got {level_gcd}")
    return math.pi / level_gcd


def target_phase_ops(walk_time: float, theta: float) -> tuple[PrimitiveOp, ...]:
    """Ancilla phase-kickback circuit around two controlled walk steps.

    Applies exp(i*theta) to the -1 eigenspace of the walk step and identity
    to the +1 eigenspace, returning the ancilla to its initial state for
    any input supported on those eigenspaces.
    """
    return (
        AncillaHadamard(),
        ControlledWalkPhase(walk_time),
        AncillaHadamard(),
        AncillaPhase(theta),
        AncillaHadamard(),
        ControlledWalkPhase(walk_time),
        AncillaHadamard(),
    )


# ---------------------------------------------------------------------------
# Adjoints
# ---------------------------------------------------------------------------

def _adjoint_op(op: PrimitiveOp) -> PrimitiveOp:
    if isinstance(op, WalkPhase):
        return WalkPhase(-op.t)
    if isinstance(op, ControlledWalkPhase):
        return ControlledWalkPhase(-op.t)
    if isinstance(op, OraclePhase):
        return OraclePhase(op.theta, -op.sign)
    if isinstance(op, AncillaPhase):
        # plain negation (like walk times) keeps the adjoint exactly involutive
        return AncillaPhase(-op.theta)
    if isinstance(op, GlobalPhase):
        return GlobalPhase(-op.gamma)
    return op  # AncillaHadamard is self-adjoint


def _adjoint_ops(ops: tuple[PrimitiveOp, ...]) -> tuple[PrimitiveOp, ...]:
    return tuple(_adjoint_op(op) for op in reversed(ops))


def dagger(schedule: Schedule) -> Schedule:
    """Element-wise adjoints in reverse order; total time is preserved."""
    length = len(schedule.ops)
    if schedule.stage_boundaries:
        ends = list(schedule.stage_boundaries[1:]) + [length]
        boundaries = tuple(sorted(length - e for e in ends))
    else:
        boundaries = ()
    return Schedule(
        ops=_adjoint_ops(schedule.ops),
        direction=REVERSED if schedule.direction == FORWARD else FORWARD,
        hamiltonian=schedule.hamiltonian,
        stage_boundaries=boundaries,
        stage_levels=tuple(reversed(schedule.stage_levels)),
        global_phase=-schedule.global_phase,
        total_time=schedule.total_time,
        oracle_count=schedule.oracle_count,
    )


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

def _landing_phase(params: StageParams, target_phased: bool) -> float:
    """Phase the landed state carries relative to the ideal target.

    Computed from the exact 2x2 stage rotation; ``target_phased`` selects
    whether the kickback circuit phases the target axis itself (adjacency
    route) or the axis orthogonal to it (Laplacian route, which costs an
    extra alpha of global phase per iteration).
    """
    s = params.overlap
    c = math.sqrt(1.0 - s * s)
    source = np.array([s, c], dtype=complex)
    u_target = np.diag([cmath.exp(-1j * params.alpha), 1.0])
    u_source = np.eye(2, dtype=complex) - (
        1.0 - cmath.exp(-1j * params.alpha)
    ) * np.outer(source, source.conj())
    step = u_source @ u_target
    state = source
    for _ in range(params.iterations):
        state = step @ state
    phase = cmath.phase(state[0])
    if not target_phased:
        phase += params.iterations * params.alpha
    return phase


def synth_sampling_schedule(chain: DepthChain, overlaps: np.ndarray) -> Schedule:
    """Forward schedule carrying a start vertex to the uniform state.

    ``overlaps`` has one entry per refinement step, either the per-vertex
    values or the vertex-independent cardinality ratios; entries at 1.0
    mark skipped stages.  Stage k>=1 conjugates its oracle by the emitted
    prefix, expanded into a flat op list.
    """
    overlaps = np.asarray(overlaps, dtype=float)
    if len(overlaps) != chain.depth:
        raise ScheduleError(
            f"expected {chain.depth} overlaps, got {len(overlaps)}"
        )
    ops: list[PrimitiveOp] = []
    boundaries: list[int] = []
    levels: list[int] = []
    phase = 0.0
    for k in range(chain.depth):
        s = float(overlaps[k])
        if s >= SKIP_OVERLAP:
            continue  # the refinement does not move the state at this level
        if s < OVERLAP_FLOOR:
            raise ScheduleError(f"overlap at level {k} below floor: {s:.3e}")
        params = stage_params(s)
        walk_time = reflection_time(chain.levels[k].gcd)
        prefix = tuple(ops)
        prefix_adjoint = _adjoint_ops(prefix)
        boundaries.append(len(ops))
        levels.append(k)
        for _ in range(params.iterations):
            ops.extend(target_phase_ops(walk_time, params.alpha))
            ops.extend(prefix_adjoint)
            ops.append(OraclePhase(params.alpha, 1))
            ops.extend(prefix)
        phase += _landing_phase(params, target_phased=False)
    all_ops = tuple(ops)
    return Schedule(
        ops=all_ops,
        direction=FORWARD,
        hamiltonian=LAPLACIAN,
        stage_boundaries=tuple(boundaries),
        stage_levels=tuple(levels),
        global_phase=phase % (2.0 * math.pi),
        total_time=_total_time(all_ops),
        oracle_count=_oracle_count(all_ops),
    )


def synth_bipartite_search(n1: int, n2: int) -> tuple[Schedule, Schedule]:
    """Two reversed search schedules for the complete bipartite graph.

    Branch i assumes the marked vertex sits in block i and rotates the
    uniform state over that block onto it, driving the adjacency walk for
    time pi/sqrt(n1*n2) (a reflection about the block-uniform axis on the
    algorithm subspace).  A size-1 block yields an empty branch.
    """
    if n1 < 1 or n2 < 1:
        raise ScheduleError(f"block sizes must be positive, got {n1}, {n2}")
    walk_time = math.pi / math.sqrt(n1 * n2)
    return (
        _bipartite_branch(n1, walk_time),
        _bipartite_branch(n2, walk_time),
    )


def _bipartite_branch(block_size: int, walk_time: float) -> Schedule:
    if block_size == 1:
        return Schedule(direction=REVERSED, hamiltonian=ADJACENCY)
    params = stage_params(1.0 / math.sqrt(block_size))
    ops: list[PrimitiveOp] = []
    # The -1 eigenspace of the adjacency walk contains the target axis
    # itself, so phasing it by -alpha realizes the target-side rotation
    # with no extra global phase.
    kick_theta = (2.0 * math.pi - params.alpha) % (2.0 * math.pi)
    for _ in range(params.iterations):
        ops.extend(target_phase_ops(walk_time, kick_theta))
        ops.append(OraclePhase(params.alpha, 1))
    forward = Schedule(
        ops=tuple(ops),
        direction=FORWARD,
        hamiltonian=ADJACENCY,
        stage_boundaries=(0,),
        stage_levels=(0,),
        global_phase=_landing_phase(params, target_phased=True) % (2.0 * math.pi),
        total_time=_total_time(tuple(ops)),
        oracle_count=params.iterations,
    )
    return dagger(forward)


def _total_time(ops: tuple[PrimitiveOp, ...]) -> float:
    total = 0.0
    for op in ops:
        if isinstance(op, (WalkPhase, ControlledWalkPhase)):
            total += abs(op.t)
        elif isinstance(op, (OraclePhase, AncillaPhase)):
            total += abs(op.theta)
    return total


def _oracle_count(ops: tuple[PrimitiveOp, ...]) -> int:
    return sum(1 for op in ops if isinstance(op, OraclePhase))


def ancilla_phase_time(schedule: Schedule) -> float:
    """Total angle spent in ancilla phase gates (reported separately in
    cost accounting)."""
    return sum(abs(op.theta) for op in schedule.ops if isinstance(op, AncillaPhase))


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def _op_to_json(op: PrimitiveOp) -> dict:
    if isinstance(op, WalkPhase):
        return {"op": "walk", "t": op.t}
    if isinstance(op, OraclePhase):
        return {"op": "oracle", "theta": op.theta, "sign": op.sign}
    if isinstance(op, AncillaHadamard):
        return {"op": "anc_h"}
    if isinstance(op, AncillaPhase):
        return {"op": "anc_z", "theta": op.theta}
    if isinstance(op, ControlledWalkPhase):
        return {"op": "cwalk", "t": op.t}
    if isinstance(op, GlobalPhase):
        return {"op": "gphase", "gamma": op.gamma}
    raise ScheduleError(f"unknown op {op!r}")


def _op_from_json(data: dict) -> PrimitiveOp:
    kind = data["op"]
    if kind == "walk":
        return WalkPhase(float(data["t"]))
    if kind == "oracle":
        return OraclePhase(float(data["theta"]), int(data["sign"]))
    if kind == "anc_h":
        return AncillaHadamard()
    if kind == "anc_z":
        return AncillaPhase(float(data["theta"]))
    if kind == "cwalk":
        return ControlledWalkPhase(float(data["t"]))
    if kind == "gphase":
        return GlobalPhase(float(data["gamma"]))
    raise ScheduleError(f"unknown op kind {kind!r}")


def schedule_to_json_dict(schedule: Schedule) -> dict:
    return {
        "direction": schedule.direction,
        "hamiltonian": schedule.hamiltonian,
        "ops": [_op_to_json(op) for op in schedule.ops],
        "global_phase": schedule.global_phase,
        "total_time": schedule.total_time,
        "oracle_count": schedule.oracle_count,
        "stage_boundaries": list(schedule.stage_boundaries),
        "stage_levels": list(schedule.stage_levels),
    }


def schedule_from_json_dict(data: dict) -> Schedule:
    ops = tuple(_op_from_json(d) for d in data["ops"])
    boundaries = tuple(int(i) for i in data["stage_boundaries"])
    # stages partition the op list from op 0, so each op runs exactly once
    if list(boundaries) != sorted(boundaries) or not all(
        0 <= b <= len(ops) for b in boundaries
    ):
        raise ScheduleError(f"stage boundaries {list(boundaries)} are not sorted op indices")
    if boundaries and boundaries[0] != 0:
        raise ScheduleError(f"stage boundaries {list(boundaries)} do not start at op 0")
    return Schedule(
        ops=ops,
        direction=data["direction"],
        hamiltonian=data["hamiltonian"],
        stage_boundaries=boundaries,
        stage_levels=tuple(int(i) for i in data.get("stage_levels", [])),
        global_phase=float(data["global_phase"]),
        total_time=float(data["total_time"]),
        oracle_count=int(data["oracle_count"]),
    )
