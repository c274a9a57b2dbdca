"""Alternating-walk schedule synthesis.

Each active refinement level contributes one amplitude-amplification
stage that rotates the current kept state onto the next one:

* the target-side phase comes from the walk reflection wrapped in an
  ancilla phase-kickback circuit, so an arbitrary relative phase can be
  applied with two controlled walk steps;
* the source-side phase is the marked-vertex oracle, conjugated by every
  earlier stage so it acts on the current kept state rather than on the
  start vertex.

With both phases matched to the same analytic angle the stage rotation
lands exactly, so the whole schedule maps the start state to the target
with fidelity 1 up to floating-point error.  The marked vertex never
appears in a schedule; it is bound at simulation time, which is what makes
search schedules identical for every hidden vertex.

A schedule is one ``Stage`` record per stage, and its costs follow from
them in O(depth).  The flat ops, whose count grows like 2^depth, are
expanded only when read (JSON artifacts, the op-by-op reference).  A JSON
artifact stores the flat ops; reading it decodes them back into stages
and accepts them only if the stages re-expand to exactly those ops.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field, replace

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


PrimitiveOp = OraclePhase | AncillaHadamard | AncillaPhase | ControlledWalkPhase


class WalkPhase:
    """Not an op: no schedule holds it and ``apply_op`` refuses it.  Only
    the op-kind map of ``perfbench/tracer.py`` names it, and it goes with
    that map (ROADMAP item 1)."""


class GlobalPhase:
    """Not an op: no schedule holds it and ``apply_op`` refuses it.  Only
    the op-kind map of ``perfbench/tracer.py`` names it, and it goes with
    that map (ROADMAP item 1)."""


@dataclass(frozen=True)
class StageParams:
    """Analytic parameters of one amplitude-amplification stage.

    ``p`` is the smallest non-negative integer with
    sin(pi/(4p+6)) <= overlap, that is
    p >= (pi - 6*arcsin(overlap)) / (4*arcsin(overlap)), which keeps the
    matched phase ``alpha`` = 2*arcsin(sin(pi/(4p+6))/overlap) real.  The
    rotation then lands exactly after p + 1 two-phase iterations, the
    fewest exact amplification allows; ``iterations`` exposes this count,
    which the synthesizer emits.  Equality ignores ``overlap``, the
    synthesis input: a schedule read from JSON recovers it only to
    rounding, as sin(pi/(4p+6)) / sin(alpha/2).
    """

    overlap: float = field(compare=False)
    p: int
    alpha: float

    @property
    def iterations(self) -> int:
        return self.p + 1


@dataclass(frozen=True)
class Stage:
    """One stage: each of its ``params.iterations`` iterations runs
    ``target_phase_ops(walk_time, kick)``, then the oracle with angle
    ``params.alpha`` conjugated by every earlier stage."""

    level: int
    walk_time: float
    kick: float
    params: StageParams


@dataclass(frozen=True)
class Schedule:
    """Immutable schedule: one ``Stage`` per active level, kept in forward
    order whatever the direction; everything else derives from them.

    ``ops`` is the flat op list, expanded on first read; the costs below
    come from one pass over the stages, also made on first read.
    ``stage_boundaries[i]`` is the op index where active stage i begins and
    ``stage_levels[i]`` the refinement level it implements.  ``total_time``
    sums magnitudes: |t| over walk segments plus |theta| over oracle and
    ancilla phases.
    """

    stages: tuple[Stage, ...] = ()
    direction: str = FORWARD
    hamiltonian: str = LAPLACIAN

    @property
    def global_phase(self) -> float:
        """The angle by which the final state leads the ideal target (never
        asserted; fidelity is phase-insensitive): the stages' landing
        phases summed in order, negated when the schedule is reversed."""
        phase = 0.0
        for stage in self.stages:
            phase += _landing_phase(stage.params, target_phased=self.hamiltonian == ADJACENCY)
        phase %= 2.0 * math.pi
        # 0.0 - phase, not -phase: a reversed schedule with no stages reads 0.0
        return 0.0 - phase if self.direction == REVERSED else phase

    @functools.cached_property
    def ops(self) -> tuple[PrimitiveOp, ...]:
        ops = _expand(self.stages)
        return _adjoint_ops(ops) if self.direction == REVERSED else ops

    @functools.cached_property
    def _costs(self) -> tuple[int, tuple[int, ...], int, float, float]:
        return _tree_costs(self.stages)

    @property
    def stage_boundaries(self) -> tuple[int, ...]:
        length, starts = self._costs[:2]
        return _reversed_boundaries(starts, length) if self.direction == REVERSED else starts

    @property
    def stage_levels(self) -> tuple[int, ...]:
        levels = tuple(st.level for st in self.stages)
        return levels[::-1] if self.direction == REVERSED else levels

    @property
    def total_time(self) -> float:
        return self._costs[3]

    @property
    def oracle_count(self) -> int:
        return self._costs[2]


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
    # the tolerance on p may leave the ratio a rounding error above 1; it
    # is 1 exactly when the overlap is sin(pi / (4p + 6)), as 0.5 is at
    # p = 0, and asin's slope there turns one ulp below 1 into 3e-8 of
    # alpha, so a ratio within a few ulp of 1 gives alpha = pi exactly
    ratio = min(1.0, math.sin(math.pi / (4 * p + 6)) / overlap)
    alpha = math.pi if ratio >= 1.0 - 4 * math.ulp(1.0) else 2.0 * math.asin(ratio)
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
    """The adjoint of one of the four op kinds; ScheduleError on any other
    object."""
    if isinstance(op, AncillaHadamard):
        return op  # self-adjoint
    if isinstance(op, ControlledWalkPhase):
        return ControlledWalkPhase(-op.t)
    if isinstance(op, OraclePhase):
        return OraclePhase(op.theta, -op.sign)
    if isinstance(op, AncillaPhase):
        # plain negation (like walk times) keeps the adjoint exactly involutive
        return AncillaPhase(-op.theta)
    raise ScheduleError(f"not a primitive op: {op!r}")


def _adjoint_ops(ops: tuple[PrimitiveOp, ...]) -> tuple[PrimitiveOp, ...]:
    return tuple(_adjoint_op(op) for op in reversed(ops))


def _reversed_boundaries(starts: tuple[int, ...], length: int) -> tuple[int, ...]:
    """Stage starts of the adjoint of an op list of ``length`` ops."""
    return tuple(sorted(length - e for e in (*starts[1:], length))) if starts else ()


def dagger(schedule: Schedule) -> Schedule:
    """Element-wise adjoints in reverse order; total time is preserved.  The
    stages stay and the direction flips, in O(1)."""
    direction = REVERSED if schedule.direction == FORWARD else FORWARD
    return replace(schedule, direction=direction)


def _expand(stages: tuple[Stage, ...]) -> tuple[PrimitiveOp, ...]:
    """The forward flat op list of a stage tree: each iteration of stage k
    is its kickback circuit, then the oracle conjugated by the ops of every
    earlier stage."""
    ops: list[PrimitiveOp] = []
    for stage in stages:
        prefix = tuple(ops)
        prefix_adjoint = _adjoint_ops(prefix)
        for _ in range(stage.params.iterations):
            ops.extend(target_phase_ops(stage.walk_time, stage.kick))
            ops.extend(prefix_adjoint)
            ops.append(OraclePhase(stage.params.alpha, 1))
            ops.extend(prefix)
    return tuple(ops)


def _tree_costs(stages: tuple[Stage, ...]) -> tuple[int, tuple[int, ...], int, float, float]:
    """Op count, stage starts, oracle count, total time and ancilla time of
    ``_expand(stages)``: an iteration runs its kick, oracle and prefix twice."""
    length = oracles = 0
    time = ancilla = 0.0
    starts = []
    for stage in stages:
        it = stage.params.iterations
        starts.append(length)
        length += it * (2 * length + 8)  # the seven kick ops and the oracle
        oracles += it * (2 * oracles + 1)
        kick = 2.0 * abs(stage.walk_time) + abs(stage.kick)
        time += it * (2.0 * time + kick + abs(stage.params.alpha))
        ancilla += it * (2.0 * ancilla + abs(stage.kick))
    return length, tuple(starts), oracles, time, ancilla


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
    mark skipped stages.  Each active level gives one ``Stage``; stage
    k>=1 conjugates its oracle by the stages before it.
    """
    overlaps = np.asarray(overlaps, dtype=float)
    if len(overlaps) != chain.depth:
        raise ScheduleError(
            f"expected {chain.depth} overlaps, got {len(overlaps)}"
        )
    stages: list[Stage] = []
    for k in range(chain.depth):
        s = float(overlaps[k])
        if s >= SKIP_OVERLAP:
            continue  # the refinement does not move the state at this level
        if s < OVERLAP_FLOOR:
            raise ScheduleError(f"overlap at level {k} below floor: {s:.3e}")
        params = stage_params(s)
        stages.append(Stage(k, reflection_time(chain.levels[k].gcd), params.alpha, params))
    return Schedule(tuple(stages))


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
    # The -1 eigenspace of the adjacency walk contains the target axis
    # itself, so phasing it by -alpha realizes the target-side rotation
    # with no extra global phase.
    kick = (2.0 * math.pi - params.alpha) % (2.0 * math.pi)
    return Schedule((Stage(0, walk_time, kick, params),), REVERSED, ADJACENCY)


def ancilla_phase_time(schedule: Schedule) -> float:
    """Total angle spent in ancilla phase gates (reported separately in
    cost accounting)."""
    return schedule._costs[4]


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def _op_to_json(op: PrimitiveOp) -> dict:
    """One of the four op kinds as JSON; ScheduleError on any other
    object."""
    if isinstance(op, AncillaHadamard):
        return {"op": "anc_h"}
    if isinstance(op, OraclePhase):
        return {"op": "oracle", "theta": op.theta, "sign": op.sign}
    if isinstance(op, AncillaPhase):
        return {"op": "anc_z", "theta": op.theta}
    if isinstance(op, ControlledWalkPhase):
        return {"op": "cwalk", "t": op.t}
    raise ScheduleError(f"not a primitive op: {op!r}")


def _json_as(value, kind: type):
    """value as kind, if json.loads read it as one; a bool is neither."""
    if type(value) not in ((int, float) if kind is float else (int,)):
        raise TypeError(f"{value!r} is not a JSON {'number' if kind is float else 'integer'}")
    return kind(value)


def _op_from_json(data: dict) -> PrimitiveOp:
    kind = data["op"]
    if kind == "oracle":
        return OraclePhase(_json_as(data["theta"], float), _json_as(data["sign"], int))
    if kind == "anc_h":
        return AncillaHadamard()
    if kind == "anc_z":
        return AncillaPhase(_json_as(data["theta"], float))
    if kind == "cwalk":
        return ControlledWalkPhase(_json_as(data["t"], float))
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
    """Decode an artifact's ops back into its stage tree.

    In forward order, stage k starts at op s_k and runs
    (s_{k+1} - s_k) / (2*s_k + 8) iterations; its walk time, kick and
    oracle angle are read from its first iteration.  The artifact is
    accepted only if the tree re-expands to exactly its ops and oracle
    count, and to its total time within 1e-9 relative.
    """
    direction = data["direction"]
    if direction not in (FORWARD, REVERSED):
        raise ScheduleError(f"unknown schedule direction {direction!r}")
    hamiltonian = data["hamiltonian"]
    if hamiltonian not in (LAPLACIAN, ADJACENCY):
        raise ScheduleError(f"unknown schedule hamiltonian {hamiltonian!r}")
    ops = tuple(_op_from_json(d) for d in data["ops"])
    bounds = tuple(_json_as(i, int) for i in data["stage_boundaries"])
    levels = tuple(_json_as(i, int) for i in data["stage_levels"])
    if list(bounds) != sorted(bounds) or not all(0 <= b <= len(ops) for b in bounds):
        raise ScheduleError(f"stage boundaries {list(bounds)} are not sorted op indices")
    if bounds and bounds[0] != 0:
        raise ScheduleError(f"stage boundaries {list(bounds)} do not start at op 0")
    if len(levels) != len(bounds):
        raise ScheduleError(f"{len(levels)} stage levels for {len(bounds)} stages")
    forward = ops
    if direction == REVERSED:
        forward, bounds = _adjoint_ops(ops), _reversed_boundaries(bounds, len(ops))
        levels = levels[::-1]
    stages = []
    for k, (start, end) in enumerate(zip(bounds, (*bounds[1:], len(ops)))):
        iterations, rest = divmod(end - start, 2 * start + 8)
        if iterations < 1 or rest:
            raise ScheduleError(f"stage {k} spans {end - start} ops, not whole iterations")
        cwalk, kick, oracle = forward[start + 1], forward[start + 3], forward[2 * start + 7]
        if not (isinstance(cwalk, ControlledWalkPhase) and isinstance(kick, AncillaPhase)
                and isinstance(oracle, OraclePhase) and math.sin(oracle.theta / 2) > 0):
            raise ScheduleError(f"stage {k} does not start with a kickback and an oracle")
        p = iterations - 1
        overlap = math.sin(math.pi / (4 * p + 6)) / math.sin(oracle.theta / 2)
        stages.append(Stage(levels[k], cwalk.t, kick.theta,
                            StageParams(overlap, p, oracle.theta)))
    _json_as(data["global_phase"], float)  # required, but derived from the stages
    schedule = Schedule(tuple(stages), direction, hamiltonian)
    if schedule.ops != ops:
        raise ScheduleError("the ops are not the expansion of the stages they encode")
    count, time = _json_as(data["oracle_count"], int), _json_as(data["total_time"], float)
    if count != schedule.oracle_count:
        raise ScheduleError(f"oracle count {count} is not the ops' {schedule.oracle_count}")
    if not math.isclose(time, schedule.total_time, rel_tol=1e-9):
        raise ScheduleError(f"total time {time} is not the ops' {schedule.total_time:.12g}")
    return schedule
