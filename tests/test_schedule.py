import cmath
import json
import math
import typing

import numpy as np
import pytest

from qwalk import depth, graph, pipelines, schedule, simulate, spectral
from qwalk.errors import ScheduleError, SimulationError


def build_context(g):
    spec = spectral.eigendecompose(graph.laplacian(g))
    ints = spectral.validate_integer_spectrum(spec)
    return spec, depth.build_depth_chain(ints)


def test_stage_params_half_sqrt2():
    params = schedule.stage_params(1 / math.sqrt(2))
    assert params.p == 0
    assert params.iterations == 1
    assert params.alpha == pytest.approx(math.pi / 2, abs=1e-12)


def test_stage_params_one_half():
    # the bound on p evaluates to exactly 0 here and the arcsin argument to
    # 1, where a one-ulp rounding of the ratio would move alpha by 3e-8:
    # alpha is pi exactly, for 0.5 and for overlaps an ulp or two away
    params = schedule.stage_params(0.5)
    assert params.p == 0
    assert params.alpha == math.pi
    for overlap in (math.sin(math.pi / 6), math.nextafter(0.5, 1.0),
                    math.nextafter(math.nextafter(0.5, 0.0), 0.0)):
        assert schedule.stage_params(overlap).alpha == math.pi
    # sin(pi / 10) is the exact overlap at p = 1
    assert schedule.stage_params(math.sin(math.pi / 10)).p == 1
    assert schedule.stage_params(math.sin(math.pi / 10)).alpha == math.pi
    # away from those overlaps alpha is below pi
    assert schedule.stage_params(0.5 + 1e-9).alpha < math.pi - 1e-5


def test_stage_params_small_overlap():
    params = schedule.stage_params(1 / math.sqrt(15))
    assert params.p == 2
    assert math.sin(math.pi / (4 * params.p + 6)) <= params.overlap
    # p is minimal: one less leaves the arcsin argument above 1
    assert math.sin(math.pi / (4 * params.p + 2)) > params.overlap


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
def test_stage_params_rejects_out_of_range(bad):
    with pytest.raises(ScheduleError):
        schedule.stage_params(bad)


@pytest.mark.parametrize("s", [0.12, 0.3, 1 / math.sqrt(6), 0.71, 0.95, 0.999])
def test_stage_rotation_lands_exactly(s):
    # independent 2x2 product check of the matched-phase rotation
    params = schedule.stage_params(s)
    c = math.sqrt(1 - s * s)
    source = np.array([s, c], dtype=complex)
    u1 = np.diag([np.exp(-1j * params.alpha), 1.0])
    u2 = np.eye(2, dtype=complex) - (1 - np.exp(-1j * params.alpha)) * np.outer(
        source, source.conj()
    )
    state = source
    for _ in range(params.iterations):
        state = u2 @ (u1 @ state)
    assert abs(state[0]) == pytest.approx(1.0, abs=1e-12)
    # one fewer iteration undershoots: the extra iteration is load-bearing
    short = source
    for _ in range(params.iterations - 1):
        short = u2 @ (u1 @ short)
    assert abs(short[0]) < 1.0 - 1e-6


@pytest.mark.parametrize("g,expected", [(1, math.pi), (2, math.pi / 2), (4, math.pi / 4)])
def test_reflection_time(g, expected):
    assert schedule.reflection_time(g) == pytest.approx(expected, abs=1e-15)


def test_target_phase_ops_structure():
    ops = schedule.target_phase_ops(math.pi / 2, 0.3)
    kinds = [type(op).__name__ for op in ops]
    assert kinds == [
        "AncillaHadamard",
        "ControlledWalkPhase",
        "AncillaHadamard",
        "AncillaPhase",
        "AncillaHadamard",
        "ControlledWalkPhase",
        "AncillaHadamard",
    ]
    assert ops[1].t == ops[5].t == math.pi / 2
    assert ops[3].theta == 0.3


#: One op of each kind a schedule holds: the paper's ancilla Hadamard,
#: controlled walk, ancilla phase and marked-vertex oracle.
OP_KINDS = typing.get_args(schedule.PrimitiveOp)
ONE_OF_EACH = (
    schedule.OraclePhase(0.7, -1),
    schedule.AncillaHadamard(),
    schedule.AncillaPhase(0.3),
    schedule.ControlledWalkPhase(-1.25),
)


def test_op_set_is_the_four_kinds():
    assert sorted(k.__name__ for k in OP_KINDS) == [
        "AncillaHadamard", "AncillaPhase", "ControlledWalkPhase", "OraclePhase"]
    assert {type(op) for op in ONE_OF_EACH} == set(OP_KINDS)


def test_json_writes_and_reads_exactly_the_op_set():
    # each kind is written under its own name and read back as itself;
    # no other name reads
    written = [schedule._op_to_json(op) for op in ONE_OF_EACH]
    assert len({d["op"] for d in written}) == len(OP_KINDS)
    read = [schedule._op_from_json(json.loads(json.dumps(d))) for d in written]
    assert read == list(ONE_OF_EACH)
    assert {type(op) for op in read} == set(OP_KINDS)
    for name in ("walk", "gphase"):
        with pytest.raises(ScheduleError, match="unknown op kind"):
            schedule._op_from_json({"op": name, "t": 1.0, "gamma": 1.0})


def test_apply_op_dispatches_exactly_the_op_set():
    spec = spectral.eigendecompose(graph.laplacian(graph.cycle(4)))
    state = simulate.attach_ancilla(simulate.vertex_state(4, 1))
    for op in ONE_OF_EACH:
        out = simulate.apply_op(state, op, spec, marked=1)
        assert out.has_ancilla and out.n == 4
    for op in (schedule.WalkPhase(), schedule.GlobalPhase()):
        with pytest.raises(SimulationError, match="unknown primitive op"):
            simulate.apply_op(state, op, spec, marked=1)


def test_adjoint_op_is_an_involution_on_each_kind():
    for op in ONE_OF_EACH:
        adjoint = schedule._adjoint_op(op)
        assert type(adjoint) is type(op)
        assert schedule._adjoint_op(adjoint) == op


class StubOp:
    """An object of no op kind."""


@pytest.mark.parametrize("op", [schedule.WalkPhase(), schedule.GlobalPhase(), StubOp()],
                         ids=["WalkPhase", "GlobalPhase", "stub"])
def test_codec_and_adjoint_refuse_other_objects(op):
    # neither is saved as a Hadamard nor passed through unchanged
    with pytest.raises(ScheduleError, match="not a primitive op"):
        schedule._op_to_json(op)
    with pytest.raises(ScheduleError, match="not a primitive op"):
        schedule._adjoint_op(op)


def test_synthesized_schedules_hold_only_the_op_set(k4_minus_edge):
    # the sample, search and bipartite schedules and their daggers on
    # rook(3,3), K4 - e and K(4,7)
    k47 = graph.complete_bipartite(4, 7)
    schedules = list(pipelines.prepare_bipartite(k47).branches)
    for g in (graph.rook(3, 3), k4_minus_edge, k47):
        ctx = pipelines.prepare(g)
        schedules += [*ctx.class_schedules, *ctx.branches]
    for sched in schedules:
        for s in (sched, schedule.dagger(sched)):
            assert s.ops and {type(op) for op in s.ops} <= set(OP_KINDS)


def test_sampling_schedule_empty_for_single_vertex():
    chain = depth.build_depth_chain([0])
    sched = schedule.synth_sampling_schedule(chain, np.array([]))
    assert sched.ops == ()
    assert sched.oracle_count == 0
    assert sched.total_time == 0.0


def test_c4_schedule_walk_times(c4):
    spec, chain = build_context(c4)
    overlaps = depth.transitive_overlaps(chain)
    sched = schedule.synth_sampling_schedule(chain, overlaps)
    assert len(sched.stage_boundaries) == 2
    assert sched.stage_levels == (0, 1)
    walk_times = sorted(
        {abs(op.t) for op in sched.ops if isinstance(op, schedule.ControlledWalkPhase)}
    )
    assert walk_times == pytest.approx([math.pi / 4, math.pi / 2])
    # stage 0 ops all carry the level-0 reflection time
    stage0 = sched.ops[: sched.stage_boundaries[1]]
    assert {
        op.t for op in stage0 if isinstance(op, schedule.ControlledWalkPhase)
    } == {math.pi / 2}


def test_c4_oracle_count_bound(c4):
    spec, chain = build_context(c4)
    sched = schedule.synth_sampling_schedule(chain, depth.transitive_overlaps(chain))
    assert sched.oracle_count <= 2**chain.depth * math.sqrt(c4.n) * math.pi


def test_skip_stage_emits_nothing():
    star = graph.complete_bipartite(1, 3)
    spec, chain = build_context(star)
    masses = spec.masses[0]
    sched = schedule.synth_sampling_schedule(chain, depth.overlaps(chain, masses))
    assert len(sched.stage_boundaries) == 1
    assert sched.stage_levels == (1,)
    # with the first stage skipped, the remaining stage conjugates nothing
    assert all(
        not isinstance(op, schedule.OraclePhase) or op.sign == 1 for op in sched.ops
    )


def test_schedule_rejects_overlap_count_mismatch(c4):
    spec, chain = build_context(c4)
    with pytest.raises(ScheduleError, match="overlaps"):
        schedule.synth_sampling_schedule(chain, np.array([0.5]))


def test_schedule_rejects_overlap_below_floor(c4):
    spec, chain = build_context(c4)
    with pytest.raises(ScheduleError, match="floor"):
        schedule.synth_sampling_schedule(chain, np.array([1e-13, 0.5]))


def test_dagger_involution_and_empty(c4):
    spec, chain = build_context(c4)
    sched = schedule.synth_sampling_schedule(chain, depth.transitive_overlaps(chain))
    twice = schedule.dagger(schedule.dagger(sched))
    assert twice == sched
    empty = schedule.Schedule()
    assert schedule.dagger(empty).ops == ()
    assert schedule.dagger(empty).direction == "reversed"


def test_dagger_preserves_costs(c4):
    spec, chain = build_context(c4)
    sched = schedule.synth_sampling_schedule(chain, depth.transitive_overlaps(chain))
    rev = schedule.dagger(sched)
    assert rev.direction == "reversed"
    assert rev.total_time == sched.total_time
    assert rev.oracle_count == sched.oracle_count
    assert len(rev.stage_boundaries) == len(sched.stage_boundaries)
    assert rev.ops == tuple(
        schedule._adjoint_op(op) for op in reversed(sched.ops)
    )


def test_dagger_runs_backwards(c4):
    spec, chain = build_context(c4)
    sched = schedule.synth_sampling_schedule(chain, depth.transitive_overlaps(chain))
    m = 2
    forward = simulate.run_schedule(simulate.vertex_state(4, m), sched, spec, m)
    assert simulate.fidelity(forward, simulate.uniform_state(4)) > 1 - 1e-10
    back = simulate.run_schedule(
        simulate.uniform_state(4), schedule.dagger(sched), spec, m
    )
    assert simulate.fidelity(back, m) > 1 - 1e-10


def test_global_phase_metadata_is_exact(c4):
    spec, chain = build_context(c4)
    sched = schedule.synth_sampling_schedule(chain, depth.transitive_overlaps(chain))
    final = simulate.run_schedule(simulate.vertex_state(4, 1), sched, spec, 1)
    overlap = np.vdot(simulate.uniform_state(4).amps, final.amps)
    phase = math.atan2(overlap.imag, overlap.real) % (2 * math.pi)
    assert phase == pytest.approx(sched.global_phase, abs=1e-9)


def test_global_phase_of_the_adjoint(c4):
    # read from the stages: the reversed schedule lands at the vertex with
    # the opposite phase, and the empty K(1,n) branch reads +0.0
    spec, chain = build_context(c4)
    back = schedule.dagger(
        schedule.synth_sampling_schedule(chain, depth.transitive_overlaps(chain)))
    final = simulate.run_schedule(simulate.uniform_state(4), back, spec, 1)
    phase = cmath.phase(final.amps[1])
    assert back.global_phase == -schedule.dagger(back).global_phase != 0.0
    assert math.remainder(phase - back.global_phase, 2 * math.pi) == pytest.approx(0.0, abs=1e-9)
    empty = schedule.synth_bipartite_search(1, 5)[0]
    assert math.copysign(1.0, empty.global_phase) == 1.0
    assert '"global_phase": 0.0' in json.dumps(schedule.schedule_to_json_dict(empty))


def test_bipartite_branch_star_is_empty():
    branch1, branch2 = schedule.synth_bipartite_search(1, 4)
    assert branch1.ops == ()
    assert branch1.direction == "reversed"
    assert branch2.ops != ()


def test_bipartite_k23_branch_parameters():
    branch1, branch2 = schedule.synth_bipartite_search(2, 3)
    t = math.pi / math.sqrt(6)
    for branch, block in ((branch1, 2), (branch2, 3)):
        params = schedule.stage_params(1 / math.sqrt(block))
        cwalks = [op for op in branch.ops if isinstance(op, schedule.ControlledWalkPhase)]
        assert len(cwalks) == 2 * params.iterations
        assert all(abs(op.t) == pytest.approx(t, rel=1e-12) for op in cwalks)
        assert branch.oracle_count == params.iterations
        assert branch.hamiltonian == "adjacency"
    assert schedule.stage_params(1 / math.sqrt(2)).p == 0


def test_bipartite_kick_phases_target_axis():
    # the adjacency walk's -1 eigenspace holds the target axis, so the
    # kickback angle is the negated stage phase
    branch1, _ = schedule.synth_bipartite_search(2, 3)
    forward = schedule.dagger(branch1)
    params = schedule.stage_params(1 / math.sqrt(2))
    phases = [op.theta for op in forward.ops if isinstance(op, schedule.AncillaPhase)]
    assert phases == [pytest.approx(2 * math.pi - params.alpha)] * len(phases)
    assert phases


def test_schedule_json_round_trip(c4):
    spec, chain = build_context(c4)
    sched = schedule.synth_sampling_schedule(chain, depth.transitive_overlaps(chain))
    data = schedule.schedule_to_json_dict(sched)
    back = schedule.schedule_from_json_dict(json.loads(json.dumps(data)))
    assert back == sched
    rev = schedule.dagger(sched)
    assert schedule.schedule_from_json_dict(
        json.loads(json.dumps(schedule.schedule_to_json_dict(rev)))
    ) == rev
    data["stage_boundaries"].reverse()
    with pytest.raises(ScheduleError, match="stage boundaries"):
        schedule.schedule_from_json_dict(data)
    # sorted, but stage 0 would not start at op 0: the executor would run
    # it from op 0 anyway, and the dagger would drop the edit
    data["stage_boundaries"] = [1, *sched.stage_boundaries[1:]]
    with pytest.raises(ScheduleError, match="do not start at op 0"):
        schedule.schedule_from_json_dict(data)


def test_schedule_bytes_deterministic(c4):
    spec, chain = build_context(c4)
    a = schedule.synth_sampling_schedule(chain, depth.transitive_overlaps(chain))
    b = schedule.synth_sampling_schedule(chain, depth.transitive_overlaps(chain))
    assert json.dumps(schedule.schedule_to_json_dict(a)) == json.dumps(
        schedule.schedule_to_json_dict(b)
    )


def reference_flat(stages):
    """The stage tree's forward ops and stage starts, written out flat:
    every iteration of a stage conjugates its oracle by all ops before
    the stage."""
    ops, starts = [], []
    for st in stages:
        prefix = tuple(ops)
        starts.append(len(ops))
        for _ in range(st.params.iterations):
            ops.extend(schedule.target_phase_ops(st.walk_time, st.kick))
            ops.extend(schedule._adjoint_op(op) for op in reversed(prefix))
            ops.append(schedule.OraclePhase(st.params.alpha, 1))
            ops.extend(prefix)
    return tuple(ops), tuple(starts)


def stage_trees(g):
    """Per-vertex sampling trees, their daggers and the search tree of g."""
    ctx = pipelines.prepare(g)
    trees = [pipelines.sampling_schedule(ctx, m) for m in (0, g.n - 1)]
    return trees + [schedule.dagger(t) for t in trees] + [ctx.branches[0]]


@pytest.fixture(params=["c4", "rook33", "hamming42", "bipartite47"])
def trees(request, c4):
    if request.param == "bipartite47":
        return list(schedule.synth_bipartite_search(4, 7))
    g = {"c4": c4, "rook33": graph.rook(3, 3), "hamming42": graph.hamming(4, 2)}
    return stage_trees(g[request.param])


def test_expansion_matches_flat_reference(trees):
    for tree in trees:
        assert tree.stages
        ops, starts = reference_flat(tree.stages)
        levels = tuple(st.level for st in tree.stages)
        if tree.direction == "reversed":
            # the adjoint runs the stages last to first
            ends = (*starts[1:], len(ops))
            ops = tuple(schedule._adjoint_op(op) for op in reversed(ops))
            starts, levels = tuple(sorted(len(ops) - e for e in ends)), levels[::-1]
        assert tree.ops == ops
        assert tree.stage_boundaries == starts
        assert tree.stage_levels == levels


def test_tree_costs_match_expanded_ops(trees):
    for tree in trees:
        ops = tree.ops
        assert tree.oracle_count == sum(isinstance(op, schedule.OraclePhase) for op in ops)
        times = math.fsum(
            abs(op.t) if isinstance(op, schedule.ControlledWalkPhase)
            else abs(op.theta) for op in ops if not isinstance(op, schedule.AncillaHadamard)
        )
        ancilla = math.fsum(abs(op.theta) for op in ops if isinstance(op, schedule.AncillaPhase))
        assert tree.total_time == pytest.approx(times, rel=1e-12)
        assert schedule.ancilla_phase_time(tree) == pytest.approx(ancilla, rel=1e-12)


def test_dagger_of_tree_keeps_stages(trees):
    for tree in trees:
        twice = schedule.dagger(schedule.dagger(tree))
        assert twice.stages == tree.stages
        assert twice.ops == tree.ops
        assert twice == tree


def test_pipelines_never_expand_ops(monkeypatch):
    g = graph.hamming(8, 2)
    ctx = pipelines.prepare(g)

    def refuse(stages):
        raise AssertionError("a pipeline run expanded a stage tree's ops")

    monkeypatch.setattr(schedule, "_expand", refuse)
    for report in (
        pipelines.uniform_sample(g, 3, ctx=ctx),
        pipelines.transfer(g, 0, 200, ctx=ctx),
        pipelines.search_vertex_transitive(g, 7, ctx=ctx),
    ):
        assert report.fidelity > pipelines.FIDELITY_THRESHOLD
    assert "ops" not in vars(ctx.branches[0])
    with pytest.raises(AssertionError, match="expanded"):
        ctx.branches[0].ops


def every_schedule_kind():
    """Forward sample, reversed search, both K(4,7) branches, the empty
    K(1,5) branch, the zero-stage single vertex and the star centre whose
    first stage is skipped."""
    h42 = pipelines.prepare(graph.hamming(4, 2))
    star = pipelines.prepare(graph.complete_bipartite(1, 3))
    return {
        "sample": pipelines.sampling_schedule(h42, 3),
        "search": pipelines.prepare(graph.johnson(5, 2)).branches[0],
        "k47_block1": schedule.synth_bipartite_search(4, 7)[0],
        "k47_block2": schedule.synth_bipartite_search(4, 7)[1],
        "k15_empty": schedule.synth_bipartite_search(1, 5)[0],
        "single_vertex": pipelines.sampling_schedule(
            pipelines.prepare(graph.single_vertex()), 0),
        "star_centre": pipelines.sampling_schedule(star, 0),
    }


@pytest.mark.parametrize("kind", sorted(every_schedule_kind()))
def test_decoder_round_trips_every_kind(kind):
    sched = every_schedule_kind()[kind]
    data = json.loads(json.dumps(schedule.schedule_to_json_dict(sched)))
    back = schedule.schedule_from_json_dict(data)
    assert back.ops == sched.ops
    assert back.stage_boundaries == sched.stage_boundaries
    assert back.stage_levels == sched.stage_levels
    assert back.oracle_count == sched.oracle_count
    assert back.total_time == sched.total_time
    # stage equality compares level, walk time, kick, p and alpha; the
    # overlap is recovered only to rounding, and equality ignores it
    assert back.stages == sched.stages and back == sched
    for got, want in zip(back.stages, sched.stages, strict=True):
        assert got.params.overlap == pytest.approx(want.params.overlap, rel=1e-9)


def test_decoder_reads_rounded_artifacts():
    # CLI artifacts keep 12 significant digits; the tree re-expands to the
    # rounded ops exactly, and its time moves only in the last digits
    for sched in every_schedule_kind().values():
        data = schedule.schedule_to_json_dict(sched)
        rounded = json.loads(json.dumps(data), parse_float=lambda x: float(f"{float(x):.12g}"))
        back = schedule.schedule_from_json_dict(rounded)
        assert schedule.schedule_to_json_dict(back)["ops"] == rounded["ops"]
        assert back.total_time == pytest.approx(sched.total_time, rel=1e-11)


def edited(data, edit):
    data = json.loads(json.dumps(data))
    edit(data)
    return data


@pytest.mark.parametrize("edit", [
    lambda d: d["ops"].pop(5),
    lambda d: d["ops"].append({"op": "anc_h"}),
    lambda d: next(op for op in reversed(d["ops"]) if op["op"] == "anc_z").update(theta=0.5),
    lambda d: d.update(oracle_count=d["oracle_count"] - 1),
    lambda d: d.update(total_time=d["total_time"] * (1 + 1e-8)),
    lambda d: d.update(stage_levels=d["stage_levels"][1:]),
    lambda d: d.update(direction="sideways"),
    lambda d: d["ops"].__setitem__(0, {"op": "walk", "t": 0.1}),
    lambda d: [op.update(theta=0.0) for op in d["ops"] if op["op"] == "oracle"],
], ids=["dropped_op", "extra_op", "kick_angle", "oracle_count", "total_time",
        "levels", "direction", "walk_op", "oracle_angle_zero"])
def test_decoder_rejects_edited_artifacts(edit):
    for kind in ("sample", "search"):
        data = schedule.schedule_to_json_dict(every_schedule_kind()[kind])
        with pytest.raises(ScheduleError):
            schedule.schedule_from_json_dict(edited(data, edit))
