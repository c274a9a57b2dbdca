import json
import math

import numpy as np
import pytest

from qwalk import depth, graph, pipelines, schedule, simulate, spectral
from qwalk.errors import ScheduleError


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
    # 1, where a rounding error in the ratio moves alpha by about 3e-8
    params = schedule.stage_params(0.5)
    assert params.p == 0
    assert params.alpha == pytest.approx(math.pi, abs=1e-7)


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
    alphas = spectral.eigenspace_amplitudes(spec, 0)
    sched = schedule.synth_sampling_schedule(chain, depth.overlaps(chain, alphas))
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


def test_schedule_rejects_boundaries_not_from_op_0():
    # stage 0 would run from op 0 anyway, and the dagger would drop the edit
    with pytest.raises(ScheduleError, match="do not start at op 0"):
        schedule.Schedule(ops=(schedule.WalkPhase(0.1),) * 6, stage_boundaries=(3, 5))
    with pytest.raises(ScheduleError, match="not sorted op indices"):
        schedule.Schedule(ops=(schedule.WalkPhase(0.1),) * 6, stage_boundaries=(0, 7))


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
    return trees + [schedule.dagger(t) for t in trees] + [ctx.search_schedule]


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
        ref = schedule.Schedule(ops=ops, stage_boundaries=starts,
                                stage_levels=tuple(st.level for st in tree.stages))
        if tree.direction == "reversed":
            ref = schedule.dagger(ref)
        assert tree.ops == ref.ops
        assert tree.stage_boundaries == ref.stage_boundaries
        assert tree.stage_levels == ref.stage_levels


def test_tree_costs_match_expanded_ops(trees):
    for tree in trees:
        ops = tree.ops
        assert tree.oracle_count == sum(isinstance(op, schedule.OraclePhase) for op in ops)
        times = math.fsum(
            abs(op.t) if isinstance(op, (schedule.WalkPhase, schedule.ControlledWalkPhase))
            else abs(op.theta) for op in ops if not isinstance(op, schedule.AncillaHadamard)
        )
        ancilla = math.fsum(abs(op.theta) for op in ops if isinstance(op, schedule.AncillaPhase))
        assert tree.total_time == pytest.approx(times, rel=1e-12)
        assert schedule.ancilla_phase_time(tree) == pytest.approx(ancilla, rel=1e-12)
        flat = schedule.Schedule(ops=ops)
        assert schedule.ancilla_phase_time(flat) == pytest.approx(ancilla, rel=1e-12)


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
    assert "ops" not in vars(ctx.search_schedule)
    with pytest.raises(AssertionError, match="expanded"):
        ctx.search_schedule.ops
