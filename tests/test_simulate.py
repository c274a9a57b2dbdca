import math

import numpy as np
import pytest

from qwalk import depth, graph, pipelines, schedule, simulate, spectral
from qwalk.errors import SimulationError


@pytest.fixture
def c4_spec(c4):
    return spectral.eigendecompose(graph.laplacian(c4))


def c4_level_pairs(c4_spec, vertex=0):
    ints = spectral.validate_integer_spectrum(c4_spec)
    chain = depth.build_depth_chain(ints)
    alphas = spectral.eigenspace_amplitudes(c4_spec, vertex)
    return chain, depth.level_states(chain, alphas)


def to_vertex_space(spec, coeffs):
    return spec.eigenvectors @ coeffs


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    return amps / np.linalg.norm(amps)


NEEDS_ANCILLA = (schedule.AncillaHadamard, schedule.AncillaPhase, schedule.ControlledWalkPhase)


def op_by_op(state, sched, spec, marked):
    """Reference executor: every op through ``apply_op``, one at a time.
    Returns the final state and the state at the end of each declared
    stage, before any detach."""
    attached, stages = False, []
    bounds = sched.stage_boundaries
    ends = (*bounds[1:], len(sched.ops))
    start = 0
    for end in ends:
        for op in sched.ops[start:end]:
            if isinstance(op, NEEDS_ANCILLA) and not state.has_ancilla:
                state = simulate.attach_ancilla(state)
                attached = True
            state = simulate.apply_op(state, op, spec, marked)
        stages.append(state)
        start = end
    final = simulate.detach_ancilla(state) if attached else state
    return final, stages if bounds else []


def hand_built():
    """Schedules synthesis never emits: every op kind, oracles first, last
    and adjacent (an empty run between), and a stage boundary inside a
    run.  The first leaves the ancilla entangled, so it runs on a state
    that carries one; the second attaches it mid-run and returns it
    clean."""
    S = schedule
    every_kind = S.Schedule(
        ops=(S.OraclePhase(0.7), S.WalkPhase(0.3), S.GlobalPhase(0.2),
             S.AncillaHadamard(), S.ControlledWalkPhase(0.5), S.AncillaPhase(1.1),
             S.OraclePhase(0.4, -1), S.OraclePhase(1.3), S.AncillaHadamard(),
             S.ControlledWalkPhase(-0.2), S.WalkPhase(-0.6), S.GlobalPhase(-0.9),
             S.AncillaPhase(0.3), S.AncillaHadamard(), S.OraclePhase(0.8)),
        stage_boundaries=(0, 10),
    )
    clean = S.Schedule(
        ops=(S.WalkPhase(0.3), S.GlobalPhase(0.2), S.AncillaHadamard(),
             S.ControlledWalkPhase(0.7), S.AncillaPhase(1.1), S.AncillaPhase(-1.1),
             S.ControlledWalkPhase(-0.7), S.AncillaHadamard(), S.OraclePhase(0.5),
             S.WalkPhase(-0.2), S.OraclePhase(0.9, -1), S.OraclePhase(0.4)),
        stage_boundaries=(0, 5),
    )
    return every_kind, clean


@pytest.fixture(params=["c4", "rook33", "bipartite47"])
def schedule_case(request, c4):
    # rook(3,3) has degenerate eigenspaces, so its basis is solver-chosen;
    # the bipartite context runs its branches on the adjacency spectrum
    if request.param == "bipartite47":
        ctx = pipelines.prepare_bipartite(4, 7)
        m, n = 2, ctx.graph.n
        cases = [
            (simulate.block_uniform_state(n, 0, 4), ctx.branches[0]),
            (simulate.block_uniform_state(n, 4, n), ctx.branches[1]),
        ]
    else:
        g = c4 if request.param == "c4" else graph.rook(3, 3)
        ctx = pipelines.prepare(g)
        m, n = g.n - 1, g.n
        cases = [
            (simulate.vertex_state(n, m), pipelines.sampling_schedule(ctx, m)),
            (simulate.uniform_state(n), pipelines.transitive_search_schedule(ctx)),
        ]
    ancilla_in = simulate.attach_ancilla(simulate.from_amplitudes(random_state(n, 7)))
    every_kind, clean = hand_built()
    return ctx, m, cases + [
        (ancilla_in, cases[0][1]),
        (ancilla_in, every_kind),
        (simulate.vertex_state(n, 1), clean),
    ]


def test_walk_zero_time_is_identity(c4_spec):
    st = simulate.vertex_state(4, 1)
    out = simulate.apply_walk_phase(st, c4_spec, 0.0)
    assert np.allclose(out.amps, st.amps)


def test_walk_fixes_uniform_state(c4_spec):
    st = simulate.uniform_state(4)
    out = simulate.apply_walk_phase(st, c4_spec, 1.2345)
    assert np.allclose(out.amps, st.amps, atol=1e-12)


def test_walk_reflects_split_state(c4_spec):
    chain, pairs = c4_level_pairs(c4_spec)
    split = to_vertex_space(c4_spec, pairs[1].split)  # eigenvalue-2 component
    st = simulate.from_amplitudes(split)
    out = simulate.apply_walk_phase(st, c4_spec, math.pi / 2)
    assert np.allclose(out.amps, -st.amps, atol=1e-12)


def test_walk_semigroup(c4_spec):
    st = simulate.vertex_state(4, 2)
    split = simulate.apply_walk_phase(
        simulate.apply_walk_phase(st, c4_spec, 0.7), c4_spec, 0.49
    )
    joint = simulate.apply_walk_phase(st, c4_spec, 1.19)
    assert np.allclose(split.amps, joint.amps, atol=1e-10)


def test_oracle_phases():
    st = simulate.vertex_state(4, 2)
    assert np.allclose(simulate.apply_oracle_phase(st, 2, 0.0).amps, st.amps)
    assert np.allclose(
        simulate.apply_oracle_phase(st, 2, 2 * math.pi).amps, st.amps, atol=1e-12
    )
    flipped = simulate.apply_oracle_phase(st, 2, math.pi)
    assert np.allclose(flipped.amps, -st.amps, atol=1e-12)
    other = simulate.apply_oracle_phase(st, 1, math.pi)
    assert np.allclose(other.amps, st.amps)
    with pytest.raises(SimulationError, match="out of range"):
        simulate.apply_oracle_phase(st, 9, 1.0)


def test_ancilla_gates_invert():
    st = simulate.attach_ancilla(simulate.uniform_state(3))
    assert np.allclose(
        simulate.apply_ancilla_hadamard(simulate.apply_ancilla_hadamard(st)).amps,
        st.amps,
        atol=1e-12,
    )
    assert np.allclose(simulate.apply_ancilla_phase(st, 0.0).amps, st.amps)


def test_attach_detach_round_trip():
    st = simulate.uniform_state(5)
    attached = simulate.attach_ancilla(st)
    assert attached.has_ancilla
    with pytest.raises(SimulationError, match="already attached"):
        simulate.attach_ancilla(attached)
    back = simulate.detach_ancilla(attached)
    assert np.allclose(back.amps, st.amps)


def test_detach_rejects_entangled_state(c4_spec):
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[2] = 1 / math.sqrt(2)  # |0>|v0> + |1>|v0| on n=2
    st = simulate.from_amplitudes(amps, n=2)
    with pytest.raises(SimulationError, match="entangled"):
        simulate.detach_ancilla(st)
    # the fused executor keeps the gate at the end of a schedule
    sched = schedule.Schedule(
        ops=(schedule.AncillaHadamard(), schedule.ControlledWalkPhase(0.3))
    )
    with pytest.raises(SimulationError, match="entangled"):
        simulate.run_schedule(simulate.vertex_state(4, 0), sched, c4_spec)


def test_kickback_circuit_zero_phase_is_identity(c4_spec):
    # at theta=0 the block collapses to H c(W^2) H; the level-0 walk step
    # squares to the identity on the whole space, so any state passes through
    rng = np.random.default_rng(5)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    st = simulate.attach_ancilla(simulate.from_amplitudes(amps / np.linalg.norm(amps)))
    for op in schedule.target_phase_ops(math.pi / 2, 0.0):
        st = simulate.apply_op(st, op, c4_spec)
    out = simulate.detach_ancilla(st)
    assert np.allclose(out.amps, amps / np.linalg.norm(amps), atol=1e-12)


def test_kickback_circuit_pi_matches_walk_on_span(c4_spec):
    # at theta=pi the block reflects the split axis, exactly what the bare
    # walk step does on the two-dimensional algorithm subspace
    chain, pairs = c4_level_pairs(c4_spec)
    for level in range(chain.depth):
        t = schedule.reflection_time(chain.levels[level].gcd)
        for coeffs in ((0.6, 0.8), (1.0, 0.0), (0.3, -0.9)):
            psi = coeffs[0] * to_vertex_space(c4_spec, pairs[level].kept)
            psi = psi + coeffs[1] * to_vertex_space(c4_spec, pairs[level + 1].kept)
            psi = psi / np.linalg.norm(psi)
            st = simulate.attach_ancilla(simulate.from_amplitudes(psi))
            for op in schedule.target_phase_ops(t, math.pi):
                st = simulate.apply_op(st, op, c4_spec)
            via_block = simulate.detach_ancilla(st)
            via_walk = simulate.apply_walk_phase(
                simulate.from_amplitudes(psi), c4_spec, t
            )
            assert np.allclose(via_block.amps, via_walk.amps, atol=1e-11)


def test_kickback_circuit_phases_split_axis(c4_spec):
    # full 7-gate block on |0> x |split>: picks up exactly e^{i theta}
    chain, pairs = c4_level_pairs(c4_spec)
    theta = 1.2345
    ops = schedule.target_phase_ops(math.pi / 2, theta)
    st = simulate.attach_ancilla(
        simulate.from_amplitudes(to_vertex_space(c4_spec, pairs[1].split))
    )
    for op in ops:
        st = simulate.apply_op(st, op, c4_spec)
    out = simulate.detach_ancilla(st)
    expected = np.exp(1j * theta) * to_vertex_space(c4_spec, pairs[1].split)
    assert np.allclose(out.amps, expected, atol=1e-12)


def test_kickback_circuit_matches_rank_one_phase(c4_spec):
    # on span{kept_k, kept_{k+1}} the block equals
    # I - (1 - e^{i theta}) |split><split| and leaves the ancilla clean
    rng = np.random.default_rng(42)
    chain, pairs = c4_level_pairs(c4_spec, vertex=0)
    for level in range(chain.depth):
        t = schedule.reflection_time(chain.levels[level].gcd)
        w_k = to_vertex_space(c4_spec, pairs[level].kept)
        w_next = to_vertex_space(c4_spec, pairs[level + 1].kept)
        split = to_vertex_space(c4_spec, pairs[level + 1].split)
        for _ in range(20):
            theta = rng.uniform(0, 2 * math.pi)
            coeffs = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi = coeffs[0] * w_k + coeffs[1] * w_next
            psi = psi / np.linalg.norm(psi)
            ideal = psi - (1 - np.exp(1j * theta)) * np.vdot(split, psi) * split
            st = simulate.attach_ancilla(simulate.from_amplitudes(psi))
            for op in schedule.target_phase_ops(t, theta):
                st = simulate.apply_op(st, op, c4_spec)
            leak = float(np.linalg.norm(st.amps[4:]) ** 2)
            assert leak < 1e-10
            assert np.allclose(st.amps[:4], ideal, atol=1e-10)


def test_run_schedule_empty_is_identity(c4_spec):
    st = simulate.vertex_state(4, 3)
    out = simulate.run_schedule(st, schedule.Schedule(), c4_spec)
    assert np.allclose(out.amps, st.amps)


def test_run_schedule_requires_marked(c4_spec):
    sched = schedule.Schedule(ops=(schedule.OraclePhase(1.0, 1),), oracle_count=1)
    with pytest.raises(SimulationError, match="marked"):
        simulate.run_schedule(simulate.uniform_state(4), sched, c4_spec)
    for marked in (4, -1):
        with pytest.raises(SimulationError, match="out of range"):
            simulate.run_schedule(simulate.uniform_state(4), sched, c4_spec, marked)


def test_norm_preserved_over_full_schedule(c4, c4_spec):
    ints = spectral.validate_integer_spectrum(c4_spec)
    chain = depth.build_depth_chain(ints)
    sched = schedule.synth_sampling_schedule(chain, depth.transitive_overlaps(chain))
    st = simulate.vertex_state(4, 0)
    stages = []
    out = simulate.run_schedule(
        st, sched, c4_spec, 0, on_stage=lambda i, state: stages.append(i)
    )
    assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-9
    assert len(sched.stage_boundaries) == 2
    assert stages == [0, 1]


def test_run_schedule_matches_op_by_op(schedule_case):
    ctx, m, cases = schedule_case
    for state, sched in cases:
        out = simulate.run_schedule(state, sched, ctx.spectrum, m)
        ref, _ = op_by_op(state, sched, ctx.spectrum, m)
        assert out.has_ancilla == state.has_ancilla == ref.has_ancilla
        assert np.max(np.abs(out.amps - ref.amps)) < 1e-12


def test_run_schedule_stage_states_match_op_by_op(schedule_case):
    ctx, m, cases = schedule_case
    for state, sched in cases:
        stages = []
        simulate.run_schedule(
            state, sched, ctx.spectrum, m, on_stage=lambda i, s: stages.append((i, s))
        )
        _, ref = op_by_op(state, sched, ctx.spectrum, m)
        assert sched.stage_boundaries
        assert [i for i, _ in stages] == list(range(len(sched.stage_boundaries)))
        for (_, got), want in zip(stages, ref, strict=True):
            assert got.has_ancilla == want.has_ancilla
            assert np.max(np.abs(got.amps - want.amps)) < 1e-12


def test_unitarity_round_trip(c4_spec):
    ints = spectral.validate_integer_spectrum(c4_spec)
    chain = depth.build_depth_chain(ints)
    sched = schedule.synth_sampling_schedule(chain, depth.transitive_overlaps(chain))
    rng = np.random.default_rng(3)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    # arbitrary inputs entangle the ancilla mid-protocol: keep it attached
    st = simulate.attach_ancilla(simulate.from_amplitudes(amps / np.linalg.norm(amps)))
    there = simulate.run_schedule(st, sched, c4_spec, 1)
    assert there.has_ancilla
    back = simulate.run_schedule(there, schedule.dagger(sched), c4_spec, 1)
    assert np.allclose(back.amps, st.amps, atol=1e-9)


def test_global_phase_op(c4_spec):
    st = simulate.vertex_state(4, 0)
    out = simulate.apply_op(st, schedule.GlobalPhase(0.5), c4_spec)
    assert np.allclose(out.amps, np.exp(0.5j) * st.amps)


def test_fidelity_examples():
    st = simulate.vertex_state(6, 2)
    assert simulate.fidelity(st, 2) == pytest.approx(1.0)
    uniform = simulate.uniform_state(6)
    assert simulate.fidelity(uniform, 2) == pytest.approx(1 / 6)
    assert simulate.fidelity(uniform, uniform) == pytest.approx(1.0)
    with pytest.raises(SimulationError, match="dimension"):
        simulate.fidelity(st, simulate.uniform_state(5))


def test_measure_distribution_uniform():
    probs = simulate.measure_distribution(simulate.uniform_state(9))
    assert np.allclose(probs, 1 / 9, atol=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)


def test_state_csv():
    csv = simulate.state_to_csv(simulate.vertex_state(3, 1))
    lines = csv.strip().splitlines()
    assert lines[0] == "index,re,im,probability"
    assert lines[2].startswith("1,1,")
    assert len(lines) == 4


def test_dimension_mismatch_errors(c4_spec):
    st = simulate.uniform_state(5)
    with pytest.raises(SimulationError, match="dimension"):
        simulate.apply_walk_phase(st, c4_spec, 1.0)
    with pytest.raises(SimulationError, match="dimension"):
        simulate.run_schedule(st, schedule.Schedule(), c4_spec)


def test_state_and_ancilla_errors(c4_spec):
    with pytest.raises(SimulationError, match="matches neither"):
        simulate.StateVector(np.full(3, 1 / math.sqrt(3), dtype=complex), 2)
    with pytest.raises(SimulationError, match="norm defect"):
        simulate.from_amplitudes(np.ones(4))
    st = simulate.uniform_state(4)
    with pytest.raises(SimulationError, match="requires an attached ancilla"):
        simulate.apply_ancilla_hadamard(st)
    with pytest.raises(SimulationError, match="requires an attached ancilla"):
        simulate.apply_ancilla_phase(st, 0.3)
    with pytest.raises(SimulationError, match="controlled walk requires an attached ancilla"):
        simulate.apply_walk_phase(st, c4_spec, 0.3, controlled=True)
    ancilla_one = simulate.from_amplitudes(np.array([0, 0, 1, 0]), n=2)
    with pytest.raises(SimulationError, match="no amplitude left"):
        simulate.fidelity(ancilla_one, 0)


# ---------------------------------------------------------------------------
# Stage-tree executor against the flat fused executor
# ---------------------------------------------------------------------------

def flat_copy(sched):
    """The same schedule as flat ops with the same metadata, so
    ``run_schedule`` takes the flat fused executor."""
    return schedule.Schedule(
        ops=sched.ops, direction=sched.direction, hamiltonian=sched.hamiltonian,
        stage_boundaries=sched.stage_boundaries, stage_levels=sched.stage_levels,
        global_phase=sched.global_phase, total_time=sched.total_time,
        oracle_count=sched.oracle_count,
    )


def run_with_stages(state, sched, spec, m):
    stages = []
    out = simulate.run_schedule(
        state, sched, spec, m, on_stage=lambda i, s: stages.append((i, s))
    )
    return out, stages


def assert_executors_agree(state, tree, spec, m):
    flat = flat_copy(tree)
    assert not flat.stages
    got, got_stages = run_with_stages(state, tree, spec, m)
    want, want_stages = run_with_stages(state, flat, spec, m)
    assert got.has_ancilla == want.has_ancilla == state.has_ancilla
    assert np.max(np.abs(got.amps - want.amps)) < 1e-12
    assert [i for i, _ in got_stages] == [i for i, _ in want_stages]
    assert len(got_stages) == len(tree.stages)
    for (_, a), (_, b) in zip(got_stages, want_stages):
        assert a.has_ancilla == b.has_ancilla
        assert np.max(np.abs(a.amps - b.amps)) < 1e-12
    return got


def test_stage_executor_sampling_and_daggers(sampling_suite):
    for g in sampling_suite:
        ctx = pipelines.prepare(g)
        for m in (0, g.n - 1):
            tree = pipelines.sampling_schedule(ctx, m)
            assert tree.stages
            assert_executors_agree(simulate.vertex_state(g.n, m), tree, ctx.spectrum, m)
            assert_executors_agree(
                simulate.uniform_state(g.n), schedule.dagger(tree), ctx.spectrum, m
            )


def test_stage_executor_transitive_search(search_suite):
    for g in search_suite:
        ctx = pipelines.prepare(g)
        tree = pipelines.transitive_search_schedule(ctx)
        assert tree.stages and tree.direction == "reversed"
        out = assert_executors_agree(simulate.uniform_state(g.n), tree, ctx.spectrum, 1)
        assert simulate.fidelity(out, 1) > 1 - 1e-10


def test_stage_executor_transfer_composition():
    g = graph.johnson(6, 2)
    ctx = pipelines.prepare(g)
    u, v = 0, g.n - 1
    sched_u = pipelines.sampling_schedule(ctx, u)
    back_v = schedule.dagger(pipelines.sampling_schedule(ctx, v))
    mid = assert_executors_agree(simulate.vertex_state(g.n, u), sched_u, ctx.spectrum, u)
    out = assert_executors_agree(mid, back_v, ctx.spectrum, v)
    assert simulate.fidelity(out, v) > 1 - 1e-10


@pytest.mark.parametrize("n1,n2", [(4, 7), (1, 5)])
def test_stage_executor_bipartite_branches(n1, n2):
    ctx = pipelines.prepare_bipartite(n1, n2)
    n, m = ctx.graph.n, n1 + 1
    starts = ((0, n1), (n1, n))
    for (start, stop), branch in zip(starts, ctx.branches):
        # a size-1 block gives an empty branch, which has no stages
        assert bool(branch.stages) == (stop - start > 1)
        state = simulate.block_uniform_state(n, start, stop)
        assert_executors_agree(state, branch, ctx.spectrum, m)


def test_stage_executor_skipped_first_stage():
    star = graph.complete_bipartite(1, 3)
    ctx = pipelines.prepare(star)
    tree = pipelines.sampling_schedule(ctx, 0)
    assert [st.level for st in tree.stages] == [1]
    out = assert_executors_agree(simulate.vertex_state(star.n, 0), tree, ctx.spectrum, 0)
    assert simulate.fidelity(out, simulate.uniform_state(star.n)) > 1 - 1e-10
    assert_executors_agree(simulate.uniform_state(star.n), schedule.dagger(tree),
                           ctx.spectrum, 0)


def test_stage_executor_zero_stages():
    ctx = pipelines.prepare(graph.single_vertex())
    tree = pipelines.sampling_schedule(ctx, 0)
    assert tree.stages == () and tree.ops == ()
    out = assert_executors_agree(simulate.vertex_state(1, 0), tree, ctx.spectrum, 0)
    assert not out.has_ancilla


def test_stage_executor_keeps_incoming_ancilla():
    g = graph.rook(3, 3)
    ctx = pipelines.prepare(g)
    tree = pipelines.sampling_schedule(ctx, 4)
    state = simulate.attach_ancilla(simulate.from_amplitudes(random_state(g.n, 11)))
    for sched in (tree, schedule.dagger(tree)):
        assert assert_executors_agree(state, sched, ctx.spectrum, 4).has_ancilla


def test_stage_executor_marked_vertex_errors(c4_spec, c4):
    tree = pipelines.sampling_schedule(pipelines.prepare(c4), 0)
    with pytest.raises(SimulationError, match="marked"):
        simulate.run_schedule(simulate.vertex_state(4, 0), tree, c4_spec)
    with pytest.raises(SimulationError, match="out of range"):
        simulate.run_schedule(simulate.vertex_state(4, 0), tree, c4_spec, 4)
