import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from qwalk import depth, graph, pipelines, schedule, simulate, spectral
from qwalk.errors import SimulationError

from conftest import eigenbasis, group_runs


@pytest.fixture
def c4_spec(c4):
    return spectral.eigendecompose(graph.laplacian(c4))


def c4_level_pairs(c4_spec, vertex=0):
    ints = spectral.validate_integer_spectrum(c4_spec)
    chain = depth.build_depth_chain(ints)
    return chain, depth.level_states(chain, c4_spec.eigenvectors[vertex])


def to_vertex_space(spec, coeffs):
    return spec.eigenvectors @ coeffs


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    return amps / np.linalg.norm(amps)


def run_tree(blocks, sched, values, rows, on_stage=None):
    """``simulate.run_stages`` on the tree of sched compiled for the call."""
    plan = simulate.compile_stages(sched.stages, values)
    return simulate.run_stages(blocks, sched, plan, rows, on_stage)


def one_stage(walk_time, kick=1.0):
    """A hand-built one-stage tree on level 0."""
    params = schedule.stage_params(0.5)
    return schedule.Schedule((schedule.Stage(0, walk_time, kick, params),))


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


@pytest.fixture(params=["c4", "rook33", "bipartite47"])
def schedule_case(request, c4):
    # rook(3,3) has degenerate eigenspaces, so its basis is solver-chosen;
    # the bipartite context runs its branches on the adjacency spectrum
    if request.param == "bipartite47":
        ctx = pipelines.prepare_bipartite(graph.complete_bipartite(4, 7))
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
    return ctx, m, cases + [(ancilla_in, cases[0][1])]


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
    # the executor keeps the gate at the end of a schedule: a walk time of
    # 0.3 is no reflection on C4, so the kickback leaves the ancilla entangled
    sched = one_stage(0.3)
    with pytest.raises(SimulationError, match="entangled"):
        simulate.run_schedule(simulate.vertex_state(4, 0), sched, c4_spec, 0)


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
    sched = one_stage(math.pi / 2)
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
        out = simulate.run_schedule(state, sched, eigenbasis(ctx), m)
        ref, _ = op_by_op(state, sched, eigenbasis(ctx), m)
        assert out.has_ancilla == state.has_ancilla == ref.has_ancilla
        assert np.max(np.abs(out.amps - ref.amps)) < 1e-12


def test_run_schedule_stage_states_match_op_by_op(schedule_case):
    ctx, m, cases = schedule_case
    for state, sched in cases:
        stages = []
        simulate.run_schedule(
            state, sched, eigenbasis(ctx), m, on_stage=lambda i, s: stages.append((i, s))
        )
        _, ref = op_by_op(state, sched, eigenbasis(ctx), m)
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
# Stage-tree executor against the op-by-op reference
# ---------------------------------------------------------------------------

def run_with_stages(state, sched, spec, m):
    stages = []
    out = simulate.run_schedule(
        state, sched, spec, m, on_stage=lambda i, s: stages.append((i, s))
    )
    return out, stages


def assert_executors_agree(state, tree, spec, m):
    got, got_stages = run_with_stages(state, tree, spec, m)
    want, want_stages = op_by_op(state, tree, spec, m)
    assert got.has_ancilla == want.has_ancilla == state.has_ancilla
    assert np.max(np.abs(got.amps - want.amps)) < 1e-12
    assert [i for i, _ in got_stages] == list(range(len(tree.stages)))
    for (_, a), b in zip(got_stages, want_stages, strict=True):
        assert a.has_ancilla == b.has_ancilla
        assert np.max(np.abs(a.amps - b.amps)) < 1e-12
    return got


def test_stage_executor_sampling_and_daggers(sampling_suite):
    for g in sampling_suite:
        ctx = pipelines.prepare(g)
        for m in (0, g.n - 1):
            tree = pipelines.sampling_schedule(ctx, m)
            assert tree.stages
            assert_executors_agree(simulate.vertex_state(g.n, m), tree, eigenbasis(ctx), m)
            assert_executors_agree(
                simulate.uniform_state(g.n), schedule.dagger(tree), eigenbasis(ctx), m
            )


def test_stage_executor_transitive_search(search_suite):
    for g in search_suite:
        ctx = pipelines.prepare(g)
        tree = pipelines.transitive_search_schedule(ctx)
        assert tree.stages and tree.direction == "reversed"
        out = assert_executors_agree(simulate.uniform_state(g.n), tree, eigenbasis(ctx), 1)
        assert simulate.fidelity(out, 1) > 1 - 1e-10


def test_stage_executor_transfer_composition():
    g = graph.johnson(6, 2)
    ctx = pipelines.prepare(g)
    u, v = 0, g.n - 1
    sched_u = pipelines.sampling_schedule(ctx, u)
    back_v = schedule.dagger(pipelines.sampling_schedule(ctx, v))
    mid = assert_executors_agree(simulate.vertex_state(g.n, u), sched_u, eigenbasis(ctx), u)
    out = assert_executors_agree(mid, back_v, eigenbasis(ctx), v)
    assert simulate.fidelity(out, v) > 1 - 1e-10


@pytest.mark.parametrize("n1,n2", [(4, 7), (1, 5)])
def test_stage_executor_bipartite_branches(n1, n2):
    ctx = pipelines.prepare_bipartite(graph.complete_bipartite(n1, n2))
    n, m = ctx.graph.n, n1 + 1
    starts = ((0, n1), (n1, n))
    for (start, stop), branch in zip(starts, ctx.branches):
        # a size-1 block gives an empty branch, which has no stages
        assert bool(branch.stages) == (stop - start > 1)
        state = simulate.block_uniform_state(n, start, stop)
        assert_executors_agree(state, branch, eigenbasis(ctx), m)


def test_stage_executor_skipped_first_stage():
    star = graph.complete_bipartite(1, 3)
    ctx = pipelines.prepare(star)
    tree = pipelines.sampling_schedule(ctx, 0)
    assert [st.level for st in tree.stages] == [1]
    out = assert_executors_agree(simulate.vertex_state(star.n, 0), tree, eigenbasis(ctx), 0)
    assert simulate.fidelity(out, simulate.uniform_state(star.n)) > 1 - 1e-10
    assert_executors_agree(simulate.uniform_state(star.n), schedule.dagger(tree),
                           eigenbasis(ctx), 0)


def test_stage_executor_zero_stages():
    ctx = pipelines.prepare(graph.single_vertex())
    tree = pipelines.sampling_schedule(ctx, 0)
    assert tree.stages == () and tree.ops == ()
    out = assert_executors_agree(simulate.vertex_state(1, 0), tree, eigenbasis(ctx), 0)
    assert not out.has_ancilla


def test_stage_executor_keeps_incoming_ancilla():
    g = graph.rook(3, 3)
    ctx = pipelines.prepare(g)
    tree = pipelines.sampling_schedule(ctx, 4)
    state = simulate.attach_ancilla(simulate.from_amplitudes(random_state(g.n, 11)))
    for sched in (tree, schedule.dagger(tree)):
        assert assert_executors_agree(state, sched, eigenbasis(ctx), 4).has_ancilla


def test_stage_executor_marked_vertex_errors(c4_spec, c4):
    tree = pipelines.sampling_schedule(pipelines.prepare(c4), 0)
    with pytest.raises(SimulationError, match="marked"):
        simulate.run_schedule(simulate.vertex_state(4, 0), tree, c4_spec)
    with pytest.raises(SimulationError, match="out of range"):
        simulate.run_schedule(simulate.vertex_state(4, 0), tree, c4_spec, 4)


# ---------------------------------------------------------------------------
# Vertex frames: the pipelines' executor against run_schedule and op by op
# ---------------------------------------------------------------------------

#: (sample and search vertices, transfer pairs); K(2,3) pairs lie within
#: block {0, 1}, within block {2, 3, 4} and across; the centre 0 of K(1,3)
#: keeps fewer eigenspaces than a leaf; every case has a pair u = v
FRAME_CASES = {
    "rook33": ((0, 4, 8), ((0, 8), (4, 1), (4, 4))),
    "k4_minus_edge": ((0, 2, 3), ((0, 1), (2, 3), (0, 2), (2, 2))),
    "k23": ((0, 1, 2, 4), ((0, 1), (2, 4), (0, 4), (3, 1), (0, 0))),
    "k13": ((0, 1, 3), ((0, 2), (3, 0), (0, 0), (1, 1))),
    "chang": ((0, 13, 27), ((0, 27), (5, 6), (13, 13))),
    "hamming102": ((0, 1000), ((0, 1023), (7, 300), (7, 7))),
}


@pytest.fixture(params=list(FRAME_CASES))
def frame_case(request, k4_minus_edge, chang_graphs):
    g = {
        "rook33": lambda: graph.rook(3, 3),
        "k4_minus_edge": lambda: k4_minus_edge,
        "k23": lambda: graph.complete_bipartite(2, 3),
        "k13": lambda: graph.complete_bipartite(1, 3),
        "chang": lambda: chang_graphs["C8"],
        "hamming102": lambda: graph.hamming(10, 2),
    }[request.param]()
    # the op-by-op reference makes two N x N products per op
    return pipelines.prepare(g), *FRAME_CASES[request.param], g.n <= 64


def frame_basis(spec, m):
    """Vertex m's frame vectors as vertex-basis columns, with its frame
    coordinates: column g is E_g|m> over its norm coords[g], or 0 where
    coords[g] is 0."""
    v, coords = spec.eigenvectors, simulate.frame_coords(spec.masses[[m]])[0]
    columns = [v[:, run] @ v[m, run] / c if c else np.zeros(len(v))
               for run, c in zip(group_runs(spec), coords)]
    return np.array(columns).T, coords


def branch_starts(ctx, vertices, coords):
    """Each branch's start in the frames of vertices (``frame_starts``),
    with the ancilla |0> block and the |1> block."""
    return [np.stack([x, 0 * x], axis=1)
            for x in ctx.frame_starts(np.asarray(vertices), coords)]


def run_branches(ctx, m):
    """Every branch run in the frame of the one vertex m, from its start
    there, as ``pipelines._search_sweep`` runs it, and lifted: each
    branch's (2, N) amplitudes."""
    vertices = np.array([m])
    coords = simulate.frame_coords(ctx.masses(vertices))
    spec = eigenbasis(ctx)
    return [simulate.lift(spec.eigenvectors, spec.multiplicities, vertices, coords,
                          run_tree(blocks, sched, ctx.values, coords))[0]
            for blocks, sched in zip(branch_starts(ctx, vertices, coords), ctx.branches)]


def dense_gram(spec, u, v):
    """(E_g)_uv for every eigenspace g, from the dense projectors."""
    vectors = spec.eigenvectors
    return np.array([(vectors[:, run] @ vectors[v, run])[u] for run in group_runs(spec)])


def assert_close(a, b):
    assert np.max(np.abs(np.asarray(a) - np.asarray(b))) < 1e-12


def test_vertex_frame_is_orthonormal_and_holds_its_vertices(frame_case):
    # every vertex the case samples, searches or transfers from or to; a
    # frame has one coordinate per eigenspace, orthonormal where the vertex
    # has mass, and a pair's Gram entries are the inner products of its
    # frames' vectors
    ctx, vertices, pairs, _ = frame_case
    spec = eigenbasis(ctx)
    groups = len(spec.values)
    for m in {*vertices, *np.ravel(pairs).tolist()}:
        basis, coords = frame_basis(spec, m)
        assert coords.shape == (groups,)
        assert_close(basis.T @ basis, np.diag(coords > 0))
        assert_close(basis @ coords, np.eye(ctx.graph.n)[m])
    for u, v in pairs:
        gram = spectral.group_sums(spec, spec.eigenvectors[u] * spec.eigenvectors[v])
        assert_close(gram, dense_gram(spec, u, v))
        assert_close(ctx.gram(np.array(u), np.array(v)), gram)  # the context's own read
        (bu, cu), (bv, cv) = frame_basis(spec, u), frame_basis(spec, v)
        assert_close(gram, cu * cv * (bu * bv).sum(axis=0))


def test_frame_coords_are_exactly_zero_off_a_vertexs_eigenspaces():
    # the centre 0 of K(1,3) has no Laplacian mass on eigenvalue 1; K(2,3)
    # has eigenspaces 0, 2 (on block {2,3,4}, dimension 2), 3 (on block
    # {0,1}, dimension 1) and 5 (dimension 1).  A coordinate off a vertex's
    # eigenspaces is exactly 0.0 and stays so at every stage of a forward
    # sampling run and of a reversed branch, beside rows that keep it
    for g, kept in [(graph.complete_bipartite(1, 3), [[0, 4]] + [[0, 1, 4]] * 3),
                    (graph.complete_bipartite(2, 3), [[0, 3, 5]] * 2 + [[0, 2, 5]] * 3)]:
        ctx = pipelines.prepare(g)
        vertices, values = range(g.n), ctx.values
        coords = simulate.frame_coords(ctx.masses(vertices))
        zero = coords == 0.0
        for row, held in zip(coords, kept):
            assert np.allclose(values[row > 0], held, atol=1e-9)
        schedules = [pipelines.sampling_schedule(ctx, m) for m in vertices]
        # the same rows on both kernels: as they are, in batches narrow
        # enough for dense stage matrices, and 64 copies, too wide for them
        entries = (2 * coords.shape[1]) ** 2
        for copies, dense in ((1, True), (64, False)):
            rows = np.tile(np.arange(g.n), copies)
            _, finals, passes = pipelines._sample_pass(ctx, [schedules[m] for m in rows], rows)
            assert np.all(finals[zero[rows]] == 0.0)
            for ids, x, ends in passes:
                assert (len(ids) * entries <= simulate._DENSE_ENTRIES) == dense
                held = zero[rows[ids]]
                assert np.all(x[held] == 0.0) and np.all(ends[:, held] == 0.0)
            assert (len(rows) * entries <= simulate._DENSE_ENTRIES) == dense
            for blocks, sched in zip(branch_starts(ctx, rows, coords[rows]), ctx.branches):
                stages = []
                end = run_tree(blocks, sched, values, coords[rows],
                               lambda _, blocks: stages.append(blocks))
                for blocks in [*stages, end]:
                    assert np.all(blocks.transpose(1, 0, 2)[:, zero[rows]] == 0.0)


def test_gram_entries_vanish_off_shared_eigenspaces():
    # K(2,3): a pair's Gram entry vanishes on every eigenspace either vertex
    # has no mass on; a vertex out of range is refused by name
    ctx = pipelines.prepare(graph.complete_bipartite(2, 3))
    spec = eigenbasis(ctx)
    for (u, v), nonzero in [((0, 1), [0, 3, 5]), ((2, 4), [0, 2, 5]), ((0, 4), [0, 5])]:
        gram = spectral.group_sums(spec, spec.eigenvectors[u] * spec.eigenvectors[v])
        held = [x for x, entry in zip(spec.values, gram) if abs(entry) > 1e-9]
        assert np.allclose(held, nonzero, atol=1e-9)
    for vertices in ([5], [0, 5], [0, -1]):
        bad = [v for v in vertices if not 0 <= v < 5][0]
        with pytest.raises(SimulationError, match=f"marked vertex {bad} out of range for n=5"):
            ctx.masses(vertices)


def test_run_stages_mixes_frames_that_keep_different_eigenspaces():
    # one batch runs the centre of K(1,3), whose coordinate on eigenvalue 1
    # is 0, beside its leaves under each search branch; every row reads
    # what it reads run alone, and a batch's coordinates are the one-row ones
    ctx = pipelines.prepare(graph.complete_bipartite(1, 3))
    values, coords = ctx.values, simulate.frame_coords(ctx.masses([1, 0, 3, 2]))
    assert (coords[1] == 0.0).sum() == 1 and np.all(coords[[0, 2, 3]] > 0)
    for i, v in enumerate([1, 0, 3, 2]):
        assert np.array_equal(coords[i], simulate.frame_coords(ctx.masses([v]))[0])
    for blocks, sched in zip(branch_starts(ctx, [1, 0, 3, 2], coords), ctx.branches):
        batch = run_tree(blocks, sched, values, coords)
        for i in range(4):
            alone = run_tree(blocks[i:i + 1], sched, values, coords[i:i + 1])
            assert_close(batch[i], alone[0])


#: graphs whose rows run in one batch too wide for the dense stage
#: matrices, with the copies of every vertex that make it so: hamming(8,2)
#: as a whole, K4 - e with its two class schedules and K(1,3), whose
#: centre has a zero coordinate
KERNEL_CASES = {
    "hamming82": (lambda: graph.hamming(8, 2), 1),
    "k4_minus_edge": (lambda: graph.load_edge_list("0 2\n0 3\n1 2\n1 3\n2 3\n"), 64),
    "k13": (lambda: graph.complete_bipartite(1, 3), 64),
}


def kernel_runs(name):
    """(values, schedule, blocks, rows) of each executor pass of a
    ``KERNEL_CASES`` graph: forward sampling from every row, one pass per
    class schedule, and every reversed search branch, on the route
    ``search_route`` picks, towards every row."""
    make, copies = KERNEL_CASES[name]
    g = make()
    ctx = pipelines.prepare(g)
    _, sctx = pipelines.search_route(g, ctx=ctx)
    vertices = np.tile(np.arange(g.n), copies)
    coords, runs = simulate.frame_coords(ctx.masses(vertices)), []
    for c, forward in enumerate(ctx.class_schedules):
        ids = np.flatnonzero(ctx.vertex_classes[vertices] == c)
        runs.append((ctx.values, forward, coords[ids, None], coords[ids]))
    coords = simulate.frame_coords(sctx.masses(vertices))
    for blocks, branch in zip(branch_starts(sctx, vertices, coords), sctx.branches):
        runs.append((sctx.values, branch, blocks, coords))
    return runs


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_per_coordinate_batch_matches_its_rows_run_alone(name):
    # the batch is too wide for dense stage matrices and each row alone
    # narrow enough: every row's final state and every on_stage block agree
    directions = set()
    for values, sched, blocks, rows in kernel_runs(name):
        entries = (2 * blocks.shape[2]) ** 2
        assert entries <= simulate._DENSE_ENTRIES < len(blocks) * entries
        directions.add(sched.direction)
        stages = []
        batch = run_tree(blocks, sched, values, rows,
                         lambda _, b: stages.append(b))
        assert len(stages) == len(sched.stages)
        for i in range(len(blocks)):
            alone = []
            end = run_tree(blocks[i:i + 1], sched, values,
                           rows[i:i + 1], lambda _, b: alone.append(b[0]))
            assert_close(batch[i], end[0])
            for got, want in zip(stages, alone, strict=True):
                assert_close(got[i], want)
    assert directions == {"forward", "reversed"}


def stage_matrices(sched, values, rows):
    """T_k, ``simulate._stage_matrix``, of every stage k of the tree on
    each row, from the row's pair w_a = U|a, m> at the stage's start: the
    blocks |a> (x) |m> after the earlier stages of the forward tree."""
    forward = schedule.dagger(sched) if sched.direction == "reversed" else sched
    pairs = [[], []]
    for a in (0, 1):
        blocks = np.zeros((len(rows), 2, rows.shape[1]), dtype=complex)
        blocks[:, a] = rows
        pairs[a] = [blocks]
        run_tree(blocks, forward, values, rows,
                 lambda _, b, a=a: pairs[a].append(b))
    plan = simulate.compile_stages(forward.stages, values)
    return [simulate._stage_matrix(plan.kicks[k], np.stack([pairs[0][k], pairs[1][k]], axis=1),
                                   plan.gains[k])
            for k in range(len(forward.stages))]


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_stage_matrices_are_unitary_and_runs_apply_them(name):
    # T_k is unitary, and on both kernels (the wide batch and its first
    # row alone) forward stage k is T_k^p and reversed stage k is
    # (T_k^dagger)^p, on the pairs of the forward tree
    for values, sched, blocks, rows in kernel_runs(name):
        for batch in (slice(None), slice(0, 1)):
            x, coords = blocks[batch], rows[batch]
            matrices = stage_matrices(sched, values, coords)
            reverse = sched.direction == "reversed"
            order = range(len(matrices))[::-1] if reverse else range(len(matrices))
            x = np.concatenate([x, np.zeros_like(x)], axis=1) if x.shape[1] == 1 else x
            stages = []
            run_tree(x, sched, values, coords, lambda _, b: stages.append(b))
            for k, after in zip(order, stages):
                t = matrices[k]
                assert np.max(np.abs(t @ t.conj().transpose(0, 2, 1) - np.eye(t.shape[1]))) < 1e-13
                step = t.conj().transpose(0, 2, 1) if reverse else t
                y = x.reshape(len(x), 1, -1)
                for _ in range(sched.stages[k].params.iterations):
                    y = y @ step
                assert_close(after, y.reshape(x.shape))
                x = after


def test_run_schedule_keeps_its_n_x_n_frame_off_the_dense_form():
    # run_schedule's frame is the full eigenbasis, r = N: its stage
    # matrices would take (2N)^2 entries each, 32 MiB at N = 256
    ctx = pipelines.prepare(graph.hamming(8, 2))
    tree, spec = pipelines.sampling_schedule(ctx, 3), eigenbasis(ctx)  # decomposed before tracing
    start = simulate.vertex_state(256, 3)
    tracemalloc.start()
    try:
        out = simulate.run_schedule(start, tree, spec, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert simulate.fidelity(out, simulate.uniform_state(256)) > 1 - 1e-10


def test_frame_sample_matches_run_schedule_and_op_by_op(frame_case):
    ctx, vertices, _, op_by_op_too = frame_case
    spec, n = eigenbasis(ctx), ctx.graph.n
    for m in vertices:
        sched = pipelines.sampling_schedule(ctx, m)
        basis, coords = frame_basis(spec, m)
        got = run_tree(coords[None, None], sched, np.array(spec.values), coords[None])
        lifted = simulate.lift(spec.eigenvectors, spec.multiplicities, [m], coords[None], got)[0, 0]
        assert_close(lifted, basis @ got[0, 0])

        pairs = depth.level_states(ctx.chain, spec.eigenvectors[m])
        stage_fids = []

        def check(i, state):
            target = spec.eigenvectors @ pairs[sched.stage_levels[i] + 1].kept
            stage_fids.append(simulate.fidelity(state, target))

        ref = simulate.run_schedule(simulate.vertex_state(n, m), sched, spec, m, on_stage=check)
        assert_close(lifted, ref.amps)
        report = pipelines.execute_sample(ctx, sched, m)
        assert_close(report.stage_fidelities, stage_fids)
        assert_close(report.fidelity, simulate.fidelity(ref, simulate.uniform_state(n)))
        if op_by_op_too:
            assert_close(lifted, op_by_op(simulate.vertex_state(n, m), sched, spec, m)[0].amps)


def test_frame_transfer_matches_run_schedule_and_op_by_op(frame_case):
    # the pipeline reads transfer off two forward frame runs; the dense
    # reference runs F_u, then dagger(F_v), and so does the op-by-op one
    ctx, _, pairs, op_by_op_too = frame_case
    spec, n = eigenbasis(ctx), ctx.graph.n
    for u, v in pairs:
        fwd, back = pipelines.sampling_schedule(ctx, u), pipelines.sampling_schedule(ctx, v)
        back = schedule.dagger(back)
        ref = simulate.run_schedule(simulate.vertex_state(n, u), fwd, spec, u)
        ref = simulate.run_schedule(ref, back, spec, v)
        report = pipelines.transfer(ctx.graph, u, v, ctx=ctx)
        assert (report.marked, report.target) == (u, v)
        assert_close(report.fidelity, simulate.fidelity(ref, v))
        if op_by_op_too:
            mid = op_by_op(simulate.vertex_state(n, u), fwd, spec, u)[0]
            assert_close(ref.amps, op_by_op(mid, back, spec, v)[0].amps)


def test_transfer_of_missed_samples_matches_run_schedule(k4_minus_edge):
    # K4 - e: each vertex runs the schedule of a vertex in the other mass
    # class and misses the uniform state, so both runs of every transfer
    # keep mass beyond eigenvalue 0, its fidelity reads below 1 and every
    # factor of the Gram-weighted inner product shows
    ctx = pipelines.prepare(k4_minus_edge)
    spec, n = eigenbasis(ctx), ctx.graph.n
    schedules = [pipelines.sampling_schedule(ctx, m) for m in (2, 3, 0, 1)]
    _, finals = pipelines._sample_sweep(ctx, schedules, range(n))
    pairs = [(u, v) for u in range(n) for v in range(n)]
    reports = pipelines._transfer_sweep(ctx, range(n), schedules, finals, pairs)
    for (u, v), report in zip(pairs, reports):
        ref = simulate.run_schedule(simulate.vertex_state(n, u), schedules[u], spec, u)
        ref = simulate.run_schedule(ref, schedule.dagger(schedules[v]), spec, v)
        assert_close(report.fidelity, simulate.fidelity(ref, v))
    assert min(r.fidelity for r in reports) < 0.9


def test_frame_search_matches_run_schedule_and_op_by_op(frame_case):
    # every branch, the ancilla carried; K4 - e and K(2,3) have two classes
    ctx, vertices, _, op_by_op_too = frame_case
    spec, n = eigenbasis(ctx), ctx.graph.n
    start = simulate.attach_ancilla(simulate.uniform_state(n))
    for m in vertices:
        expected = []
        for got, sched in zip(run_branches(ctx, m), ctx.branches):
            got = got.ravel()
            ref = simulate.run_schedule(start, sched, spec, m)
            assert_close(got, ref.amps)
            if op_by_op_too:
                assert_close(got, op_by_op(start, sched, spec, m)[0].amps)
            probs = (np.abs(ref.amps.reshape(2, n)) ** 2).sum(axis=0)
            candidate = pipelines._most_probable(probs)
            expected.append((candidate, probs[candidate]))
        report = pipelines.execute_search(ctx, ctx.branches, m)
        if report.branches:
            assert_close([(b.candidate, b.fidelity) for b in report.branches], expected)
        assert report.target == m
        assert_close(report.fidelity, next(f for c, f in expected if c == m and f > 1 - 1e-8))


BIPARTITE_GRAPHS = {
    "k13": lambda: graph.complete_bipartite(1, 3),
    "k23": lambda: graph.complete_bipartite(2, 3),
    "k47": lambda: graph.complete_bipartite(4, 7),
    "k23_relabelled": lambda: graph.load_edge_list("0 1\n0 3\n0 4\n2 1\n2 3\n2 4\n"),
    "path3": lambda: graph.load_edge_list("0 1\n1 2\n"),
}

#: Laplacian graphs with more than one mass class; under the oracle on
#: vertex 5 one branch of "leaking" ends with 0.709 of its mass on ancilla |1>
CLASS_GRAPHS = {
    "k4_minus_edge": lambda: graph.load_edge_list("0 2\n0 3\n1 2\n1 3\n2 3\n"),
    "leaking": lambda: graph.load_edge_list("0 1\n0 2\n0 3\n0 4\n0 5\n1 2\n1 3\n2 3\n"),
}


MASS_TABLE_CASES = {
    "hamming(4,2)": lambda: graph.laplacian(graph.hamming(4, 2)),
    "complete_square(4)": lambda: graph.laplacian(graph.complete_square(4)),
    **{name: lambda make=make: graph.laplacian(make()) for name, make in CLASS_GRAPHS.items()},
    "adjacency K(1,3)": lambda: graph.adjacency(graph.complete_bipartite(1, 3)),
    "adjacency K(40,60)": lambda: graph.adjacency(graph.complete_bipartite(40, 60)),
}


@pytest.mark.parametrize("name", MASS_TABLE_CASES)
def test_mass_table_is_the_read_only_row_sums(name):
    # eigendecompose tabulates every vertex's masses once; row m is the
    # group sums of m's squared eigenvector row, bit for bit, and frames
    # read it
    spec = spectral.eigendecompose(MASS_TABLE_CASES[name]())
    assert spec.masses.shape == (spec.n, len(spec.values))
    with pytest.raises(ValueError, match="read-only"):
        spec.masses[0, 0] = 0.0
    for m, row in enumerate(spec.eigenvectors):
        assert np.array_equal(spec.masses[m], spectral.group_sums(spec, row * row))
    coords = simulate.frame_coords(spec.masses)
    assert np.array_equal(coords == 0.0, spec.masses <= depth.SKIP_MASS_TOL)
    if name == "adjacency K(1,3)":
        # the centre has no mass on the eigenvalue-0 eigenspace
        assert np.allclose(spec.values, [-math.sqrt(3), 0.0, math.sqrt(3)])
        assert coords[0, 1] == 0.0 and np.all(coords[1:] > 0)


def test_eigenvalue_only_spectrum_has_no_mass_table():
    spec = spectral.graph_integer_spectrum(CLASS_GRAPHS["k4_minus_edge"]()).base
    assert spec.eigenvectors is None and spec.masses is None
    assert spec.values == pytest.approx((0.0, 2.0, 4.0)) and spec.multiplicities == (1, 1, 2)


@pytest.mark.parametrize("name", [*BIPARTITE_GRAPHS, *CLASS_GRAPHS])
def test_frame_branches_match_run_schedule(name):
    # each branch runs on g's own labels with the ancilla carried; the
    # bipartite reference runs it on the generator-ordered graph, whose
    # blocks are index ranges, and maps back
    if name in CLASS_GRAPHS:
        g = CLASS_GRAPHS[name]()
        ctx = ref_ctx = pipelines.prepare(g)
        position = np.arange(g.n)
        states = [simulate.uniform_state(g.n)] * len(ctx.branches)
    else:
        g = BIPARTITE_GRAPHS[name]()
        ctx = pipelines.prepare_bipartite(g)
        n1 = len(ctx.blocks[0])
        position = np.argsort(ctx.blocks[0] + ctx.blocks[1])  # g's vertex -> generator index
        ref_ctx = pipelines.prepare_bipartite(graph.complete_bipartite(n1, g.n - n1))
        states = [simulate.block_uniform_state(g.n, 0, n1),
                  simulate.block_uniform_state(g.n, n1, g.n)]
    leaks = []
    runs = [run_branches(ctx, m) for m in range(g.n)]
    assert all(len(run) == len(states) for run in runs)
    for side, (branch, state) in enumerate(zip(ctx.branches, states)):
        state = simulate.attach_ancilla(state)
        for m in range(g.n):
            got = runs[m][side]
            ref = simulate.run_schedule(state, branch, ref_ctx.spectrum, position[m])
            assert_close(got.ravel(), ref.amps.reshape(2, g.n)[:, position].ravel())
            leaks.append(np.linalg.norm(ref.amps[g.n:]) ** 2)
    if name == "leaking":
        assert max(leaks) == pytest.approx(0.709, abs=1e-3)


def test_frame_runs_keep_the_norm_check_and_detach_gate():
    ctx = pipelines.prepare(CLASS_GRAPHS["leaking"]())
    coords, values = simulate.frame_coords(ctx.masses([5])), ctx.values
    with pytest.raises(SimulationError, match="norm defect"):
        run_tree(2 * coords[:, None], pipelines.sampling_schedule(ctx, 5),
                 values, coords)
    # the oracle on vertex 5 under vertex 1's schedule leaves the ancilla
    # entangled at the end
    with pytest.raises(SimulationError, match=r"ancilla entangled .* 1\.008e-01"):
        run_tree(coords[:, None], pipelines.sampling_schedule(ctx, 1),
                 values, coords)


def test_frame_pipelines_make_no_dense_products(monkeypatch):
    g = graph.hamming(6, 2)
    ctx = pipelines.prepare(g)
    calls = []
    rotate = simulate._rotate
    monkeypatch.setattr(simulate, "_rotate", lambda *args: calls.append(1) or rotate(*args))
    pipelines.uniform_sample(g, 3, ctx=ctx)
    pipelines.transfer(g, 0, 63, ctx=ctx)
    assert not calls
    assert pipelines.search_vertex_transitive(g, 5, ctx=ctx).target == 5
    assert len(calls) <= 1
    # bipartite search: one lift per branch, and no run_schedule
    monkeypatch.setattr(simulate, "run_schedule", lambda *args, **kw: pytest.fail())
    _, k23 = pipelines.search_route(BIPARTITE_GRAPHS["k23_relabelled"]())
    for search in (lambda m: pipelines.search_bipartite(4, 7, m),
                   lambda m: pipelines.execute_search(k23, k23.branches, m)):
        for m in (0, 3, 4):
            calls.clear()
            assert search(m).target == m
            assert len(calls) <= 2


#: a cograph on 9 vertices with five mass classes, two of which, {1, 2}
#: and {6}, have schedules of the same stage structure ((0, 1), (1, 2))
COGRAPH9 = ("0 1\n0 2\n0 3\n0 4\n0 5\n0 6\n0 7\n0 8\n1 8\n2 8\n3 7\n3 8\n"
            "4 6\n4 7\n4 8\n5 6\n5 7\n5 8\n6 7\n6 8\n7 8\n")


def test_sample_pass_runs_one_pass_per_schedule(monkeypatch):
    # every executor pass runs one schedule: a transfer between classes
    # {1, 2} and {6}, whose schedules share their stage structure, makes
    # two passes, and verify's sampling one per class, five; every
    # sampling row reads what its one-row run reads
    g = graph.load_edge_list(COGRAPH9)
    ctx = pipelines.prepare(g)
    forward = [pipelines.sampling_schedule(ctx, m) for m in range(g.n)]
    assert forward[1] is forward[2] is not forward[6]
    assert [(st.level, st.params.iterations) for st in forward[1].stages] == [
        (st.level, st.params.iterations) for st in forward[6].stages] == [(0, 1), (1, 2)]
    passes, run = [], simulate.run_stages
    monkeypatch.setattr(simulate, "run_stages", lambda blocks, sched, *args: passes.append(
        (sched, len(blocks))) or run(blocks, sched, *args))
    assert pipelines.transfer(g, 1, 6, ctx=ctx).fidelity >= 1 - 1e-8
    assert [(id(s), rows) for s, rows in passes] == [(id(forward[1]), 1), (id(forward[6]), 1)]
    passes.clear()
    result = pipelines.verify_graph(g)
    sampling = [(s, rows) for s, rows in passes if s.direction == "forward"]
    assert len(sampling) == len({id(s) for s, _ in sampling}) == 5
    assert sorted(rows for _, rows in sampling) == [1, 2, 2, 2, 2]
    reports = [r for r in result.reports if r.task == "sample"]
    assert [r.marked for r in reports] == list(range(g.n))
    for m, report in enumerate(reports):
        alone = pipelines.execute_sample(ctx, forward[m], m)
        assert dataclasses.replace(report, fidelity=0.0, stage_fidelities=()) == (
            dataclasses.replace(alone, fidelity=0.0, stage_fidelities=()))
        assert_close([report.fidelity, *report.stage_fidelities],
                     [alone.fidelity, *alone.stage_fidelities])
