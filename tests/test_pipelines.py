import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings

from qwalk import depth, graph, pipelines, schedule, simulate
from qwalk.errors import GraphError, ScheduleError, SimulationError, SpectrumError

from conftest import check_vertex_transitive_bruteforce, connected_cographs

THRESHOLD = 1 - 1e-8


def test_uniform_sample_hamming_2_3_every_vertex():
    g = graph.hamming(2, 3)
    ctx = pipelines.prepare(g)
    for m in range(g.n):
        report = pipelines.uniform_sample(g, m, ctx=ctx)
        assert report.fidelity >= THRESHOLD
        assert all(f >= 1 - 1e-10 for f in report.stage_fidelities)


def test_uniform_sample_single_vertex():
    report = pipelines.uniform_sample(graph.single_vertex(), 0)
    assert report.fidelity == pytest.approx(1.0)
    assert report.oracle_count == 0
    assert report.depth == 0


def test_uniform_sample_c4_cost(c4):
    report = pipelines.uniform_sample(c4, 0)
    assert report.fidelity >= THRESHOLD
    assert report.oracle_count <= 2**report.depth * math.sqrt(c4.n) * math.pi


def test_sample_rejects_non_integer_spectrum():
    with pytest.raises(SpectrumError, match="non-integer"):
        pipelines.uniform_sample(graph.cycle(5), 0)


def test_transfer_same_vertex_is_identity():
    g = graph.rook(2, 3)
    report = pipelines.transfer(g, 4, 4)
    assert report.fidelity >= THRESHOLD


def test_transfer_k2():
    g = graph.johnson(2, 1)
    report = pipelines.transfer(g, 0, 1)
    assert report.fidelity >= THRESHOLD
    assert report.depth == 1


def test_transfer_round_trip_composition():
    g = graph.hamming(2, 2)
    ctx = pipelines.prepare(g)
    u, v = 0, 3
    sched_u = pipelines.sampling_schedule(ctx, u)
    sched_v = pipelines.sampling_schedule(ctx, v)
    state = simulate.vertex_state(g.n, u)
    for fwd, back, a, b in ((sched_u, sched_v, u, v), (sched_v, sched_u, v, u)):
        state = simulate.run_schedule(state, fwd, ctx.spectrum, a)
        state = simulate.run_schedule(state, schedule.dagger(back), ctx.spectrum, b)
    assert simulate.fidelity(state, u) >= 1 - 1e-8


def test_transfer_on_path_graph_vertex_dependent_route():
    # not vertex-transitive: overlaps differ per vertex but transfer still lands
    path3 = graph.load_edge_list("0 1\n1 2\n")
    ctx = pipelines.prepare(path3)
    for u in range(3):
        for v in range(3):
            report = pipelines.transfer(path3, u, v, ctx=ctx)
            assert report.fidelity >= THRESHOLD, (u, v)


def test_search_johnson_all_vertices_same_bytes():
    g = graph.johnson(5, 2)
    ctx = pipelines.prepare(g)
    blobs = set()
    for m in range(g.n):
        report = pipelines.search_vertex_transitive(g, m, ctx=ctx)
        assert report.fidelity >= THRESHOLD
        assert report.target == m
        assert report.search_mode == "blackbox"
        sched = pipelines.transitive_search_schedule(ctx)
        blobs.add(json.dumps(schedule.schedule_to_json_dict(sched), sort_keys=True))
    assert len(blobs) == 1


def test_search_complete_graph_single_stage():
    g = graph.johnson(4, 1)
    ctx = pipelines.prepare(g)
    assert ctx.chain.depth == 1
    overlaps = depth.transitive_overlaps(ctx.chain)
    assert overlaps[0] == pytest.approx(0.5, abs=1e-12)
    assert schedule.stage_params(overlaps[0]).p == 0
    report = pipelines.search_vertex_transitive(g, 2, ctx=ctx)
    assert report.fidelity >= THRESHOLD


def test_oracle_bound_beyond_the_suite():
    # the cap pi * 2^d * sqrt(N) holds per search schedule and per transfer pair
    g = graph.hamming(8, 2)
    ctx = pipelines.prepare(g)
    report = pipelines.search_vertex_transitive(g, 77, ctx=ctx)
    assert report.fidelity >= THRESHOLD
    assert report.oracle_count <= math.pi * 2**ctx.chain.depth * math.sqrt(g.n)
    report = pipelines.transfer(graph.hamming(6, 2), 0, 63)
    assert report.fidelity >= THRESHOLD
    assert report.bound_ratio <= math.pi


def test_large_n_sampling_and_transfer():
    # N = 1024: each op costs O(N) in the eigenbasis, so this stays fast
    g = graph.hamming(10, 2)
    ctx = pipelines.prepare(g)
    cap = math.pi * 2**ctx.chain.depth * math.sqrt(g.n)
    report = pipelines.uniform_sample(g, 5, ctx=ctx)
    assert report.fidelity >= THRESHOLD
    assert all(f >= THRESHOLD for f in report.stage_fidelities)
    assert report.oracle_count <= cap
    report = pipelines.transfer(g, 0, g.n - 1, ctx=ctx)
    assert report.fidelity >= THRESHOLD
    assert report.oracle_count <= cap  # both schedules of the pair


def test_search_hamming_2_2(c4):
    g = graph.hamming(2, 2)
    for m in range(g.n):
        assert pipelines.search_vertex_transitive(g, m).fidelity >= THRESHOLD


def test_search_takes_one_branch_per_mass_class(k4_minus_edge):
    # K4 - e: the degree-2 vertices 0, 1 and the degree-3 vertices 2, 3 form
    # two mass classes; the stored flag is a record, never a route
    flagged = graph.graph_from_edges(4, k4_minus_edge.edges, vertex_transitive="yes")
    for g in (k4_minus_edge, flagged):
        ctx = pipelines.prepare(g)
        assert ctx.mass_classes == (0, 2)
        for m in range(4):
            report = pipelines.search_vertex_transitive(g, m, ctx=ctx)
            assert report.target == m and report.fidelity >= THRESHOLD
            assert report.search_mode == "blackbox"
            assert [b.succeeded for b in report.branches] == [m < 2, m >= 2]
            assert report.oracle_count == sum(b.oracle_count for b in ctx.branches)
        with pytest.raises(ScheduleError, match="takes 2 branches, got 1"):
            pipelines.execute_search(ctx, ctx.branches[:1], 0)
    unflagged = graph.graph_from_edges(9, graph.rook(3, 3).edges, vertex_transitive="no")
    assert pipelines.search_vertex_transitive(unflagged, 4).fidelity >= THRESHOLD


#: complete_bipartite(2, 3) with blocks {0, 2} and {1, 3, 4}
RELABELLED_K23 = graph.load_edge_list("0 1\n0 3\n0 4\n2 1\n2 3\n2 4\n")


def test_bipartite_blocks_from_edges():
    def sizes(g):
        return tuple(map(len, pipelines.bipartite_blocks(g)))

    k47 = pipelines.bipartite_blocks(graph.complete_bipartite(4, 7))
    assert k47 == (tuple(range(4)), tuple(range(4, 11)))
    assert sizes(graph.complete_bipartite(7, 4)) == (7, 4)
    assert sizes(graph.complete_bipartite(1, 3)) == (1, 3)
    assert sizes(graph.hamming(1, 2)) == (1, 1)
    # the blocks come from the edges, whatever the tag says
    untagged = graph.load_edge_list(graph.dump_edge_list(graph.complete_bipartite(2, 3)))
    assert sizes(untagged) == (2, 3)
    missing = graph.graph_from_edges(5, set(untagged.edges) - {(1, 4)})
    assert pipelines.bipartite_blocks(missing) is None
    # and from a 2-colouring, whatever the vertex order: C4 is K(2,2)
    assert pipelines.bipartite_blocks(graph.rook(2, 2)) == ((0, 3), (1, 2))
    assert pipelines.bipartite_blocks(RELABELLED_K23) == ((0, 2), (1, 3, 4))
    assert pipelines.bipartite_blocks(graph.johnson(3, 1)) is None
    assert pipelines.bipartite_blocks(graph.single_vertex()) is None


def test_relabelled_complete_bipartite_routes_bipartite():
    # the branches run in generator order; the report speaks the graph's
    # labels, and a failing branch names the lowest vertex of its block
    route, search = pipelines.search_route(RELABELLED_K23)
    assert route == "bipartite"
    for m in range(5):
        report = search(m)
        reference = pipelines.search_bipartite(2, 3, [0, 2, 1, 3, 4].index(m))
        assert report.target == m
        assert report.fidelity == pytest.approx(reference.fidelity, abs=1e-12)
        assert report.oracle_count == reference.oracle_count
        for branch in report.branches:
            lowest = 0 if branch.side == 1 else 1
            assert branch.candidate == (m if branch.succeeded else lowest)


def test_chang_graphs_search_black_box(chang_graphs):
    # SRG(28,12,6,4) but not vertex-transitive: 4-cliques through a vertex
    # differ between vertices, yet every vertex has the same level masses
    cliques = {"4K2": {32, 36}, "C8": {34, 36}, "C3+C5": {33, 35}}
    for name, g in chang_graphs.items():
        a = graph.adjacency(g)
        through = set()
        for v in range(g.n):
            nb = np.flatnonzero(a[v])
            sub = a[np.ix_(nb, nb)]
            through.add(round(np.trace(sub @ sub @ sub) / 6))
        assert through == cliques[name]
        ctx = pipelines.prepare(g)
        route, search = pipelines.search_route(g, ctx=ctx)
        assert route == "blackbox", name
        assert len(ctx.mass_classes) == 1, name
        for m in range(g.n):
            report = search(m)
            assert report.target == m, (name, m)
            assert report.fidelity >= THRESHOLD, (name, m)
            assert report.bound_ratio <= math.pi, (name, m)
            assert report.search_mode == "blackbox"


def _small_groups():
    """Generating matrices of every group of order <= 8: the cyclic groups,
    Z2^2, Z2 x Z4, Z2^3, S3 and D4 as permutations, Q8 as 2 x 2 complex
    matrices."""
    def perm(n, *cycles):
        m = np.eye(n)
        for c in cycles:
            m[:, list(c)] = m[:, list(c[1:] + c[:1])]
        return m

    groups = [[perm(n, tuple(range(n)))] for n in range(1, 9)]
    groups += [
        [perm(4, (0, 1)), perm(4, (2, 3))],
        [perm(6, (0, 1)), perm(6, (2, 3, 4, 5))],
        [perm(6, (0, 1)), perm(6, (2, 3)), perm(6, (4, 5))],
        [perm(3, (0, 1)), perm(3, (0, 1, 2))],
        [perm(4, (0, 1, 2, 3)), perm(4, (0, 2))],
        [np.array([[1j, 0], [0, -1j]]), np.array([[0, 1], [-1, 0]])],
    ]
    return groups


def _cayley_graphs(gens):
    """Every connected Cayley graph of the group the matrices generate."""
    key = lambda m: tuple(np.round(m, 9).ravel().tolist())
    identity = np.eye(len(gens[0]))
    elements = {key(identity): identity}
    frontier = [identity]
    while frontier:
        frontier = [x @ s for x in frontier for s in gens if key(x @ s) not in elements]
        elements.update((key(x), x) for x in frontier)
    mats = list(elements.values())
    index = {k: i for i, k in enumerate(elements)}
    classes = {frozenset((index[key(x)], index[key(np.linalg.inv(x))])) for x in mats[1:]}
    classes = sorted(sorted(c) for c in classes)
    for r in range(len(classes) + 1):
        for chosen in itertools.combinations(classes, r):
            conn = [mats[i] for c in chosen for i in c]
            edges = {(index[key(x)], index[key(x @ s)]) for x in mats for s in conn}
            try:
                yield graph.graph_from_edges(len(mats), edges)
            except GraphError:  # the connection set does not generate
                continue


def test_vertex_transitive_graphs_route_blackbox():
    # every vertex-transitive graph on at most 8 vertices is a Cayley graph
    # (the smallest that is not is the Petersen graph), so this reaches all
    # of them that have an integer spectrum
    checked = 0
    for gens in _small_groups():
        for g in _cayley_graphs(gens):
            if g.n <= 6:
                assert check_vertex_transitive_bruteforce(g)
            try:
                ctx = pipelines.prepare(g)
            except SpectrumError:
                continue
            assert pipelines.search_route(g, ctx=ctx)[0] == "blackbox", g.edges
            checked += 1
    assert checked > 100
    # an implication, not an iff: path3 is not vertex-transitive, but at
    # depth 1 its level masses are uniform all the same; as K(1,2) it
    # takes the two-branch route first
    path3 = graph.load_edge_list("0 1\n1 2\n")
    assert not check_vertex_transitive_bruteforce(path3)
    assert len(pipelines.prepare(path3).mass_classes) == 1
    assert pipelines.search_route(path3)[0] == "bipartite"


def test_promise_search_on_path_graph():
    # search_promise runs the class route; path3 has one mass class
    path3 = graph.load_edge_list("0 1\n1 2\n")
    for m in range(3):
        report = pipelines.search_promise(path3, m)
        assert report.fidelity >= THRESHOLD
        assert report.target == m
        assert report.search_mode == "blackbox"
        assert report.branches == ()


def test_promise_search_star_center_skips_first_stage():
    # on the Laplacian walk the centre of K(1,3) has no mass on eigenvalue
    # 1, split off at level 0, so its class's branch skips that stage
    star = graph.complete_bipartite(1, 3)
    ctx = pipelines.prepare(star)
    assert ctx.mass_classes == (0, 1)
    assert [b.stage_levels for b in ctx.branches] == [(1,), (1, 0)]
    for m in range(4):
        report = pipelines.search_promise(star, m, ctx=ctx)
        assert report.fidelity >= THRESHOLD and report.target == m
        assert report.search_mode == "blackbox"
        assert [b.succeeded for b in report.branches] == [m == 0, m > 0]


#: K = 3; under the oracle on vertex 5 the branch of vertex 1's class ends
#: with 0.709 of its mass on ancilla |1>
LEAKING = "0 1\n0 2\n0 3\n0 4\n0 5\n1 2\n1 3\n2 3\n"


def six_vertex_spectrum_graphs():
    """The first connected graph, by edge bitmask, of each integer
    Laplacian spectrum on 6 vertices."""
    pairs = list(itertools.combinations(range(6), 2))
    bits = (np.arange(1, 1 << len(pairs))[:, None] >> np.arange(len(pairs))) & 1
    adj = np.zeros((len(bits), 6, 6))
    for k, (u, v) in enumerate(pairs):
        adj[:, u, v] = adj[:, v, u] = bits[:, k]
    values = np.linalg.eigvalsh(adj.sum(axis=2)[:, :, None] * np.eye(6) - adj)
    integral = np.all(np.abs(values - np.round(values)) < 1e-6, axis=1)
    first = {}
    for i in np.flatnonzero(integral & (values[:, 1] > 0.5)):
        key = tuple(np.round(values[i]).astype(int))
        first.setdefault(key, [p for p, bit in zip(pairs, bits[i]) if bit])
    return [graph.graph_from_edges(6, edges) for edges in first.values()]


def test_class_route_finds_every_vertex(k4_minus_edge):
    graphs = six_vertex_spectrum_graphs()
    assert len(graphs) == 37
    k5e = graph.graph_from_edges(5, set(itertools.combinations(range(5), 2)) - {(0, 1)})
    for g in graphs + [k4_minus_edge, k5e]:
        ctx = pipelines.prepare(g)
        cap = math.pi * 2**ctx.chain.depth * math.sqrt(g.n)
        assert all(b.oracle_count <= cap for b in ctx.branches), g.edges
        start = simulate.attach_ancilla(simulate.uniform_state(g.n))
        for m in range(g.n):
            report = pipelines.search_vertex_transitive(g, m, ctx=ctx)
            assert report.target == m and report.fidelity >= THRESHOLD, (g.edges, m)
            if len(ctx.branches) > 1:
                assert len(report.branches) == len(ctx.branches)
                wins = [b.side - 1 for b in report.branches if b.succeeded]
            else:
                assert report.branches == ()
                wins = [0]
            assert len(wins) == 1, (g.edges, m)
            ref = simulate.run_schedule(start, ctx.branches[wins[0]], ctx.spectrum, m)
            assert np.linalg.norm(ref.amps[g.n:]) ** 2 <= simulate.DETACH_TOL


def test_class_route_survives_a_leaking_branch():
    g = graph.load_edge_list(LEAKING)
    ctx = pipelines.prepare(g)
    assert ctx.mass_classes == (0, 1, 4)
    start = simulate.attach_ancilla(simulate.uniform_state(6))
    leaks = [np.linalg.norm(simulate.run_schedule(start, b, ctx.spectrum, 5).amps[6:]) ** 2
             for b in ctx.branches]
    assert leaks[1] == pytest.approx(0.709, abs=1e-3)
    assert leaks[2] <= simulate.DETACH_TOL
    report = pipelines.search_vertex_transitive(g, 5, ctx=ctx)
    assert report.target == 5 and report.fidelity >= THRESHOLD
    assert [b.succeeded for b in report.branches] == [False, False, True]


def test_search_duality_with_sampling(search_suite):
    # the black-box search schedule is exactly the adjoint of the sampling
    # schedule synthesized from cardinality-ratio overlaps
    for g in search_suite:
        ctx = pipelines.prepare(g)
        sampling = schedule.synth_sampling_schedule(
            ctx.chain, depth.transitive_overlaps(ctx.chain)
        )
        assert pipelines.transitive_search_schedule(ctx) == schedule.dagger(sampling)


def test_bipartite_k23_every_vertex():
    for m in range(5):
        report = pipelines.search_bipartite(2, 3, m)
        assert report.target == m
        assert report.fidelity >= THRESHOLD
        assert sum(b.succeeded for b in report.branches) == 1


def test_bipartite_failing_branch_breaks_ties_low():
    # the failing branch ends uniform on its block: every vertex there ties,
    # and the report names the lowest one whatever the roundoff
    for m in range(11):
        report = pipelines.search_bipartite(4, 7, m)
        failed = next(b for b in report.branches if not b.succeeded)
        assert failed.candidate == (0 if failed.side == 1 else 4)
        assert failed.fidelity == pytest.approx(1 / (4 if failed.side == 1 else 7))


def test_bipartite_star_center_found_by_first_branch():
    report = pipelines.search_bipartite(1, 4, 0)
    assert report.branches[0].succeeded
    assert report.branches[0].oracle_count == 0
    assert report.target == 0


def test_bipartite_star_leaf_rejects_trivial_candidate():
    # branch 1 lands on the centre with fidelity 1 but the oracle check
    # rules it out; only branch 2 both lands and identifies the vertex
    report = pipelines.search_bipartite(1, 4, 3)
    assert not report.branches[0].succeeded
    assert report.branches[0].fidelity >= THRESHOLD
    assert report.branches[1].succeeded
    assert report.target == 3


def test_bipartite_k33_agrees_with_transitive_route():
    g = graph.complete_bipartite(3, 3)
    ctx = pipelines.prepare(g)
    for m in range(6):
        via_bipartite = pipelines.search_bipartite(3, 3, m)
        via_transitive = pipelines.search_vertex_transitive(g, m, ctx=ctx)
        assert via_bipartite.target == via_transitive.target == m
        assert via_bipartite.fidelity >= THRESHOLD
        assert via_transitive.fidelity >= THRESHOLD


def test_stage_fidelities_land_per_stage(sampling_suite):
    for g in sampling_suite:
        ctx = pipelines.prepare(g)
        report = pipelines.uniform_sample(g, 1, ctx=ctx)
        assert report.stage_fidelities, g.family
        assert all(f >= 1 - 1e-10 for f in report.stage_fidelities), g.family


def test_cost_accounting_bound(sampling_suite):
    # walk plus oracle time stays under 4*pi per oracle call; ancilla
    # phase time is accounted separately
    for g in sampling_suite:
        ctx = pipelines.prepare(g)
        report = pipelines.uniform_sample(g, 0, ctx=ctx)
        assert (
            report.total_time - report.ancilla_phase_time
            <= 4 * math.pi * report.oracle_count + 1e-9
        )


def test_verify_c4(c4):
    result = pipelines.verify_graph(c4)
    assert result.min_fidelity >= THRESHOLD
    assert result.search_route == "blackbox"
    assert result.max_bound_ratio <= math.pi
    tasks = {r.task for r in result.reports}
    assert tasks == {"sample", "transfer", "search"}


def test_verify_petersen_spectrum_crosscheck():
    g = graph.kneser(5, 2)
    ctx = pipelines.prepare(g)
    observed = {
        int(round(grp.value)): grp.multiplicity for grp in ctx.spectrum.groups
    }
    assert observed == {0: 1, 2: 5, 5: 4}
    result = pipelines.verify_graph(g)
    assert result.min_fidelity >= THRESHOLD


def test_verify_k4_minus_edge_uses_class_route(k4_minus_edge):
    result = pipelines.verify_graph(k4_minus_edge)
    assert result.search_route == "blackbox"
    assert result.min_fidelity >= THRESHOLD
    assert result.max_bound_ratio <= math.pi
    searches = [r for r in result.reports if r.task == "search"]
    assert {r.search_mode for r in searches} == {"blackbox"}
    assert all(len(r.branches) == 2 for r in searches)


def test_verify_path3_uses_bipartite_route():
    # path3 is complete_bipartite(1, 2) with the centre relabelled 1
    path3 = graph.load_edge_list("0 1\n1 2\n")
    result = pipelines.verify_graph(path3)
    assert result.search_route == "bipartite"
    assert result.min_fidelity >= THRESHOLD


def test_verify_bipartite_route():
    result = pipelines.verify_graph(graph.complete_bipartite(2, 3))
    assert result.search_route == "bipartite"
    assert result.min_fidelity >= THRESHOLD


def test_verify_cap():
    with pytest.raises(GraphError, match="cap"):
        pipelines.verify_graph(graph.johnson(5, 2), cap=5)


def test_verify_deterministic_ordering(c4):
    a = pipelines.verify_graph(c4)
    b = pipelines.verify_graph(c4)
    keys_a = [(r.task, r.marked, r.target) for r in a.reports]
    keys_b = [(r.task, r.marked, r.target) for r in b.reports]
    assert keys_a == keys_b


def test_report_csv_round_values(c4):
    import csv as csv_mod
    import io

    report = pipelines.uniform_sample(c4, 0)
    text = pipelines.reports_to_csv([report])
    assert text.splitlines()[0] == pipelines.CSV_HEADER
    rows = list(csv_mod.reader(io.StringIO(text)))
    assert rows[1][0] == "rook(2,2)"  # comma inside the tag survives quoting
    assert rows[1][1] == "sample"
    assert int(rows[1][4]) == report.oracle_count


def test_transfer_pair_subset_above_ten_vertices():
    pairs = pipelines._transfer_pairs(12)
    assert len(pairs) <= 2 * 12
    assert all(u != v for u, v in pairs)
    assert pipelines._transfer_pairs(4) == [
        (u, v) for u in range(4) for v in range(4) if u != v
    ]


# ---------------------------------------------------------------------------
# The one-pass verify sweep
# ---------------------------------------------------------------------------

SWEEP_GRAPHS = {
    "rook33": lambda: graph.rook(3, 3),
    "hamming42": lambda: graph.hamming(4, 2),
    "k4_minus_edge": lambda: graph.load_edge_list("0 2\n0 3\n1 2\n1 3\n2 3\n"),
    "k13": lambda: graph.complete_bipartite(1, 3),
    "path3": lambda: graph.load_edge_list("0 1\n1 2\n"),
    "k23_relabelled": lambda: RELABELLED_K23,
}


def dense_fidelities(g, ctx, sctx, report):
    """A verify report's fidelities from ``run_schedule``, run by run: the
    final fidelity and, for a search, each branch's (candidate, fidelity)."""
    n, spec = g.n, ctx.spectrum
    m, v = report.marked, report.target
    if report.task == "sample":
        sched = pipelines.sampling_schedule(ctx, m)
        state = simulate.run_schedule(simulate.vertex_state(n, m), sched, spec, m)
        return simulate.fidelity(state, simulate.uniform_state(n)), []
    if report.task == "transfer":
        state = simulate.run_schedule(
            simulate.vertex_state(n, m), pipelines.sampling_schedule(ctx, m), spec, m)
        back = schedule.dagger(pipelines.sampling_schedule(ctx, v))
        return simulate.fidelity(simulate.run_schedule(state, back, spec, v), v), []
    branches = []
    for start, branch in zip(sctx.starts, sctx.branches):
        state = simulate.from_amplitudes(sctx.spectrum.eigenvectors @ start)
        state = simulate.run_schedule(simulate.attach_ancilla(state), branch, sctx.spectrum, m)
        probs = (np.abs(state.amps.reshape(2, n)) ** 2).sum(axis=0)
        candidate = pipelines._most_probable(probs)
        branches.append((candidate, probs[candidate]))
    return next(f for c, f in branches if c == m and f >= THRESHOLD), branches


@pytest.mark.parametrize("name", list(SWEEP_GRAPHS))
def test_verify_sweep_matches_dense_reference(name):
    # every report of the batched sweep, against the dense executor and
    # against its own single run
    g = SWEEP_GRAPHS[name]()
    ctx = pipelines.prepare(g)
    route, _ = pipelines.search_route(g, ctx=ctx)
    sctx = pipelines.prepare_bipartite(g) if route == "bipartite" else ctx
    single = {
        "sample": lambda r: pipelines.uniform_sample(g, r.marked, ctx=ctx),
        "transfer": lambda r: pipelines.transfer(g, r.marked, r.target, ctx=ctx),
        "search": lambda r: pipelines.search_route(g, ctx=ctx)[1](r.marked),
    }
    single["bipartite_search"] = single["search"]
    result = pipelines.verify_graph(g)
    assert result.search_route == route
    assert len(result.reports) == 2 * g.n + len(pipelines._transfer_pairs(g.n))
    for report in result.reports:
        fidelity, branches = dense_fidelities(g, ctx, sctx, report)
        assert report.fidelity == pytest.approx(fidelity, abs=1e-12)
        if report.branches:
            np.testing.assert_allclose(
                [(b.candidate, b.fidelity) for b in report.branches], branches, rtol=0, atol=1e-12)
        alone = single[report.task](report)
        assert (alone.task, alone.marked, alone.target, alone.oracle_count) == (
            report.task, report.marked, report.target, report.oracle_count)
        assert alone.stage_fidelities == pytest.approx(report.stage_fidelities, abs=1e-12)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(connected_cographs())
def test_verify_passes_on_cographs(g):
    # the gate passes (verify_graph raises otherwise), every run clears
    # the threshold, every schedule and every branch of a multi-branch
    # search stays within pi 2^d sqrt(N) oracle calls, and each transfer
    # matches the dense run of F_u, then dagger(F_v)
    result = pipelines.verify_graph(g)
    ctx, n = pipelines.prepare(g), g.n
    forward = [pipelines.sampling_schedule(ctx, m) for m in range(n)]
    states = [simulate.run_schedule(simulate.vertex_state(n, m), forward[m], ctx.spectrum, m)
              for m in range(n)]
    back = [schedule.dagger(s) for s in forward]
    for report in result.reports:
        assert report.fidelity >= THRESHOLD
        bound = math.pi * 2**report.depth * math.sqrt(n)
        u, v = report.marked, report.target
        if report.task == "transfer":
            assert report.oracle_count == forward[u].oracle_count + forward[v].oracle_count
            state = simulate.run_schedule(states[u], back[v], ctx.spectrum, v)
            assert report.fidelity == pytest.approx(simulate.fidelity(state, v), abs=1e-12)
        elif report.task == "sample":
            assert report.oracle_count <= bound
        else:
            assert v == u
            for count in [b.oracle_count for b in report.branches] or [report.oracle_count]:
                assert count <= bound


def test_verify_is_one_pass(monkeypatch):
    # rook(3,3): one synthesis per vertex and one for the search branch, and
    # one executor pass per group and stage tree (sampling, search) where
    # the per-run sweep made 154 and 162; transfers read the sampling rows
    synths, passes = [], []
    synth, run = schedule.synth_sampling_schedule, simulate._run_stages
    monkeypatch.setattr(schedule, "synth_sampling_schedule",
                        lambda *args: synths.append(1) or synth(*args))
    monkeypatch.setattr(simulate, "_run_stages",
                        lambda *args: passes.append(len(args[0])) or run(*args))
    result = pipelines.verify_graph(graph.rook(3, 3))
    assert len(result.reports) == 90 and result.min_fidelity >= THRESHOLD
    assert len(synths) == 9 + 1
    assert passes == [9, 9]


def test_sweep_row_failure_raises_its_own_error(k4_minus_edge):
    # LEAKING has three mass classes, {0}, {1, 2, 3} and {4, 5}
    ctx = pipelines.prepare(graph.load_edge_list(LEAKING))
    forward = [pipelines.sampling_schedule(ctx, m) for m in range(6)]
    # vertex 5 runs vertex 1's schedule, beside five good rows
    message = r"ancilla entangled at detach point: \|1> mass 1\.008e-01"
    for schedules, vertices in (([forward[1]], [5]), (forward[:5] + [forward[1]], range(6))):
        with pytest.raises(SimulationError, match=message):
            pipelines._sample_sweep(ctx, schedules, vertices)
    # a kick 10% off keeps the stage structure and the frame, so the row
    # shares its executor pass with vertex 5's good one, in either order
    bad = dataclasses.replace(forward[4], stages=tuple(
        dataclasses.replace(st, kick=0.9 * st.kick) for st in forward[4].stages))
    message = r"ancilla entangled at detach point: \|1> mass 1\.182e-02"
    for schedules, vertices in (([bad, forward[5]], [4, 5]), ([forward[5], bad], [5, 4])):
        with pytest.raises(SimulationError, match=message):
            pipelines._sample_sweep(ctx, schedules, vertices)

    # K4 - e: vertex 2 runs vertex 0's schedule, which misses its target
    # without an error; every row reads what its single run reads
    ctx = pipelines.prepare(k4_minus_edge)
    schedules = [pipelines.sampling_schedule(ctx, m) for m in range(4)]
    schedules[2] = schedules[0]
    swept, _ = pipelines._sample_sweep(ctx, schedules, range(4))
    assert swept[2].fidelity < 0.9
    for m, report in enumerate(swept):
        alone = pipelines.execute_sample(ctx, schedules[m], m)
        assert report.fidelity == pytest.approx(alone.fidelity, abs=1e-12)
        assert report.stage_fidelities == pytest.approx(alone.stage_fidelities, abs=1e-12)


def test_verify_synthesizes_each_class_representative_once(monkeypatch, k4_minus_edge):
    # K4 - e has two mass classes; their search branches are the reversed
    # schedules of the representatives' own rows: 4 syntheses, not 6, and
    # the same search reports as branches synthesized apart
    ctx = pipelines.prepare(k4_minus_edge)
    apart = pipelines._search_sweep(ctx, ctx.branches, range(4))
    synths = []
    synth = schedule.synth_sampling_schedule
    monkeypatch.setattr(schedule, "synth_sampling_schedule",
                        lambda *args: synths.append(1) or synth(*args))
    result = pipelines.verify_graph(k4_minus_edge)
    assert len(synths) == 4
    searches = [r for r in result.reports if r.task == pipelines.TASK_SEARCH]
    assert searches == apart and len(searches[0].branches) == 2
    assert pipelines.reports_to_csv(searches) == pipelines.reports_to_csv(apart)
    assert list(map(pipelines.report_to_json_dict, searches)) == list(
        map(pipelines.report_to_json_dict, apart))
