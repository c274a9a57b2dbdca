import json
import math

import pytest

from qwalk import depth, graph, pipelines, schedule, simulate
from qwalk.errors import GraphError, SpectrumError

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


def test_search_hamming_2_2(c4):
    g = graph.hamming(2, 2)
    for m in range(g.n):
        assert pipelines.search_vertex_transitive(g, m).fidelity >= THRESHOLD


def test_search_requires_transitive_flag():
    path3 = graph.load_edge_list("0 1\n1 2\n")
    with pytest.raises(GraphError, match="not flagged vertex-transitive"):
        pipelines.search_vertex_transitive(path3, 0)


def test_promise_search_on_path_graph():
    path3 = graph.load_edge_list("0 1\n1 2\n")
    for m in range(3):
        report = pipelines.search_promise(path3, m)
        assert report.fidelity >= THRESHOLD
        assert report.search_mode == "promise"


def test_promise_search_star_center_skips_first_stage():
    star = graph.complete_bipartite(1, 3)
    report = pipelines.search_promise(star, 0)
    assert report.fidelity >= THRESHOLD


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
        assert all(
            b.walk_time == pytest.approx(math.pi / math.sqrt(6), abs=1e-12)
            for b in report.branches
        )


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


def test_verify_path3_uses_promise_route():
    path3 = graph.load_edge_list("0 1\n1 2\n")
    result = pipelines.verify_graph(path3)
    assert result.search_route == "promise"
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
