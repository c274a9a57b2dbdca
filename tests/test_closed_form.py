"""Closed-form vertex data on family graphs: masses, mass classes and
Gram entries by formula, so a family context never decomposes, and the
dense route kept for every graph no family's edges match."""

import functools
import json

import numpy as np
import pytest

from qwalk import cli, depth, graph, pipelines, spectral

#: the acceptance suite's families and complete bipartite graphs, and
#: larger members of each family up to N = 1024
FAMILIES = [
    ("johnson", (5, 2)), ("hamming", (2, 3)), ("rook", (3, 3)), ("kneser", (5, 2)),
    ("complete_square", (3,)), ("johnson", (7, 2)), ("hamming", (3, 2)),
    ("complete_bipartite", (2, 3)), ("complete_bipartite", (1, 4)),
    ("complete_bipartite", (3, 3)), ("complete_bipartite", (4, 7)),
    ("hamming", (10, 2)), ("hamming", (5, 3)), ("johnson", (10, 4)), ("kneser", (9, 3)),
    ("rook", (4, 6)), ("complete_square", (5,)), ("complete_bipartite", (1, 6)),
    ("complete_bipartite", (40, 60)), ("rook", (4, 4)),
]
IDS = [f"{n}{p}" for n, p in FAMILIES]


def dense_context(g):
    """g's context on the dense route, whatever its edges: the gate given
    a full decomposition keeps it as its base."""
    ints = spectral.graph_integer_spectrum(g, spectral.eigendecompose(graph.laplacian(g)))
    assert ints.family is None and ints.base.eigenvectors is not None
    return pipelines.LaplacianContext(g, ints, depth.build_depth_chain(ints))


@functools.cache
def dense_family(name, params):
    """A family graph and its dense-route context, built once per module."""
    g = graph.build_family(name, params)
    return g, dense_context(g)


def relabelled(g, seed=1):
    perm = np.random.default_rng(seed).permutation(g.n)
    return graph.graph_from_edges(g.n, perm[g.edge_array])


@pytest.mark.parametrize("name, params", FAMILIES, ids=IDS)
def test_closed_form_masses_match_the_dense_table(name, params):
    # the family by name and read back from its edge list both take the
    # closed form, and their masses and classes are the dense table's
    by_name, dense = dense_family(name, params)
    from_edges = graph.load_edge_list(graph.dump_edge_list(by_name))
    for g in (by_name, from_edges):
        ctx = pipelines.prepare(g)
        assert ctx.ints.family is not None and ctx.ints.base is None
        assert ctx.ints.values == dense.ints.values
        assert ctx.ints.multiplicities == dense.ints.multiplicities
        masses = ctx.masses(np.arange(g.n))
        assert masses.shape == dense.spectrum.masses.shape
        assert np.max(np.abs(masses - dense.spectrum.masses)) <= 1e-12
        assert np.array_equal(ctx.vertex_classes, dense.vertex_classes)
        assert ctx.mass_classes == dense.mass_classes
        assert "spectrum" not in vars(ctx)  # nothing was decomposed


def own_family_context(g, name, params):
    """g's context on the closed form of the family that generated it, even
    where ``family_matches`` names another first (rook(3,3) is also
    hamming(2,3))."""
    ints = spectral.family_spectrum(name, params)
    return pipelines.LaplacianContext(g, ints, depth.build_depth_chain(ints))


@pytest.mark.parametrize("name, params", FAMILIES, ids=IDS)
def test_closed_form_gram_matches_the_dense_groups(name, params):
    # every pair up to N = 100, and 4096 seeded pairs above; through the
    # family the edges match and through the generator's own
    g, dense = dense_family(name, params)
    if g.n <= 100:
        us, vs = (a.ravel() for a in np.meshgrid(np.arange(g.n), np.arange(g.n)))
    else:
        us, vs = np.random.default_rng(20240601).integers(g.n, size=(2, 4096))
    want = dense.gram(us, vs)
    assert want.shape == (len(us), len(dense.ints.values))
    for ctx in (pipelines.prepare(g), own_family_context(g, name, params)):
        assert np.max(np.abs(ctx.gram(us, vs) - want)) <= 1e-12
        # a Gram column over every vertex, as a failing branch's lift reads it
        column = ctx.gram(np.arange(g.n), np.array([[us[0]]]))
        assert np.max(np.abs(column[0] - dense.gram(np.arange(g.n), us[0]))) <= 1e-12
        assert ctx.spectrum is None


@pytest.mark.parametrize("name, params", FAMILIES, ids=IDS)
def test_closed_form_transfers_match_the_dense_route(name, params):
    # verify's transfer pairs, read off one sampling pass of every vertex
    g, dense = dense_family(name, params)
    vertices, pairs = list(range(g.n)), pipelines._transfer_pairs(g.n)
    fids = []
    for ctx in (pipelines.prepare(g), dense):
        schedules = [pipelines.sampling_schedule(ctx, m) for m in vertices]
        _, finals, _ = pipelines._sample_pass(ctx, schedules, vertices)
        fids.append([r.fidelity for r in
                     pipelines._transfer_sweep(ctx, vertices, schedules, finals, pairs)])
    np.testing.assert_allclose(*fids, rtol=0, atol=1e-12)
    assert min(fids[0]) >= pipelines.FIDELITY_THRESHOLD


def block_masses(a, b, v):
    """Vertex v's masses on K(a, b) by eigenvalue: 1/N on 0, (own - 1)/own
    on the other block's size and other/(own N) on N."""
    n = a + b
    own, other = (a, b) if v < a else (b, a)
    return {0: 1 / n, other: (own - 1) / own, n: other / (own * n)}


@pytest.mark.parametrize("a, b", [(1, 3), (4, 7), (5, 5)])
def test_complete_bipartite_masses_are_the_block_formulas(a, b):
    # K(1,3) drops the group of eigenvalue 3 (multiplicity 0) and K(5,5)
    # merges its two groups of eigenvalue 5
    g = graph.complete_bipartite(a, b)
    ctx, dense = pipelines.prepare(g), dense_context(g)
    assert ctx.ints.values == tuple(sorted({0, a, b, a + b} - ({b} if a == 1 else set())))
    for v in range(g.n):
        expected = [block_masses(a, b, v).get(x, 0.0) for x in ctx.ints.values]
        np.testing.assert_allclose(ctx.masses([v])[0], expected, rtol=0, atol=1e-15)
        np.testing.assert_allclose(dense.spectrum.masses[v], expected, rtol=0, atol=1e-12)
    assert len(ctx.mass_classes) == (1 if a == b else 2)


def report_bytes(reports):
    return [json.dumps(pipelines.report_to_json_dict(r), sort_keys=True) for r in reports]


@pytest.mark.parametrize("name, params", [("hamming", (4, 2)), ("rook", (3, 4)),
                                          ("complete_bipartite", (2, 5))])
def test_relabelled_family_keeps_the_dense_route(name, params):
    # no family generator gives the relabelled edges, so prepare
    # decomposes in full, and every report is the dense route's own
    g = relabelled(graph.build_family(name, params))
    assert graph.family_matches(g) == []
    ctx, dense = pipelines.prepare(g), dense_context(g)
    assert ctx.ints.family is None and ctx.ints.base.eigenvectors is not None
    got, want = ([*pipelines._sample_sweep(c, [pipelines.sampling_schedule(c, m)
                                                for m in range(g.n)], range(g.n))[0],
                  *[pipelines.transfer(g, 0, v, ctx=c) for v in range(g.n)],
                  *pipelines._search_sweep(c, c.branches, range(g.n))] for c in (ctx, dense))
    assert report_bytes(got) == report_bytes(want)


def forbid_dense_solve(monkeypatch):
    """Make every dense solve and dense Laplacian raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("dense solve")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for module in (graph, spectral, cli):
        monkeypatch.setattr(module, "laplacian", refuse)


@pytest.mark.parametrize("name, params", [("hamming", (12, 2)), ("johnson", (10, 4))])
def test_family_tasks_run_without_an_eigensolve(name, params, monkeypatch, tmp_path, capsys):
    # sample, search, transfer, both schedule artifacts and their reruns,
    # on N = 4096 and N = 210, through the library and the CLI
    forbid_dense_solve(monkeypatch)
    g = graph.build_family(name, params)
    ctx = pipelines.prepare(g)
    _, sctx = pipelines.search_route(g, ctx=ctx)
    for m in (0, 1, g.n // 2, g.n - 1):
        assert pipelines.uniform_sample(g, m, ctx=ctx).fidelity >= pipelines.FIDELITY_THRESHOLD
        report = pipelines.execute_search(sctx, sctx.branches, m)
        assert report.target == m and report.fidelity >= pipelines.FIDELITY_THRESHOLD
        for v in (0, g.n - 1 - m):
            assert pipelines.transfer(g, m, v, ctx=ctx).fidelity >= pipelines.FIDELITY_THRESHOLD
    assert "spectrum" not in vars(ctx)
    source = ["--family", name, "--params", ",".join(map(str, params))]
    m = str(g.n - 3)
    for argv in (["run", "sample", *source, "--marked", m],
                 ["run", "search", *source, "--marked", m],
                 ["run", "transfer", *source, "--source", "1", "--target", m],
                 ["schedule", *source, "--task", "sample", "--marked", m],
                 ["schedule", *source, "--task", "search", "--marked", m]):
        out = tmp_path / f"{argv[1]}.json"
        assert cli.main([*argv, "--out", str(out)]) == 0
        key = "fidelity" if argv[0] == "run" else "reported_fidelity"
        assert json.loads(out.read_text())[key] >= pipelines.FIDELITY_THRESHOLD
        if argv[0] == "schedule":
            rerun = tmp_path / f"{argv[1]}_run.json"
            assert cli.main(["run", "schedule", "--schedule", str(out), "--out", str(rerun)]) == 0
            assert json.loads(rerun.read_text())["fidelity"] >= pipelines.FIDELITY_THRESHOLD
    assert capsys.readouterr().err == ""
    # the patch is live: the dense route refuses
    with pytest.raises(AssertionError, match="dense solve"):
        dense_context(g)


@pytest.mark.parametrize("name, params", [("rook", (4, 6)), ("hamming", (6, 2))])
def test_verify_runs_without_an_eigensolve(name, params, monkeypatch):
    # every sample, transfer and search of the sweep, on the closed form;
    # each fidelity is the dense route's to 1e-12
    g, dense = dense_family(name, params)
    vertices, pairs = list(range(g.n)), pipelines._transfer_pairs(g.n)
    schedules = [pipelines.sampling_schedule(dense, m) for m in vertices]
    reports, finals = pipelines._sample_sweep(dense, schedules, vertices)
    reports += pipelines._transfer_sweep(dense, vertices, schedules, finals, pairs)
    reports += pipelines._search_sweep(dense, dense.branches, vertices)
    want = {(r.task, r.marked, r.target): r.fidelity for r in reports}
    forbid_dense_solve(monkeypatch)
    result = pipelines.verify_graph(g)
    assert result.search_route == "blackbox"
    assert result.min_fidelity >= pipelines.FIDELITY_THRESHOLD
    got = {(r.task, r.marked, r.target): r.fidelity for r in result.reports}
    assert got.keys() == want.keys() and len(got) == len(result.reports)
    for key, fidelity in got.items():
        assert fidelity == pytest.approx(want[key], rel=0, abs=1e-12)


@pytest.mark.parametrize("name, params", [("hamming", (6, 2)), ("complete_bipartite", (4, 7)),
                                          ("complete_bipartite", (1, 4))])
def test_formula_runs_match_the_dense_route(name, params, monkeypatch):
    # the closed form's integer values, formula masses and Gram columns,
    # with no solve, give the dense route's schedules, oracle counts and
    # fidelities, and on K(4,7) and K(1,4) the candidates of the failing
    # search branches, which lift
    g, dense = dense_family(name, params)
    want = [pipelines.uniform_sample(g, m, ctx=dense) for m in range(g.n)]
    want += pipelines._search_sweep(dense, dense.branches, range(g.n))
    forbid_dense_solve(monkeypatch)
    ctx = pipelines.prepare(g)
    for a, b in zip(ctx.class_schedules, dense.class_schedules, strict=True):
        assert [(s.level, s.params.iterations) for s in a.stages] == [
            (s.level, s.params.iterations) for s in b.stages]
        assert a.oracle_count == b.oracle_count
        assert [s.params.alpha for s in a.stages] == pytest.approx(
            [s.params.alpha for s in b.stages], rel=0, abs=1e-12)
    got = [pipelines.uniform_sample(g, m, ctx=ctx) for m in range(g.n)]
    got += pipelines._search_sweep(ctx, ctx.branches, range(g.n))
    for a, b in zip(got, want, strict=True):
        assert (a.task, a.marked, a.target, a.oracle_count) == (b.task, b.marked, b.target,
                                                                b.oracle_count)
        assert a.fidelity == pytest.approx(b.fidelity, rel=0, abs=1e-12)
        assert a.stage_fidelities == pytest.approx(b.stage_fidelities, rel=0, abs=1e-12)
        assert [(x.candidate, x.succeeded) for x in a.branches] == [
            (x.candidate, x.succeeded) for x in b.branches]
        assert [x.fidelity for x in a.branches] == pytest.approx(
            [x.fidelity for x in b.branches], rel=0, abs=1e-12)


@pytest.mark.parametrize("name, params", [("hamming", (6, 2)), ("johnson", (8, 3)),
                                          ("rook", (3, 3)), ("complete_bipartite", (3, 3))])
def test_family_reads_never_decompose(name, params, monkeypatch):
    # sample, search, transfer and verify on one closed form: no
    # decomposition, not even the first time Gram entries are read
    calls = []
    decompose = spectral.eigendecompose
    monkeypatch.setattr(spectral, "eigendecompose", lambda m: calls.append(1) or decompose(m))
    g = graph.build_family(name, params)
    ctx = pipelines.prepare(g)
    for m in range(g.n):
        pipelines.uniform_sample(g, m, ctx=ctx)
        assert pipelines.search_vertex_transitive(g, m, ctx=ctx).target == m
    for u in range(0, g.n, 3):
        report = pipelines.transfer(g, u, g.n - 1 - u, ctx=ctx)
        assert report.fidelity >= pipelines.FIDELITY_THRESHOLD
    result = pipelines.verify_graph(g)
    assert result.min_fidelity >= pipelines.FIDELITY_THRESHOLD
    assert calls == [] and "spectrum" not in vars(ctx)


def test_failing_branches_lift_from_the_gram_columns(monkeypatch):
    # K(4,7)'s Laplacian search runs a branch per block; each hidden vertex
    # fails the other block's branch, whose rows are lifted from the
    # closed form's Gram columns, with every eigensolve refused, and name
    # the dense lift's candidates with its probabilities
    g, dense = dense_family("complete_bipartite", (4, 7))
    want = pipelines._search_sweep(dense, dense.branches, range(g.n))
    forbid_dense_solve(monkeypatch)
    ctx = pipelines.prepare(g)
    assert len(ctx.branches) == 2
    lifted = []
    lift = ctx.lift
    monkeypatch.setattr(pipelines.LaplacianContext, "lift",
                        lambda self, vertices, *args: lifted.append(list(vertices))
                        or lift(vertices, *args))
    for m, ref in zip(range(g.n), want):
        report = pipelines.search_vertex_transitive(g, m, ctx=ctx)
        assert report.target == m and report.fidelity >= pipelines.FIDELITY_THRESHOLD
        assert [not b.succeeded for b in report.branches] == [m >= 4, m < 4]
        assert [b.candidate for b in report.branches] == [b.candidate for b in ref.branches]
        assert [b.fidelity for b in report.branches] == pytest.approx(
            [b.fidelity for b in ref.branches], rel=0, abs=1e-12)
    assert lifted == [[m] for m in range(g.n)]
    assert "spectrum" not in vars(ctx)
