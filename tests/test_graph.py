import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwalk import graph
from qwalk.errors import GraphError

from conftest import check_vertex_transitive_bruteforce, laplacian_eigenvalues, reachable


def degrees(g):
    """Each vertex's degree, counted on the edge set."""
    return [sum(v in e for e in g.edges) for v in range(g.n)]


def test_johnson_4_2_degrees():
    g = graph.johnson(4, 2)
    assert g.n == 6
    assert all(d == 2 * (4 - 2) for d in degrees(g))


def test_johnson_k1_is_complete():
    for n in (2, 3, 5):
        g = graph.johnson(n, 1)
        assert len(g.edges) == n * (n - 1) // 2


def test_johnson_edge_rule_matches_direct_enumeration():
    n, k = 5, 2
    g = graph.johnson(n, k)
    subsets = list(itertools.combinations(range(n), k))
    for (i, a), (j, b) in itertools.combinations(enumerate(subsets), 2):
        expected = len(set(a) & set(b)) == k - 1
        assert ((i, j) in g.edges) == expected


def subset_graph_edges(n, k):
    """The johnson and kneser edges as the generators built them before they
    were vectorized: every pair of lex-ordered k-subsets, intersected as
    Python sets."""
    sets = [set(v) for v in itertools.combinations(range(n), k)]
    meets = {k - 1: set(), 0: set()}
    for (i, a), (j, b) in itertools.combinations(enumerate(sets), 2):
        meets.get(len(a & b), set()).add((i, j))
    return meets[k - 1], meets[0]


def test_subset_generators_match_itertools_construction():
    # every johnson(n, k) and kneser(n, k) with at most 500 vertices and
    # 2 <= k <= n - 2; k = 1 and k = n - 1 give complete graphs and their
    # complements, checked up to n = 40
    cases = [(n, k) for n in range(2, 41) for k in {1, n - 1}]
    cases += [(n, k) for n in range(4, 500) for k in range(2, n - 1) if math.comb(n, k) <= 500]
    for n, k in cases:
        johnson, kneser = subset_graph_edges(n, k)
        assert graph.johnson(n, k).edges == johnson, (n, k)
        if n >= 2 * k + 1 or (n, k) == (2, 1):
            assert graph.kneser(n, k).edges == kneser, (n, k)
        elif n >= 2 * k:
            with pytest.raises(GraphError, match=rf"kneser\({n},{k}\) is disconnected; "
                               r"need n >= 2k\+1"):
                graph.kneser(n, k)


def test_subset_edges_list_the_pairwise_meets_in_order():
    # the pairs listed from each subset's neighbours are, in order, the
    # sorted pairs of the pairwise meet for every n <= 10, so the graph
    # keeps them as listed; johnson(16, 8) no longer meets every pair
    for n in range(2, 11):
        for k in range(1, n):
            for meet, pairs in zip((k - 1, 0), subset_graph_edges(n, k)):
                if n >= 2 * k or meet:
                    want = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
                    assert np.array_equal(graph._subset_edges(n, k, meet), want), (n, k, meet)
    g = graph.johnson(16, 8)
    assert (g.n, len(g.edge_array)) == (12870, 411840)


def test_rook_2_2_is_four_cycle():
    g = graph.rook(2, 2)
    assert g.n == 4
    assert len(g.edges) == 4
    evs = laplacian_eigenvalues(g)
    assert np.allclose(sorted(evs), [0, 2, 2, 4], atol=1e-9)


def test_complete_bipartite_2_3():
    g = graph.complete_bipartite(2, 3)
    assert g.n == 5
    assert len(g.edges) == 6
    assert g.family == "complete_bipartite(2,3)"


def test_complete_bipartite_adjacency_spectrum():
    a = graph.adjacency(graph.complete_bipartite(2, 3))
    evs = np.sort(np.linalg.eigvalsh(a))
    expected = [-math.sqrt(6), 0, 0, 0, math.sqrt(6)]
    assert np.allclose(evs, expected, atol=1e-9)


def test_kneser_petersen():
    g = graph.kneser(5, 2)
    assert g.n == 10
    assert all(d == 3 for d in degrees(g))


def test_kneser_rejects_disconnected():
    with pytest.raises(GraphError, match="disconnected"):
        graph.kneser(4, 2)
    # k = 1 boundary case is a single edge, which is connected
    assert graph.kneser(2, 1).n == 2


def test_hamming_2_2_is_four_cycle():
    g = graph.hamming(2, 2)
    evs = laplacian_eigenvalues(g)
    assert np.allclose(sorted(evs), [0, 2, 2, 4], atol=1e-9)


def test_complete_square_vertex_count():
    g = graph.complete_square(3)
    assert g.n == 12
    assert all(d == 2 + 2 for d in degrees(g))


@pytest.mark.parametrize(
    "name,params",
    [
        ("johnson", (5, 2)),
        ("kneser", (5, 2)),
        ("hamming", (2, 3)),
        ("rook", (3, 3)),
        ("complete_square", (3,)),
        ("complete_bipartite", (2, 3)),
    ],
)
def test_build_family_dispatch(name, params):
    g = graph.build_family(name, params)
    assert g.family == f"{name}({','.join(str(p) for p in params)})"


def test_build_family_bad_parameters():
    with pytest.raises(GraphError):
        graph.build_family("johnson", (2, 2))
    with pytest.raises(GraphError):
        graph.build_family("rook", (1, 3))
    with pytest.raises(GraphError):
        graph.build_family("nosuch", (1,))
    with pytest.raises(GraphError):
        graph.build_family("hamming", (2,))


def test_family_regularity(sampling_suite):
    for g in sampling_suite:
        assert len(set(degrees(g))) == 1, g.family


def test_load_edge_list_triangle():
    g = graph.load_edge_list("0 1\n1 2\n2 0\n")
    assert g.n == 3
    assert g.edges == frozenset({(0, 1), (1, 2), (0, 2)})
    assert g.family is None


def test_load_edge_list_duplicates_and_comments():
    g = graph.load_edge_list("0 1\n# c\n0 1\n")
    assert g.n == 2
    assert g.edges == frozenset({(0, 1)})


def test_load_edge_list_errors():
    with pytest.raises(GraphError, match="disconnected"):
        graph.load_edge_list("0 1\n2 3\n")
    with pytest.raises(GraphError, match="self-loop"):
        graph.load_edge_list("1 1\n")
    with pytest.raises(GraphError, match="non-integer"):
        graph.load_edge_list("0 a\n")
    with pytest.raises(GraphError, match="two vertex indices"):
        graph.load_edge_list("0 1 2\n")
    with pytest.raises(GraphError, match="empty"):
        graph.load_edge_list("# nothing\n")


def test_edge_list_round_trip(sampling_suite):
    for g in sampling_suite:
        back = graph.load_edge_list(graph.dump_edge_list(g))
        assert back.n == g.n
        assert back.edges == g.edges


def test_laplacian_k2():
    g = graph.load_edge_list("0 1\n")
    assert np.array_equal(graph.laplacian(g), [[1, -1], [-1, 1]])


def test_laplacian_structure(sampling_suite, c4):
    for g in sampling_suite + [c4]:
        lap = graph.laplacian(g)
        assert np.allclose(lap.sum(axis=1), 0.0)
        assert np.allclose(lap, lap.T)
        assert graph.adjacency(g).trace() == 0.0
    assert np.allclose(np.diag(graph.laplacian(c4)), 2.0)


def test_vertex_transitive_bruteforce():
    assert check_vertex_transitive_bruteforce(graph.rook(2, 2))
    assert check_vertex_transitive_bruteforce(graph.complete_bipartite(2, 2))
    path3 = graph.load_edge_list("0 1\n1 2\n")
    assert not check_vertex_transitive_bruteforce(path3)
    assert not check_vertex_transitive_bruteforce(
        graph.complete_bipartite(1, 3)
    )
    assert check_vertex_transitive_bruteforce(graph.johnson(7, 2))
    assert not check_vertex_transitive_bruteforce(graph.complete_bipartite(3, 5))
    with pytest.raises(GraphError, match="n <= 24"):
        check_vertex_transitive_bruteforce(graph.johnson(7, 3))


def test_bruteforce_agrees_with_family_tags():
    small = [
        graph.johnson(4, 2),
        graph.hamming(3, 2),
        graph.rook(2, 3),
        graph.complete_square(2),
        graph.kneser(2, 1),
    ]
    for g in small:
        assert g.n <= 8
        assert check_vertex_transitive_bruteforce(g), g.family


def test_graph_validation_errors():
    with pytest.raises(GraphError, match="self-loop"):
        graph.graph_from_edges(2, [(0, 0)])
    with pytest.raises(GraphError, match="out of range"):
        graph.Graph(2, frozenset({(0, 5)}))
    with pytest.raises(GraphError, match="disconnected"):
        graph.graph_from_edges(3, [(0, 1)])
    with pytest.raises(GraphError, match="positive"):
        graph.Graph(0, frozenset())


def test_single_vertex_graph():
    g = graph.single_vertex()
    assert g.n == 1
    assert graph.laplacian(g).shape == (1, 1)


def test_json_round_trip(sampling_suite):
    for g in sampling_suite:
        back = graph.graph_from_json_dict(graph.graph_to_json_dict(g))
        assert back == g


def test_cycle_builder():
    g = graph.cycle(5)
    assert g.n == 5
    assert len(g.edges) == 5
    with pytest.raises(GraphError):
        graph.cycle(2)


def family_grid(max_n):
    """Every parameter of every built-in family with at most max_n vertices."""
    for a in range(1, max_n + 1):
        for b in range(1, max_n + 1):
            if a < b and math.comb(b, a) <= max_n:
                yield "johnson", (b, a)
                if b > 2 * a or a == 1:
                    yield "kneser", (b, a)
            if b >= 2 and b**a <= max_n:
                yield "hamming", (a, b)
            if min(a, b) >= 2 and a * b <= max_n:
                yield "rook", (a, b)
            if a + b <= max_n:
                yield "complete_bipartite", (a, b)
        if 2 <= a <= max_n // 4:
            yield "complete_square", (a,)


def test_family_matches_recognises_every_small_family(monkeypatch):
    graphs = {(name, params): graph.build_family(name, params)
              for name, params in family_grid(40)}
    # recognition reads the edges alone: no generator runs, no tag is read
    for name in ("johnson", "kneser", "hamming", "rook", "complete_square",
                 "complete_bipartite", "graph_from_edges", "_cartesian_product"):
        monkeypatch.setattr(graph, name, None)
    for key, g in graphs.items():
        untagged = graph.Graph(g.n, g.edges)
        assert key in graph.family_matches(untagged)
        for name, params in graph.family_matches(untagged):
            assert graphs.get((name, params), g).edges == g.edges


def test_family_matches_needs_the_labels():
    g = graph.johnson(6, 2)
    swapped = graph.graph_from_edges(15, [tuple({0: 14, 14: 0}.get(x, x) for x in e)
                                          for e in g.edges])
    assert graph.family_matches(g) == [("johnson", (6, 2))]
    assert graph.family_matches(swapped) == []
    assert graph.family_matches(graph.single_vertex()) == []


# ---------------------------------------------------------------------------
# The array-backed paths against the tuple-set code they replaced
# ---------------------------------------------------------------------------

def reference_load_edge_list(text):
    """The edge-list parser as it read one line at a time into a set of
    tuples: the vertex count and edge set it accepts, or the GraphError it
    raises, with connectivity decided by the plain reachability search."""
    edges = set()
    max_index = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise GraphError(f"line {lineno}: expected two vertex indices, got {raw!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphError(f"line {lineno}: non-integer token in {raw!r}") from None
        if u == v:
            raise GraphError(f"line {lineno}: self-loop at vertex {u}")
        if u < 0 or v < 0:
            raise GraphError(f"line {lineno}: negative vertex index in {raw!r}")
        edges.add((min(u, v), max(u, v)))
        max_index = max(max_index, u, v)
    if max_index < 0:
        raise GraphError("edge list is empty")
    if reachable(max_index + 1, edges) < max_index + 1:
        raise GraphError("graph is disconnected")
    return max_index + 1, frozenset(edges)


BAD_LINES = ["0 1 2", "7", "a 1", "1.5 2", "-1 3", "4 4", "0x1 2", "3 -0 1", "+2 -5"]


@st.composite
def edge_list_texts(draw):
    """A randomly labelled tree plus extra and duplicate edges, some tree
    edge perhaps dropped, written in random orientation with tabs, runs of
    spaces, comments and blank lines, and perhaps malformed lines."""
    n = draw(st.integers(2, 14))
    labels = draw(st.permutations(range(n)))
    edges = [(labels[i], labels[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    if draw(st.booleans()):
        edges.pop(draw(st.integers(0, len(edges) - 1)))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges += draw(st.lists(pair, max_size=n))
    edges += draw(st.lists(st.sampled_from(edges), max_size=3)) if edges else []
    lines = []
    for u, v in draw(st.permutations(edges)):
        u, v = (v, u) if draw(st.booleans()) else (u, v)
        lead, sep, trail = (draw(st.sampled_from(options)) for options in (
            ["", " ", "\t"], [" ", "\t", "   ", " \t "], ["", "  ", "\t", " # note", "#1 2 3"]))
        lines.append(f"{lead}{u}{sep}{v}{trail}")
    extras = ["", "   ", "\t", "# comment", "  # 0 1 2"] + BAD_LINES * draw(st.booleans())
    for line in draw(st.lists(st.sampled_from(extras), max_size=4)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(edge_list_texts())
def test_load_edge_list_matches_line_parser(text):
    try:
        n, edges = reference_load_edge_list(text)
    except GraphError as exc:
        with pytest.raises(GraphError) as got:
            graph.load_edge_list(text)
        assert str(got.value) == str(exc)
        return
    g = graph.load_edge_list(text)
    assert g.n == n and g.edges == edges
    assert g.edge_array.tolist() == sorted(map(list, edges))


def test_load_edge_list_first_bad_line():
    # the first bad line wins, whatever kind of error a later line has
    text = "0 1\n# 1 2 3\n\n1\t2\n2 2\n3 a\n0 1 2\n"
    with pytest.raises(GraphError, match=r"^line 5: self-loop at vertex 2$"):
        graph.load_edge_list(text)
    with pytest.raises(GraphError, match=r"^line 2: non-integer token in '1 x # c'$"):
        graph.load_edge_list("0 1\n1 x # c\n1 2 3\n")
    # an index past int64 leaves fewer edges than vertices
    with pytest.raises(GraphError, match="^graph is disconnected$"):
        graph.load_edge_list("0 1\n1 99999999999999999999\n")


def old_family_edges(name, params):
    """The edge tuples of a family as the tuple-loop generators built them
    before the edges became an array."""
    def cartesian(edges1, n1, edges2, n2):
        return {(u * n2 + j, v * n2 + j) for u, v in edges1 for j in range(n2)} | {
            (i * n2 + u, i * n2 + v) for i in range(n1) for u, v in edges2}

    def complete(n):
        return [(u, v) for u in range(n) for v in range(u + 1, n)]

    if name == "hamming":
        d, q = params
        verts = list(itertools.product(range(q), repeat=d))
        index = {v: i for i, v in enumerate(verts)}
        return {(index[a], index[a[:pos] + (sym,) + a[pos + 1:]])
                for a in verts for pos in range(d) for sym in range(a[pos] + 1, q)}
    if name == "rook":
        return cartesian(complete(params[0]), params[0], complete(params[1]), params[1])
    if name == "complete_square":
        return cartesian(complete(params[0]), params[0], [(0, 1), (1, 2), (2, 3), (0, 3)], 4)
    if name == "complete_bipartite":
        n1, n2 = params
        return {(u, n1 + v) for u in range(n1) for v in range(n2)}
    n = params[0]  # cycle
    return {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}


def test_generators_match_tuple_construction():
    # every hamming and complete_square with at most 500 vertices and
    # alphabet or clique size at most 32, every rook with factors up to 16,
    # every complete_bipartite up to 40 vertices and every cycle up to 500,
    # plus larger ones up to 500 vertices; rows are canonical: u < v,
    # unique, sorted
    cases = [("hamming", (d, q)) for q in range(2, 33) for d in range(1, 9) if q**d <= 500]
    cases += [("complete_square", (n,)) for n in range(2, 33)]
    cases += [("rook", (a, b)) for a in range(2, 17) for b in range(2, 17)]
    cases += [("rook", (2, 250)), ("rook", (25, 20)), ("rook", (7, 71)), ("complete_square", (125,))]
    cases += [("complete_bipartite", (a, b)) for a in range(1, 40) for b in range(1, 41 - a)]
    cases += [("complete_bipartite", p) for p in ((1, 499), (200, 300), (300, 7))]
    cases += [("cycle", (n,)) for n in range(3, 501)]
    for name, params in cases:
        g = graph.cycle(*params) if name == "cycle" else graph.build_family(name, params)
        assert g.edge_array.tolist() == sorted(map(list, old_family_edges(name, params))), (
            name, params)
        assert not g.edge_array.flags.writeable


def random_forest(rng, n, trees):
    """A randomly labelled forest of ``trees`` trees on n vertices."""
    labels = rng.permutation(n)
    roots = set(rng.choice(np.arange(1, n), trees - 1, replace=False).tolist()) if trees > 1 else set()
    return [(int(labels[i]), int(labels[rng.integers(0, i)])) for i in range(1, n) if i not in roots]


def test_connectivity_matches_reachability():
    rng = np.random.default_rng(20240601)
    cases = [(1, [])]
    for n in (2, 3, 10, 257, 3000):
        path = rng.permutation(n).tolist()
        cases.append((n, list(zip(path, path[1:]))))
        cases += [(n, random_forest(rng, n, trees)) for trees in (1, 2, n // 2 + 1, n)]
    for n, edges in cases:
        edges = edges + [tuple(e) for e in rng.permutation(edges)[: len(edges) // 3].tolist()]
        if reachable(n, edges) == n:
            assert graph.graph_from_edges(n, edges).edges == {tuple(sorted(e)) for e in edges}
        else:
            with pytest.raises(GraphError, match="^graph is disconnected$"):
                graph.graph_from_edges(n, edges)


def test_graph_equality_and_edge_view():
    g = graph.rook(3, 3)
    back = graph.Graph(9, list(reversed(sorted(g.edges))), "rook(3,3)")
    assert back == g
    assert back != graph.Graph(9, g.edge_array) and g != "rook(3,3)"
    assert (0, 1) in g.edges and (1, 0) not in g.edges and (0, 4) not in g.edges
    assert g.edges == frozenset(map(tuple, g.edge_array.tolist()))
    with pytest.raises(ValueError):
        g.edge_array[0, 0] = 5
    with pytest.raises(GraphError, match="vertex pairs"):
        graph.graph_from_edges(3, [(0, 1, 2)])
