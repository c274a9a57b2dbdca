import itertools
import math

import numpy as np
import pytest

from qwalk import graph
from qwalk.errors import GraphError

from conftest import check_vertex_transitive_bruteforce, laplacian_eigenvalues


def test_johnson_4_2_degrees():
    g = graph.johnson(4, 2)
    assert g.n == 6
    assert all(g.degree(v) == 2 * (4 - 2) for v in range(g.n))


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
    assert g.vertex_transitive == "no"
    assert graph.complete_bipartite(3, 3).vertex_transitive == "yes"


def test_complete_bipartite_adjacency_spectrum():
    a = graph.adjacency(graph.complete_bipartite(2, 3))
    evs = np.sort(np.linalg.eigvalsh(a))
    expected = [-math.sqrt(6), 0, 0, 0, math.sqrt(6)]
    assert np.allclose(evs, expected, atol=1e-9)


def test_kneser_petersen():
    g = graph.kneser(5, 2)
    assert g.n == 10
    assert all(g.degree(v) == 3 for v in range(g.n))


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
    assert all(g.degree(v) == 2 + 2 for v in range(g.n))


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
        degrees = {g.degree(v) for v in range(g.n)}
        assert len(degrees) == 1, g.family


def test_load_edge_list_triangle():
    g = graph.load_edge_list("0 1\n1 2\n2 0\n")
    assert g.n == 3
    assert g.edges == frozenset({(0, 1), (1, 2), (0, 2)})
    assert g.family is None
    assert g.vertex_transitive == "unknown"


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
    with pytest.raises(GraphError, match="n <= 8"):
        check_vertex_transitive_bruteforce(graph.johnson(5, 2))


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
