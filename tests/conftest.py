import itertools

import numpy as np
import pytest

from qwalk import graph, spectral
from qwalk.errors import GraphError


@pytest.fixture(scope="session")
def search_suite():
    """Vertex-transitive graphs the deterministic-search criteria run on."""
    return [
        graph.johnson(5, 2),
        graph.hamming(2, 3),
        graph.rook(3, 3),
        graph.kneser(5, 2),
        graph.complete_square(3),
    ]


@pytest.fixture(scope="session")
def sampling_suite(search_suite):
    return list(search_suite) + [graph.johnson(7, 2), graph.hamming(3, 2)]


@pytest.fixture
def c4():
    return graph.rook(2, 2)


def laplacian_eigenvalues(g):
    """Independent spectrum: numpy eigvalsh on the explicit Laplacian."""
    return np.linalg.eigvalsh(graph.laplacian(g))


def dense_gate(g, **kwargs):
    """The gate on g's dense ``eigvalsh`` values, passed in as an
    eigenvalue-only spectrum so no closed form replaces them: the
    reference the other routes must match."""
    return spectral.graph_integer_spectrum(
        g, spectral._values_only(laplacian_eigenvalues(g)), **kwargs)


@pytest.fixture(scope="session")
def chang_graphs():
    """The three Chang graphs, SRG(28,12,6,4): johnson(8,2), the line graph
    of K8, Seidel-switched on the K8 edges of 4K2, C8 and C3+C5.  They are
    walk-regular but not vertex-transitive."""
    pairs = list(itertools.combinations(range(8), 2))
    base = graph.johnson(8, 2)
    switch_sets = {
        "4K2": [(0, 1), (2, 3), (4, 5), (6, 7)],
        "C8": [(i, (i + 1) % 8) for i in range(8)],
        "C3+C5": [(0, 1), (1, 2), (0, 2)] + [(3 + i, 3 + (i + 1) % 5) for i in range(5)],
    }
    out = {}
    for name, k8_edges in switch_sets.items():
        s = {pairs.index(tuple(sorted(e))) for e in k8_edges}
        edges = [
            (u, v) for u, v in itertools.combinations(range(28), 2)
            if ((u, v) in base.edges) != ((u in s) != (v in s))
        ]
        out[name] = graph.graph_from_edges(28, edges)
    return out


@pytest.fixture
def k4_minus_edge():
    """K4 without the edge 0-1: spectrum {0, 2, 4, 4}, level masses that
    depend on the vertex, not complete bipartite."""
    return graph.load_edge_list("0 2\n0 3\n1 2\n1 3\n2 3\n")


def reachable(n, edges, start=0):
    """The number of vertices reachable from ``start`` over the (u, v)
    tuples ``edges``: a plain depth-first search, the connectivity
    reference."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {start}, [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen)


def check_vertex_transitive_bruteforce(g):
    """Decide vertex transitivity by enumerating all vertex permutations.

    Only feasible for n <= 8.  The automorphisms form a group, so the graph
    is vertex-transitive iff the images of vertex 0 under adjacency-
    preserving permutations cover every vertex.
    """
    if g.n > 8:
        raise GraphError(f"brute-force transitivity check limited to n <= 8, got {g.n}")
    edges = g.edges
    reachable: set[int] = set()
    for perm in itertools.permutations(range(g.n)):
        if perm[0] in reachable:
            continue
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in edges for u, v in edges):
            reachable.add(perm[0])
            if len(reachable) == g.n:
                return True
    return len(reachable) == g.n
