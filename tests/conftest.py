import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

from qwalk import depth, graph, spectral
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


def dense_gate(g):
    """The gate on g's dense ``eigvalsh`` values, passed in as an
    eigenvalue-only spectrum so no closed form replaces them: the
    reference the other routes must match."""
    return spectral.graph_integer_spectrum(g, spectral._values_only(laplacian_eigenvalues(g)))


_EIGENBASES: dict[int, tuple] = {}


def eigenbasis(ctx):
    """ctx's dense decomposition, the reference its frame runs are checked
    against: the context's own ``spectrum`` where it holds one, and on a
    closed form, which never decomposes, the dense solve of its graph's
    Laplacian, once per graph object."""
    if ctx.spectrum is not None:
        return ctx.spectrum
    g = ctx.graph
    if _EIGENBASES.get(id(g), (None,))[0] is not g:
        _EIGENBASES[id(g)] = (g, spectral.eigendecompose(graph.laplacian(g)))
    return _EIGENBASES[id(g)][1]


def group_runs(spec):
    """Each eigenspace group's run of eigen-indices into ``spec``, as a
    ``range``: group g covers ``multiplicities[g]`` indices after the
    groups before it."""
    stops = np.cumsum(spec.multiplicities).tolist()
    return [range(stop - k, stop) for k, stop in zip(spec.multiplicities, stops)]


def index_chain(values):
    """The depth chain over eigen-indices, the reference the group-keyed
    ``depth.build_depth_chain`` is checked against: per level, its kept
    indices into ``values``, the ones it splits off and its gcd."""
    current = tuple(range(len(values)))
    levels = [(current, (), depth.gcd_nonzero(values))]
    while any(values[i] != 0 for i in current):
        g = levels[-1][2]
        kept = tuple(i for i in current if (values[i] // g) % 2 == 0)
        split = tuple(i for i in current if (values[i] // g) % 2 == 1)
        levels.append((kept, split, depth.gcd_nonzero(values[i] for i in kept)))
        current = kept
    return levels


def index_level_masses(levels, alphas):
    """A vertex's mass on each level of an ``index_chain``: its squared
    eigenvector amplitudes summed in index order over the level's indices."""
    depths = np.zeros(len(alphas), dtype=int)
    for k, (kept, _, _) in enumerate(levels[1:], 1):
        depths[list(kept)] = k
    squares = np.asarray(alphas) ** 2
    return np.array([squares[depths >= k].sum() for k in range(len(levels))])


def index_overlaps(levels, alphas):
    """``depth.overlaps`` from ``index_level_masses``, with its skip rule."""
    masses = index_level_masses(levels, alphas)
    return np.array([1.0 if masses[k] - masses[k + 1] <= depth.SKIP_MASS_TOL
                     else min(float(np.sqrt(masses[k + 1] / masses[k])), 1.0)
                     for k in range(len(levels) - 1)])


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
    """Decide vertex transitivity by an exhaustive search over vertex
    permutations, built one vertex at a time and cut as soon as a degree
    or an adjacency to an earlier vertex differs.

    Feasible for n <= 24.  The graph is vertex-transitive iff for every
    vertex t some automorphism maps vertex 0 to t.
    """
    if g.n > 24:
        raise GraphError(f"brute-force transitivity check limited to n <= 24, got {g.n}")
    adj = graph.adjacency(g).astype(bool)
    degree = adj.sum(axis=1)

    def extend(perm):
        k = len(perm)
        return k == g.n or any(
            degree[k] == degree[w] and np.array_equal(adj[k, :k], adj[w, perm])
            and extend(perm + [w])
            for w in sorted(set(range(g.n)).difference(perm)))

    return all(degree[0] == degree[t] and extend([t]) for t in range(g.n))


@st.composite
def connected_cographs(draw, max_n=12):
    """A connected cograph on 2 to ``max_n`` vertices, randomly relabelled:
    the join of two cographs, each in turn the join or the disjoint union
    of two smaller ones.  Every cograph has an integer Laplacian spectrum
    (Merris 1994)."""
    n = draw(st.integers(2, max_n))
    label = draw(st.permutations(range(n)))
    edges = _cograph_edges(draw, n, join=True)
    return graph.graph_from_edges(n, [(label[u], label[v]) for u, v in edges])


def cartesian_product(g, h):
    """g □ h on the pairs (u, v), labelled u * h.n + v: (u, v) ~ (u', v)
    for every edge u ~ u' of g and (u, v) ~ (u, v') for every edge v ~ v'
    of h.  Its Laplacian is L_g ⊗ I + I ⊗ L_h, so its eigenvalues are the
    pairwise sums of the factors'."""
    edges = [(a * h.n + v, b * h.n + v) for a, b in g.edges for v in range(h.n)]
    edges += [(u * h.n + a, u * h.n + b) for u in range(g.n) for a, b in h.edges]
    return graph.graph_from_edges(g.n * h.n, edges)


def _cograph_edges(draw, n, join):
    """The edges of a cograph on vertices 0..n-1: two smaller cographs on
    0..k-1 and k..n-1, joined by every cross edge when ``join``."""
    if n == 1:
        return []
    k = draw(st.integers(1, n - 1))
    left = _cograph_edges(draw, k, draw(st.booleans()))
    right = _cograph_edges(draw, n - k, draw(st.booleans()))
    cross = [(u, v) for u in range(k) for v in range(k, n)] if join else []
    return left + [(u + k, v + k) for u, v in right] + cross
