"""Graph families and generic edge-list ingestion.

Vertices are 0-based integers.  Family generators fix the vertex order to
the lexicographic order of the underlying combinatorial labels (subsets
sorted ascending, tuples row-major, first bipartition block first) so that
every downstream artifact is reproducible byte for byte.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .errors import GraphError

Edge = tuple[int, int]

#: Values of the tri-state vertex-transitivity flag.
TRANSITIVE = ("yes", "no", "unknown")


@dataclass(frozen=True)
class Graph:
    """Simple undirected connected graph with an optional family tag.

    ``edges`` holds normalized pairs ``(u, v)`` with ``u < v``.  Instances
    are immutable and safe to share across threads.
    """

    n: int
    edges: frozenset[Edge]
    family: str | None = None
    vertex_transitive: str = "unknown"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise GraphError(f"vertex count must be positive, got {self.n}")
        if self.vertex_transitive not in TRANSITIVE:
            raise GraphError(
                f"vertex_transitive must be one of {TRANSITIVE}, "
                f"got {self.vertex_transitive!r}"
            )
        for u, v in self.edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={self.n}")
        if not _is_connected(self.n, self.edges):
            raise GraphError("graph is disconnected")

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def neighbors(self, v: int) -> list[int]:
        return sorted(u + w - v for u, w in self.edges if v in (u, w))


def _is_connected(n: int, edges: Iterable[Edge]) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == n


def graph_from_edges(
    n: int,
    edges: Iterable[tuple[int, int]],
    family: str | None = None,
    vertex_transitive: str = "unknown",
) -> Graph:
    """Build a Graph from arbitrary (u, v) pairs, normalizing orientation
    and collapsing duplicates."""
    normalized = set()
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        normalized.add((min(u, v), max(u, v)))
    return Graph(n, frozenset(normalized), family, vertex_transitive)


# ---------------------------------------------------------------------------
# Family generators
# ---------------------------------------------------------------------------

def johnson(n: int, k: int) -> Graph:
    """Johnson graph: k-subsets of an n-set, adjacent iff the intersection
    has size k-1.  J(n, 1) is the complete graph K_n."""
    if not 1 <= k < n:
        raise GraphError(f"johnson requires 1 <= k < n, got n={n}, k={k}")
    verts = list(itertools.combinations(range(n), k))
    index = {v: i for i, v in enumerate(verts)}
    edges = [
        (index[a], index[b])
        for a, b in itertools.combinations(verts, 2)
        if len(set(a) & set(b)) == k - 1
    ]
    return graph_from_edges(len(verts), edges, f"johnson({n},{k})", "yes")


def kneser(n: int, k: int) -> Graph:
    """Kneser graph: k-subsets of an n-set, adjacent iff disjoint.

    Requires n >= 2k for any edges to exist; for k >= 2 the boundary case
    n = 2k is a perfect matching and is rejected as disconnected.
    """
    if k < 1 or n < 2 * k:
        raise GraphError(f"kneser requires 1 <= k and n >= 2k, got n={n}, k={k}")
    verts = list(itertools.combinations(range(n), k))
    index = {v: i for i, v in enumerate(verts)}
    edges = [
        (index[a], index[b])
        for a, b in itertools.combinations(verts, 2)
        if not set(a) & set(b)
    ]
    if not _is_connected(len(verts), [(min(e), max(e)) for e in edges]):
        raise GraphError(f"kneser({n},{k}) is disconnected; need n >= 2k+1")
    return graph_from_edges(len(verts), edges, f"kneser({n},{k})", "yes")


def hamming(d: int, q: int) -> Graph:
    """Hamming graph: d-tuples over a q-element alphabet, adjacent iff they
    differ in exactly one coordinate."""
    if d < 1 or q < 2:
        raise GraphError(f"hamming requires d >= 1 and q >= 2, got d={d}, q={q}")
    verts = list(itertools.product(range(q), repeat=d))
    index = {v: i for i, v in enumerate(verts)}
    edges = []
    for a in verts:
        for pos in range(d):
            for sym in range(a[pos] + 1, q):
                b = a[:pos] + (sym,) + a[pos + 1 :]
                edges.append((index[a], index[b]))
    return graph_from_edges(len(verts), edges, f"hamming({d},{q})", "yes")


def rook(m: int, n: int) -> Graph:
    """Rook graph: Cartesian product of complete graphs K_m and K_n."""
    if m < 2 or n < 2:
        raise GraphError(f"rook requires m, n >= 2, got m={m}, n={n}")
    return _cartesian_product(
        _complete_edges(m), m, _complete_edges(n), n, f"rook({m},{n})"
    )


def complete_square(n: int) -> Graph:
    """Cartesian product of the complete graph K_n with a 4-cycle."""
    if n < 2:
        raise GraphError(f"complete_square requires n >= 2, got n={n}")
    square = [(0, 1), (1, 2), (2, 3), (0, 3)]
    return _cartesian_product(
        _complete_edges(n), n, square, 4, f"complete_square({n})"
    )


def complete_bipartite(n1: int, n2: int) -> Graph:
    """Complete bipartite graph: blocks of size n1 and n2, every cross pair
    joined.  Vertex-transitive only when the blocks have equal size."""
    if n1 < 1 or n2 < 1:
        raise GraphError(f"complete_bipartite requires n1, n2 >= 1, got {n1}, {n2}")
    edges = [(u, n1 + v) for u in range(n1) for v in range(n2)]
    flag = "yes" if n1 == n2 else "no"
    return graph_from_edges(n1 + n2, edges, f"complete_bipartite({n1},{n2})", flag)


def cycle(n: int) -> Graph:
    """Cycle on n vertices, untagged.  Odd cycles above length 3 have
    non-integer Laplacian spectra and exist here to exercise that path."""
    if n < 3:
        raise GraphError(f"cycle requires n >= 3, got n={n}")
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def single_vertex() -> Graph:
    """The one-vertex graph (edgeless but trivially connected)."""
    return Graph(1, frozenset())


def _complete_edges(n: int) -> list[Edge]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _cartesian_product(
    edges1: list[Edge], n1: int, edges2: list[Edge], n2: int, tag: str
) -> Graph:
    # vertex (i, j) -> i * n2 + j, row-major
    edges = []
    for u, v in edges1:
        for j in range(n2):
            edges.append((u * n2 + j, v * n2 + j))
    for i in range(n1):
        for u, v in edges2:
            edges.append((i * n2 + u, i * n2 + v))
    return graph_from_edges(n1 * n2, edges, tag, "yes")


_FAMILY_BUILDERS = {
    "johnson": (johnson, 2),
    "kneser": (kneser, 2),
    "hamming": (hamming, 2),
    "rook": (rook, 2),
    "complete_square": (complete_square, 1),
    "complete_bipartite": (complete_bipartite, 2),
}


def build_family(name: str, params: tuple[int, ...]) -> Graph:
    """Construct a tagged family graph by name; see _FAMILY_BUILDERS keys."""
    key = name.lower().replace("-", "_")
    if key not in _FAMILY_BUILDERS:
        raise GraphError(
            f"unknown family {name!r}; known: {', '.join(sorted(_FAMILY_BUILDERS))}"
        )
    builder, arity = _FAMILY_BUILDERS[key]
    if len(params) != arity:
        raise GraphError(f"family {name!r} takes {arity} parameter(s), got {len(params)}")
    return builder(*params)


def family_params(g: Graph) -> tuple[str, tuple[int, ...]] | None:
    """Parse a generator-produced family tag back into (name, params)."""
    if g.family is None or "(" not in g.family:
        return None
    name, rest = g.family.split("(", 1)
    try:
        params = tuple(int(tok) for tok in rest.rstrip(")").split(","))
    except ValueError:
        raise GraphError(f"malformed family tag {g.family!r}") from None
    return name, params


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------

def load_edge_list(source: str | IO[str]) -> Graph:
    """Parse the two-column edge-list format.

    Each non-comment line holds two distinct 0-based vertex indices
    separated by whitespace; '#' starts a comment.  Duplicate edge lines
    collapse to one edge.  The vertex count is one plus the largest index.
    """
    text = source if isinstance(source, str) else source.read()
    edges: set[Edge] = set()
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
    return Graph(max_index + 1, frozenset(edges))


def dump_edge_list(g: Graph) -> str:
    """Serialize to the edge-list format, one sorted 'u v' line per edge."""
    return "".join(f"{u} {v}\n" for u, v in sorted(g.edges))


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

def adjacency(g: Graph) -> np.ndarray:
    """Dense symmetric 0/1 adjacency matrix."""
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    return a


def laplacian(g: Graph) -> np.ndarray:
    """Dense Laplacian: degree matrix minus adjacency matrix."""
    a = adjacency(g)
    return np.diag(a.sum(axis=1)) - a


# ---------------------------------------------------------------------------
# Vertex transitivity (test oracle, factorial cost)
# ---------------------------------------------------------------------------

def check_vertex_transitive_bruteforce(g: Graph) -> bool:
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


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def graph_to_json_dict(g: Graph) -> dict:
    return {
        "n": g.n,
        "edges": [[u, v] for u, v in sorted(g.edges)],
        "family": g.family,
        "vertex_transitive": g.vertex_transitive,
    }


def graph_from_json_dict(data: dict) -> Graph:
    return graph_from_edges(
        int(data["n"]),
        [(int(u), int(v)) for u, v in data["edges"]],
        data.get("family"),
        data.get("vertex_transitive", "unknown"),
    )
