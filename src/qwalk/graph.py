"""Graph families and generic edge-list ingestion.

Vertices are 0-based integers.  Family generators fix the vertex order to
the lexicographic order of the underlying combinatorial labels (subsets
sorted ascending, tuples row-major, first bipartition block first) so that
every downstream artifact is reproducible byte for byte.  A graph keeps
its edges in one int64 array, and every O(E) step (generating, parsing,
checking, the matrices, the edge-list and JSON forms) is a few numpy
passes over it, with no Python loop per edge.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import GraphError

Edge = tuple[int, int]

@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected connected graph with an optional family tag.

    ``edge_array``, the only edge store, is a read-only (E, 2) int64 array
    of pairs u < v, unique and sorted.  The constructor takes such pairs
    in any order, sorts them and checks connectivity by root hooking
    (``_is_connected``), near-linear in E.  ``edges``, the same pairs as a
    frozenset of tuples, is built on first use for callers that test
    membership; no pipeline reads it.  Instances compare by value and are
    immutable.  The family tag is a record for artifacts; no route reads
    it.
    """

    n: int
    edge_array: np.ndarray
    family: str | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise GraphError(f"vertex count must be positive, got {self.n}")
        pairs = _pairs(self.edge_array)
        u, v = pairs.T
        if (loop := u == v).any():
            raise GraphError(f"self-loop at vertex {u[loop][0]}")
        if (bad := np.flatnonzero((u < 0) | (u > v) | (v >= self.n))).size:
            raise GraphError(f"edge ({u[bad[0]]}, {v[bad[0]]}) out of range for n={self.n}")
        # connected, so E >= n - 1 and the keys u * n + v stay below (E + 1)^2
        if len(pairs) < self.n - 1 or not _is_connected(self.n, pairs):
            raise GraphError("graph is disconnected")
        if np.any((keys := u * self.n + v)[1:] <= keys[:-1]):
            pairs = np.column_stack(np.divmod(np.unique(keys), self.n))
        pairs.flags.writeable = False
        object.__setattr__(self, "edge_array", pairs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and (self.n, self.family) == (
            other.n, other.family) and np.array_equal(self.edge_array, other.edge_array)

    @functools.cached_property
    def edges(self) -> frozenset[Edge]:
        return frozenset(map(tuple, self.edge_array.tolist()))


def _pairs(edges: np.ndarray | Iterable[Edge]) -> np.ndarray:
    """Pairs, an (E, 2) array or an iterable, as a new (E, 2) int64 array."""
    pairs = np.array(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
    if pairs.size and pairs.shape[1:] != (2,):
        raise GraphError(f"edges must be vertex pairs, got an array of shape {pairs.shape}")
    return pairs.reshape(-1, 2)


def _is_connected(n: int, pairs: np.ndarray) -> bool:
    """Whether ``pairs`` join all n vertices, by root hooking: each round
    hooks the larger root of every edge across two trees onto the least
    root it meets, shortcuts every vertex to its root and drops the edges
    inside a tree.  A root is its tree's least vertex, so the graph is
    connected iff every vertex ends at root 0."""
    root = np.arange(n)
    u, v = pairs.T
    while u.size:
        ru, rv = root[u], root[v]
        cross = ru != rv
        u, v = u[cross], v[cross]
        np.minimum.at(root, np.maximum(ru, rv)[cross], np.minimum(ru, rv)[cross])
        while not np.array_equal(up := root[root], root):
            root = up
    return not root.any()


def graph_from_edges(n: int, edges: np.ndarray | Iterable[Edge],
                     family: str | None = None) -> Graph:
    """Build a Graph from arbitrary (u, v) pairs, an (E, 2) array or an
    iterable, normalizing orientation and collapsing duplicates."""
    u, v = _pairs(edges).T
    return Graph(n, np.column_stack([np.minimum(u, v), np.maximum(u, v)]), family)


# ---------------------------------------------------------------------------
# Family generators
# ---------------------------------------------------------------------------

def johnson(n: int, k: int) -> Graph:
    """Johnson graph: k-subsets of an n-set, adjacent iff the intersection
    has size k-1.  J(n, 1) is the complete graph K_n."""
    if not 1 <= k < n:
        raise GraphError(f"johnson requires 1 <= k < n, got n={n}, k={k}")
    return graph_from_edges(math.comb(n, k), _subset_edges(n, k, k - 1), f"johnson({n},{k})")


def kneser(n: int, k: int) -> Graph:
    """Kneser graph: k-subsets of an n-set, adjacent iff disjoint.

    Requires n >= 2k for any edges to exist; for k >= 2 the boundary case
    n = 2k is a perfect matching and is rejected as disconnected.  Every
    n >= 2k+1 gives a connected graph, of diameter ceil((k-1)/(n-2k)) + 1
    (Valencia-Pabon and Vera 2005).
    """
    if k < 1 or n < 2 * k:
        raise GraphError(f"kneser requires 1 <= k and n >= 2k, got n={n}, k={k}")
    if n == 2 * k and k > 1:
        raise GraphError(f"kneser({n},{k}) is disconnected; need n >= 2k+1")
    return graph_from_edges(math.comb(n, k), _subset_edges(n, k, 0), f"kneser({n},{k})")


def _subset_edges(n: int, k: int, meet: int) -> np.ndarray:
    """The pairs u < v of lex-ranked k-subsets of range(n) that share
    ``meet`` elements, k - 1 (johnson) or 0 (kneser), listed from each
    subset's neighbours: johnson's swap one element of the subset for one
    outside it, and kneser's are the k-subsets of its complement.  A
    neighbour with elements c_0 < ... < c_{k-1} has lex rank C(n, k) - 1 -
    sum over i of C(n - 1 - c_i, k - i).  Each subset's neighbours are
    sorted by rank, so the pairs come sorted.  O(E k), about 65 536
    neighbours at a time."""
    subsets = np.array(list(itertools.combinations(range(n), k))).reshape(-1, k)
    member = np.zeros((len(subsets), n), dtype=bool)
    np.put_along_axis(member, subsets, True, 1)
    outside = np.nonzero(~member)[1].reshape(len(subsets), n - k)
    if meet:  # position i of the subset takes outside element j
        i, j = np.array(list(itertools.product(range(k), range(n - k)))).reshape(-1, 2).T
    else:
        picks = np.array(list(itertools.combinations(range(n - k), k))).reshape(-1, k)
    ranks = np.array([[math.comb(a, b) for b in range(k + 1)] for a in range(n)])
    step = max(1, 2**16 // (len(i) if meet else len(picks)))
    blocks = []
    for lo in range(0, len(subsets), step):
        rows = np.arange(lo, min(lo + step, len(subsets)))
        if meet:
            near = np.repeat(subsets[rows, None], len(i), axis=1)
            near[:, np.arange(len(i)), i] = outside[rows][:, j]
            near.sort(axis=2)
        else:
            near = outside[rows][:, picks]
        v = np.sort(len(subsets) - 1 - sum(ranks[n - 1 - near[..., c], k - c] for c in range(k)))
        u = np.broadcast_to(rows[:, None], v.shape)
        blocks.append(np.column_stack([u[u < v], v[u < v]]))
    return np.concatenate(blocks)


def hamming(d: int, q: int) -> Graph:
    """Hamming graph: d-tuples over a q-element alphabet, adjacent iff they
    differ in exactly one coordinate."""
    if d < 1 or q < 2:
        raise GraphError(f"hamming requires d >= 1 and q >= 2, got d={d}, q={q}")
    # tuple a is vertex sum_i a_i q^(d-1-i); raising the digit of place
    # value s by delta < q - digit adds delta * s, ascending over (s, delta)
    s = np.repeat(q ** np.arange(d), q - 1)
    delta = np.tile(np.arange(1, q), d)
    u = np.arange(q**d)[:, None]
    up = u // s % q + delta < q
    pairs = np.column_stack([np.broadcast_to(u, up.shape)[up], (u + s * delta)[up]])
    return graph_from_edges(q**d, pairs, f"hamming({d},{q})")


def rook(m: int, n: int) -> Graph:
    """Rook graph: Cartesian product of complete graphs K_m and K_n."""
    if m < 2 or n < 2:
        raise GraphError(f"rook requires m, n >= 2, got m={m}, n={n}")
    return _cartesian_product(_complete_edges(m), m, _complete_edges(n), n, f"rook({m},{n})")


def complete_square(n: int) -> Graph:
    """Cartesian product of the complete graph K_n with a 4-cycle."""
    if n < 2:
        raise GraphError(f"complete_square requires n >= 2, got n={n}")
    square = np.array([(0, 1), (1, 2), (2, 3), (0, 3)])
    return _cartesian_product(_complete_edges(n), n, square, 4, f"complete_square({n})")


def complete_bipartite(n1: int, n2: int) -> Graph:
    """Complete bipartite graph: blocks of size n1 and n2, every cross pair
    joined.  Vertex-transitive only when the blocks have equal size."""
    if n1 < 1 or n2 < 1:
        raise GraphError(f"complete_bipartite requires n1, n2 >= 1, got {n1}, {n2}")
    pairs = np.column_stack(np.divmod(np.arange(n1 * n2), n2)) + [0, n1]  # row-major, sorted
    return graph_from_edges(n1 + n2, pairs, f"complete_bipartite({n1},{n2})")


def cycle(n: int) -> Graph:
    """Cycle on n vertices, untagged.  Odd cycles above length 3 have
    non-integer Laplacian spectra and exist here to exercise that path."""
    if n < 3:
        raise GraphError(f"cycle requires n >= 3, got n={n}")
    return graph_from_edges(n, np.column_stack([np.arange(n), np.roll(np.arange(n), -1)]))


def single_vertex() -> Graph:
    """The one-vertex graph (edgeless but trivially connected)."""
    return Graph(1, np.zeros((0, 2), dtype=np.int64))


def _complete_edges(n: int) -> np.ndarray:
    return np.argwhere(np.arange(n)[:, None] < np.arange(n))


def _cartesian_product(
    edges1: np.ndarray, n1: int, edges2: np.ndarray, n2: int, tag: str
) -> Graph:
    # vertex (i, j) -> i * n2 + j, row-major
    along1 = edges1[:, None] * n2 + np.arange(n2)[:, None]
    along2 = np.arange(n1)[:, None, None] * n2 + edges2
    pairs = np.concatenate([along1.reshape(-1, 2), along2.reshape(-1, 2)])
    return graph_from_edges(n1 * n2, pairs, tag)


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


# ---------------------------------------------------------------------------
# Family recognition
# ---------------------------------------------------------------------------

#: bytes, so ``_meet``'s (pairs, mask bytes) popcounts take one byte each
_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def family_matches(g: Graph) -> list[tuple[str, tuple[int, ...]]]:
    """Every built-in family whose generator gives exactly g's labelled
    edges, decided from the edges alone, never the tag.  The vertex and
    edge counts fix the candidates; each edge obeying a candidate's
    adjacency rule on the labels then proves the edge sets equal.  A complete graph needs no rule."""
    n, e = g.n, len(g.edge_array)
    u, v = g.edge_array.T
    return [(name, params) for name, params, rule in _candidates(n, e)
            if 2 * e == n * (n - 1) or rule(u, v).all()]


def _candidates(n: int, e: int):
    """(name, params, edge rule) of each family with n vertices and e edges."""
    for d in range(1, n.bit_length()):
        q = round(n ** (1 / d))
        if q**d == n and 2 * e == n * d * (q - 1):
            yield "hamming", (d, q), lambda u, v, d=d, q=q: _one_digit_up(d, q, u, v)
    for a, b in _sum_product_pairs(n, e):
        yield "complete_bipartite", (a, b), lambda u, v, a=a: (u < a) & (v >= a)
    for a, b in _sum_product_pairs(2 * e // n + 2, n) if 2 * e % n == 0 else ():
        if min(a, b) >= 2:
            yield "rook", (a, b), lambda u, v, b=b: (u // b == v // b) | (u % b == v % b)
    if n % 4 == 0 and n >= 8 and 2 * e == n * (n // 4 + 1):
        yield "complete_square", (n // 4,), lambda u, v: (u % 4 == v % 4) | (
            (u // 4 == v // 4) & ((v - u) % 2 == 1))
    subsets = {(n, 1), (n, n - 1)} if n >= 2 else set()  # every C(m, k) = n
    for m in range(4, math.isqrt(2 * n) + 2):  # C(m, k) >= C(m, 2) for 2 <= k <= m - 2
        for k in itertools.takewhile(lambda k: math.comb(m, k) <= n, range(2, m // 2 + 1)):
            subsets |= {(m, k), (m, m - k)} if math.comb(m, k) == n else set()
    for m, k in sorted(subsets):
        if 2 * e == n * k * (m - k):
            yield "johnson", (m, k), lambda u, v, m=m, k=k: (
                _meet(_subset_masks(m, k), u, v) == k - 1)
        if 2 * e == n * math.comb(m - k, k):  # under n - 1 edges when m <= 2k, k > 1
            yield "kneser", (m, k), lambda u, v, m=m, k=k: _meet(_subset_masks(m, k), u, v) == 0


def _one_digit_up(d: int, q: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether each v > u differs from u in one base-q digit of d: v - u
    is delta * s for s = q**i, the largest place value <= v - u, and
    adding delta to u's digit i carries nothing."""
    places = q ** np.arange(d)
    s = places[np.searchsorted(places, v - u, side="right") - 1]
    return ((v - u) % s == 0) & (u // s % q + (v - u) // s < q)


def _sum_product_pairs(total: int, product: int) -> list[tuple[int, int]]:
    """The ordered positive pairs (a, b) with a + b = total, a * b = product."""
    a = (total - math.isqrt(max(total * total - 4 * product, 0))) // 2
    return sorted({(a, total - a), (total - a, a)}) if a > 0 and a * (total - a) == product else []


def _subset_masks(m: int, k: int) -> np.ndarray:
    """The packed membership masks of the lex-ranked k-subsets of range(m)."""
    member = np.zeros((math.comb(m, k), m), dtype=bool)
    np.put_along_axis(member, np.array(list(itertools.combinations(range(m), k))), True, 1)
    return np.packbits(member, axis=1)


def _meet(masks: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """|S_u & S_v| for index arrays u and v that broadcast: the popcount of
    the and of the sets' packed membership ``masks``."""
    return _POPCOUNT[masks[u] & masks[v]].sum(axis=-1)


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------

def load_edge_list(text: str) -> Graph:
    """Parse the two-column edge-list format.

    Each non-comment line holds two distinct 0-based vertex indices
    separated by whitespace; '#' starts a comment.  Duplicate edge lines
    collapse to one edge.  The vertex count is one plus the largest index.
    A valid list takes one int64 conversion of all its tokens; only an
    invalid one is read line by line, for the first bad line.
    """
    raw = text.splitlines()
    tokens = list(map(str.split, [r.split("#", 1)[0] for r in raw] if "#" in text else raw))
    try:
        pairs = np.array(list(itertools.chain.from_iterable(tokens)), dtype=np.int64).reshape(-1, 2)
    except (ValueError, OverflowError):
        pairs = None
    if pairs is None or not {*map(len, tokens)} <= {0, 2} or np.any(
            (pairs[:, 0] == pairs[:, 1]) | (pairs < 0).any(axis=1)):
        for lineno, (line, words) in enumerate(zip(raw, tokens), start=1):
            if not words:
                continue
            if len(words) != 2:
                raise GraphError(f"line {lineno}: expected two vertex indices, got {line!r}")
            try:
                u, v = map(int, words)
            except ValueError:
                raise GraphError(f"line {lineno}: non-integer token in {line!r}") from None
            if u == v:
                raise GraphError(f"line {lineno}: self-loop at vertex {u}")
            if u < 0 or v < 0:
                raise GraphError(f"line {lineno}: negative vertex index in {line!r}")
        raise GraphError("graph is disconnected")  # an index past int64: E < n - 1
    if not len(pairs):
        raise GraphError("edge list is empty")
    return graph_from_edges(int(pairs.max()) + 1, pairs)


def dump_edge_list(g: Graph) -> str:
    """Serialize to the edge-list format, one sorted 'u v' line per edge."""
    return ("%d %d\n" * len(g.edge_array)) % tuple(g.edge_array.ravel().tolist())


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

def adjacency(g: Graph) -> np.ndarray:
    """Dense symmetric 0/1 adjacency matrix."""
    a = np.zeros((g.n, g.n))
    u, v = g.edge_array.T
    a[u, v] = a[v, u] = 1.0
    return a


def laplacian(g: Graph) -> np.ndarray:
    """Dense Laplacian: degree matrix minus adjacency matrix."""
    return np.diag(np.bincount(g.edge_array.ravel(), minlength=g.n)) - adjacency(g)


def laplacian_matvec(g: Graph, w: np.ndarray) -> np.ndarray:
    """The Laplacian of g times the vector w, from the edge array in O(E):
    each edge (u, v) adds w_u - w_v at u and subtracts it at v."""
    u, v = g.edge_array.T
    diff = w[u] - w[v]
    return np.bincount(u, diff, g.n) - np.bincount(v, diff, g.n)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def graph_to_json_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": g.edge_array.tolist(), "family": g.family}


def graph_from_json_dict(data: dict) -> Graph:
    """The graph of a JSON dict; ``n`` and every edge endpoint must be JSON
    integers, never floats, strings or booleans.  Any other key, such as
    the ``vertex_transitive`` of older artifacts, is ignored."""
    n, edges = data["n"], data["edges"]
    if {type(n), *map(type, itertools.chain.from_iterable(edges))} != {int}:
        raise GraphError("graph JSON: n and every edge endpoint must be integers")
    return graph_from_edges(n, edges, data.get("family"))
