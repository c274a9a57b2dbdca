"""Dense symmetric eigendecomposition, eigenspace grouping, vertex masses
in closed form or from a table, and the integer-spectrum gate.

A decomposition's G eigenspace groups are runs of indices, held as mean
values and multiplicities; ``eigendecompose`` also builds once the (N, G)
table of vertex masses <m|E_g|m> (``group_sums`` of the squared
eigenvectors) that synthesis, mass classes and frames read.  Downstream
formulas consume only such group sums, never individual eigenvectors, so
results do not depend on the solver's basis inside a degenerate eigenspace.
A built-in family's masses also have closed forms (``family_masses``),
O(G) per run of vertices that share them, and so do its Gram entries
(E_g)_uv (``family_gram``), a table row per relation between two
labels, so a graph the edges identify needs no dense decomposition.

``graph_integer_spectrum`` is the one gate on a graph's Laplacian.  Its
G eigenvalue groups come from a decomposition the caller passes, else in
closed form when the edges are a built-in family's, else from a dense
solve, ``eigendecompose`` for the tasks or ``eigvalsh`` alone.  Solved
values are rounded within the fixed ``INTEGER_TOL``, and every route's
groups are certified in exact integer arithmetic on the edge list,
O(G·E): the product of (L - lambda I) over the distinct rounded values
kills a pseudo-random vector modulo a prime, so every eigenvalue is one
of them, and the multiplicities reproduce N, tr L and ||L||_F^2.  Even a
loose tolerance could therefore not admit a non-integer spectrum.
L 1 = 0 holds for every graph, so a simple zero makes the uniform state
the kernel.
"""

from __future__ import annotations

import math
import operator
import random
from collections.abc import Callable
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import SpectrumError
from .graph import Graph, _meet, _subset_masks, family_matches, laplacian, laplacian_matvec

#: Eigenvalues closer than this are treated as one eigenspace.
GROUP_TOL = 1e-6
#: Maximum distance from the nearest integer for a spectrum to validate.
INTEGER_TOL = 1e-6
ORTHONORMALITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-8
#: The certificate's modulus, the Mersenne prime 2^31 - 1.  Residues below
#: it times a row whose absolute sum is under 2^22 stay below 2^53, so
#: float64 BLAS computes them exactly.
CERT_PRIME = 2**31 - 1
#: Seed of the certificate's test vector, fixed so the gate is
#: deterministic.
CERT_SEED = 20240601


@dataclass(frozen=True)
class Spectrum:
    """Orthonormal real eigendecomposition of a symmetric matrix.

    ``eigenvalues`` are ascending; column i of ``eigenvectors`` pairs with
    eigenvalue i.  Eigenspace group g, a run of ``multiplicities[g]``
    indices, has mean eigenvalue ``values[g]``, and ``masses[m, g]`` is
    vertex m's mass <m|E_g|m> on it.  ``eigenvectors`` and ``masses`` are
    None when only the eigenvalues were computed.  Arrays are read-only.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    values: tuple[float, ...]
    multiplicities: tuple[int, ...]
    masses: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class IntegerSpectrum:
    """Ascending integer eigenvalue groups, ``values[g]`` with multiplicity
    ``multiplicities[g]``, one a simple 0; ``graph_integer_spectrum`` also
    certifies them exactly.  ``base`` is the Spectrum they were rounded
    from, group for group, or None for a closed form (no N entries), whose
    ``family`` is the (name, params) it was computed for."""

    values: tuple[int, ...]
    multiplicities: tuple[int, ...]
    base: Spectrum | None = None
    family: tuple[str, tuple[int, ...]] | None = None

    def __post_init__(self) -> None:
        zeros = sum(k for x, k in zip(self.values, self.multiplicities) if x == 0)
        if zeros != 1:
            raise SpectrumError(f"zero eigenvalue is not simple: multiplicity {zeros}")

    @property
    def int_eigenvalues(self) -> tuple[int, ...]:
        """Every eigenvalue, ascending, each repeated by its multiplicity."""
        return tuple(x for x, k in zip(self.values, self.multiplicities) for _ in range(k))

    @property
    def zero_index(self) -> int:
        return sum(k for x, k in zip(self.values, self.multiplicities) if x < 0)


def eigendecompose(matrix: np.ndarray) -> Spectrum:
    """Eigendecompose a real symmetric matrix, group its eigenspaces and
    tabulate every vertex's mass on each group, once.

    Raises SpectrumError if the input is not symmetric, the solver fails to
    converge, or the decomposition misses the orthonormality/reconstruction
    contract.
    """
    m, scale = _symmetric(matrix)
    eigenvalues, eigenvectors = _solve(np.linalg.eigh, m)
    n = len(eigenvalues)
    ortho = float(np.max(np.abs(eigenvectors.T @ eigenvectors - np.eye(n))))
    if ortho > ORTHONORMALITY_TOL:
        raise SpectrumError(f"eigenvectors not orthonormal: defect {ortho:.3e}")
    residual = float(
        np.max(np.abs(m - (eigenvectors * eigenvalues) @ eigenvectors.T))
    )
    if residual > RECONSTRUCTION_TOL * (1.0 + scale):
        raise SpectrumError(f"reconstruction residual too large: {residual:.3e}")

    spectrum = Spectrum(eigenvalues, eigenvectors, *_group_eigenvalues(eigenvalues))
    masses = group_sums(spectrum, eigenvectors * eigenvectors)
    for array in (eigenvalues, eigenvectors, masses):
        array.flags.writeable = False
    return replace(spectrum, masses=masses)


def group_sums(spectrum: Spectrum, x: np.ndarray) -> np.ndarray:
    """x summed over the indices of each eigenspace group (an index run),
    along its last axis: with x = V[u] * V[v], the entries (E_g)_uv."""
    starts = np.cumsum((0, *spectrum.multiplicities[:-1]))
    return np.add.reduceat(x, starts, axis=-1)


def _symmetric(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """The matrix as a float array, with its largest entry magnitude."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SpectrumError(f"expected a square matrix, got shape {m.shape}")
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    if float(np.max(np.abs(m - m.T))) > 1e-12 * (1.0 + scale):
        raise SpectrumError("matrix is not symmetric")
    return m, scale


def _solve(solver, m: np.ndarray):
    try:
        return solver(m)
    except np.linalg.LinAlgError as exc:
        raise SpectrumError(f"symmetric eigensolver failed to converge: {exc}") from exc


def _group_eigenvalues(eigenvalues: np.ndarray) -> tuple[tuple[float, ...], tuple[int, ...]]:
    # Cluster ascending eigenvalues at gaps >= GROUP_TOL into their means
    # and sizes; the spread inside one cluster must stay below GROUP_TOL
    # or the grouping is ambiguous.
    cuts = [0, *(np.flatnonzero(np.diff(eigenvalues) >= GROUP_TOL) + 1).tolist(), len(eigenvalues)]
    blocks = [eigenvalues[start:stop] for start, stop in zip(cuts, cuts[1:])]
    for block in blocks:
        if float(block[-1] - block[0]) >= GROUP_TOL:
            raise SpectrumError(
                "ambiguous eigenvalue clustering near "
                f"{float(block[0]):.9g}..{float(block[-1]):.9g}"
            )
    return tuple(float(np.mean(block)) for block in blocks), tuple(map(len, blocks))


def validate_integer_spectrum(spectrum: Spectrum) -> IntegerSpectrum:
    """Round a spectrum to integers with a simple zero eigenvalue.

    This is the float half of the gate: every eigenvalue must lie within
    ``INTEGER_TOL`` of an integer and exactly one must round to 0.
    ``graph_integer_spectrum`` adds the exact certificate on the graph.
    """
    values = spectrum.eigenvalues
    rounded = np.rint(values)
    bad = np.flatnonzero(~(np.abs(values - rounded) <= INTEGER_TOL))  # NaN is bad too
    if bad.size:
        i = int(bad[0])
        raise SpectrumError(f"non-integer eigenvalue {float(values[i]):.9g} at index {i}")
    # a group spreads less than GROUP_TOL, so its members round as one
    return IntegerSpectrum(tuple(map(round, spectrum.values)), spectrum.multiplicities, spectrum)


def graph_integer_spectrum(
    g: Graph, spectrum: Spectrum | None = None, *, decompose: bool = False
) -> IntegerSpectrum:
    """The integer gate: round a spectrum of g's Laplacian to integers and
    certify it exactly on g's edges.

    A ``spectrum`` the caller passes is rounded as given, since its groups
    index its eigenvectors.  Without one, a graph whose edges are a
    built-in family's (``graph.family_matches``) takes its closed-form
    groups, which need no rounding and have no ``base``, and any other
    graph the dense solve of its Laplacian: in full (``eigendecompose``)
    with ``decompose``, else its eigenvalues alone (``eigvalsh``), whose
    ``base.eigenvectors`` is None.  Raises SpectrumError if the values do
    not round within ``INTEGER_TOL``, the zero is not simple, or the
    certificate fails.
    """
    if spectrum is None and (matches := family_matches(g)):
        ints = family_spectrum(*matches[0])
    else:
        if spectrum is None:
            spectrum = (eigendecompose(laplacian(g)) if decompose
                        else _values_only(_solve(np.linalg.eigvalsh, laplacian(g))))
        ints = validate_integer_spectrum(spectrum)
    _certify(ints, g)
    return ints


def family_spectrum(name: str, params: tuple[int, ...]) -> IntegerSpectrum:
    """A built-in family's Laplacian eigenvalue groups in closed form,
    ascending, in O(G): terms of equal value merge (rook(a, a),
    complete_bipartite(a, a)) and empty ones drop (complete_bipartite(1, b));
    ``base`` is None and ``family`` is (name, params)."""
    terms = _family_terms(name, params)
    values = sorted({x for x, k in terms if k})
    return IntegerSpectrum(tuple(values), tuple(sum(k for x, k in terms if x == v) for v in values),
                           family=(name, params))


def _family_terms(name: str, params: tuple[int, ...]) -> list[tuple[int, int]]:
    """A family's eigenspaces as (Laplacian value, multiplicity) terms,
    unmerged, in the order ``_FAMILY_GRAMS`` lists their entries."""
    if name == "hamming":
        d, q = params
        return [(q * i, math.comb(d, i) * (q - 1) ** i) for i in range(d + 1)]
    if name in ("johnson", "kneser"):
        # eigenspace i of the Johnson scheme; Kneser is C(n-k, k)-regular
        # with adjacency eigenvalue (-1)^i C(n-k-i, k-i) there
        n, k = params
        return [(i * (n + 1 - i) if name == "johnson" else
                 math.comb(n - k, k) - (-1) ** i * math.comb(n - k - i, k - i),
                 math.comb(n, i) - (math.comb(n, i - 1) if i else 0))
                for i in range(min(k, n - k) + 1)]
    if name == "complete_bipartite":
        a, b = params
        return [(0, 1), (a, b - 1), (b, a - 1), (a + b, 1)]
    # rook and complete_square: sums over the two Cartesian factors
    a, b = params if name == "rook" else (params[0], 4)
    second = [(0, 1), (b, b - 1)] if name == "rook" else [(0, 1), (2, 2), (4, 1)]
    return [(x + y, mx * my) for x, mx in [(0, 1), (a, a - 1)] for y, my in second]


def family_masses(ints: IntegerSpectrum) -> tuple[np.ndarray, np.ndarray]:
    """A closed form's vertex masses <m|E_g|m> on its groups, in O(G) per
    run of vertices that share them: the first vertex of each run,
    ascending, and the runs' (K, G) masses.  On the vertex-transitive
    families every vertex has mass m_g / N (Godsil & McKay 1980), one run.
    On complete_bipartite(a, b) a vertex of the block of size own has mass
    1/N on 0, (own - 1)/own on the other block's size (the vectors on its
    own block that sum to 0) and other/(own N) on N; read by value, so the
    group K(a, a) merges and the one K(1, b) drops come out right."""
    name, params = ints.family
    values, mults = np.array(ints.values), np.array(ints.multiplicities)
    n = int(mults.sum())
    if name != "complete_bipartite":
        return np.zeros(1, dtype=int), (mults / n)[None]
    own = np.array(params)[:, None]
    other = n - own
    return np.array([0, params[0]]), (
        (values == 0) / n + (values == other) * (own - 1) / own + (values == n) * other / (own * n))


def family_gram(ints: IntegerSpectrum) -> tuple[Callable, np.ndarray]:
    """A closed form's Gram entries (E_g)_uv as a relation and a table: on
    a family graph (E_g)_uv depends on (u, v) only through a small index
    r(u, v) read off the labels, so ``table[relation(u, v)]`` gives them
    for vertex arrays u and v that broadcast, (..., G).  The (R, G) table
    is summed exactly in fractions per eigenspace term, in the terms of
    ``family_spectrum`` (equal values merge, empty terms drop), then
    rounded once.  Each eigenspace's entries are the classical ones
    (Brouwer, Cohen and Neumaier, *Distance-Regular Graphs*, 1989, §2.2):
    products of the factors' projectors on rook and complete_square,
    Krawtchouk numbers on hamming, Eberlein numbers on johnson and kneser,
    and the block formulas on complete_bipartite.  O(R·G) table entries,
    no array of N entries."""
    name, params = ints.family
    relation, entries = _FAMILY_GRAMS[name](*params)
    columns = {x: [Fraction(0)] * len(entries[0]) for x in ints.values}
    for (x, k), column in zip(_family_terms(name, params), entries):
        if k:
            columns[x] = list(map(operator.add, columns[x], column))
    table = np.array([columns[x] for x in ints.values], dtype=float).T
    table.flags.writeable = False
    return relation, table


def _complete_terms(n: int) -> list[list[Fraction]]:
    """K_n's projectors J/n and I - J/n, on equal (r = 0) and distinct
    (r = 1) vertices."""
    return [[Fraction(1, n)] * 2, [1 - Fraction(1, n), -Fraction(1, n)]]


#: C_4's projectors on the offset r = (i - j) mod 4 along the cycle 0-1-2-3:
#: 1/4, cos(pi r / 2) / 2 and (-1)^r / 4.
_SQUARE_TERMS = [[Fraction(1, 4)] * 4, [Fraction(1, 2), 0, Fraction(-1, 2), 0],
                 [Fraction((-1) ** r, 4) for r in range(4)]]


def _product_terms(first: list[list[Fraction]], second: list[list[Fraction]]):
    """The Cartesian product's terms E_x (x) E_y, in ``_family_terms``'
    order, on the relation r1 * R2 + r2."""
    return [[a * b for a in x for b in y] for x in first for y in second]


def _hamming_gram(d: int, q: int):
    # eigenspace i on tuples differing in r digits: the Krawtchouk number
    # K_i(r) = sum_j (-1)^j (q-1)^(i-j) C(r, j) C(d-r, i-j), over q^d
    places = q ** np.arange(d)
    return (lambda u, v: (np.asarray(u)[..., None] // places % q
                          != np.asarray(v)[..., None] // places % q).sum(axis=-1),
            [[Fraction(sum((-1) ** j * (q - 1) ** (i - j) * math.comb(r, j)
                           * math.comb(d - r, i - j) for j in range(i + 1)), q**d)
              for r in range(d + 1)] for i in range(d + 1)])


def _rook_gram(a: int, b: int):
    # same row (u // b), same column (u % b)
    return (lambda u, v: 2 * (u // b != v // b) + (u % b != v % b),
            _product_terms(_complete_terms(a), _complete_terms(b)))


def _complete_square_gram(n: int):
    # same K_n coordinate (u // 4), offset along C_4 (u % 4)
    return (lambda u, v: 4 * (u // 4 != v // 4) + (u - v) % 4,
            _product_terms(_complete_terms(n), _SQUARE_TERMS))


def _johnson_scheme_gram(n: int, k: int):
    # J(n, k) = J(n, n - k) by complements, so with e = min(k, n - k), on
    # sets meeting in k - i elements eigenspace j has Q_j(i) / N = m_j
    # P_i(j) / (N v_i): the Eberlein number P_i(j) = sum_t (-1)^t C(j, t)
    # C(e - j, i - t) C(n - e - j, i - t) over the valency v_i = C(e, i)
    # C(n - e, i); the rows of meets no two k-sets have stay 0
    e, count = min(k, n - k), math.comb(n, k)
    masks = _subset_masks(n, k)

    def entry(i: int, j: int) -> Fraction:
        if i > e:
            return Fraction(0)
        p = sum((-1) ** t * math.comb(j, t) * math.comb(e - j, i - t)
                * math.comb(n - e - j, i - t) for t in range(i + 1))
        rank = math.comb(n, j) - (math.comb(n, j - 1) if j else 0)
        return Fraction(rank * p, count * math.comb(e, i) * math.comb(n - e, i))

    return (lambda u, v: _meet(masks, u, v),
            [[entry(k - meet, j) for meet in range(k + 1)] for j in range(e + 1)])


def _complete_bipartite_gram(a: int, b: int):
    # r = 4 [u = v] + 2 [u in B] + [v in B], blocks A = [0, a), B = [a, N):
    # E_0 = J / N; on vectors of B summing to 0, I - J / b on B x B; on A,
    # I - J / a on A x A; and x x^T for x = (b on A, -a on B) / sqrt(abN)
    n = a + b

    def block(aa, ab, bb, same_a=0, same_b=0):
        return [aa, ab, ab, bb, aa + same_a, 0, 0, bb + same_b]

    return (lambda u, v: 4 * (u == v) + 2 * (u >= a) + (v >= a),
            [block(*[Fraction(1, n)] * 3), block(0, 0, -Fraction(1, b), same_b=1),
             block(-Fraction(1, a), 0, 0, same_a=1),
             block(Fraction(b, a * n), -Fraction(1, n), Fraction(a, b * n))])


_FAMILY_GRAMS = {"hamming": _hamming_gram, "rook": _rook_gram,
                 "complete_square": _complete_square_gram, "johnson": _johnson_scheme_gram,
                 "kneser": _johnson_scheme_gram, "complete_bipartite": _complete_bipartite_gram}


def _values_only(values: np.ndarray) -> Spectrum:
    """An eigenvalue-only Spectrum of ascending ``values``, frozen."""
    values.flags.writeable = False
    return Spectrum(values, None, *_group_eigenvalues(values))


def _certify(ints: IntegerSpectrum, g: Graph) -> None:
    """Check the rounded spectrum against g's Laplacian L in exact
    arithmetic, forming L w from the edge array.

    Every float below holds an integer under 2^53, so it is exact.  The
    product over the distinct values of (L - lambda I) applied to a
    pseudo-random vector must vanish modulo p = ``CERT_PRIME``.  Were an
    eigenvalue outside the set, the product would be a nonzero integer
    matrix, which kills a uniformly random vector with probability at most
    1/p unless p divides all its entries (Schwartz-Zippel).  With every
    eigenvalue among the rounded integers, the solver's error (far below
    1/2) fixes the multiplicities, or on the closed-form route the
    formula; the moments N, tr L and ||L||_F^2 cross-check them exactly.
    """
    values = list(ints.values)
    n, deg = g.n, np.bincount(g.edge_array.ravel(), minlength=g.n)
    # row i of L - lambda I has absolute sum at most 2 deg_i + |lambda|
    if (2 * int(deg.max()) + max(map(abs, values))) * CERT_PRIME >= 2**53:
        raise SpectrumError("degrees too large for the exact certificate")

    p = float(CERT_PRIME)
    # random, not numpy.random, which costs a cold import of tens of ms
    raw = random.Random(CERT_SEED).randbytes(4 * n)
    w = (np.frombuffer(raw, dtype=np.uint32) % CERT_PRIME).astype(float)
    for value in values:
        w = np.mod(laplacian_matvec(g, w) - value * w, p)
    if np.any(w):
        raise SpectrumError(
            f"eigenvalues are not all among the rounded integers {values}"
        )

    moments = (n, int(deg.sum()), int((deg * deg + deg).sum()))
    claimed = tuple(sum(k * x**e for x, k in zip(values, ints.multiplicities)) for e in range(3))
    if claimed != moments:
        raise SpectrumError(
            f"multiplicities give moments {claimed}, the matrix {moments}"
        )


def spectrum_to_json_dict(ints: IntegerSpectrum) -> dict:
    return {
        "eigenvalues": list(ints.int_eigenvalues),
        "groups": [
            {"value": x, "multiplicity": k} for x, k in zip(ints.values, ints.multiplicities)
        ],
        "zero_index": ints.zero_index,
    }


def eigenvectors_to_csv(spectrum: Spectrum) -> str:
    """CSV dump of the eigenbasis: one column per eigenvector."""
    header = "vertex," + ",".join(f"eig_{i}" for i in range(spectrum.n))
    rows = (f"{v}," + ",".join(f"{x:.12g}" for x in row)
            for v, row in enumerate(spectrum.eigenvectors.tolist()))
    return "\n".join([header, *rows]) + "\n"
