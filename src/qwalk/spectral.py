"""Dense symmetric eigendecomposition, eigenspace grouping, vertex masses
in closed form or from a table, and the integer-spectrum gate.

A decomposition's G eigenspace groups are runs of indices, held as mean
values and multiplicities; ``eigendecompose`` also builds once the (N, G)
table of vertex masses <m|E_g|m> (``group_sums`` of the squared
eigenvectors) that synthesis, mass classes and frames read.  Downstream
formulas consume only such group sums, never individual eigenvectors, so
results do not depend on the solver's basis inside a degenerate eigenspace.
A built-in family's masses also have closed forms (``family_masses``),
O(G) per run of vertices that share them, so a graph the edges identify
needs a dense decomposition (``decompose_as``, held to the closed form's
groups) only where eigenvectors themselves are read.

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
import random
from dataclasses import dataclass, replace

import numpy as np

from .errors import SpectrumError
from .graph import Graph, family_matches, laplacian, laplacian_matvec

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
    if name == "hamming":
        d, q = params
        terms = [(q * i, math.comb(d, i) * (q - 1) ** i) for i in range(d + 1)]
    elif name in ("johnson", "kneser"):
        # eigenspace i of the Johnson scheme; Kneser is C(n-k, k)-regular
        # with adjacency eigenvalue (-1)^i C(n-k-i, k-i) there
        n, k = params
        terms = [(i * (n + 1 - i) if name == "johnson" else
                  math.comb(n - k, k) - (-1) ** i * math.comb(n - k - i, k - i),
                  math.comb(n, i) - (math.comb(n, i - 1) if i else 0))
                 for i in range(min(k, n - k) + 1)]
    elif name == "complete_bipartite":
        a, b = params
        terms = [(0, 1), (a, b - 1), (b, a - 1), (a + b, 1)]
    else:  # rook and complete_square: sums over the two Cartesian factors
        a, b = params if name == "rook" else (params[0], 4)
        second = [(0, 1), (b, b - 1)] if name == "rook" else [(0, 1), (2, 2), (4, 1)]
        terms = [(x + y, mx * my) for x, mx in [(0, 1), (a, a - 1)] for y, my in second]
    values = sorted({x for x, k in terms if k})
    return IntegerSpectrum(tuple(values), tuple(sum(k for x, k in terms if x == v) for v in values),
                           family=(name, params))


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


def decompose_as(g: Graph, ints: IntegerSpectrum) -> Spectrum:
    """The dense decomposition of g's Laplacian for a closed form that
    deferred it until eigenvectors are read.  Raises SpectrumError unless
    its rounded groups are the closed form's."""
    spectrum = eigendecompose(laplacian(g))
    dense = validate_integer_spectrum(spectrum)
    if (dense.values, dense.multiplicities) != (ints.values, ints.multiplicities):
        raise SpectrumError(
            f"the dense groups {dict(zip(dense.values, dense.multiplicities))} are not "
            f"the closed form's {dict(zip(ints.values, ints.multiplicities))}")
    return spectrum


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
