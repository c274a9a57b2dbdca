"""Dense symmetric eigendecomposition, eigenspace grouping, and the
integer-spectrum gate.

All downstream formulas consume eigenspace projection masses (sums over a
degenerate group), never individual eigenvectors, so results do not depend
on the solver's arbitrary basis choice inside a degenerate eigenspace.

``integer_spectrum`` is the gate on a matrix.  Given only the matrix it
computes eigenvalues alone (``eigvalsh``), which is all the spectrum and
the depth chain need; given a full decomposition it gates that.  Either
way the float values are rounded within ``INTEGER_TOL`` and the result is
then certified in exact integer arithmetic on the matrix: the product of
(L - lambda I) over the distinct rounded values kills a pseudo-random
vector modulo a prime, so every eigenvalue is one of them; the
multiplicities reproduce N, tr L and ||L||_F^2; and L 1 = 0 with a simple
zero makes the uniform state the kernel.  A loose tolerance therefore
cannot admit a non-integer spectrum.  ``graph_integer_spectrum`` skips the
dense solve when a graph's edges are a built-in family's: the values come
in closed form and the same certificate runs on the edge list.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import SpectrumError
from .graph import Graph, family_matches, laplacian

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
class EigenGroup:
    """One distinct eigenvalue with the indices of its eigenspace."""

    value: float
    indices: tuple[int, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class Spectrum:
    """Orthonormal real eigendecomposition of a symmetric matrix.

    ``eigenvalues`` are ascending; column i of ``eigenvectors`` pairs with
    eigenvalue i.  ``eigenvectors`` is None when only the eigenvalues were
    computed.  Arrays are frozen read-only.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    groups: tuple[EigenGroup, ...]

    @property
    def n(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class IntegerSpectrum:
    """A Spectrum validated to be integral with a simple zero eigenvalue;
    ``integer_spectrum`` also certifies it exactly."""

    base: Spectrum
    int_eigenvalues: tuple[int, ...]
    zero_index: int

    @property
    def n(self) -> int:
        return self.base.n


def eigendecompose(matrix: np.ndarray, *, group_tol: float = GROUP_TOL) -> Spectrum:
    """Eigendecompose a real symmetric matrix and group its eigenspaces.

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

    groups = _group_eigenvalues(eigenvalues, group_tol)
    eigenvalues.flags.writeable = False
    eigenvectors.flags.writeable = False
    return Spectrum(eigenvalues, eigenvectors, groups)


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


def _group_eigenvalues(eigenvalues: np.ndarray, tol: float) -> tuple[EigenGroup, ...]:
    # Cluster ascending eigenvalues at gaps >= tol; the spread inside one
    # cluster must stay below tol or the grouping is ambiguous.
    cuts = [0, *(np.flatnonzero(np.diff(eigenvalues) >= tol) + 1).tolist(), len(eigenvalues)]
    groups: list[EigenGroup] = []
    for start, stop in zip(cuts, cuts[1:]):
        block = eigenvalues[start:stop]
        if float(block[-1] - block[0]) >= tol:
            raise SpectrumError(
                "ambiguous eigenvalue clustering near "
                f"{float(block[0]):.9g}..{float(block[-1]):.9g}"
            )
        groups.append(EigenGroup(float(np.mean(block)), tuple(range(start, stop))))
    return tuple(groups)


def validate_integer_spectrum(
    spectrum: Spectrum, *, int_tol: float = INTEGER_TOL
) -> IntegerSpectrum:
    """Round a spectrum to integers with a simple zero eigenvalue.

    This is the float half of the gate: every eigenvalue must lie within
    ``int_tol`` of an integer and exactly one must round to 0.
    ``integer_spectrum`` adds the exact certificate on the matrix.
    """
    values = spectrum.eigenvalues
    rounded = np.rint(values)
    bad = np.flatnonzero(~(np.abs(values - rounded) <= int_tol))  # NaN is bad too
    if bad.size:
        i = int(bad[0])
        raise SpectrumError(f"non-integer eigenvalue {float(values[i]):.9g} at index {i}")
    zeros = np.flatnonzero(rounded == 0)
    if len(zeros) != 1:
        raise SpectrumError(f"zero eigenvalue is not simple: multiplicity {len(zeros)}")
    return IntegerSpectrum(spectrum, tuple(rounded.astype(np.int64).tolist()), int(zeros[0]))


def integer_spectrum(
    matrix: np.ndarray,
    spectrum: Spectrum | None = None,
    *,
    int_tol: float = INTEGER_TOL,
) -> IntegerSpectrum:
    """The integer gate: round ``spectrum``, the eigendecomposition of
    ``matrix``, to integers and certify the result exactly on ``matrix``.

    Without ``spectrum`` only the eigenvalues are computed (``eigvalsh``),
    and the result's ``base.eigenvectors`` is None.  Raises SpectrumError
    if the values do not round within ``int_tol``, the zero is not simple,
    or the certificate fails.
    """
    if spectrum is None:
        values = _solve(np.linalg.eigvalsh, _symmetric(matrix)[0])
        values.flags.writeable = False
        spectrum = Spectrum(values, None, _group_eigenvalues(values, GROUP_TOL))
    ints = validate_integer_spectrum(spectrum, int_tol=int_tol)
    m = np.asarray(matrix, dtype=float)
    if not np.array_equal(m, np.rint(m)):
        raise SpectrumError("matrix entries are not integers")
    _certify(ints, lambda w: m @ w, np.trace(m), np.einsum("ij,ij->i", m, m))
    if np.any(m.sum(axis=1)):
        raise SpectrumError("matrix rows do not sum to 0: the kernel is not uniform")
    return ints


def graph_integer_spectrum(g: Graph, *, int_tol: float = INTEGER_TOL) -> IntegerSpectrum:
    """The eigenvalue-only integer gate on g's Laplacian.

    When g's edges are a built-in family's (``graph.family_matches``) the
    values come in closed form and the certificate runs on the edges,
    O(G·E), so ``int_tol`` has nothing to round; every other graph takes
    the dense ``eigvalsh`` route of ``integer_spectrum``.
    """
    matches = family_matches(g)
    if not matches:
        return integer_spectrum(laplacian(g), int_tol=int_tol)
    ints = family_spectrum(*matches[0])
    u, v = g.edge_array.T
    deg = np.bincount(g.edge_array.ravel(), minlength=g.n).astype(float)
    _certify(ints, lambda w: deg * w - np.bincount(u, w[v], g.n) - np.bincount(v, w[u], g.n),
             deg.sum(), deg**2 + deg)
    return ints


def family_spectrum(name: str, params: tuple[int, ...]) -> IntegerSpectrum:
    """A built-in family's Laplacian eigenvalues in closed form, ascending,
    through the float half of the gate; ``base.eigenvectors`` is None."""
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
    value, mult = np.array(terms).T
    values = np.sort(np.repeat(value, mult)).astype(float)
    values.flags.writeable = False
    return validate_integer_spectrum(
        Spectrum(values, None, _group_eigenvalues(values, GROUP_TOL)))


def _certify(ints: IntegerSpectrum, matvec, trace: float, row_sq: np.ndarray) -> None:
    """Check the rounded spectrum against an integer symmetric matrix,
    given by its product with a vector, its trace and its squared row
    norms, in exact arithmetic.

    Every float below holds an integer under 2^53, so it is exact.  The
    product over the distinct values of (m - lambda I) applied to a
    pseudo-random vector must vanish modulo p = ``CERT_PRIME``.  Were an
    eigenvalue outside the set, the product would be a nonzero integer
    matrix, which kills a uniformly random vector with probability at most
    1/p unless p divides all its entries (Schwartz-Zippel).  With every
    eigenvalue among the rounded integers, the solver's error (far below
    1/2) fixes the multiplicities, or on the closed-form route the
    formula; the moments N, tr m and ||m||_F^2 cross-check them exactly.
    """
    groups = [(int(round(g.value)), g.multiplicity) for g in ints.base.groups]
    values = [v for v, _ in groups]
    n = len(row_sq)
    # a row's absolute sum is at most sqrt(n * its squared norm)
    bound = math.sqrt(n * float(row_sq.max())) + max(map(abs, values))
    if bound * CERT_PRIME >= 2.0**53:
        raise SpectrumError("matrix entries too large for the exact certificate")

    p = float(CERT_PRIME)
    # random, not numpy.random, which costs a cold import of tens of ms
    raw = random.Random(CERT_SEED).randbytes(4 * n)
    w = (np.frombuffer(raw, dtype=np.uint32) % CERT_PRIME).astype(float)
    for value in values:
        w = np.mod(matvec(w) - value * w, p)
    if np.any(w):
        raise SpectrumError(
            f"eigenvalues are not all among the rounded integers {values}"
        )

    moments = (n, int(trace), int(row_sq.astype(np.int64).sum()))
    claimed = tuple(sum(k * v**e for v, k in groups) for e in range(3))
    if claimed != moments:
        raise SpectrumError(
            f"multiplicities give moments {claimed}, the matrix {moments}"
        )


def eigenspace_amplitudes(spectrum: Spectrum, vertex: int) -> np.ndarray:
    """Real amplitudes of the basis state of ``vertex`` in the eigenbasis.

    Component i is the inner product of eigenvector i with the vertex
    state; the squared amplitudes sum to 1.
    """
    if not 0 <= vertex < spectrum.n:
        raise SpectrumError(f"vertex index {vertex} out of range for n={spectrum.n}")
    if spectrum.eigenvectors is None:
        raise SpectrumError("the spectrum holds eigenvalues only")
    amps = spectrum.eigenvectors[vertex, :].copy()
    total = float(np.sum(amps**2))
    if abs(total - 1.0) > 1e-10:
        raise SpectrumError(f"amplitude norm defect: {abs(total - 1.0):.3e}")
    amps.flags.writeable = False
    return amps


def spectrum_to_json_dict(ints: IntegerSpectrum) -> dict:
    return {
        "eigenvalues": list(ints.int_eigenvalues),
        "groups": [
            {"value": int(round(g.value)), "multiplicity": g.multiplicity}
            for g in ints.base.groups
        ],
        "zero_index": ints.zero_index,
    }


def eigenvectors_to_csv(spectrum: Spectrum) -> str:
    """CSV dump of the eigenbasis: one column per eigenvector."""
    header = "vertex," + ",".join(f"eig_{i}" for i in range(spectrum.n))
    rows = (f"{v}," + ",".join(f"{x:.12g}" for x in row)
            for v, row in enumerate(spectrum.eigenvectors.tolist()))
    return "\n".join([header, *rows]) + "\n"
