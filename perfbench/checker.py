"""Checks made apart from qwalk.

Everything here is derived from the graph families' definitions, not from
``qwalk.graph``, ``qwalk.spectral`` or ``qwalk.simulate``:

* closed-form integer Laplacian spectra with multiplicities;
* the depth chain, computed from that multiset by the gcd/parity rule;
* eigenspace masses of a vertex in closed form, hence the stage overlaps;
* adjacency and Laplacian matrices assembled from the vertex labels;
* a dense re-simulation that applies schedule ops with ``scipy.linalg.expm``;
* property checks on the reports the pipelines return.

Check functions return a list of failure codes; an empty list means the
run passed.  The codes name the property that broke (``fidelity``,
``target``, ``branches``, ``oracle_cap``, ``walk_time``, ...), so a caller
can tell a known fault from a new one.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

#: A run is exact when its fidelity clears this.
FIDELITY_MIN = 1.0 - 1e-8
#: Largest mass the ancilla may keep on |1> at the end of a schedule.
LEAK_MAX = 1e-9
#: ``run schedule`` must reproduce an artifact's fidelity this closely.
RESIM_TOL = 1e-10
#: Masses closer than this are one level (a skipped stage), as in the paper.
SKIP_MASS = 1e-12


def parse_family(tag: str) -> tuple[str, tuple[int, ...]]:
    """Split a family tag such as ``hamming(6,2)`` into name and params."""
    name, rest = tag.split("(", 1)
    return name, tuple(int(tok) for tok in rest.rstrip(")").split(","))


def vertex_count(name: str, params: tuple[int, ...]) -> int:
    if name == "hamming":
        d, q = params
        return q**d
    if name in ("johnson", "kneser"):
        return math.comb(*params)
    if name == "rook":
        return params[0] * params[1]
    if name == "complete_bipartite":
        return params[0] + params[1]
    raise ValueError(f"no closed form for family {name!r}")


# ---------------------------------------------------------------------------
# Closed-form spectra and the depth rule
# ---------------------------------------------------------------------------

def laplacian_spectrum(name: str, params: tuple[int, ...]) -> dict[int, int]:
    """Integer Laplacian eigenvalues with their multiplicities."""
    spec: Counter[int] = Counter()
    if name == "hamming":
        d, q = params
        for i in range(d + 1):
            spec[q * i] += math.comb(d, i) * (q - 1) ** i
    elif name == "johnson":
        n, k = params
        for i in range(k + 1):
            spec[i * (n + 1 - i)] += math.comb(n, i) - (math.comb(n, i - 1) if i else 0)
    elif name == "kneser":
        # adjacency eigenvalue (-1)^i C(n-k-i, k-i) on the i-th Johnson
        # eigenspace; the graph is C(n-k, k)-regular
        n, k = params
        degree = math.comb(n - k, k)
        for i in range(k + 1):
            adj = (-1) ** i * math.comb(n - k - i, k - i)
            spec[degree - adj] += math.comb(n, i) - (math.comb(n, i - 1) if i else 0)
    elif name == "rook":
        # L(K_m) (x) I + I (x) L(K_n)
        m, n = params
        spec[0] += 1
        spec[m] += m - 1
        spec[n] += n - 1
        spec[m + n] += (m - 1) * (n - 1)
    elif name == "complete_bipartite":
        a, b = params
        spec[0] += 1
        spec[a] += b - 1
        spec[b] += a - 1
        spec[a + b] += 1
    else:
        raise ValueError(f"no closed form for family {name!r}")
    return {v: m for v, m in sorted(spec.items()) if m}


def depth_levels(spectrum: dict[int, int]) -> list[tuple[frozenset[int], int]]:
    """Refinement chain of an eigenvalue multiset: (kept values, gcd) per level.

    Keep the values whose quotient by the gcd of the current nonzero values
    is even, until only 0 is left; the depth is ``len(levels) - 1``.
    """
    current = frozenset(spectrum)
    levels = []
    while True:
        g = math.gcd(*current) or 1
        levels.append((current, g))
        if current == {0}:
            return levels
        kept = frozenset(v for v in current if (v // g) % 2 == 0)
        if kept == current:
            raise ValueError("refinement split off nothing")
        current = kept


def depth_of(name: str, params: tuple[int, ...]) -> int:
    """The family's depth d: the number of refinement steps to {0}."""
    return len(depth_levels(laplacian_spectrum(name, params))) - 1


def vertex_masses(name: str, params: tuple[int, ...], v: int) -> dict[int, float]:
    """Squared projection of vertex v onto each Laplacian eigenspace."""
    spec = laplacian_spectrum(name, params)
    n = vertex_count(name, params)
    if name != "complete_bipartite":
        # walk-regular families: every vertex sees mult/N on each eigenspace
        return {lam: mult / n for lam, mult in spec.items()}
    a, b = params
    own, other = (a, b) if v < a else (b, a)
    masses: Counter[float] = Counter()
    masses[0] += 1.0 / n
    masses[other] += (own - 1) / own  # sum-zero vectors on the own block
    masses[a + b] += other / (own * n)  # the (1/a, -1/b) block contrast
    return {lam: masses.get(lam, 0.0) for lam in spec}


def stage_overlaps(name: str, params: tuple[int, ...], v: int) -> list[float]:
    """Overlap between consecutive level states of vertex v; 1.0 marks a
    stage whose split-off mass vanishes."""
    masses = vertex_masses(name, params, v)
    level_mass = [
        sum(masses[lam] for lam in kept)
        for kept, _ in depth_levels(laplacian_spectrum(name, params))
    ]
    out = []
    for hi, lo in zip(level_mass, level_mass[1:]):
        out.append(1.0 if hi - lo <= SKIP_MASS else math.sqrt(lo / hi))
    return out


def oracle_cap(depth: int, n: int) -> float:
    """The paper's per-schedule cost bound pi * 2^d * sqrt(N)."""
    return math.pi * 2.0**depth * math.sqrt(n)


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

def adjacency_matrix(name: str, params: tuple[int, ...]) -> np.ndarray:
    """0/1 adjacency in the documented vertex order (lexicographic labels,
    row-major products, first bipartition block first)."""
    if name == "hamming":
        d, q = params
        labels = np.array(list(itertools.product(range(q), repeat=d)))
        adj = (labels[:, None, :] != labels[None, :, :]).sum(axis=2) == 1
    elif name in ("johnson", "kneser"):
        n, k = params
        subsets = list(itertools.combinations(range(n), k))
        x = np.zeros((len(subsets), n))
        for row, subset in enumerate(subsets):
            x[row, list(subset)] = 1.0
        common = x @ x.T
        adj = common == (k - 1 if name == "johnson" else 0)
    elif name == "rook":
        m, n = params
        idx = np.arange(m * n)
        same_row = (idx // n)[:, None] == (idx // n)[None, :]
        same_col = (idx % n)[:, None] == (idx % n)[None, :]
        adj = same_row != same_col
    elif name == "complete_bipartite":
        a, b = params
        side = np.arange(a + b) >= a
        adj = side[:, None] != side[None, :]
    else:
        raise ValueError(f"no construction for family {name!r}")
    return adj.astype(float)


def laplacian_matrix(name: str, params: tuple[int, ...]) -> np.ndarray:
    adj = adjacency_matrix(name, params)
    return np.diag(adj.sum(axis=1)) - adj


def edge_list_text(name: str, params: tuple[int, ...]) -> str:
    """The edge-list file the family should serialize to."""
    rows, cols = np.nonzero(np.triu(adjacency_matrix(name, params), 1))
    return "".join(f"{u} {v}\n" for u, v in zip(rows.tolist(), cols.tolist()))


# ---------------------------------------------------------------------------
# Dense re-simulation
# ---------------------------------------------------------------------------

class DenseWalk:
    """Applies schedule ops with walk unitaries expm(-i H t) of a real
    symmetric H; the ancilla block is attached at the first ancilla op."""

    def __init__(self, h: np.ndarray) -> None:
        self.h = h
        self._unitaries: dict[float, np.ndarray] = {}

    def unitary(self, t: float) -> np.ndarray:
        if t not in self._unitaries:
            if -t in self._unitaries:
                # H is real, so expm(iHt) is the conjugate of expm(-iHt)
                self._unitaries[t] = self._unitaries[-t].conj()
            else:
                # imported here, so set-up and peak memory exclude scipy
                import scipy.linalg
                self._unitaries[t] = scipy.linalg.expm(-1j * t * self.h)
        return self._unitaries[t]

    def run(self, ops: list[dict], state: np.ndarray, marked: int) -> tuple[np.ndarray, float]:
        """Final vertex block and the mass left on ancilla |1>."""
        psi = np.asarray(state, dtype=complex).copy()
        anc = None
        for op in ops:
            kind = op["op"]
            if anc is None and kind in ("anc_h", "anc_z", "cwalk"):
                anc = np.zeros_like(psi)
            if kind == "walk":
                u = self.unitary(op["t"])
                psi = u @ psi
                if anc is not None:
                    anc = u @ anc
            elif kind == "cwalk":
                anc = self.unitary(op["t"]) @ anc
            elif kind == "oracle":
                factor = np.exp(-1j * op["sign"] * op["theta"])
                psi[marked] *= factor
                if anc is not None:
                    anc[marked] *= factor
            elif kind == "anc_h":
                psi, anc = (psi + anc) / math.sqrt(2.0), (psi - anc) / math.sqrt(2.0)
            elif kind == "anc_z":
                anc = anc * np.exp(1j * op["theta"])
            elif kind == "gphase":
                psi = psi * np.exp(1j * op["gamma"])
                if anc is not None:
                    anc = anc * np.exp(1j * op["gamma"])
            else:
                raise ValueError(f"unknown op kind {kind!r}")
        leak = 0.0 if anc is None else float(np.vdot(anc, anc).real)
        return psi, leak


def overlap_fidelity(psi: np.ndarray, target: np.ndarray) -> float:
    return float(abs(np.vdot(target, psi)) ** 2 / np.vdot(psi, psi).real)


def basis(n: int, v: int) -> np.ndarray:
    out = np.zeros(n, dtype=complex)
    out[v] = 1.0
    return out


def dense_failures(fidelity: float, leak: float) -> list[str]:
    out = []
    if not fidelity >= FIDELITY_MIN:
        out.append("dense_fidelity")
    if not leak <= LEAK_MAX:
        out.append("dense_leak")
    return out


def dense_schedule(name: str, params: tuple[int, ...], ops: list[dict], task: str,
                   m: int) -> list[str]:
    """Re-simulate one schedule on a walk-regular family: a search maps the
    uniform state to the marked vertex m, a sampling run maps m to the
    uniform state."""
    n = vertex_count(name, params)
    uniform = np.full(n, 1.0 / math.sqrt(n))
    start, target = (uniform, basis(n, m)) if task == "search" else (basis(n, m), uniform)
    psi, leak = DenseWalk(laplacian_matrix(name, params)).run(ops, start, m)
    return dense_failures(overlap_fidelity(psi, target), leak)


def dense_bipartite(a: int, b: int, branch_ops: list[list[dict]], m: int) -> list[str]:
    """Re-simulate both branches of a two-branch search on K_{a,b}, each from
    the uniform state on its block: exactly the branch of m's block must
    reach m, and no branch may leak to the ancilla."""
    n = a + b
    walk = DenseWalk(adjacency_matrix("complete_bipartite", (a, b)))
    out, wins = [], []
    for (start, stop), ops in zip(((0, a), (a, n)), branch_ops):
        state = np.zeros(n)
        state[start:stop] = 1.0 / math.sqrt(stop - start)
        psi, leak = walk.run(ops, state, m)
        fails = dense_failures(overlap_fidelity(psi, basis(n, m)), leak)
        wins.append(not fails)
        if "dense_leak" in fails:
            out.append("dense_leak")
    if wins != [m < a, m >= a]:
        out.append("dense_branches")
    return out


# ---------------------------------------------------------------------------
# Property checks on reports
# ---------------------------------------------------------------------------

def _get(report, key):
    return report[key] if isinstance(report, dict) else getattr(report, key)


def report_failures(
    report, task: str, n: int, depth: int, marked: int, target: int | None = None
) -> list[str]:
    """Property checks on one pipeline report (object or JSON dict).

    ``task`` is ``sample``, ``transfer``, ``search`` or ``bipartite``.  The
    oracle cap holds per schedule: a transfer runs two schedules and gets
    twice the cap; each bipartite branch is one schedule with depth 1.
    """
    out = []
    fid = _get(report, "fidelity")
    if not fid >= FIDELITY_MIN:
        out.append("fidelity")
    oracle = _get(report, "oracle_count")
    if task == "bipartite":
        branches = _get(report, "branches")
        wins = [b for b in branches if _get(b, "succeeded")]
        if len(wins) != 1:
            out.append("branches")
        if _get(report, "target") != marked:
            out.append("target")
        if any(_get(b, "oracle_count") > oracle_cap(1, n) for b in branches):
            out.append("oracle_cap")
    else:
        if task == "search" and _get(report, "target") != marked:
            out.append("target")
        if task == "transfer" and _get(report, "target") != target:
            out.append("target")
        schedules = 2 if task == "transfer" else 1
        if oracle > schedules * oracle_cap(depth, n):
            out.append("oracle_cap")
    # walk segments plus oracle angles: an upper bound on the walk time
    walk = _get(report, "total_time") - _get(report, "ancilla_phase_time")
    if walk > 4.0 * math.pi * oracle:
        out.append("walk_time")
    if _get(report, "n") != n:
        out.append("n")
    return out
