"""Eigenvalue-set depth decomposition and level states.

The chain starts from the full integer eigenvalue multiset and repeatedly
keeps the values whose quotient by the gcd of the current nonzero values
is even, splitting off the odd-quotient values, until only 0 survives.
The number of refinement steps is the depth.  Because the gcd of the
reduced values is always 1, each step splits off at least one value, so
the chain terminates in at most as many steps as there are distinct
eigenvalues.

Levels are stored as eigenvalue-index sets (not values) so degenerate
eigenvalues keep their identity and projections stay exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DepthError
from .spectral import IntegerSpectrum

#: A level whose split-off mass falls below this is marked as a skip
#: (overlap exactly 1): the refinement does not move the state.
SKIP_MASS_TOL = 1e-12
#: An overlap this small signals corrupted data, never a real level.
OVERLAP_FLOOR = 1e-12


@dataclass(frozen=True)
class DepthLevel:
    """One refinement level: kept index set, split-off complement, gcd."""

    indices: tuple[int, ...]
    complement: tuple[int, ...]
    gcd: int


@dataclass(frozen=True)
class DepthChain:
    """The nested chain of kept eigenvalue-index sets.

    ``levels[k].indices`` is level k; level 0 holds every index and level
    ``depth`` holds only the zero eigenvalue.  ``values[i]`` is the integer
    eigenvalue at spectrum index i.
    """

    values: tuple[int, ...]
    levels: tuple[DepthLevel, ...]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def level_values(self, k: int) -> list[int]:
        return sorted(self.values[i] for i in self.levels[k].indices)

    def complement_values(self, k: int) -> list[int]:
        return sorted(self.values[i] for i in self.levels[k].complement)

    @functools.cached_property
    def index_depths(self) -> np.ndarray:
        """The deepest level holding each eigen-index; the levels are
        nested, so index i lies in level k iff ``index_depths[i] >= k``."""
        depths = np.zeros(len(self.values), dtype=int)
        for k, level in enumerate(self.levels[1:], 1):
            depths[list(level.indices)] = k
        return depths


@dataclass(frozen=True)
class LevelStatePair:
    """Normalized projections of a vertex state onto one level.

    ``kept`` are real coefficients over eigenvector indices (support on
    the level's kept set, unit norm); ``split`` covers the complement and
    is None at level 0 or when its mass vanishes.
    """

    level: int
    kept: np.ndarray
    split: np.ndarray | None


def gcd_nonzero(values: Iterable[int]) -> int:
    """Greatest common divisor of the nonzero entries; 1 if there are none."""
    return math.gcd(*(abs(int(v)) for v in values)) or 1


def build_depth_chain(spectrum: IntegerSpectrum | Sequence[int]) -> DepthChain:
    """Compute the refinement chain of an integer eigenvalue multiset.

    Accepts an IntegerSpectrum or a raw integer sequence containing 0.
    The result is deterministic and independent of input order (levels are
    sets of indices into the given sequence).
    """
    if isinstance(spectrum, IntegerSpectrum):
        values = spectrum.int_eigenvalues
    else:
        values = tuple(int(v) for v in spectrum)
    if 0 not in values:
        raise DepthError("eigenvalue multiset must contain 0")

    current = tuple(range(len(values)))
    levels = [DepthLevel(current, (), gcd_nonzero(values))]
    while any(values[i] != 0 for i in current):
        g = levels[-1].gcd
        kept = tuple(i for i in current if (values[i] // g) % 2 == 0)
        split = tuple(i for i in current if (values[i] // g) % 2 == 1)
        if not split:
            raise DepthError("refinement step split off nothing; non-integer input?")
        current = kept
        levels.append(DepthLevel(kept, split, gcd_nonzero(values[i] for i in kept)))
    return DepthChain(values, tuple(levels))


def _level_masses(chain: DepthChain, alphas: np.ndarray) -> np.ndarray:
    a = np.asarray(alphas, dtype=float)
    if len(a) != len(chain.values):
        raise DepthError(
            f"amplitude vector length {len(a)} does not match chain size "
            f"{len(chain.values)}"
        )
    # summed in index order, level by level: a stage whose overlap puts
    # the matched phase near pi magnifies any other rounding in its angle
    squares, depths = a**2, chain.index_depths
    return np.array([squares[depths >= k].sum() for k in range(len(chain.levels))])


def level_states(chain: DepthChain, alphas: np.ndarray) -> list[LevelStatePair]:
    """Normalized kept/split projections of a vertex state at every level.

    The kept state at the final level is the uniform state whenever the
    amplitudes come from a vertex of a connected graph (the simple zero
    eigenvalue carries mass exactly 1/N).
    """
    a = np.asarray(alphas, dtype=float)
    masses = _level_masses(chain, a)
    depths = chain.index_depths
    pairs: list[LevelStatePair] = []
    for k in range(len(chain.levels)):
        if masses[k] <= SKIP_MASS_TOL:
            raise DepthError(f"level {k} kept mass vanished; inconsistent amplitudes")
        kept = np.where(depths >= k, a, 0.0) / np.sqrt(masses[k])
        # level k splits off the indices of depth k - 1
        split = np.where(depths == k - 1, a, 0.0)
        cmass = float(split @ split)
        pairs.append(LevelStatePair(
            k, kept, split / np.sqrt(cmass) if cmass > SKIP_MASS_TOL else None))
    return pairs


def overlaps(chain: DepthChain, alphas: np.ndarray) -> np.ndarray:
    """Per-level overlaps between consecutive kept states for one vertex.

    Entry k is the square root of the mass ratio of level k+1 to level k,
    always in (0, 1].  A level whose split-off mass vanishes yields exactly
    1.0, which downstream synthesis treats as a skip.
    """
    masses = _level_masses(chain, alphas)
    out = np.empty(chain.depth)
    for k in range(chain.depth):
        if masses[k] <= SKIP_MASS_TOL:
            raise DepthError(f"level {k} kept mass vanished; inconsistent amplitudes")
        if masses[k] - masses[k + 1] <= SKIP_MASS_TOL:
            out[k] = 1.0
            continue
        s = math.sqrt(masses[k + 1] / masses[k])
        if s < OVERLAP_FLOOR:
            raise DepthError(
                f"overlap at level {k} below floor ({s:.3e}); corrupted amplitudes"
            )
        out[k] = min(s, 1.0)
    return out


def transitive_overlaps(chain: DepthChain) -> np.ndarray:
    """Vertex-independent overlaps from level cardinalities.

    On a vertex-transitive or walk-regular graph every vertex projects
    equally onto each eigenspace, so the mass of a level is its cardinality
    over N and the overlap reduces to the square root of the cardinality
    ratio.
    """
    sizes = np.array([len(level.indices) for level in chain.levels], dtype=float)
    return np.sqrt(sizes[1:] / sizes[:-1])


def chain_to_json_dict(chain: DepthChain) -> dict:
    return {
        "d": chain.depth,
        "levels": [
            {
                "lambda": chain.level_values(k),
                "complement": chain.complement_values(k),
                "gcd": level.gcd,
            }
            for k, level in enumerate(chain.levels)
        ],
    }
