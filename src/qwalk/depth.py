"""Eigenvalue-set depth decomposition and level states.

The chain starts from the full integer eigenvalue multiset and repeatedly
keeps the values whose quotient by the gcd of the current nonzero values
is even, splitting off the odd-quotient values, until only 0 survives.
The number of refinement steps is the depth.  Because the gcd of the
reduced values is always 1, each step splits off at least one value, so
the chain terminates in at most as many steps as there are distinct
eigenvalues.

Everything is keyed by eigenvalue group, never by eigen-index: a level is
a set of group positions, and a vertex enters through its G basis-free
masses <m|E_g|m>, so a closed-form chain costs O(G), not O(N).
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
    """One refinement level: kept group positions, split-off complement, gcd."""

    groups: tuple[int, ...]
    complement: tuple[int, ...]
    gcd: int


@dataclass(frozen=True)
class DepthChain:
    """The nested chain of kept eigenvalue groups: group g is the integer
    eigenvalue ``values[g]``, ascending, with ``multiplicities[g]``.
    ``levels[k].groups`` is level k; level 0 holds every group and level
    ``depth`` only the zero eigenvalue."""

    values: tuple[int, ...]
    multiplicities: tuple[int, ...]
    levels: tuple[DepthLevel, ...]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def level_values(self, k: int) -> list[int]:
        """Level k's eigenvalues, ascending, each repeated by its multiplicity."""
        return self._expand(self.levels[k].groups)

    def complement_values(self, k: int) -> list[int]:
        return self._expand(self.levels[k].complement)

    def _expand(self, groups: tuple[int, ...]) -> list[int]:
        return [self.values[g] for g in groups for _ in range(self.multiplicities[g])]

    @functools.cached_property
    def group_depths(self) -> np.ndarray:
        """The deepest level holding each group; the levels are nested, so
        group g lies in level k iff ``group_depths[g] >= k``."""
        depths = np.zeros(len(self.values), dtype=int)
        for k, level in enumerate(self.levels[1:], 1):
            depths[list(level.groups)] = k
        return depths


@dataclass(frozen=True)
class LevelStatePair:
    """Normalized projections of a vertex state onto one level.

    ``kept`` are real coefficients over eigenvector indices (support on
    the level's kept groups, unit norm); ``split`` covers the complement
    and is None at level 0 or when its mass vanishes.
    """

    level: int
    kept: np.ndarray
    split: np.ndarray | None


def gcd_nonzero(values: Iterable[int]) -> int:
    """Greatest common divisor of the nonzero entries; 1 if there are none."""
    return math.gcd(*(abs(int(v)) for v in values)) or 1


def build_depth_chain(spectrum: IntegerSpectrum | Sequence[int]) -> DepthChain:
    """Compute the refinement chain of an integer eigenvalue multiset.

    Accepts an IntegerSpectrum, whose groups the chain keeps, or a raw
    integer sequence containing 0, grouped by value.  The result is
    deterministic and independent of input order.  O(G) per level.
    """
    if isinstance(spectrum, IntegerSpectrum):
        values, mults = spectrum.values, spectrum.multiplicities
    else:
        values, mults = (tuple(x.tolist()) for x in np.unique(
            np.asarray(spectrum, dtype=np.int64), return_counts=True))
    if 0 not in values:
        raise DepthError("eigenvalue multiset must contain 0")

    current = tuple(range(len(values)))
    levels = [DepthLevel(current, (), gcd_nonzero(values))]
    while any(values[g] != 0 for g in current):
        d = levels[-1].gcd
        kept = tuple(g for g in current if (values[g] // d) % 2 == 0)
        split = tuple(g for g in current if (values[g] // d) % 2 == 1)
        if not split:
            raise DepthError("refinement step split off nothing; non-integer input?")
        current = kept
        levels.append(DepthLevel(kept, split, gcd_nonzero(values[g] for g in kept)))
    return DepthChain(values, mults, tuple(levels))


def _level_masses(chain: DepthChain, masses: np.ndarray) -> np.ndarray:
    m = np.asarray(masses, dtype=float)
    if len(m) != len(chain.values):
        raise DepthError(f"mass vector length {len(m)} does not match {len(chain.values)} groups")
    # summed in group order, level by level: a stage whose overlap puts
    # the matched phase near pi magnifies any other rounding in its angle
    depths = chain.group_depths
    return np.array([m[depths >= k].sum() for k in range(len(chain.levels))])


def level_states(chain: DepthChain, alphas: np.ndarray) -> list[LevelStatePair]:
    """Normalized kept/split projections of a vertex state at every level,
    from its eigenvector row, whose indices run through the groups in order.

    The kept state at the final level is the uniform state whenever the
    amplitudes come from a vertex of a connected graph (the simple zero
    eigenvalue carries mass exactly 1/N).
    """
    a = np.asarray(alphas, dtype=float)
    depths = np.repeat(chain.group_depths, chain.multiplicities)
    if len(a) != len(depths):
        raise DepthError(
            f"amplitude vector length {len(a)} does not match chain size {len(depths)}")
    pairs: list[LevelStatePair] = []
    for k in range(len(chain.levels)):
        kept = np.where(depths >= k, a, 0.0)
        mass = float(kept @ kept)
        if mass <= SKIP_MASS_TOL:
            raise DepthError(f"level {k} kept mass vanished; inconsistent amplitudes")
        # level k splits off the groups of depth k - 1
        split = np.where(depths == k - 1, a, 0.0)
        cmass = float(split @ split)
        pairs.append(LevelStatePair(
            k, kept / np.sqrt(mass), split / np.sqrt(cmass) if cmass > SKIP_MASS_TOL else None))
    return pairs


def overlaps(chain: DepthChain, masses: np.ndarray) -> np.ndarray:
    """Per-level overlaps between consecutive kept states for one vertex,
    from its masses <m|E_g|m> on the chain's groups.

    Entry k is the square root of the mass ratio of level k+1 to level k,
    always in (0, 1].  A level whose split-off mass vanishes yields exactly
    1.0, which downstream synthesis treats as a skip.
    """
    masses = _level_masses(chain, masses)
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
    sizes = np.array([sum(chain.multiplicities[g] for g in level.groups)
                      for level in chain.levels], dtype=float)
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
