"""End-to-end task pipelines and the verification harness.

Three tasks share the same machinery: exact uniform sampling (start vertex
to uniform state), perfect state transfer (forward schedule for the source
followed by the adjoint schedule for the destination), and deterministic
search, whose branches ``execute_search`` runs in the marked vertex's
frame and checks against the oracle: one per level-mass class under the
Laplacian walk, or one per block of a complete bipartite graph under the
adjacency walk.  Each branch is a reversed schedule from the uniform
state on a vertex set.

Sampling and search each run through one sweep (``_sample_sweep``,
``_search_sweep``) over rows, a start or hidden vertex with its own
schedules, in that vertex's frame, one zero-padded coordinate per
eigenspace group.  A context answers four reads of vertex data: the
vertex count, the masses of given vertices, the Gram entries of given
pairs and the mass classes.  A vertex enters its mass class and its
frame only through its masses, so sampling and a search that succeeds
read no eigenvector.  On a family graph ``prepare`` takes all four
reads in closed form, and a failing branch's lift reads Gram columns,
so no task decomposes; any other graph is decomposed up front.  The
context synthesizes one sampling schedule per mass class, and the
class's search branch is its dagger; it compiles each such stage tree
once (``plan``), and the schedule and its dagger share that plan.  Each
pass of the batched executor runs one schedule: sampling makes one per
distinct schedule, and search one per branch, decided in the frame.  Transfer makes no pass of its
own: ``_transfer_sweep`` reads it off the final states of two rows of a
sampling pass (``_sample_pass``, which builds no reports), weighted by
the Gram entries (E_g)_uv.  ``verify_graph`` is one call of each sweep over every
row of a graph, with one synthesis per mass class; the single-run
functions are the one-row case.

Success is declared by fidelity threshold on the exact final state, not by
sampled measurement; ``measure_distribution`` exists for demonstration.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from . import depth as depth_mod
from . import schedule as sched_mod
from . import simulate as sim
from . import spectral
from .errors import GraphError, ScheduleError, SimulationError, SpectrumError
from .graph import Graph, adjacency, complete_bipartite

#: A run counts as exact when the final fidelity clears this.
FIDELITY_THRESHOLD = 1.0 - 1e-8
#: Vertex probabilities closer than this count as tied.
TIE_TOL = 1e-9
#: Vertices whose level masses agree this closely share a mass class.
LEVEL_MASS_TOL = 1e-9

TASK_SAMPLE = "sample"
TASK_TRANSFER = "transfer"
TASK_SEARCH = "search"
TASK_BIPARTITE = "bipartite_search"


@dataclass(frozen=True)
class BranchResult:
    """Outcome of one search branch: its candidate, the candidate's
    probability, and whether the oracle check confirmed it.  A failing
    branch's candidate is its lowest most probable vertex, which can be
    the marked vertex itself when p(m) ties the maximum below
    ``FIDELITY_THRESHOLD``: on K4 - e with edges 01, 02, 03, 12, 13,
    hidden vertex 2's first branch ends with vertices 2 and 3 at 1/2 each
    and names 2."""

    side: int
    candidate: int
    fidelity: float
    succeeded: bool
    oracle_count: int
    total_time: float


@dataclass(frozen=True)
class RunReport:
    """Cost and fidelity record of one pipeline run.

    ``bound_ratio`` is oracle_count / (2^depth * sqrt(N)), with the oracle
    count summed over every schedule the run executed.  ``search_mode`` is
    "blackbox" on every search, since synthesis never sees the marked
    vertex; ``branches`` lists a search's branches when it runs more than
    one.
    """

    task: str
    graph: str
    n: int
    depth: int
    marked: int | None
    target: int | None
    fidelity: float
    oracle_count: int
    total_time: float
    bound_ratio: float
    ancilla_phase_time: float = 0.0
    stage_fidelities: tuple[float, ...] = ()
    search_mode: str | None = None
    branches: tuple[BranchResult, ...] = ()


@dataclass(frozen=True)
class VerifyReport:
    """Aggregate of a full verification sweep over one graph."""

    graph: str
    n: int
    reports: tuple[RunReport, ...]
    min_fidelity: float
    max_bound_ratio: float
    search_route: str
    wall_time_s: float


class _VertexReads:
    """The vertex count ``n``, the ``masses`` of given vertices and the
    ``lift`` of frame states, read off a context's dense ``spectrum``
    unless a subclass answers them in closed form; and the compiled
    ``plan`` of each schedule run on the context."""

    @property
    def n(self) -> int:
        return self.graph.n

    @functools.cached_property
    def _mass_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """The first vertex of each run of vertices that share their
        masses, ascending, and the runs' (K, G) masses; here each vertex is
        a run, its row of the decomposition's table."""
        return np.arange(self.n), self.spectrum.masses

    def masses(self, vertices: Sequence[int]) -> np.ndarray:
        """The masses <m|E_g|m> of the vertices, (R, G), each checked to
        be one."""
        vertices = np.asarray(vertices, dtype=int)
        for v in vertices[(vertices < 0) | (vertices >= self.n)][:1].tolist():
            raise SimulationError(f"marked vertex {v} out of range for n={self.n}")
        starts, table = self._mass_runs
        return table[starts.searchsorted(vertices, "right") - 1]

    def lift(self, vertices: np.ndarray, coords: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The vertex-basis amplitudes, (R, blocks, N), of x, (R, blocks,
        G), in the frames of vertices, whose ``frame_coords`` are coords:
        one N x N product per row and block (``simulate.lift``)."""
        spectrum = self.spectrum
        return sim.lift(spectrum.eigenvectors, spectrum.multiplicities, vertices, coords, x)

    @functools.cached_property
    def _plans(self) -> dict[int, sim.StagePlan | None]:
        """A slot for the plan of each stage tree the context synthesized,
        by the tree's id, empty until the tree first runs.  The context
        holds those trees as long as it lives, so no other tree can carry
        a slot's id, and the plans die with the context."""
        return {}

    def _keep_plans(
        self, schedules: tuple[sched_mod.Schedule, ...]
    ) -> tuple[sched_mod.Schedule, ...]:
        """Open a plan slot for the stage tree of each synthesized schedule."""
        self._plans.update(dict.fromkeys(id(s.stages) for s in schedules))
        return schedules

    def plan(self, schedule: sched_mod.Schedule) -> sim.StagePlan:
        """The stage tree of schedule compiled on ``values``, once the
        walk times pass ``_check_stages``: compiled on a tree's first run
        and kept when the context synthesized it, so every sample,
        transfer and search that runs the tree, in either direction,
        shares one plan; compiled for the call on any other tree (a
        decoded artifact, a hand-built schedule), so its check runs on
        every call."""
        if schedule.hamiltonian != self.hamiltonian:
            raise ScheduleError(
                f"a {schedule.hamiltonian} schedule cannot run on the {self.hamiltonian} walk")
        key = id(schedule.stages)
        if (plan := self._plans.get(key)) is None:
            _check_stages(self, schedule.stages)
            plan = sim.compile_stages(schedule.stages, self.values)
            if key in self._plans:
                self._plans[key] = plan
        return plan


@dataclass(frozen=True)
class LaplacianContext(_VertexReads):
    """Shared read-only data reused across runs on one graph: its gated
    integer spectrum, the depth chain, and four reads of its vertex data,
    ``n``, ``masses``, ``gram`` and ``vertex_classes``.  A closed form
    (``ints.family``) answers all four by formula, and a failing branch's
    ``lift`` from Gram columns, so it never decomposes; otherwise the
    gate's dense decomposition answers all.  Either way the walk runs on
    the certified integer values."""

    graph: Graph
    ints: spectral.IntegerSpectrum
    chain: depth_mod.DepthChain

    hamiltonian = sched_mod.LAPLACIAN
    search_task = TASK_SEARCH

    @property
    def label(self) -> str:
        return self.graph.family or f"custom(n={self.graph.n})"

    @property
    def spectrum(self) -> spectral.Spectrum | None:
        """The gate's dense decomposition; None on a closed form."""
        return self.ints.base

    @functools.cached_property
    def values(self) -> np.ndarray:
        return np.array(self.ints.values, float)

    @property
    def depth(self) -> int:
        return self.chain.depth

    @functools.cached_property
    def _mass_runs(self) -> tuple[np.ndarray, np.ndarray]:
        return spectral.family_masses(self.ints) if self.ints.family else super()._mass_runs

    @functools.cached_property
    def _family_gram(self) -> tuple[Callable, np.ndarray]:
        """A closed form's relation and (R, G) Gram table, built once."""
        return spectral.family_gram(self.ints)

    def gram(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """The Gram entries (E_g)_uv of the pairs, (..., G) for vertex
        arrays that broadcast: a closed form's table row of each pair's
        relation, else the group sums of their eigenvector rows."""
        if self.ints.family:
            relation, table = self._family_gram
            return table[relation(us, vs)]
        spectrum = self.spectrum
        return spectral.group_sums(spectrum, spectrum.eigenvectors[us] * spectrum.eigenvectors[vs])

    def lift(self, vertices: np.ndarray, coords: np.ndarray, x: np.ndarray) -> np.ndarray:
        """On a closed form, row i's amplitude on w is the sum over g of
        x[i, :, g] / coords[i, g] times the Gram column (E_g)_{w m_i}: O(N G)
        per row and block, no eigenvector read."""
        if not self.ints.family:
            return super().lift(vertices, coords, x)
        columns = self.gram(np.arange(self.n), np.asarray(vertices)[:, None])
        return sim.lift_columns(columns, coords, x)

    @functools.cached_property
    def walk_times(self) -> tuple[float, ...]:
        """The walk time of a stage at each level: its reflection time."""
        return tuple(sched_mod.reflection_time(level.gcd) for level in self.chain.levels[:-1])

    @functools.cached_property
    def vertex_classes(self) -> np.ndarray:
        """Each vertex's mass class, numbered by lowest vertex: the vertices
        whose masses on every depth level (the masses <m|E_g|m> summed over
        it, so basis-free) agree to ``LEVEL_MASS_TOL`` with the class's
        lowest vertex's, compared once per run of ``_mass_runs``.
        Vertex-transitive and walk-regular graphs have one class (Godsil &
        McKay 1980)."""
        starts, table = self._mass_runs
        member = self.chain.group_depths[:, None] >= np.arange(len(self.chain.levels))
        masses = table @ member
        classes, free, count = np.empty(len(starts), dtype=int), np.arange(len(starts)), 0
        while free.size:
            far = (np.abs(masses[free] - masses[free[0]]) > LEVEL_MASS_TOL).any(axis=1)
            classes[free[~far]] = count
            free, count = free[far], count + 1
        return classes[starts.searchsorted(np.arange(self.n), "right") - 1]

    @functools.cached_property
    def mass_classes(self) -> tuple[int, ...]:
        """The lowest vertex of each mass class."""
        return tuple(np.unique(self.vertex_classes, return_index=True)[1].tolist())

    @functools.cached_property
    def class_schedules(self) -> tuple[sched_mod.Schedule, ...]:
        """One forward sampling schedule per mass class, synthesized on
        first use: a schedule depends on its vertex only through the level
        masses.  With one class every vertex puts mass |level| / N on each
        level, and the schedule comes from those cardinality ratios;
        otherwise from the masses of the class's lowest vertex."""
        if len(self.mass_classes) == 1:
            overlaps = [depth_mod.transitive_overlaps(self.chain)]
        else:
            overlaps = [depth_mod.overlaps(self.chain, row)
                        for row in self.masses(self.mass_classes)]
        return self._keep_plans(
            tuple(sched_mod.synth_sampling_schedule(self.chain, o) for o in overlaps))

    @functools.cached_property
    def branches(self) -> tuple[sched_mod.Schedule, ...]:
        """One search branch per mass class, its sampling schedule's dagger,
        which keeps its stage tree and so its plan."""
        return tuple(map(sched_mod.dagger, self.class_schedules))

    def frame_starts(self, vertices: np.ndarray, coords: np.ndarray) -> np.ndarray:
        """Branch i's start, the uniform state, in the frames of vertices,
        whose ``frame_coords`` are coords, shape (branches, R, G): 1 on
        group 0, the simple eigenvalue 0, and 0 on every other group, in
        every frame, since E_0 = |u><u| makes <m|E_0|u> = 1 / sqrt(N) the
        coordinate itself and E_g|u> = 0 for g > 0.  No eigenvector is read."""
        start = np.zeros_like(coords)
        start[:, 0] = 1.0
        return np.broadcast_to(start, (len(self.mass_classes), *coords.shape))


def prepare(g: Graph) -> LaplacianContext:
    """Gate g's Laplacian as an integer spectrum and build its depth chain:
    in closed form when the edges are a built-in family's, with no dense
    solve, else from its dense decomposition."""
    ints = spectral.graph_integer_spectrum(g, decompose=True)
    return LaplacianContext(g, ints, depth_mod.build_depth_chain(ints))


@dataclass(frozen=True)
class BipartiteContext(_VertexReads):
    """Shared read-only data reused across searches on one complete
    bipartite graph with the two blocks ``bipartite_blocks`` gives."""

    graph: Graph
    blocks: tuple[tuple[int, ...], tuple[int, ...]]

    hamiltonian = sched_mod.ADJACENCY
    search_task = TASK_BIPARTITE
    depth = 1

    @property
    def label(self) -> str:
        return "complete_bipartite({},{})".format(*map(len, self.blocks))

    @functools.cached_property
    def spectrum(self) -> spectral.Spectrum:
        return spectral.eigendecompose(adjacency(self.graph))

    @functools.cached_property
    def values(self) -> np.ndarray:
        """The adjacency walk's eigenvalue on each group, the group means."""
        return np.array(self.spectrum.values)

    @functools.cached_property
    def branches(self) -> tuple[sched_mod.Schedule, sched_mod.Schedule]:
        """One reversed schedule per block."""
        return self._keep_plans(sched_mod.synth_bipartite_search(*map(len, self.blocks)))

    @property
    def walk_times(self) -> tuple[float]:
        """The one level's walk time, pi / sqrt(n1 * n2)."""
        return (math.pi / math.sqrt(len(self.blocks[0]) * len(self.blocks[1])),)

    def frame_starts(self, vertices: np.ndarray, coords: np.ndarray) -> np.ndarray:
        """Branch i's start, the uniform state |B_i> on block i, in the
        frames of vertices m_j, whose ``frame_coords`` are coords, shape
        (2, R, G).  The adjacency walk's eigenvectors for +-sqrt(n1 n2) are
        v_+- = (|B_1> +- |B_2>) / sqrt(2), so E_0|B_i> = 0, E_+|B_i> =
        v_+ / sqrt(2) and E_-|B_i> = +-v_- / sqrt(2), + for block 1; over
        ||E_g|m_j>|| = |<m_j|v_g>|, coordinate g in row j is 1 / sqrt(2) on
        +sqrt(n1 n2), 0 on the zero group, and +-1 / sqrt(2) on
        -sqrt(n1 n2), + when m_j lies in block i.  The groups are told
        apart by value against +-1/2, as the zero group's is about 0 and
        the others' magnitude is at least 1.  No eigenvector is read."""
        member = np.array([np.isin(vertices, block) for block in self.blocks])
        values = self.values
        return np.where(values < -0.5, 2.0 * member[..., None] - 1, values > 0.5) / math.sqrt(2.0)


def prepare_bipartite(g: Graph) -> BipartiteContext:
    """The bipartite context of g, once its blocks are found."""
    blocks = bipartite_blocks(g)
    if blocks is None:
        raise GraphError("bipartite search needs a complete bipartite graph")
    return BipartiteContext(g, blocks)


def bipartite_blocks(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The two blocks of g, each ascending and the first holding vertex 0,
    when g is complete bipartite, else None.

    Colour each vertex by whether it is adjacent to vertex 0, the only
    2-colouring a complete bipartite graph has; then g is complete
    bipartite iff n1 * n2 edges all cross the colouring.  O(E).
    """
    u, v = g.edge_array.T  # pairs u < v, sorted
    near = np.zeros(g.n, dtype=bool)
    near[v[u == 0]] = True
    blocks = tuple(np.flatnonzero(~near).tolist()), tuple(np.flatnonzero(near).tolist())
    if near.any() and len(u) == len(blocks[0]) * len(blocks[1]) and np.all(near[u] != near[v]):
        return blocks
    return None


def search_route(
    g: Graph, *, ctx: LaplacianContext | None = None
) -> tuple[str, LaplacianContext | BipartiteContext]:
    """Pick the search route from g's edges and return it with the context
    that searches on it (``execute_search(ctx, ctx.branches, m)``).

    Complete bipartite graphs with unequal blocks take the two-branch
    adjacency route; every other graph the black-box route, one Laplacian
    branch per mass class, in ``ctx`` when given.
    """
    blocks = bipartite_blocks(g)
    if blocks and len(blocks[0]) != len(blocks[1]):
        return "bipartite", BipartiteContext(g, blocks)
    return "blackbox", ctx or prepare(g)


def _report(
    task: str, label: str, n: int, depth: int, schedules: Sequence[sched_mod.Schedule],
    **fields,
) -> RunReport:
    """A report whose costs sum over the schedules the run executed."""
    p = sum(s.oracle_count for s in schedules)
    return RunReport(
        task=task,
        graph=label,
        n=n,
        depth=depth,
        oracle_count=p,
        total_time=sum(s.total_time for s in schedules),
        bound_ratio=p / (2.0**depth * math.sqrt(n)),
        ancilla_phase_time=sum(sched_mod.ancilla_phase_time(s) for s in schedules),
        **fields,
    )


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sampling_schedule(ctx: LaplacianContext, m: int) -> sched_mod.Schedule:
    """The forward schedule carrying vertex m to the uniform state: its
    mass class's, one of ``ctx.class_schedules``."""
    if not 0 <= m < ctx.n:
        raise SpectrumError(f"vertex index {m} out of range for n={ctx.n}")
    return ctx.class_schedules[ctx.vertex_classes[m]]


def _check_stages(ctx: LaplacianContext | BipartiteContext,
                  stages: tuple[sched_mod.Stage, ...]) -> None:
    """Reject a stage tree that cannot run on ctx: a stage whose walk time
    is not ``ctx.walk_times`` at the level it claims.  O(depth)."""
    times = ctx.walk_times
    for stage in stages:
        if not (0 <= stage.level < len(times) and math.isclose(
                stage.walk_time, times[stage.level], rel_tol=1e-9)):
            raise ScheduleError(
                f"stage at level {stage.level} walks for {stage.walk_time:.12g}, "
                "not the reflection time of that level"
            )


def execute_sample(
    ctx: LaplacianContext, schedule: sched_mod.Schedule, m: int
) -> RunReport:
    """Run a forward schedule from vertex m: the one-row sampling sweep."""
    return _sample_sweep(ctx, [schedule], [m])[0][0]


def _sample_pass(
    ctx: LaplacianContext, schedules: Sequence[sched_mod.Schedule], vertices: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, list[tuple[list[int], np.ndarray, np.ndarray]]]:
    """Run forward ``schedules[i]`` from vertex ``vertices[i]`` in its
    frame, one executor pass per distinct schedule object, each checked
    once.  Stage ends are safe projection points for the ancilla;
    coordinate 0 is the uniform state.  Return the rows' ``frame_coords``;
    each row's final state F|m> = sum over g of s[i, g] E_g|m>, as the (R,
    G) array s, zero on the eigenspaces m has no mass on; and per pass its
    rows, their final coordinates and their block 0 after each stage."""
    groups: dict[int, list[int]] = {}
    for i, schedule in enumerate(schedules):
        groups.setdefault(id(schedule), []).append(i)
    plans = [ctx.plan(schedules[rows[0]]) for rows in groups.values()]
    coords = sim.frame_coords(ctx.masses(vertices))
    finals, passes = np.zeros(coords.shape, dtype=complex), []
    for rows, plan in zip(groups.values(), plans):
        ends: list[np.ndarray] = []
        x = sim.run_stages(coords[rows, None], schedules[rows[0]], plan, coords[rows],
                           lambda _, blocks: ends.append(blocks[:, 0]))[:, 0]
        finals[rows] = sim.divide_coords(x, coords[rows])
        passes.append((rows, x, np.array(ends).reshape(-1, *x.shape)))
    return coords, finals, passes


def _sample_sweep(
    ctx: LaplacianContext, schedules: Sequence[sched_mod.Schedule], vertices: Sequence[int]
) -> tuple[list[RunReport], np.ndarray]:
    """The ``_sample_pass`` of the rows with a report each, checking each
    stage against its level's kept state; return the reports and the
    rows' final states."""
    coords, finals, passes = _sample_pass(ctx, schedules, vertices)
    reports: list[RunReport] = [None] * len(vertices)
    for rows, x, ends in passes:
        # stage k's fidelity: that block against the kept part of m's row
        # at the next level, both normalized
        levels = np.array(schedules[rows[0]].stage_levels)[:, None, None]
        kept = np.where(ctx.chain.group_depths > levels, coords[rows], 0.0)
        stage_fids = (np.abs(np.einsum("sij,sij->si", kept, ends)) ** 2
                      / np.einsum("sij,sij->si", kept, kept)
                      / np.einsum("sij,sij->si", ends.conj(), ends).real)
        for i, row in enumerate(rows):
            reports[row] = _report(
                TASK_SAMPLE, ctx.label, ctx.n, ctx.chain.depth, [schedules[row]],
                marked=vertices[row],
                target=None,
                fidelity=float(abs(x[i, 0]) ** 2),
                stage_fidelities=tuple(stage_fids[:, i].tolist()),
            )
    return reports, finals


def uniform_sample(g: Graph, m: int, *, ctx: LaplacianContext | None = None) -> RunReport:
    """Carry the basis state of vertex m to the uniform state exactly."""
    ctx = ctx or prepare(g)
    return execute_sample(ctx, sampling_schedule(ctx, m), m)


# ---------------------------------------------------------------------------
# State transfer
# ---------------------------------------------------------------------------

def transfer(
    g: Graph, u: int, v: int, *, ctx: LaplacianContext | None = None
) -> RunReport:
    """Perfect state transfer: forward schedule for u, adjoint schedule
    for v, read off the final states of a sampling pass from u and v."""
    ctx = ctx or prepare(g)
    vertices, schedules = [u, v], [sampling_schedule(ctx, u), sampling_schedule(ctx, v)]
    _, finals, _ = _sample_pass(ctx, schedules, vertices)
    return _transfer_sweep(ctx, vertices, schedules, finals, [(0, 1)])[0]


def _transfer_sweep(
    ctx: LaplacianContext, vertices: Sequence[int],
    schedules: Sequence[sched_mod.Schedule], finals: np.ndarray,
    pairs: Sequence[tuple[int, int]],
) -> list[RunReport]:
    """Transfer for each pair (i, j) of rows of one ``_sample_pass``,
    from u = ``vertices[i]`` to v = ``vertices[j]``: forward
    ``schedules[i]``, then the adjoint of ``schedules[j]``.  Its amplitude
    <v|F_v^dagger F_u|u> = <F_v v|F_u u> is the sum over eigenspaces g of
    conj(s_v[g]) s_u[g] (E_g)_uv, with s the rows' ``finals``: O(N) per
    pair and no executor pass."""
    rows, cols = np.array(pairs, dtype=int).reshape(-1, 2).T
    vertex = np.asarray(vertices)
    gram = ctx.gram(vertex[rows], vertex[cols])
    fids = np.abs((finals[cols].conj() * finals[rows] * gram).sum(axis=1)) ** 2
    return [
        _report(
            TASK_TRANSFER, ctx.label, ctx.n, ctx.chain.depth,
            [schedules[i], schedules[j]],
            marked=vertices[i],
            target=vertices[j],
            fidelity=float(fid),
        )
        for (i, j), fid in zip(pairs, fids)
    ]


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------

def transitive_search_schedule(ctx: LaplacianContext) -> sched_mod.Schedule:
    """The first mass class's branch: on a graph whose vertices share
    their level masses, the one vertex-independent black-box schedule."""
    return ctx.branches[0]


def search_vertex_transitive(
    g: Graph, marked: int, *, ctx: LaplacianContext | None = None
) -> RunReport:
    """Black-box search on the Laplacian walk, one branch per mass class
    (one on vertex-transitive and walk-regular graphs).  The schedules
    never mention the hidden vertex, which enters only through the oracle,
    so the emitted bytes are the same for every hidden vertex."""
    ctx = ctx or prepare(g)
    return execute_search(ctx, ctx.branches, marked)


#: The mass-class branches reach every graph with an integer Laplacian
#: spectrum without being told the marked vertex, so no promise is needed.
search_promise = search_vertex_transitive


def search_bipartite(n1: int, n2: int, marked: int) -> RunReport:
    """Two-branch deterministic search on the complete bipartite graph:
    branch i rotates the uniform state on block i onto the marked vertex
    under the adjacency walk, so exactly one branch finds it."""
    bctx = prepare_bipartite(complete_bipartite(n1, n2))
    return execute_search(bctx, bctx.branches, marked)


def execute_search(
    ctx: LaplacianContext | BipartiteContext,
    schedules: Sequence[sched_mod.Schedule],
    marked: int,
) -> RunReport:
    """Search for one hidden vertex: the one-vertex search sweep."""
    return _search_sweep(ctx, schedules, [marked])[0]


def _search_sweep(
    ctx: LaplacianContext | BipartiteContext,
    schedules: Sequence[sched_mod.Schedule],
    marked: Sequence[int],
) -> list[RunReport]:
    """For each hidden vertex m, run branch i, the reversed schedule
    ``schedules[i]``, from its start in m's frame (``ctx.frame_starts``)
    with the oracle bound to m and with the ancilla carried: a branch for
    another mass class can leave it entangled.  It succeeds, m confirmed
    by the oracle (one query), when p(m) = sum over ancilla blocks a of
    |sum_g x[a, g] coords[g]|^2, read in m's frame, is at least
    ``FIDELITY_THRESHOLD`` > 1/2 + ``TIE_TOL``: m is then the unique most
    probable vertex.  Only a failing branch's rows are lifted
    (``ctx.lift``) to report its candidate, the lowest most probable
    vertex.  The first success is the result and must pass the
    detach gate.  Each branch runs for every hidden vertex in one pass."""
    vertices = np.asarray(marked, dtype=int)
    coords = sim.frame_coords(ctx.masses(vertices))
    starts = ctx.frame_starts(vertices, coords)
    if len(schedules) != len(starts):
        raise ScheduleError(
            f"search on this graph takes {len(starts)} branches, got {len(schedules)}")
    plans = [ctx.plan(schedule) for schedule in schedules]
    runs = []
    for side, (start, schedule, plan) in enumerate(zip(starts, schedules, plans), 1):
        x = sim.run_stages(np.stack([start, np.zeros_like(start)], axis=1),
                           schedule, plan, coords)
        fids = (np.abs(np.einsum("rag,rg->ra", x, coords)) ** 2).sum(axis=1)
        found, candidates = fids >= FIDELITY_THRESHOLD, vertices.copy()
        if (failed := np.flatnonzero(~found)).size:
            amps = ctx.lift(vertices[failed], coords[failed], x[failed])
            probs = (np.abs(amps) ** 2).sum(axis=1)
            candidates[failed] = [_most_probable(p) for p in probs]
            fids[failed] = probs[np.arange(len(failed)), candidates[failed]]
        runs.append((x, [BranchResult(side, c, f, s, schedule.oracle_count, schedule.total_time)
                         for c, f, s in zip(candidates.tolist(), fids.tolist(), found.tolist())]))
    reports, winners = [], []
    for row, m in enumerate(marked):
        branches = [results[row] for _, results in runs]
        winner = next((b for b in branches if b.succeeded), None)
        if winner:
            winners.append(runs[winner.side - 1][0][row])
        reports.append(_report(
            ctx.search_task, ctx.label, ctx.n, ctx.depth, schedules,
            marked=m,
            target=winner.candidate if winner else None,
            fidelity=winner.fidelity if winner else max(b.fidelity for b in branches),
            search_mode="blackbox",
            branches=tuple(branches) if len(branches) > 1 else (),
        ))
    if winners:
        sim.detach_blocks(np.array(winners))
    return reports


def _most_probable(probs: np.ndarray) -> int:
    """The lowest vertex whose probability ties the maximum.  A failing
    bipartite branch ends uniform on its block, so without the tolerance
    roundoff would pick its candidate."""
    return int(np.flatnonzero(probs >= probs.max() - TIE_TOL)[0])


# ---------------------------------------------------------------------------
# Verification harness
# ---------------------------------------------------------------------------

def _transfer_pairs(n: int) -> list[tuple[int, int]]:
    # all ordered pairs on small graphs, a deterministic 2N subset above
    if n <= 10:
        return [(u, v) for u in range(n) for v in range(n) if u != v]
    pairs = {(u, (u + 1) % n) for u in range(n)}
    pairs |= {(u, (u + n // 2) % n) for u in range(n) if (u + n // 2) % n != u}
    return sorted(pairs)


def verify_graph(g: Graph, *, cap: int = 500) -> VerifyReport:
    """Run the full task sweep on one graph and aggregate the results.

    Sampling runs from every vertex; transfer on all ordered pairs (or a
    deterministic subset above 10 vertices); search on every hidden vertex
    via the route ``search_route`` picks, with that route's branches.
    K mass classes cost K syntheses: each vertex samples and transfers
    with its class's schedule, and Laplacian search branches are their
    daggers.  Sampling runs all its rows in one pass per class schedule
    and search in one per branch; transfers read the sampling rows' final
    states.
    """
    if g.n > cap:
        raise GraphError(f"graph has {g.n} vertices, exceeding the cap {cap}")
    started = time.perf_counter()
    ctx = prepare(g)
    route, sctx = search_route(g, ctx=ctx)
    vertices = list(range(g.n))
    forward = [sampling_schedule(ctx, m) for m in vertices]

    reports, finals = _sample_sweep(ctx, forward, vertices)
    reports += _transfer_sweep(ctx, vertices, forward, finals, _transfer_pairs(g.n))
    reports += _search_sweep(sctx, sctx.branches, vertices)
    reports.sort(key=lambda r: (r.task, r.marked if r.marked is not None else -1,
                                r.target if r.target is not None else -1))

    return VerifyReport(
        graph=ctx.label,
        n=g.n,
        reports=tuple(reports),
        min_fidelity=min(r.fidelity for r in reports),
        max_bound_ratio=max(r.bound_ratio for r in reports),
        search_route=route,
        wall_time_s=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

CSV_HEADER = "graph,task,m,fidelity,p,T,d,bound_ratio"


def report_to_json_dict(report: RunReport) -> dict:
    """The report's fields, without ``search_mode`` and ``branches`` when
    they are unset; read off the frozen records, never deep-copied."""
    data = {**vars(report), "stage_fidelities": list(report.stage_fidelities),
            "branches": [dict(vars(b)) for b in report.branches]}
    if report.search_mode is None:
        del data["search_mode"]
    if not report.branches:
        del data["branches"]
    return data


def _csv_fields(report: RunReport) -> list:
    return [
        report.graph,
        report.task,
        "" if report.marked is None else report.marked,
        f"{report.fidelity:.12g}",
        report.oracle_count,
        f"{report.total_time:.12g}",
        report.depth,
        f"{report.bound_ratio:.12g}",
    ]


def reports_to_csv(reports: tuple[RunReport, ...] | list[RunReport]) -> str:
    # family tags contain commas, so rows go through a real CSV writer
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for report in reports:
        writer.writerow(_csv_fields(report))
    return buf.getvalue()
