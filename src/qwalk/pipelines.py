"""End-to-end task pipelines and the verification harness.

Four tasks share the same machinery: exact uniform sampling (start vertex
to uniform state), perfect state transfer (forward schedule for the source
followed by the adjoint schedule for the destination), deterministic
search on graphs whose vertices all have the same level masses (the
reversed vertex-independent schedule applied to the uniform state), and
the two-branch search on complete bipartite graphs driven by the
adjacency walk.  Every search route runs each branch, a reversed schedule
from the uniform state on a vertex set, in the marked vertex's frame of
the Laplacian or adjacency spectrum (``_run_branch``).

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
from dataclasses import asdict, dataclass

import numpy as np

from . import depth as depth_mod
from . import schedule as sched_mod
from . import simulate as sim
from . import spectral
from .errors import GraphError, ScheduleError
from .graph import Graph, adjacency, complete_bipartite, laplacian

#: A run counts as exact when the final fidelity clears this.
FIDELITY_THRESHOLD = 1.0 - 1e-8
#: Vertex probabilities closer than this count as tied.
TIE_TOL = 1e-9
#: Level masses this close to |level| / N count as vertex-independent.
LEVEL_MASS_TOL = 1e-9

TASK_SAMPLE = "sample"
TASK_TRANSFER = "transfer"
TASK_SEARCH = "search"
TASK_BIPARTITE = "bipartite_search"


@dataclass(frozen=True)
class BranchResult:
    """Outcome of one bipartite search branch."""

    side: int
    candidate: int
    fidelity: float
    succeeded: bool
    oracle_count: int
    total_time: float
    walk_time: float


@dataclass(frozen=True)
class RunReport:
    """Cost and fidelity record of one pipeline run.

    ``bound_ratio`` is oracle_count / (2^depth * sqrt(N)); ``search_mode``
    distinguishes the black-box route from the promise route on graphs
    whose level masses depend on the vertex.
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


@dataclass(frozen=True)
class LaplacianContext:
    """Shared read-only data reused across runs on one graph."""

    graph: Graph
    spectrum: spectral.Spectrum
    ints: spectral.IntegerSpectrum
    chain: depth_mod.DepthChain

    hamiltonian = sched_mod.LAPLACIAN

    @property
    def label(self) -> str:
        return self.graph.family or f"custom(n={self.graph.n})"

    @functools.cached_property
    def walk_times(self) -> tuple[float, ...]:
        """The walk time of a stage at each level: its reflection time."""
        return tuple(sched_mod.reflection_time(level.gcd) for level in self.chain.levels[:-1])

    @functools.cached_property
    def uniform_coeffs(self) -> np.ndarray:
        """The eigen-coefficients of the uniform state, where search starts."""
        return self.spectrum.eigenvectors.sum(axis=0) / math.sqrt(self.graph.n)

    @functools.cached_property
    def uniform_level_masses(self) -> bool:
        """Whether every vertex puts mass |level| / N on every depth level.

        Then the overlaps, and so the sampling schedule, are the same for
        every vertex, and the black-box search schedule finds any hidden
        vertex.  Vertex-transitive and walk-regular graphs qualify (Godsil
        & McKay 1980); levels are unions of eigenspaces, so the masses do
        not depend on the basis inside a degenerate eigenspace.
        """
        member = self.chain.index_depths[:, None] >= np.arange(len(self.chain.levels))
        masses = self.spectrum.eigenvectors**2 @ member
        return bool(np.all(np.abs(masses - member.mean(axis=0)) <= LEVEL_MASS_TOL))

    @functools.cached_property
    def group_depths(self) -> np.ndarray:
        """The deepest chain level holding each eigenspace group."""
        return self.chain.index_depths[[g.indices[0] for g in self.spectrum.groups]]

    @functools.cached_property
    def search_schedule(self) -> sched_mod.Schedule:
        """The vertex-independent reversed schedule for black-box search,
        synthesized on first use."""
        overlaps = depth_mod.transitive_overlaps(self.chain)
        return sched_mod.dagger(sched_mod.synth_sampling_schedule(self.chain, overlaps))


def prepare(g: Graph) -> LaplacianContext:
    """Eigendecompose the Laplacian and gate it as an integer spectrum."""
    lap = laplacian(g)
    spectrum = spectral.eigendecompose(lap)
    ints = spectral.integer_spectrum(lap, spectrum)
    chain = depth_mod.build_depth_chain(ints)
    return LaplacianContext(g, spectrum, ints, chain)


@dataclass(frozen=True)
class BipartiteContext:
    """Shared read-only data reused across searches on one complete
    bipartite graph: its adjacency spectrum, its two blocks (as
    ``bipartite_blocks`` gives them) and one branch schedule per block."""

    graph: Graph
    spectrum: spectral.Spectrum
    blocks: tuple[tuple[int, ...], tuple[int, ...]]
    branches: tuple[sched_mod.Schedule, sched_mod.Schedule]

    hamiltonian = sched_mod.ADJACENCY

    @property
    def walk_times(self) -> tuple[float]:
        """The one level's walk time, pi / sqrt(n1 * n2)."""
        return (math.pi / math.sqrt(len(self.blocks[0]) * len(self.blocks[1])),)

    @functools.cached_property
    def block_coeffs(self) -> np.ndarray:
        """Row i: the eigen-coefficients of the uniform state on block i,
        where branch i starts."""
        vectors = self.spectrum.eigenvectors
        return np.array([vectors[list(block)].sum(axis=0) / math.sqrt(len(block))
                         for block in self.blocks])


def prepare_bipartite(g: Graph) -> BipartiteContext:
    """Find g's blocks, eigendecompose its adjacency matrix and synthesize
    both branches."""
    blocks = bipartite_blocks(g)
    if blocks is None:
        raise GraphError("bipartite search needs a complete bipartite graph")
    spectrum = spectral.eigendecompose(adjacency(g))
    branches = sched_mod.synth_bipartite_search(len(blocks[0]), len(blocks[1]))
    return BipartiteContext(g, spectrum, blocks, branches)


def bipartite_blocks(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The two blocks of g, each ascending and the first holding vertex 0,
    when g is complete bipartite, else None.

    Colour each vertex by whether it is adjacent to vertex 0, the only
    2-colouring a complete bipartite graph has; then g is complete
    bipartite iff n1 * n2 edges all cross the colouring.  O(E).
    """
    near = {v for u, v in g.edges if u == 0}  # edges are pairs (u, v) with u < v
    blocks = tuple(v for v in range(g.n) if v not in near), tuple(sorted(near))
    if near and len(g.edges) == len(near) * len(blocks[0]) and all(
            (u in near) != (v in near) for u, v in g.edges):
        return blocks
    return None


def search_route(
    g: Graph,
    *,
    ctx: LaplacianContext | None = None,
    threshold: float = FIDELITY_THRESHOLD,
) -> tuple[str, Callable[[int], RunReport]]:
    """Pick the search route from g's edges and spectrum and return it with
    a function that searches for one hidden vertex on it.

    Complete bipartite graphs with unequal blocks take the two-branch
    route; otherwise graphs with uniform level masses take the black-box
    route and the rest the promise route.  The contexts are built once and
    shared by every call of the returned function.
    """
    blocks = bipartite_blocks(g)
    if blocks and len(blocks[0]) != len(blocks[1]):
        bctx = prepare_bipartite(g)
        return "bipartite", lambda m: execute_bipartite(bctx, bctx.branches, m, threshold)
    ctx = ctx or prepare(g)
    if ctx.uniform_level_masses:
        return "blackbox", lambda m: search_vertex_transitive(g, m, ctx=ctx)
    return "promise", lambda m: search_promise(g, m, ctx=ctx)


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
    """The forward schedule carrying vertex m to the uniform state."""
    alphas = spectral.eigenspace_amplitudes(ctx.spectrum, m)
    overlaps = depth_mod.overlaps(ctx.chain, alphas)
    return sched_mod.synth_sampling_schedule(ctx.chain, overlaps)


def _check_stages(ctx: LaplacianContext | BipartiteContext,
                  schedule: sched_mod.Schedule) -> None:
    """Reject a schedule that cannot run on ctx: one for another
    Hamiltonian, or a stage whose walk time is not ``ctx.walk_times`` at
    the level it claims.  O(depth)."""
    if schedule.hamiltonian != ctx.hamiltonian:
        raise ScheduleError(
            f"a {schedule.hamiltonian} schedule cannot run on the {ctx.hamiltonian} walk")
    times = ctx.walk_times
    for stage in schedule.stages:
        if not (0 <= stage.level < len(times) and math.isclose(
                stage.walk_time, times[stage.level], rel_tol=1e-9)):
            raise ScheduleError(
                f"stage at level {stage.level} walks for {stage.walk_time:.12g}, "
                "not the reflection time of that level"
            )


def execute_sample(
    ctx: LaplacianContext, schedule: sched_mod.Schedule, m: int
) -> RunReport:
    """Run a forward schedule from vertex m in its frame, checking each
    stage against its level's kept state.  Stage ends are safe projection
    points for the ancilla; coordinate 0 is the uniform state."""
    _check_stages(ctx, schedule)
    levels = schedule.stage_levels
    frame = sim.vertex_frame(ctx.spectrum, [m])
    row = frame.coords[0]
    depths = ctx.group_depths[frame.group]
    stage_fids: list[float] = []

    def check_stage(stage: int, blocks: np.ndarray) -> None:
        kept = np.where(depths > levels[stage], row, 0.0)
        overlap = abs(np.vdot(kept, blocks[0])) ** 2
        stage_fids.append(float(overlap / (kept @ kept) / np.linalg.norm(blocks[0]) ** 2))

    x = frame.run(row[None], schedule, on_stage=check_stage)
    return _report(
        TASK_SAMPLE, ctx.label, ctx.graph.n, ctx.chain.depth, [schedule],
        marked=m,
        target=None,
        fidelity=float(abs(x[0, 0]) ** 2),
        stage_fidelities=tuple(stage_fids),
    )


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
    for v.  Both oracles bind their own vertex."""
    ctx = ctx or prepare(g)
    sched_u = sampling_schedule(ctx, u)
    sched_v = sampling_schedule(ctx, v)
    frame = sim.vertex_frame(ctx.spectrum, [u, v])
    x = frame.run(frame.coords[:1], sched_u)
    x = frame.run(x, sched_mod.dagger(sched_v), 1)
    return _report(
        TASK_TRANSFER, ctx.label, ctx.graph.n, ctx.chain.depth, [sched_u, sched_v],
        marked=u,
        target=v,
        fidelity=float(abs(np.vdot(frame.coords[1], x[0])) ** 2),
    )


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------

def transitive_search_schedule(ctx: LaplacianContext) -> sched_mod.Schedule:
    """The vertex-independent reversed schedule used for black-box search,
    built once per context."""
    return ctx.search_schedule


def search_vertex_transitive(
    g: Graph, marked: int, *, ctx: LaplacianContext | None = None
) -> RunReport:
    """Black-box search on a graph with uniform level masses, such as a
    vertex-transitive one.

    The schedule is synthesized from cardinality-ratio overlaps and never
    mentions the hidden vertex; it enters only through the oracle at run
    time, so the emitted bytes are identical for every hidden vertex.
    """
    ctx = ctx or prepare(g)
    return execute_search(ctx, transitive_search_schedule(ctx), marked, "blackbox")


def search_promise(
    g: Graph, marked: int, *, ctx: LaplacianContext | None = None
) -> RunReport:
    """Search with the marked vertex known to synthesis (promise variant).

    On graphs that are not vertex-transitive the overlaps depend on the
    vertex, so this is not a black-box search; it exercises the same
    machinery end to end and is labeled accordingly.
    """
    ctx = ctx or prepare(g)
    schedule = sched_mod.dagger(sampling_schedule(ctx, marked))
    return execute_search(ctx, schedule, marked, "promise")


def execute_search(
    ctx: LaplacianContext, schedule: sched_mod.Schedule, marked: int, mode: str
) -> RunReport:
    """Run a reversed schedule from the uniform state with the oracle bound
    to ``marked``; the most probable vertex is the one found.  The
    black-box mode needs every vertex to have the same level masses."""
    _check_stages(ctx, schedule)
    if mode == "blackbox" and not ctx.uniform_level_masses:
        raise GraphError("level masses depend on the vertex; use search_promise "
                         "or the bipartite route")
    fidelity, probs = _run_branch(ctx.spectrum, ctx.uniform_coeffs, schedule, marked)
    return _report(
        TASK_SEARCH, ctx.label, ctx.graph.n, ctx.chain.depth, [schedule],
        marked=marked,
        target=_most_probable(probs),
        fidelity=fidelity,
        search_mode=mode,
    )


def _run_branch(spectrum: spectral.Spectrum, start: np.ndarray,
                schedule: sched_mod.Schedule, marked: int) -> tuple[float, np.ndarray]:
    """Run a reversed schedule in marked's frame from the state with
    eigen-coefficients ``start``, a uniform state on a vertex set whose
    projection on each eigenspace g is parallel to E_g|marked>; return the
    fidelity with |marked> and the vertex distribution.  Coordinate j of
    the start is <marked|E_g|start> / coords[0, j], O(N)."""
    frame = sim.vertex_frame(spectrum, [marked])
    group_starts = [g.indices[0] for g in spectrum.groups]
    x = np.add.reduceat(spectrum.eigenvectors[marked] * start, group_starts)[frame.group]
    x = frame.run((x / frame.coords[0])[None], schedule)[0]
    fidelity = float(abs(np.vdot(frame.coords[0], x)) ** 2)
    return fidelity, sim.measure_distribution(sim.lift(spectrum, frame, x))


def _most_probable(probs: np.ndarray) -> int:
    """The lowest vertex whose probability ties the maximum.  A failing
    bipartite branch ends uniform on its block, so without the tolerance
    roundoff would pick its candidate."""
    return int(np.flatnonzero(probs >= probs.max() - TIE_TOL)[0])


def search_bipartite(
    n1: int, n2: int, marked: int, *, threshold: float = FIDELITY_THRESHOLD
) -> RunReport:
    """Two-branch deterministic search on the complete bipartite graph.

    Branch 1 assumes the marked vertex is in the first block and runs the
    reversed rotation from the uniform state over that block under the
    adjacency walk; branch 2 mirrors it.  Exactly one branch ends on the
    marked vertex with fidelity 1; a branch's candidate is confirmed
    against the oracle, which is what a physical run would do by
    measurement and one check query.
    """
    bctx = prepare_bipartite(complete_bipartite(n1, n2))
    return execute_bipartite(bctx, bctx.branches, marked, threshold)


def execute_bipartite(
    bctx: BipartiteContext,
    branches: tuple[sched_mod.Schedule, ...],
    marked: int,
    threshold: float = FIDELITY_THRESHOLD,
) -> RunReport:
    """Run one branch schedule per block of ``bctx`` and confirm the
    candidates against ``marked``."""
    if len(branches) != 2:
        raise ScheduleError(f"bipartite search takes 2 branches, got {len(branches)}")
    results = []
    for side, (start, schedule) in enumerate(zip(bctx.block_coeffs, branches), 1):
        _check_stages(bctx, schedule)
        _, probs = _run_branch(bctx.spectrum, start, schedule, marked)
        candidate = _most_probable(probs)
        fid = float(probs[candidate])
        results.append(BranchResult(
            side=side, candidate=candidate, fidelity=fid,
            succeeded=fid >= threshold and candidate == marked,
            oracle_count=schedule.oracle_count, total_time=schedule.total_time,
            walk_time=bctx.walk_times[0]))
    winner = next((b for b in results if b.succeeded), None)
    return _report(
        TASK_BIPARTITE, "complete_bipartite({},{})".format(*map(len, bctx.blocks)),
        bctx.graph.n, 1, branches,
        marked=marked,
        target=winner.candidate if winner else None,
        fidelity=winner.fidelity if winner else max(b.fidelity for b in results),
        search_mode="blackbox",
        branches=tuple(results),
    )


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
    via the route ``search_route`` picks.
    """
    if g.n > cap:
        raise GraphError(f"graph has {g.n} vertices, exceeding the cap {cap}")
    started = time.perf_counter()
    ctx = prepare(g)
    route, search = search_route(g, ctx=ctx)

    reports = [uniform_sample(g, m, ctx=ctx) for m in range(g.n)]
    reports += [transfer(g, u, v, ctx=ctx) for u, v in _transfer_pairs(g.n)]
    reports += [search(m) for m in range(g.n)]
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
    they are unset."""
    data = {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(report).items()}
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
