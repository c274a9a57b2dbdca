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
schedules, in that vertex's frame.  Rows whose schedules share their
stage structure and whose vertices keep the same eigenspaces form a
group, one pass of the batched executor (for search, one per branch).
Transfer makes no pass: ``_transfer_sweep`` reads it off the final
states of two sampling rows, weighted by the Gram entries (E_g)_uv.
``verify_graph`` is one call of each sweep over every row of a graph,
with one synthesis per vertex; the single-run functions are the one-row
case.

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
from .errors import GraphError, ScheduleError
from .graph import Graph, adjacency, complete_bipartite, laplacian

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
    probability, and whether the oracle check confirmed it."""

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


@dataclass(frozen=True)
class LaplacianContext:
    """Shared read-only data reused across runs on one graph: the gated
    eigendecomposition of its Laplacian and the depth chain."""

    graph: Graph
    ints: spectral.IntegerSpectrum
    chain: depth_mod.DepthChain

    hamiltonian = sched_mod.LAPLACIAN
    search_task = TASK_SEARCH

    @property
    def label(self) -> str:
        return self.graph.family or f"custom(n={self.graph.n})"

    @property
    def spectrum(self) -> spectral.Spectrum:
        return self.ints.base

    @property
    def depth(self) -> int:
        return self.chain.depth

    @functools.cached_property
    def walk_times(self) -> tuple[float, ...]:
        """The walk time of a stage at each level: its reflection time."""
        return tuple(sched_mod.reflection_time(level.gcd) for level in self.chain.levels[:-1])

    @functools.cached_property
    def mass_classes(self) -> tuple[int, ...]:
        """The lowest vertex of each class of vertices whose masses on every
        depth level (eigenvector squares summed over it, so basis-free)
        agree to ``LEVEL_MASS_TOL``.  A sampling schedule depends on its
        vertex only through these masses, so one reversed schedule per
        class finds every vertex of the class.  Vertex-transitive and
        walk-regular graphs have one class (Godsil & McKay 1980)."""
        member = self.chain.index_depths[:, None] >= np.arange(len(self.chain.levels))
        masses = self.spectrum.eigenvectors**2 @ member
        free, reps = np.arange(self.graph.n), []
        while free.size:
            reps.append(int(free[0]))
            far = np.abs(masses[free] - masses[free[0]]) > LEVEL_MASS_TOL
            free = free[far.any(axis=1)]
        return tuple(reps)

    @functools.cached_property
    def branches(self) -> tuple[sched_mod.Schedule, ...]:
        """One reversed sampling schedule per mass class, synthesized on
        first use.  With one class every vertex puts mass |level| / N on
        each level, and the branch comes from those cardinality ratios."""
        if len(self.mass_classes) == 1:
            forward = [sched_mod.synth_sampling_schedule(
                self.chain, depth_mod.transitive_overlaps(self.chain))]
        else:
            forward = [sampling_schedule(self, m) for m in self.mass_classes]
        return tuple(map(sched_mod.dagger, forward))

    @functools.cached_property
    def starts(self) -> np.ndarray:
        """Row i: the eigen-coefficients of the uniform state, where branch
        i starts."""
        uniform = self.spectrum.eigenvectors.sum(axis=0) / math.sqrt(self.graph.n)
        return np.broadcast_to(uniform, (len(self.mass_classes), self.graph.n))

    @functools.cached_property
    def group_depths(self) -> np.ndarray:
        """The deepest chain level holding each eigenspace group."""
        return self.chain.index_depths[[g.indices[0] for g in self.spectrum.groups]]


def prepare(g: Graph) -> LaplacianContext:
    """Eigendecompose the Laplacian and gate it as an integer spectrum."""
    ints = spectral.graph_integer_spectrum(g, spectral.eigendecompose(laplacian(g)))
    return LaplacianContext(g, ints, depth_mod.build_depth_chain(ints))


@dataclass(frozen=True)
class BipartiteContext:
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
    def branches(self) -> tuple[sched_mod.Schedule, sched_mod.Schedule]:
        """One reversed schedule per block."""
        return sched_mod.synth_bipartite_search(*map(len, self.blocks))

    @property
    def walk_times(self) -> tuple[float]:
        """The one level's walk time, pi / sqrt(n1 * n2)."""
        return (math.pi / math.sqrt(len(self.blocks[0]) * len(self.blocks[1])),)

    @functools.cached_property
    def starts(self) -> np.ndarray:
        """Row i: the eigen-coefficients of the uniform state on block i,
        where branch i starts."""
        vectors = self.spectrum.eigenvectors
        return np.array([vectors[list(block)].sum(axis=0) / math.sqrt(len(block))
                         for block in self.blocks])


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
    g: Graph,
    *,
    ctx: LaplacianContext | None = None,
    threshold: float = FIDELITY_THRESHOLD,
) -> tuple[str, Callable[[int], RunReport]]:
    """Pick the search route from g's edges and return it with a function
    that searches for one hidden vertex on it, sharing one context.

    Complete bipartite graphs with unequal blocks take the two-branch
    adjacency route; every other graph the black-box route, one Laplacian
    branch per mass class.
    """
    route, sctx = _search_context(g, ctx)
    return route, lambda m: execute_search(sctx, sctx.branches, m, threshold)


def _search_context(
    g: Graph, ctx: LaplacianContext | None
) -> tuple[str, LaplacianContext | BipartiteContext]:
    """The route ``search_route`` picks and the context it searches in."""
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
    """Run a forward schedule from vertex m: the one-row sampling sweep."""
    return _sample_sweep(ctx, [schedule], [m])[0][0]


def _sample_sweep(
    ctx: LaplacianContext, schedules: Sequence[sched_mod.Schedule], vertices: Sequence[int]
) -> tuple[list[RunReport], np.ndarray]:
    """Run forward ``schedules[i]`` from vertex ``vertices[i]`` in its
    frame, checking each stage against its level's kept state, one
    executor pass per group.  Stage ends are safe projection points for
    the ancilla; coordinate 0 is the uniform state.  Return the reports
    and each row's final state F|m> = sum over g of s[i, g] E_g|m>, as the
    (R, G) array s, zero on the eigenspaces m has no mass on."""
    for schedule in schedules:
        _check_stages(ctx, schedule)
    reports: list[RunReport] = [None] * len(vertices)
    finals = np.zeros((len(vertices), len(ctx.spectrum.groups)), dtype=complex)
    keys = [s.structure for s in schedules]
    for items, frame in sim.vertex_frames(ctx.spectrum, vertices, keys):
        batch, row = [schedules[i] for i in items], frame.coords
        ends: list[np.ndarray] = []  # block 0 of every row after each stage
        x = frame.run(row[:, None], batch, on_stage=lambda _, blocks: ends.append(blocks[:, 0]))
        finals[np.array(items)[:, None], frame.group] = x[:, 0] / row
        # stage k's fidelity: that block against the kept part of m's row
        # at the next level, both normalized
        levels = np.array(batch[0].stage_levels)[:, None, None]
        kept = np.where(ctx.group_depths[frame.group] > levels, row, 0.0)
        ends = np.array(ends).reshape(kept.shape)
        stage_fids = (np.abs(np.einsum("sij,sij->si", kept, ends)) ** 2
                      / np.einsum("sij,sij->si", kept, kept)
                      / np.einsum("sij,sij->si", ends.conj(), ends).real)
        for i, item in enumerate(items):
            reports[item] = _report(
                TASK_SAMPLE, ctx.label, ctx.graph.n, ctx.chain.depth, [batch[i]],
                marked=vertices[item],
                target=None,
                fidelity=float(abs(x[i, 0, 0]) ** 2),
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
    for v, read off the two rows of a sampling sweep from u and v."""
    ctx = ctx or prepare(g)
    vertices = [u, v]
    schedules = [sampling_schedule(ctx, w) for w in vertices]
    _, finals = _sample_sweep(ctx, schedules, vertices)
    return _transfer_sweep(ctx, vertices, schedules, finals, [(0, 1)])[0]


def _transfer_sweep(
    ctx: LaplacianContext, vertices: Sequence[int],
    schedules: Sequence[sched_mod.Schedule], finals: np.ndarray,
    pairs: Sequence[tuple[int, int]],
) -> list[RunReport]:
    """Transfer for each pair (i, j) of rows of one ``_sample_sweep``,
    from u = ``vertices[i]`` to v = ``vertices[j]``: forward
    ``schedules[i]``, then the adjoint of ``schedules[j]``.  Its amplitude
    <v|F_v^dagger F_u|u> = <F_v v|F_u u> is the sum over eigenspaces g of
    conj(s_v[g]) s_u[g] (E_g)_uv, with s the rows' ``finals``: O(N) per
    pair and no executor pass."""
    rows, cols = np.array(pairs, dtype=int).reshape(-1, 2).T
    vertex, vectors = np.asarray(vertices), ctx.spectrum.eigenvectors
    gram = sim.group_sums(ctx.spectrum, vectors[vertex[rows]] * vectors[vertex[cols]])
    fids = np.abs((finals[cols].conj() * finals[rows] * gram).sum(axis=1)) ** 2
    return [
        _report(
            TASK_TRANSFER, ctx.label, ctx.graph.n, ctx.chain.depth,
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


def search_promise(
    g: Graph, marked: int, *, ctx: LaplacianContext | None = None
) -> RunReport:
    """The same as ``search_vertex_transitive``: its mass-class branches
    reach every graph with an integer Laplacian spectrum without being
    told the marked vertex, so no promise is needed."""
    return search_vertex_transitive(g, marked, ctx=ctx)


def search_bipartite(
    n1: int, n2: int, marked: int, *, threshold: float = FIDELITY_THRESHOLD
) -> RunReport:
    """Two-branch deterministic search on the complete bipartite graph:
    branch i rotates the uniform state on block i onto the marked vertex
    under the adjacency walk, so exactly one branch finds it."""
    g = complete_bipartite(n1, n2)
    bctx = BipartiteContext(g, (tuple(range(n1)), tuple(range(n1, g.n))))
    return execute_search(bctx, bctx.branches, marked, threshold)


def execute_search(
    ctx: LaplacianContext | BipartiteContext,
    schedules: Sequence[sched_mod.Schedule],
    marked: int,
    threshold: float = FIDELITY_THRESHOLD,
) -> RunReport:
    """Search for one hidden vertex: the one-vertex search sweep."""
    return _search_sweep(ctx, schedules, [marked], threshold)[0]


def _search_sweep(
    ctx: LaplacianContext | BipartiteContext,
    schedules: Sequence[sched_mod.Schedule],
    marked: Sequence[int],
    threshold: float = FIDELITY_THRESHOLD,
) -> list[RunReport]:
    """For each hidden vertex m, run branch i, the reversed schedule
    ``schedules[i]``, from ``ctx.starts[i]`` with the oracle bound to m, in
    m's frame and with the ancilla carried: a branch for another mass class
    can leave it entangled.  A branch's candidate, the most probable vertex
    of its vertex marginal, is checked against the oracle (one query); it
    succeeds when it is m with probability at least ``threshold``.  The
    first success is the result and must pass the detach gate.  Each
    branch runs for every hidden vertex in one executor pass per frame."""
    if len(schedules) != len(ctx.starts):
        raise ScheduleError(
            f"search on this graph takes {len(ctx.starts)} branches, got {len(schedules)}")
    for schedule in schedules:
        _check_stages(ctx, schedule)
    results: list[list[BranchResult]] = [[None] * len(schedules) for _ in marked]
    found = {}  # (row, side): the amplitudes of a successful branch
    frames = sim.vertex_frames(ctx.spectrum, marked)
    for side, (start, schedule) in enumerate(zip(ctx.starts, schedules)):
        for rows, frame in frames:
            amps = _run_branch(ctx.spectrum, frame, start, schedule)
            probs = (np.abs(amps) ** 2).sum(axis=1)
            for i, row in enumerate(rows):
                candidate = _most_probable(probs[i])
                fid = float(probs[i, candidate])
                results[row][side] = BranchResult(
                    side=side + 1, candidate=candidate, fidelity=fid,
                    succeeded=fid >= threshold and candidate == marked[row],
                    oracle_count=schedule.oracle_count, total_time=schedule.total_time)
                if results[row][side].succeeded:
                    found[row, side] = amps[i]
    reports, winners = [], []
    for row, (m, branches) in enumerate(zip(marked, results)):
        winner = next((b for b in branches if b.succeeded), None)
        if winner:
            winners.append(found[row, winner.side - 1])
        reports.append(_report(
            ctx.search_task, ctx.label, ctx.graph.n, ctx.depth, schedules,
            marked=m,
            target=winner.candidate if winner else None,
            fidelity=winner.fidelity if winner else max(b.fidelity for b in branches),
            search_mode="blackbox",
            branches=tuple(branches) if len(branches) > 1 else (),
        ))
    if winners:
        sim.detach_blocks(np.array(winners))
    return reports


def _run_branch(spectrum: spectral.Spectrum, frame: sim.Frame, start: np.ndarray,
                schedule: sched_mod.Schedule) -> np.ndarray:
    """Run a reversed schedule in the frames of vertices m_i, the rows of
    ``frame``, from the state with eigen-coefficients ``start``, a uniform
    state on a vertex set whose projection on each eigenspace g is
    parallel to E_g|m_i>; return the vertex-basis amplitudes, shape
    (R, 2, N), with the ancilla carried.  Coordinate j of the start in row
    i is <m_i|E_g|start> / coords[i, j], O(N) per row."""
    x = sim.group_sums(spectrum, spectrum.eigenvectors[frame.vertices] * start)
    x = x[:, frame.group] / frame.coords
    blocks = frame.run(np.stack([x, 0 * x], axis=1), [schedule] * len(x))
    return sim.lift(spectrum, frame, blocks)


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
    via the route ``search_route`` picks.  Each vertex's sampling schedule
    is synthesized once and serves its sample, every transfer it is in
    and, reversed, the search branch of a mass class it represents when
    there are several.  Sampling and search run all their rows in one pass
    per group; transfers read the sampling rows' final states.
    """
    if g.n > cap:
        raise GraphError(f"graph has {g.n} vertices, exceeding the cap {cap}")
    started = time.perf_counter()
    ctx = prepare(g)
    route, sctx = _search_context(g, ctx)
    vertices = list(range(g.n))
    forward = [sampling_schedule(ctx, m) for m in vertices]
    branches = sctx.branches if sctx is not ctx or len(ctx.mass_classes) == 1 else tuple(
        sched_mod.dagger(forward[m]) for m in ctx.mass_classes)  # the representatives' rows

    reports, finals = _sample_sweep(ctx, forward, vertices)
    reports += _transfer_sweep(ctx, vertices, forward, finals, _transfer_pairs(g.n))
    reports += _search_sweep(sctx, branches, vertices)
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
