"""End-to-end task pipelines and the verification harness.

Four tasks share the same machinery: exact uniform sampling (start vertex
to uniform state), perfect state transfer (forward schedule for the source
followed by the adjoint schedule for the destination), deterministic
search on vertex-transitive graphs (the reversed vertex-independent
schedule applied to the uniform state), and the two-branch search on
complete bipartite graphs driven by the adjacency walk.

Success is declared by fidelity threshold on the exact final state, not by
sampled measurement; ``measure_distribution`` exists for demonstration.
"""

from __future__ import annotations

import csv
import io
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import depth as depth_mod
from . import schedule as sched_mod
from . import simulate as sim
from . import spectral
from .errors import GraphError, ScheduleError
from .graph import (
    Graph,
    adjacency,
    build_family,
    complete_bipartite,
    family_params,
    laplacian,
)

#: A run counts as exact when the final fidelity clears this.
FIDELITY_THRESHOLD = 1.0 - 1e-8

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
    that are not vertex-transitive.
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

    @property
    def label(self) -> str:
        return self.graph.family or f"custom(n={self.graph.n})"


def prepare(g: Graph) -> LaplacianContext:
    """Eigendecompose the Laplacian and gate it as an integer spectrum."""
    spectrum = spectral.eigendecompose(laplacian(g))
    ints = spectral.validate_integer_spectrum(spectrum)
    chain = depth_mod.build_depth_chain(ints)
    return LaplacianContext(g, spectrum, ints, chain)


@dataclass(frozen=True)
class BipartiteContext:
    """Shared read-only data reused across searches on one complete
    bipartite graph: its adjacency spectrum and its two branch schedules."""

    n1: int
    n2: int
    graph: Graph
    spectrum: spectral.Spectrum
    branches: tuple[sched_mod.Schedule, sched_mod.Schedule]


def prepare_bipartite(n1: int, n2: int) -> BipartiteContext:
    """Eigendecompose the adjacency matrix and synthesize both branches."""
    g = complete_bipartite(n1, n2)
    spectrum = spectral.eigendecompose(adjacency(g))
    return BipartiteContext(n1, n2, g, spectrum, sched_mod.synth_bipartite_search(n1, n2))


def search_route(g: Graph) -> tuple[str, tuple[int, ...] | None]:
    """Pick the search route for g, with its block sizes if it is tagged
    complete bipartite.

    Vertex-transitive graphs take the black-box route, other complete
    bipartite graphs the two-branch route, anything else the promise
    route.  The block sizes come from the family tag, so a tag that does
    not describe the graph's own edges is rejected.
    """
    fam = family_params(g)
    blocks = None
    if fam is not None and fam[0] == "complete_bipartite":
        tagged = build_family(*fam)
        if (tagged.n, tagged.edges) != (g.n, g.edges):
            raise GraphError(f"family tag {g.family!r} does not match the graph's edges")
        blocks = fam[1]
    if g.vertex_transitive == "yes":
        return "blackbox", blocks
    return ("bipartite" if blocks else "promise"), blocks


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


def execute_sample(
    ctx: LaplacianContext, schedule: sched_mod.Schedule, m: int
) -> RunReport:
    """Run a forward schedule from vertex m, checking each stage against
    its level target state.  Stage ends are safe projection points for the
    ancilla."""
    levels = schedule.stage_levels
    if len(levels) != len(schedule.stage_boundaries) or not set(levels) <= set(
        range(ctx.chain.depth)
    ):
        raise ScheduleError("schedule stages do not match the depth chain")
    alphas = spectral.eigenspace_amplitudes(ctx.spectrum, m)
    pairs = depth_mod.level_states(ctx.chain, alphas)
    stage_fids: list[float] = []

    def check_stage(stage: int, state: sim.StateVector) -> None:
        target = ctx.spectrum.eigenvectors @ pairs[levels[stage] + 1].kept
        stage_fids.append(sim.fidelity(state, target))

    state = sim.vertex_state(ctx.graph.n, m)
    state = sim.run_schedule(state, schedule, ctx.spectrum, m, on_stage=check_stage)
    return _report(
        TASK_SAMPLE, ctx.label, ctx.graph.n, ctx.chain.depth, [schedule],
        marked=m,
        target=None,
        fidelity=sim.fidelity(state, sim.uniform_state(ctx.graph.n)),
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
    state = sim.vertex_state(ctx.graph.n, u)
    state = sim.run_schedule(state, sched_u, ctx.spectrum, u)
    state = sim.run_schedule(state, sched_mod.dagger(sched_v), ctx.spectrum, v)
    return _report(
        TASK_TRANSFER, ctx.label, ctx.graph.n, ctx.chain.depth, [sched_u, sched_v],
        marked=u,
        target=v,
        fidelity=sim.fidelity(state, v),
    )


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------

def transitive_search_schedule(ctx: LaplacianContext) -> sched_mod.Schedule:
    """The vertex-independent reversed schedule used for black-box search."""
    overlaps = depth_mod.transitive_overlaps(ctx.chain)
    return sched_mod.dagger(sched_mod.synth_sampling_schedule(ctx.chain, overlaps))


def search_vertex_transitive(
    g: Graph, marked: int, *, ctx: LaplacianContext | None = None
) -> RunReport:
    """Black-box search on a vertex-transitive graph.

    The schedule is synthesized from cardinality-ratio overlaps and never
    mentions the hidden vertex; it enters only through the oracle at run
    time, so the emitted bytes are identical for every hidden vertex.
    """
    if g.vertex_transitive != "yes":
        raise GraphError(
            "graph is not flagged vertex-transitive; use search_promise or the "
            "bipartite route"
        )
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
    to ``marked``; the most probable vertex is the one found."""
    state = sim.uniform_state(ctx.graph.n)
    state = sim.run_schedule(state, schedule, ctx.spectrum, marked)
    probs = sim.measure_distribution(state)
    found = int(np.argmax(probs))
    return _report(
        TASK_SEARCH, ctx.label, ctx.graph.n, ctx.chain.depth, [schedule],
        marked=marked,
        target=found,
        fidelity=sim.fidelity(state, marked),
        search_mode=mode,
    )


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
    bctx = prepare_bipartite(n1, n2)
    return execute_bipartite(bctx, bctx.branches, marked, threshold)


def execute_bipartite(
    bctx: BipartiteContext,
    branches: tuple[sched_mod.Schedule, ...],
    marked: int,
    threshold: float = FIDELITY_THRESHOLD,
) -> RunReport:
    """Run one branch schedule per block of ``bctx`` and confirm the
    candidates against ``marked``."""
    n = bctx.graph.n
    if not 0 <= marked < n:
        raise GraphError(f"marked vertex {marked} out of range for n={n}")
    if len(branches) != 2:
        raise ScheduleError(f"bipartite search takes 2 branches, got {len(branches)}")
    walk_time = math.pi / math.sqrt(bctx.n1 * bctx.n2)
    blocks = ((1, 0, bctx.n1), (2, bctx.n1, n))
    results = []
    for (side, start, stop), schedule in zip(blocks, branches):
        state = sim.block_uniform_state(n, start, stop)
        state = sim.run_schedule(state, schedule, bctx.spectrum, marked)
        probs = sim.measure_distribution(state)
        candidate = int(np.argmax(probs))
        fid_candidate = float(probs[candidate])
        succeeded = fid_candidate >= threshold and candidate == marked
        results.append(
            BranchResult(
                side=side,
                candidate=candidate,
                fidelity=fid_candidate,
                succeeded=succeeded,
                oracle_count=schedule.oracle_count,
                total_time=schedule.total_time,
                walk_time=walk_time,
            )
        )
    winner = next((b for b in results if b.succeeded), None)
    return _report(
        TASK_BIPARTITE, bctx.graph.family, n, 1, branches,
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
    via the route ``search_route`` picks, whose schedules and contexts are
    built once and shared by every hidden vertex.
    """
    if g.n > cap:
        raise GraphError(f"graph has {g.n} vertices, exceeding the cap {cap}")
    started = time.perf_counter()
    ctx = prepare(g)
    route, blocks = search_route(g)
    if route == "blackbox":
        schedule = transitive_search_schedule(ctx)
        search = lambda m: execute_search(ctx, schedule, m, route)
    elif route == "bipartite":
        bctx = prepare_bipartite(*blocks)
        search = lambda m: execute_bipartite(bctx, bctx.branches, m)
    else:
        search = lambda m: search_promise(g, m, ctx=ctx)

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
    data = {
        "task": report.task,
        "graph": report.graph,
        "n": report.n,
        "depth": report.depth,
        "marked": report.marked,
        "target": report.target,
        "fidelity": report.fidelity,
        "oracle_count": report.oracle_count,
        "total_time": report.total_time,
        "bound_ratio": report.bound_ratio,
        "ancilla_phase_time": report.ancilla_phase_time,
        "stage_fidelities": list(report.stage_fidelities),
    }
    if report.search_mode is not None:
        data["search_mode"] = report.search_mode
    if report.branches:
        data["branches"] = [
            {
                "side": b.side,
                "candidate": b.candidate,
                "fidelity": b.fidelity,
                "succeeded": b.succeeded,
                "oracle_count": b.oracle_count,
                "total_time": b.total_time,
                "walk_time": b.walk_time,
            }
            for b in report.branches
        ]
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
