"""Command-line front end.

Verbs map one-to-one onto the library: ``graph`` builds/exports graphs,
``spectrum`` runs the integer-spectrum gate, ``depth`` exports the
refinement chain, ``schedule`` synthesizes schedules, ``run`` executes a
task end to end (or re-simulates a schedule artifact), and ``verify``
sweeps every task over one graph.

Exit codes: 0 success, 1 domain error (one-line diagnostic on stderr),
2 usage error.  Floats are emitted with 12 significant digits and repeated
invocations with identical arguments produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import depth as depth_mod
from . import pipelines, schedule as sched_mod, spectral
from .errors import GraphError, QwalkError
from .graph import (
    Graph,
    build_family,
    cycle,
    dump_edge_list,
    graph_from_json_dict,
    graph_to_json_dict,
    laplacian,
    load_edge_list,
)


def _round_floats(obj):
    """Clamp every float to 12 significant digits for stable artifacts."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def emit_json(data: dict, out: str | None) -> None:
    _emit(json.dumps(_round_floats(data), indent=2, sort_keys=True) + "\n", out)


def emit_report(
    report: pipelines.RunReport | list[pipelines.RunReport],
    fmt: str,
    out: str | None,
) -> None:
    """Write one report (json) or a report table (csv)."""
    if fmt == "csv":
        rows = report if isinstance(report, list) else [report]
        _emit(pipelines.reports_to_csv(rows), out)
    else:
        if isinstance(report, list):
            data = {"reports": [pipelines.report_to_json_dict(r) for r in report]}
        else:
            data = pipelines.report_to_json_dict(report)
        emit_json(data, out)


# ---------------------------------------------------------------------------
# Graph source
# ---------------------------------------------------------------------------

def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", help="family name, e.g. johnson or cycle5")
    parser.add_argument("--params", help="comma-separated family parameters, e.g. 5,2")
    parser.add_argument("--edges", help="path to an edge-list file")


def _resolve_graph(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Graph:
    if bool(args.family) == bool(args.edges):
        parser.error("exactly one graph source required: --family or --edges")
    if args.edges:
        return load_edge_list(Path(args.edges).read_text(encoding="utf-8"))
    name = args.family.lower()
    # cycle<k> is a pseudo-family kept to exercise the non-integer path
    if name.startswith("cycle") and name[5:].isdigit():
        return cycle(int(name[5:]))
    if not args.params:
        parser.error(f"family {args.family!r} requires --params")
    try:
        params = tuple(int(tok) for tok in args.params.split(","))
    except ValueError:
        parser.error(f"--params must be comma-separated integers, got {args.params!r}")
    return build_family(name, params)


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------

def _cmd_graph(args, parser) -> int:
    g = _resolve_graph(args, parser)
    if args.format == "edgelist":
        _emit(dump_edge_list(g), args.out)
    else:
        emit_json(graph_to_json_dict(g), args.out)
    return 0


def _cmd_spectrum(args, parser) -> int:
    g = _resolve_graph(args, parser)
    spec = spectral.eigendecompose(laplacian(g))
    ints = spectral.validate_integer_spectrum(spec, int_tol=args.int_tol)
    if args.vectors_csv:
        _emit(spectral.eigenvectors_to_csv(spec), args.vectors_csv)
    emit_json(spectral.spectrum_to_json_dict(ints), args.out)
    return 0


def _cmd_depth(args, parser) -> int:
    g = _resolve_graph(args, parser)
    ctx = pipelines.prepare(g)
    emit_json(depth_mod.chain_to_json_dict(ctx.chain), args.out)
    return 0


def _synth_artifact(args, parser) -> dict:
    g = _resolve_graph(args, parser)
    probe = args.marked if args.marked is not None else 0
    if args.task == "bipartite":
        _, blocks = pipelines.search_route(g)
        if blocks is None:
            parser.error("--task bipartite requires --family complete_bipartite")
        bctx = pipelines.prepare_bipartite(*blocks)
        report = pipelines.execute_bipartite(bctx, bctx.branches, probe)
        schedules = {"branches": [sched_mod.schedule_to_json_dict(s) for s in bctx.branches]}
    else:
        ctx = pipelines.prepare(g)
        if args.task == "sample":
            if args.marked is None:
                parser.error("--task sample requires --marked (the start vertex)")
            schedule = pipelines.sampling_schedule(ctx, probe)
            report = pipelines.execute_sample(ctx, schedule, probe)
        else:  # search
            report = pipelines.search_vertex_transitive(g, probe, ctx=ctx)
            schedule = pipelines.transitive_search_schedule(ctx)
        schedules = {"schedule": sched_mod.schedule_to_json_dict(schedule)}
    return {
        "task": report.task,
        "graph": graph_to_json_dict(g),
        "probe_marked": probe,
        "reported_fidelity": report.fidelity,
        **schedules,
    }


def _cmd_schedule(args, parser) -> int:
    emit_json(_synth_artifact(args, parser), args.out)
    return 0


def _resimulate_artifact(
    path: str, marked: int | None, threshold: float
) -> pipelines.RunReport:
    """Execute an artifact's schedules exactly as ``run <task>`` executes
    freshly synthesized ones."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    g = graph_from_json_dict(data["graph"])
    m = marked if marked is not None else int(data["probe_marked"])
    route, blocks = pipelines.search_route(g)
    if data["task"] == pipelines.TASK_BIPARTITE:
        if blocks is None:
            raise GraphError("bipartite artifact graph is not tagged complete_bipartite")
        bctx = pipelines.prepare_bipartite(*blocks)
        branches = tuple(sched_mod.schedule_from_json_dict(s) for s in data["branches"])
        return pipelines.execute_bipartite(bctx, branches, m, threshold)
    ctx = pipelines.prepare(g)
    schedule = sched_mod.schedule_from_json_dict(data["schedule"])
    if data["task"] == pipelines.TASK_SAMPLE:
        return pipelines.execute_sample(ctx, schedule, m)
    if route != "blackbox":
        raise GraphError("search artifact graph is not flagged vertex-transitive")
    return pipelines.execute_search(ctx, schedule, m, route)


def _cmd_run(args, parser) -> int:
    if args.task == "schedule":
        if not args.schedule:
            parser.error("run schedule requires --schedule <file>")
        report = _resimulate_artifact(args.schedule, args.marked, args.fidelity_threshold)
    elif args.task == "sample":
        if args.marked is None:
            parser.error("run sample requires --marked")
        report = pipelines.uniform_sample(_resolve_graph(args, parser), args.marked)
    elif args.task == "transfer":
        if args.source is None or args.target is None:
            parser.error("run transfer requires --source and --target")
        report = pipelines.transfer(_resolve_graph(args, parser), args.source, args.target)
    elif args.task == "search":
        if args.marked is None:
            parser.error("run search requires --marked (the hidden vertex)")
        g = _resolve_graph(args, parser)
        route, blocks = pipelines.search_route(g)
        if route == "blackbox":
            report = pipelines.search_vertex_transitive(g, args.marked)
        elif route == "bipartite":
            report = pipelines.search_bipartite(
                *blocks, args.marked, threshold=args.fidelity_threshold
            )
        else:
            report = pipelines.search_promise(g, args.marked)
    else:  # bipartite
        _, blocks = pipelines.search_route(_resolve_graph(args, parser))
        if blocks is None:
            parser.error("run bipartite requires --family complete_bipartite")
        if args.marked is None:
            parser.error("run bipartite requires --marked")
        report = pipelines.search_bipartite(
            *blocks, args.marked, threshold=args.fidelity_threshold
        )
    emit_report(report, args.format, args.out)
    return 0


def _cmd_verify(args, parser) -> int:
    g = _resolve_graph(args, parser)
    result = pipelines.verify_graph(g, cap=args.cap)
    print(
        f"verified {result.graph}: {len(result.reports)} runs, "
        f"min fidelity {result.min_fidelity:.12g}, "
        f"max bound ratio {result.max_bound_ratio:.6g}, "
        f"route {result.search_route}, {result.wall_time_s:.2f}s",
        file=sys.stderr,
    )
    data = {
        "graph": result.graph,
        "n": result.n,
        "min_fidelity": result.min_fidelity,
        "max_bound_ratio": result.max_bound_ratio,
        "search_route": result.search_route,
        "runs": len(result.reports),
        "reports": [pipelines.report_to_json_dict(r) for r in result.reports],
    }
    if args.csv:
        _emit(pipelines.reports_to_csv(list(result.reports)), args.csv)
    emit_json(data, args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwalk",
        description="Alternating-quantum-walk schedules: synthesis, simulation, "
        "and exact-fidelity verification.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_graph = sub.add_parser("graph", help="build and export a graph")
    _add_graph_source(p_graph)
    p_graph.add_argument("--format", choices=("json", "edgelist"), default="json")
    p_graph.add_argument("--out")

    p_spec = sub.add_parser("spectrum", help="integer Laplacian spectrum gate")
    _add_graph_source(p_spec)
    p_spec.add_argument("--int-tol", type=float, default=spectral.INTEGER_TOL)
    p_spec.add_argument("--vectors-csv", help="also dump the eigenbasis as CSV here")
    p_spec.add_argument("--out")

    p_depth = sub.add_parser("depth", help="eigenvalue-set refinement chain")
    _add_graph_source(p_depth)
    p_depth.add_argument("--out")

    p_sched = sub.add_parser("schedule", help="synthesize a schedule artifact")
    _add_graph_source(p_sched)
    p_sched.add_argument("--task", choices=("sample", "search", "bipartite"),
                         default="search")
    p_sched.add_argument("--marked", type=int)
    p_sched.add_argument("--out")

    p_run = sub.add_parser("run", help="execute a task end to end")
    p_run.add_argument(
        "task", choices=("sample", "transfer", "search", "bipartite", "schedule")
    )
    _add_graph_source(p_run)
    p_run.add_argument("--marked", type=int)
    p_run.add_argument("--source", type=int)
    p_run.add_argument("--target", type=int)
    p_run.add_argument("--schedule", help="schedule artifact to re-simulate")
    p_run.add_argument(
        "--fidelity-threshold",
        type=float,
        default=pipelines.FIDELITY_THRESHOLD,
        help="success threshold for bipartite branch confirmation",
    )
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.add_argument("--out")

    p_verify = sub.add_parser("verify", help="full task sweep over one graph")
    _add_graph_source(p_verify)
    p_verify.add_argument("--cap", type=int, default=500)
    p_verify.add_argument("--csv", help="also write the aggregate CSV table here")
    p_verify.add_argument("--out")

    return parser


_COMMANDS = {
    "graph": _cmd_graph,
    "spectrum": _cmd_spectrum,
    "depth": _cmd_depth,
    "schedule": _cmd_schedule,
    "run": _cmd_run,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.verb](args, parser)
    except (QwalkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
