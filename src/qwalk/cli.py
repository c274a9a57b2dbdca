"""Command-line front end.

Verbs map one-to-one onto the library: ``graph`` builds/exports graphs,
``spectrum`` runs the integer-spectrum gate, ``depth`` exports the
refinement chain, ``schedule`` synthesizes schedules, ``run`` executes a
task end to end (or re-simulates a schedule artifact), and ``verify``
sweeps every task over one graph.

Exit codes: 0 success, 1 domain error (one-line diagnostic on stderr),
2 usage error.  JSON artifacts are written in one walk that rounds every
float to 12 significant digits as it writes it; the bytes are exactly
``json.dumps(data, indent=2, sort_keys=True)`` of the rounded data, so
repeated invocations with identical arguments give byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as encode_ascii
from pathlib import Path

from . import depth as depth_mod
from . import pipelines, schedule as sched_mod, spectral
from .errors import QwalkError
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


def _float(x: float) -> str:
    """x at 12 significant digits, spelled as the json module spells it."""
    text = float.__repr__(float(format(x, ".12g")))
    return _SPECIAL.get(text, text)


_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
#: writers of the exact scalar types; their subclasses take the isinstance loop
_SCALARS = {str: encode_ascii, int: int.__repr__, float: _float, type(None): lambda _: "null",
            bool: {True: "true", False: "false"}.__getitem__}


def _dumps(obj, pad: str = "") -> str:
    """``obj`` as ``json.dumps(obj, indent=2, sort_keys=True)`` writes it
    once every float is rounded to 12 significant digits, in one walk."""
    if write := _SCALARS.get(type(obj)):
        return write(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        # json.dumps spells (or refuses) a key that is not a str
        items, brackets = [f"{encode_ascii(k) if type(k) is str else json.dumps({k: 0})[1:-4]}: "
                           f"{_dumps(v, inner)}" for k, v in sorted(obj.items())], "{}"
    elif isinstance(obj, (list, tuple)):
        # a list of one scalar type, such as a depth chain's ints, is one join
        kinds = set(map(type, obj))
        write = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        items, brackets = list(map(write, obj)) if write else [_dumps(v, inner) for v in obj], "[]"
    else:
        for kind in (str, int, float):
            if isinstance(obj, kind):
                return _SCALARS[kind](obj)
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def emit_json(data: dict, out: str | None) -> None:
    _emit(_dumps(data) + "\n", out)


def emit_report(report: pipelines.RunReport, fmt: str, out: str | None) -> None:
    """Write one report as JSON or as a one-row CSV table."""
    if fmt == "csv":
        _emit(pipelines.reports_to_csv([report]), out)
    else:
        emit_json(pipelines.report_to_json_dict(report), out)


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
    # eigenvectors only when they are written out
    spec = spectral.eigendecompose(laplacian(g)) if args.vectors_csv else None
    ints = spectral.graph_integer_spectrum(g, spec)
    if args.vectors_csv:
        _emit(spectral.eigenvectors_to_csv(spec), args.vectors_csv)
    emit_json(spectral.spectrum_to_json_dict(ints), args.out)
    return 0


def _cmd_depth(args, parser) -> int:
    ints = spectral.graph_integer_spectrum(_resolve_graph(args, parser))
    emit_json(depth_mod.chain_to_json_dict(depth_mod.build_depth_chain(ints)), args.out)
    return 0


def _synth_artifact(args, parser) -> dict:
    if args.task == "sample" and args.marked is None:
        parser.error("--task sample requires --marked (the start vertex)")
    g = _resolve_graph(args, parser)
    probe = args.marked if args.marked is not None else 0
    ctx = pipelines.prepare_bipartite(g) if args.task == "bipartite" else pipelines.prepare(g)
    if args.task == "sample":
        schedules = [pipelines.sampling_schedule(ctx, probe)]
        report = pipelines.execute_sample(ctx, schedules[0], probe)
    else:
        schedules = ctx.branches
        report = pipelines.execute_search(ctx, schedules, probe)
    encoded = [sched_mod.schedule_to_json_dict(s) for s in schedules]
    return {
        "task": report.task,
        "graph": graph_to_json_dict(g),
        "probe_marked": probe,
        "reported_fidelity": report.fidelity,
        **({"schedule": encoded[0]} if len(encoded) == 1 else {"branches": encoded}),
    }


def _cmd_schedule(args, parser) -> int:
    emit_json(_synth_artifact(args, parser), args.out)
    return 0


def _resimulate_artifact(path: str, marked: int | None) -> pipelines.RunReport:
    """Execute an artifact's schedules exactly as ``run <task>`` executes
    freshly synthesized ones: the JSON decodes into stage trees, so the
    reported costs come from the artifact's ops."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        task, g = data["task"], graph_from_json_dict(data["graph"])
        m = marked if marked is not None else data["probe_marked"]
        if isinstance(m, bool) or not isinstance(m, int):
            raise TypeError(f"probe_marked {m!r} is not a vertex index")
        raw = data["branches"] if "branches" in data else [data["schedule"]]
        schedules = tuple(sched_mod.schedule_from_json_dict(s) for s in raw)
    except (ValueError, KeyError, TypeError) as exc:
        raise QwalkError(f"malformed artifact {path}: {type(exc).__name__}: {exc}") from exc
    if task == pipelines.TASK_SAMPLE:
        if len(schedules) != 1:
            raise QwalkError(f"malformed artifact {path}: sampling runs one schedule")
        return pipelines.execute_sample(pipelines.prepare(g), schedules[0], m)
    bipartite = task == pipelines.TASK_BIPARTITE
    ctx = pipelines.prepare_bipartite(g) if bipartite else pipelines.prepare(g)
    return pipelines.execute_search(ctx, schedules, m)


def _cmd_run(args, parser) -> int:
    if args.task == "schedule":
        if not args.schedule:
            parser.error("run schedule requires --schedule <file>")
        report = _resimulate_artifact(args.schedule, args.marked)
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
        _, ctx = pipelines.search_route(_resolve_graph(args, parser))
        report = pipelines.execute_search(ctx, ctx.branches, args.marked)
    else:  # bipartite
        if args.marked is None:
            parser.error("run bipartite requires --marked")
        bctx = pipelines.prepare_bipartite(_resolve_graph(args, parser))
        report = pipelines.execute_search(bctx, bctx.branches, args.marked)
    if report.target is None and report.task != pipelines.TASK_SAMPLE:
        raise QwalkError(f"no search branch found vertex {report.marked}: "
                         f"best fidelity {report.fidelity:.12g}")
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
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.add_argument("--out")

    def number(text: str) -> int:
        """``--cap``'s type, an int above 0, optionally signed '+'."""
        if not text.strip().removeprefix("+").isdecimal() or int(text) <= 0:
            raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
        return int(text)

    p_verify = sub.add_parser("verify", help="full task sweep over one graph")
    _add_graph_source(p_verify)
    p_verify.add_argument("--cap", type=number, default=500,
                          help="largest vertex count to sweep")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing never changes it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.verb](args, parser)
    except (QwalkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
