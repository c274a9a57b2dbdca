"""Span tracer that wraps qwalk's public functions from outside the package.

``Tracer.install`` replaces each listed function, in every qwalk module
that holds a reference to it, by a wrapper that records a span: name,
start, end, parent span and run id.  Spans stay in memory until
``write`` dumps them as JSON lines.  ``simulate.apply_op`` runs once per
schedule op, so it records no span; its time and op counts are added to
the enclosing span and to per-kind counters instead.

Only the traced run installs wrappers; the untraced run never imports
this module.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

import numpy as np

# (module, public function, layer key); spans are named module.function and
# summed per key, whose first part is the layer
WRAPPED = (
    *(("graph", f, "graph.build") for f in (
        "graph_from_edges", "johnson", "kneser", "hamming", "rook",
        "complete_bipartite", "build_family", "load_edge_list",
        "graph_from_json_dict")),
    ("graph", "adjacency", "graph.matrix"),
    ("graph", "laplacian", "graph.matrix"),
    ("spectral", "eigendecompose", "spectral.eigh"),
    ("spectral", "validate_integer_spectrum", "spectral.gate"),
    ("depth", "build_depth_chain", "depth.chain"),
    ("depth", "overlaps", "depth.overlaps"),
    ("depth", "transitive_overlaps", "depth.overlaps"),
    ("depth", "level_states", "depth.overlaps"),
    ("schedule", "synth_sampling_schedule", "schedule.synth"),
    ("schedule", "synth_bipartite_search", "schedule.synth"),
    ("schedule", "dagger", "schedule.adjoint"),
    ("schedule", "schedule_to_json_dict", "schedule.json"),
    ("schedule", "schedule_from_json_dict", "schedule.json"),
    *(("simulate", f, "simulate.run") for f in (
        "run_schedule", "attach_ancilla", "detach_ancilla", "fidelity",
        "measure_distribution", "vertex_state", "uniform_state",
        "block_uniform_state")),
    ("pipelines", "prepare", "pipelines.prepare"),
    ("pipelines", "verify_graph", "pipelines.verify"),
    *(("pipelines", f, "pipelines.task") for f in (
        "uniform_sample", "transfer", "search_vertex_transitive",
        "search_promise", "search_bipartite", "transitive_search_schedule",
        "report_to_json_dict", "reports_to_csv")),
    ("cli", "emit_json", "cli.emit"),
    ("cli", "emit_report", "cli.emit"),
)

LAYER_OF = {f"{m}.{f}": key for m, f, key in WRAPPED}

OP_KINDS = ("walk", "cwalk", "oracle", "anc_h", "anc_z")

# computed cost of evolving one N-vector block through the walk: two
# passes of the real N x N eigenvector matrix over a complex vector
FLOP_PER_BLOCK = 8  # times N^2
BYTES_PER_BLOCK = 16  # times N^2: the float64 matrix read twice

_ID, _NAME, _START, _END, _PARENT, _RUN, _OPS = range(7)


class Tracer:
    def __init__(self, qwalk_modules: dict) -> None:
        self.modules = qwalk_modules
        self.spans: list[list] = []
        self.run_id = -1  # -1 while setting up, then the run index
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._local.stack = self._main_stack
        self._lock = threading.Lock()
        self.op_count: Counter[str] = Counter()
        self.op_seconds = 0.0
        self.walk_seconds = 0.0
        self.walk_flop_by_n: Counter[int] = Counter()
        self.walk_bytes = 0.0
        self.t0 = time.perf_counter()

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[list]) -> list | None:
        # a worker thread of the verify pool starts with an empty stack; its
        # spans belong to the span the main thread is waiting in
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    def span(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        parent = self._parent(stack)
        rec = [next(self._ids), name, time.perf_counter(), 0.0,
               parent[_ID] if parent else None, self.run_id, 0.0]
        stack.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[_END] = time.perf_counter()
            stack.pop()
            self.spans.append(rec)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def _wrap_cli_main(self, fn):
        @functools.wraps(fn)
        def wrapper(argv=None):
            return self.span(f"cli.invoke.{argv[0]}", fn, argv)
        return wrapper

    def _wrap_apply_op(self, fn, kind_of):
        def wrapper(state, op, spectrum, marked=None):
            t0 = time.perf_counter()
            out = fn(state, op, spectrum, marked)
            dt = time.perf_counter() - t0
            kind = kind_of[type(op)]
            with self._lock:
                parent = self._parent(self._stack())
                if parent is not None:
                    parent[_OPS] += dt
                self.op_count[kind] += 1
                self.op_seconds += dt
                if kind in ("walk", "cwalk"):
                    blocks = 2 if kind == "walk" and state.has_ancilla else 1
                    self.walk_seconds += dt
                    self.walk_flop_by_n[state.n] += FLOP_PER_BLOCK * blocks * state.n**2
                    self.walk_bytes += BYTES_PER_BLOCK * blocks * state.n**2
            return out
        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Replace every listed function in every qwalk module holding it."""
        sched = self.modules["schedule"]
        kind_of = {
            sched.WalkPhase: "walk", sched.ControlledWalkPhase: "cwalk",
            sched.OraclePhase: "oracle", sched.AncillaHadamard: "anc_h",
            sched.AncillaPhase: "anc_z", sched.GlobalPhase: "gphase",
        }
        targets = [(m, f, self._wrap(f"{m}.{f}", getattr(self.modules[m], f)))
                   for m, f, _ in WRAPPED]
        sim = self.modules["simulate"]
        targets.append(("simulate", "apply_op", self._wrap_apply_op(sim.apply_op, kind_of)))
        cli = self.modules["cli"]
        targets.append(("cli", "main", self._wrap_cli_main(cli.main)))
        for mod_name, fname, wrapper in targets:
            original = getattr(self.modules[mod_name], fname)
            for mod in self.modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    # -- reporting --------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part its children cover and minus the
        schedule ops it ran directly."""
        children = defaultdict(list)
        for rec in self.spans:
            if rec[_PARENT] is not None:
                children[rec[_PARENT]].append((rec[_START], rec[_END]))
        out = {}
        for rec in self.spans:
            covered = 0.0
            cur_start = cur_end = None
            for start, end in sorted(children.get(rec[_ID], ())):
                start, end = max(start, rec[_START]), min(end, rec[_END])
                if cur_end is None or start > cur_end:
                    if cur_end is not None:
                        covered += cur_end - cur_start
                    cur_start, cur_end = start, end
                else:
                    cur_end = max(cur_end, end)
            if cur_end is not None:
                covered += cur_end - cur_start
            out[rec[_ID]] = rec[_END] - rec[_START] - covered - rec[_OPS]
        return out

    def layer_metrics(self, runs: int, ref_gflops_by_n: dict[int, float]) -> dict:
        """Per-layer figures over the traced set-up and ``runs`` traced runs.

        A ``*_ms`` figure is the layer's self time in one set-up plus its
        self time in a mean run; ``pipelines.prepare_ms``,
        ``pipelines.verify_ms`` and ``cli.invoke_ms.*`` are whole-call
        (inclusive) times.  Counts are per run.
        """
        selfs = self.self_times()
        setup_self: Counter[str] = Counter()
        run_self: Counter[str] = Counter()
        setup_incl: Counter[str] = Counter()
        run_incl: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        verb_ms: dict[str, list[float]] = defaultdict(list)
        for rec in self.spans:
            name, dur = LAYER_OF.get(rec[_NAME], rec[_NAME]), rec[_END] - rec[_START]
            in_run = rec[_RUN] >= 0
            (run_self if in_run else setup_self)[name] += selfs[rec[_ID]]
            (run_incl if in_run else setup_incl)[name] += dur
            if in_run:
                calls[name] += 1
                if name.startswith("cli.invoke."):
                    verb_ms[name[len("cli.invoke."):]].append(dur * 1e3)

        def ms(counter_setup, counter_run, *names):
            return 1e3 * sum(counter_setup[n] + counter_run[n] / runs for n in names)

        def self_ms(*names):
            return ms(setup_self, run_self, *names)

        sim_s = self.op_seconds + sum(
            v for k, v in run_self.items() if k.startswith("simulate."))
        walk_flop = sum(self.walk_flop_by_n.values())
        ref_seconds = sum(
            flop / (ref_gflops_by_n[n] * 1e9) for n, flop in self.walk_flop_by_n.items())
        ref_gflops = walk_flop / ref_seconds / 1e9 if ref_seconds else 0.0
        walk_gflops = walk_flop / self.walk_seconds / 1e9 if self.walk_seconds else 0.0
        ops = sum(self.op_count[k] for k in OP_KINDS)
        metrics = {
            "graph.build_ms": self_ms("graph.build"),
            "graph.matrix_ms": self_ms("graph.matrix"),
            "spectral.eigh_ms": self_ms("spectral.eigh"),
            "spectral.eigh_calls_per_run": calls["spectral.eigh"] / runs,
            "spectral.gate_ms": self_ms("spectral.gate"),
            "depth.chain_ms": self_ms("depth.chain"),
            "depth.overlaps_ms": self_ms("depth.overlaps"),
            "schedule.synth_ms": self_ms("schedule.synth", "schedule.adjoint"),
            "schedule.synth_calls_per_run": calls["schedule.synth"] / runs,
            "schedule.ops_per_run": ops / runs,
            **{f"schedule.ops.{k}": self.op_count[k] / runs for k in OP_KINDS},
            "schedule.json_ms": self_ms("schedule.json"),
            "simulate.run_ms": 1e3 * sim_s / runs,
            "simulate.us_per_op": 1e6 * self.op_seconds / ops if ops else 0.0,
            "simulate.walk_gflop_computed": walk_flop / 1e9 / runs,
            "simulate.bytes_moved_computed": self.walk_bytes / 1e6 / runs,
            "simulate.walk_gflops": walk_gflops,
            "simulate.matvec_ref_gflops": ref_gflops,
            "simulate.walk_efficiency": walk_gflops / ref_gflops if ref_gflops else 0.0,
            "pipelines.prepare_ms": ms(setup_incl, run_incl, "pipelines.prepare"),
            "pipelines.self_ms_per_run": 1e3 * sum(
                v for k, v in run_self.items() if k.startswith("pipelines.")) / runs,
            "pipelines.verify_ms": ms(setup_incl, run_incl, "pipelines.verify"),
            "cli.emit_ms": self_ms("cli.emit"),
        }
        for verb in CLI_VERBS:
            samples = verb_ms.get(verb)
            metrics[f"cli.invoke_ms.{verb}"] = float(np.mean(samples)) if samples else 0.0
        return metrics

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps({
                    "id": rec[_ID], "name": rec[_NAME],
                    "start": rec[_START] - self.t0, "end": rec[_END] - self.t0,
                    "parent": rec[_PARENT], "run": rec[_RUN], "ops_s": rec[_OPS],
                }) + "\n")


CLI_VERBS = ("graph", "spectrum", "depth", "schedule", "run", "verify")


def matvec_gflops(n: int, seconds: float = 0.15) -> float:
    """Rate of a plain numpy complex N x N matrix times complex vector."""
    rng = np.random.default_rng(n)
    mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    reps = max(1, int(2e7 / (n * n)))
    rates = []
    deadline = time.perf_counter() + seconds
    while not rates or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        for _ in range(reps):
            mat @ vec
        rates.append(8.0 * n * n * reps / (time.perf_counter() - t0) / 1e9)
    return float(np.median(rates))
