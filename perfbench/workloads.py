"""The benchmark's three workloads.

Each workload builds and prepares its graphs in ``setup``, yields rounds
of operations from ``rounds`` (every round holds the same operations, so
failures are the same share of every run), and checks its outputs with
the independent checker: per run in each operation's ``check``, and once
per process in ``verify_setup`` (closed-form spectra, depth chains,
edges) and ``resim`` (dense expm re-simulation of a seeded sample).

Inputs come only from the ``random.Random`` passed in, which the caller
seeds from ``--seed``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checker as ck
import qwalk
from qwalk import cli, depth, graph, pipelines, schedule, simulate, spectral

QWALK_MODULES = {
    "qwalk": qwalk, "graph": graph, "spectral": spectral, "depth": depth,
    "schedule": schedule, "simulate": simulate, "pipelines": pipelines, "cli": cli,
}


@dataclass
class Op:
    """One timed run: ``call`` is timed, ``check`` returns failure codes.

    ``known`` holds the codes a named fault produces on this run; a run
    failing with only those counts as failed but leaves the benchmark
    correct.  ``oracle`` reads the oracle calls from the result, or is None
    when the run executes no schedule.
    """

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]
    info: dict = field(default_factory=dict)
    known: frozenset[str] = frozenset()
    oracle: Callable[[Any], int] | None = None


def tag(name: str, params: tuple[int, ...]) -> str:
    return f"{name}({','.join(map(str, params))})"


class Workload:
    """Graphs by family tag, with their closed-form depth and size."""

    name = ""
    graphs_used: tuple[tuple[str, tuple[int, ...]], ...] = ()

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.graphs: dict[str, graph.Graph] = {}
        self.ctx: dict[str, pipelines.LaplacianContext] = {}
        self.depth = {tag(n, p): ck.depth_of(n, p) for n, p in self.graphs_used}

    def setup(self) -> None:
        for name, params in self.graphs_used:
            g = getattr(graph, name)(*params)
            self.graphs[tag(name, params)] = g
            self.ctx[tag(name, params)] = pipelines.prepare(g)

    def verify_setup(self) -> list[str]:
        """Closed-form spectrum, depth rule and edges against every graph."""
        out = []
        for name, params in self.graphs_used:
            key = tag(name, params)
            ctx = self.ctx[key]
            spec = ck.laplacian_spectrum(name, params)
            if dict(Counter(ctx.ints.int_eigenvalues)) != spec:
                out.append(f"spectrum {key}")
            levels = ck.depth_levels(spec)
            chain = ctx.chain
            if chain.depth != self.depth[key] or any(
                set(chain.level_values(k)) != kept or chain.levels[k].gcd != g
                for k, (kept, g) in enumerate(levels)
            ):
                out.append(f"depth {key}")
            if graph.dump_edge_list(self.graphs[key]) != ck.edge_list_text(name, params):
                out.append(f"edges {key}")
        return out

    def n(self, key: str) -> int:
        return ck.vertex_count(*ck.parse_family(key))

    def artifact_bytes_per_run(self) -> float:
        return 0.0

    # -- checks shared by the pipeline workloads --------------------------

    def sample_op(self, key: str, v: int, known=frozenset()) -> Op:
        g, ctx = self.graphs[key], self.ctx[key]

        def check(r) -> list[str]:
            out = ck.report_failures(r, "sample", self.n(key), self.depth[key], v)
            if any(not f >= ck.FIDELITY_MIN for f in r.stage_fidelities):
                out.append("stage_fidelity")
            return out

        return Op(f"sample {key}", lambda: pipelines.uniform_sample(g, v, ctx=ctx),
                  check, {"task": "sample", "graph": key, "u": v}, known,
                  lambda r: r.oracle_count)

    def transfer_op(self, key: str, u: int, v: int, known=frozenset()) -> Op:
        g, ctx = self.graphs[key], self.ctx[key]
        return Op(f"transfer {key}", lambda: pipelines.transfer(g, u, v, ctx=ctx),
                  lambda r: ck.report_failures(
                      r, "transfer", self.n(key), self.depth[key], u, target=v),
                  {"task": "transfer", "graph": key, "u": u, "v": v}, known,
                  lambda r: r.oracle_count)

    def dense_sampling(self, key: str, infos: list[dict]) -> list[str]:
        """Re-simulate sample and transfer runs on one graph with expm."""
        name, params = ck.parse_family(key)
        n = self.n(key)
        walk = ck.DenseWalk(ck.laplacian_matrix(name, params))
        out = []
        for info in infos:
            u = info["u"]
            sched_u = sampling_schedule(name, params, u)
            psi, leak = walk.run(sched_u["ops"], ck.basis(n, u), u)
            oracle = sched_u["oracle_count"]
            if info["task"] == "sample":
                target = np.full(n, 1.0 / math.sqrt(n))
            else:
                v = info["v"]
                sched_v = sampling_schedule(name, params, v, adjoint=True)
                psi, leak_v = walk.run(sched_v["ops"], psi / np.linalg.norm(psi), v)
                leak, target = max(leak, leak_v), ck.basis(n, v)
                oracle += sched_v["oracle_count"]
            fails = ck.dense_failures(ck.overlap_fidelity(psi, target), leak)
            if oracle != info["oracle"]:
                fails.append("dense_oracle_count")
            out += [f"{code} {info['task']} {key}" for code in fails]
        return out


def sampling_schedule(name: str, params: tuple[int, ...], v: int, adjoint=False) -> dict:
    """Schedule for vertex v from the public synthesis functions, fed the
    closed-form spectrum and overlaps."""
    spec = ck.laplacian_spectrum(name, params)
    chain = depth.build_depth_chain([lam for lam, mult in spec.items() for _ in range(mult)])
    sched = schedule.synth_sampling_schedule(chain, ck.stage_overlaps(name, params, v))
    if adjoint:
        sched = schedule.dagger(sched)
    return schedule.schedule_to_json_dict(sched)


def chunks(seq: list, parts: int) -> list[list]:
    size = len(seq) // parts
    return [seq[i * size:(i + 1) * size] for i in range(parts)]


# ---------------------------------------------------------------------------
# search_sweep
# ---------------------------------------------------------------------------

class SearchSweep(Workload):
    """Black-box search for every hidden vertex of two walk-regular graphs
    and two-branch search for every vertex of an unequal bipartite graph.
    A round covers a quarter of each graph's vertices, in a seeded order."""

    name = "search_sweep"
    SEARCH = (("hamming", (6, 2)), ("kneser", (9, 3)))
    BIPARTITE = (40, 60)
    graphs_used = SEARCH + (("complete_bipartite", BIPARTITE),)
    PARTS = 4

    def search_op(self, key: str, m: int) -> Op:
        g, ctx = self.graphs[key], self.ctx[key]
        return Op(f"search {key}",
                  lambda: pipelines.search_vertex_transitive(g, m, ctx=ctx),
                  lambda r: ck.report_failures(r, "search", self.n(key), self.depth[key], m),
                  {"task": "search", "graph": key, "m": m}, oracle=lambda r: r.oracle_count)

    def bipartite_op(self, m: int) -> Op:
        a, b = self.BIPARTITE
        return Op(f"bipartite {tag('complete_bipartite', self.BIPARTITE)}",
                  lambda: pipelines.search_bipartite(a, b, m),
                  lambda r: ck.report_failures(r, "bipartite", a + b, 1, m),
                  {"task": "bipartite", "m": m}, oracle=lambda r: r.oracle_count)

    def rounds(self, rng):
        keys = [tag(*gp) for gp in self.graphs_used]
        while True:
            orders = {k: rng.sample(range(self.n(k)), self.n(k)) for k in keys}
            parts = {k: chunks(order, self.PARTS) for k, order in orders.items()}
            for i in range(self.PARTS):
                ops = [self.search_op(k, m) for k in keys[:-1] for m in parts[k][i]]
                ops += [self.bipartite_op(m) for m in parts[keys[-1]][i]]
                yield ops

    def resim(self, rng, records: list[dict]) -> list[str]:
        out = []
        for name, params in self.SEARCH:
            key = tag(name, params)
            m = rng.randrange(self.n(key))
            sched = sampling_schedule(name, params, 0, adjoint=True)
            fails = ck.dense_schedule(name, params, sched["ops"], "search", m)
            counts = {r["oracle"] for r in records if r["label"] == f"search {key}"}
            if counts != {sched["oracle_count"]}:
                fails.append("dense_oracle_count")
            out += [f"{code} search {key}" for code in fails]
        a, b = self.BIPARTITE
        branches = schedule.synth_bipartite_search(a, b)
        ops = [schedule.schedule_to_json_dict(sched)["ops"] for sched in branches]
        out += [f"{code} bipartite" for code in
                ck.dense_bipartite(a, b, ops, rng.randrange(a + b))]
        counts = {r["oracle"] for r in records if r["info"]["task"] == "bipartite"}
        if counts != {sum(s.oracle_count for s in branches)}:
            out.append("dense_oracle_count bipartite")
        return out


# ---------------------------------------------------------------------------
# large_n
# ---------------------------------------------------------------------------

class LargeN(Workload):
    """Sampling and transfer on graphs of 256 to 500 vertices.

    ``hamming(8,2)`` breaks the oracle cap (one iteration too many per
    stage in ``schedule.stage_params``); its runs use fixed vertices, so the
    fault fails the same runs whatever the seed.  Its graph is
    vertex-transitive, so the vertex choice changes no cost.
    """

    name = "large_n"
    SEEDED = (("rook", (20, 20)), ("johnson", (12, 4)))
    FAULTY = ("hamming", (8, 2))
    BIPARTITE = (200, 300)
    graphs_used = SEEDED + (FAULTY, ("complete_bipartite", BIPARTITE))
    FAULTY_SAMPLE = 0
    FAULTY_PAIR = (0, 255)

    def rounds(self, rng):
        bip = tag("complete_bipartite", self.BIPARTITE)
        a, b = self.BIPARTITE
        faulty = tag(*self.FAULTY)
        known = frozenset({"oracle_cap"})
        while True:
            ops = []
            for key in (tag(*gp) for gp in self.SEEDED):
                u, v = rng.sample(range(self.n(key)), 2)
                ops += [self.sample_op(key, rng.randrange(self.n(key))),
                        self.transfer_op(key, u, v)]
            ops += [self.sample_op(faulty, self.FAULTY_SAMPLE, known),
                    self.transfer_op(faulty, *self.FAULTY_PAIR, known)]
            # one vertex per block: the blocks' overlaps, hence costs, differ
            ops += [self.sample_op(bip, rng.randrange(a)),
                    self.sample_op(bip, a + rng.randrange(b)),
                    self.transfer_op(bip, rng.randrange(a), a + rng.randrange(b))]
            yield ops

    def resim(self, rng, records: list[dict]) -> list[str]:
        first_round = [r for r in records if r["round"] == records[0]["round"]]
        key = rng.choice(sorted({r["info"]["graph"] for r in first_round}))
        infos = [dict(r["info"], oracle=r["oracle"])
                 for r in first_round if r["info"]["graph"] == key]
        return self.dense_sampling(key, infos)


# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------

def invoke(argv: list[str]) -> tuple[int, str]:
    """In-process ``qwalk`` invocation; returns exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue()


class CliSession(Workload):
    """The verbs a user chains, each an in-process ``qwalk`` call writing
    its artifact to a file that the checks read back."""

    name = "cli_session"
    BIG = ("hamming", (10, 2))
    graphs_used = (
        BIG, ("johnson", (6, 2)), ("hamming", (5, 2)), ("complete_bipartite", (5, 7)),
        ("johnson", (5, 2)), ("rook", (4, 4)), ("kneser", (7, 2)),
        ("complete_bipartite", (4, 7)), ("rook", (3, 3)),
    )

    def __init__(self, workdir: Path) -> None:
        super().__init__(workdir)
        self.reference: dict[str, bytes] = {}
        self.artifacts: dict[str, Path] = {}

    def setup(self) -> None:
        super().setup()
        self.workdir.mkdir(parents=True, exist_ok=True)
        for name, params in (self.BIG, ("johnson", (5, 2))):
            key = tag(name, params)
            (self.workdir / f"{key}.edges").write_text(
                graph.dump_edge_list(self.graphs[key]), encoding="utf-8")

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def artifact_bytes_per_run(self) -> float:
        """Mean bytes of the files one invocation writes."""
        return sum(len(data) for data in self.reference.values()) / self.ops_per_round

    def cli_op(self, label: str, argv: list[str], outputs: list[str],
               check: Callable[[int, str], list[str]], known=frozenset(),
               oracle: Callable[[], int | None] | None = None) -> Op:
        """An invocation whose outputs must also match, byte for byte, what
        the same invocation wrote the first time in this process."""

        def call():
            for name in outputs:
                Path(self.path(name)).unlink(missing_ok=True)
            return invoke(argv)

        def full_check(result) -> list[str]:
            code, err = result
            out = check(code, err)
            if code == 0:
                for name in outputs:
                    data = Path(self.path(name)).read_bytes()
                    if self.reference.setdefault(name, data) != data:
                        out.append("bytes_differ")
            return out

        return Op(label, call, full_check, {"argv": argv}, known,
                  None if oracle is None else lambda result: oracle() if result[0] == 0 else None)

    def load(self, name: str) -> dict:
        return json.loads(Path(self.path(name)).read_text(encoding="utf-8"))

    def exit_ok(self, code: int) -> list[str]:
        return [] if code == 0 else [f"exit_{code}"]

    def check_artifact(self, name: str, key: str, task: str, marked: int) -> list[str]:
        data = self.load(name)
        n = self.n(key)
        out = []
        if not data["reported_fidelity"] >= ck.FIDELITY_MIN:
            out.append("fidelity")
        if data["probe_marked"] != marked:
            out.append("probe")
        edges = "".join(f"{u} {v}\n" for u, v in data["graph"]["edges"])
        if edges != ck.edge_list_text(*ck.parse_family(key)):
            out.append("artifact_graph")
        if task == "bipartite":
            scheds, cap = data["branches"], ck.oracle_cap(1, n)
        else:
            scheds, cap = [data["schedule"]], ck.oracle_cap(self.depth[key], n)
        for sched in scheds:
            if sched["oracle_count"] > cap:
                out.append("oracle_cap")
            if sum(op["op"] == "oracle" for op in sched["ops"]) != sched["oracle_count"]:
                out.append("oracle_count")
        return out

    def artifact_oracle(self, name: str) -> int:
        data = self.load(name)
        scheds = data["branches"] if "branches" in data else [data["schedule"]]
        return sum(s["oracle_count"] for s in scheds)

    def schedule_pair(self, stem: str, key: str, task: str, marked: int) -> list[Op]:
        """``schedule`` writes an artifact; ``run schedule`` re-simulates it."""
        name, params = ck.parse_family(key)
        art, rep = f"{stem}.json", f"{stem}_run.json"
        self.artifacts[stem] = Path(self.path(art))
        synth = self.cli_op(
            f"schedule {task} {key}",
            ["schedule", "--family", name, "--params", ",".join(map(str, params)),
             "--task", task, "--marked", str(marked), "--out", self.path(art)],
            [art], lambda c, e: self.exit_ok(c) or self.check_artifact(art, key, task, marked),
            oracle=lambda: self.artifact_oracle(art))

        def check_rerun(code, err):
            if code:
                return [f"exit_{code}"]
            report, data = self.load(rep), self.load(art)
            out = []
            if abs(report["fidelity"] - data["reported_fidelity"]) > ck.RESIM_TOL:
                out.append("resim_fidelity")
            if not report["fidelity"] >= ck.FIDELITY_MIN:
                out.append("fidelity")
            if report["oracle_count"] != self.artifact_oracle(art):
                out.append("oracle_count")
            return out

        rerun = self.cli_op(
            f"run schedule {task} {key}",
            ["run", "schedule", "--schedule", self.path(art), "--out", self.path(rep)],
            [rep], check_rerun, oracle=lambda: self.load(rep)["oracle_count"])
        return [synth, rerun]

    def report_op(self, label: str, argv: list[str], stem: str, key: str, task: str,
                  marked: int, target: int | None = None) -> Op:
        out_name = f"{stem}.json"

        def check(code, err):
            if code:
                return [f"exit_{code}"]
            report = self.load(out_name)
            out = ck.report_failures(report, task, self.n(key), self.depth[key], marked, target)
            if task == "sample" and any(
                    not f >= ck.FIDELITY_MIN for f in report["stage_fidelities"]):
                out.append("stage_fidelity")
            if task == "search" and report.get("search_mode") != "blackbox":
                out.append("search_mode")
            return out

        return self.cli_op(label, argv + ["--out", self.path(out_name)], [out_name], check,
                           oracle=lambda: self.load(out_name)["oracle_count"])

    def rounds(self, rng):
        big_name, big_params = self.BIG
        big = tag(*self.BIG)
        rook3 = tag("rook", (3, 3))
        j62_probe, h52_start = rng.randrange(15), rng.randrange(32)
        kb57_marked, j52_start = rng.randrange(12), rng.randrange(10)
        r44_pair = rng.sample(range(16), 2)
        k72_marked, kb47_marked = rng.randrange(21), rng.randrange(11)

        def check_graph(code, err):
            text = Path(self.path("rook33.edges")).read_text(encoding="utf-8")
            return self.exit_ok(code) or (
                [] if text == ck.edge_list_text("rook", (3, 3)) else ["edges"])

        def check_edge_search(code, err):
            # edge lists never set the vertex-transitive flag, so the
            # black-box route refuses rook(3,3) read from one
            if code == 1 and "not flagged vertex-transitive" in err:
                return ["route_flag"]
            return self.exit_ok(code) or self.check_artifact(
                "rook33_search.json", rook3, "search", 0)

        def check_spectrum(code, err):
            if code:
                return [f"exit_{code}"]
            data = self.load("big_spectrum.json")
            spec = ck.laplacian_spectrum(big_name, big_params)
            ok = (dict(Counter(data["eigenvalues"])) == spec
                  and data["groups"] == [{"value": v, "multiplicity": m} for v, m in spec.items()]
                  and data["zero_index"] == 0)
            return [] if ok else ["spectrum"]

        def check_depth(code, err):
            if code:
                return [f"exit_{code}"]
            data = self.load("big_depth.json")
            spec = ck.laplacian_spectrum(big_name, big_params)
            levels = ck.depth_levels(spec)
            ok = data["d"] == self.depth[big] and len(data["levels"]) == len(levels)
            prev = set(spec)
            for level, (kept, g) in zip(data["levels"], levels):
                ok = ok and level["gcd"] == g and level["lambda"] == sorted(
                    v for v in kept for _ in range(spec[v])) and level["complement"] == sorted(
                    v for v in prev - kept for _ in range(spec[v]))
                prev = kept
            return [] if ok else ["depth"]

        def check_verify(code, err):
            if code:
                return [f"exit_{code}"]
            data = self.load("verify.json")
            n, d = self.n(rook3), self.depth[rook3]
            out = []
            # every start and hidden vertex, and every ordered transfer pair
            runs = Counter((r["task"], r["marked"], r["target"] if r["task"] == "transfer"
                            else None) for r in data["reports"])
            expected = Counter([("sample", m, None) for m in range(n)]
                               + [("search", m, None) for m in range(n)]
                               + [("transfer", u, v) for u in range(n) for v in range(n)
                                  if u != v])
            if data["runs"] != len(data["reports"]) or runs != expected:
                out.append("verify_runs")
            if data["search_route"] != "blackbox":
                out.append("search_route")
            for r in data["reports"]:
                out += ck.report_failures(r, r["task"], n, d, r["marked"], r["target"])
            csv_rows = Path(self.path("verify.csv")).read_text(encoding="utf-8").splitlines()
            if len(csv_rows) != len(data["reports"]) + 1:
                out.append("verify_csv")
            return sorted(set(out))

        def verify_oracle():
            return sum(r["oracle_count"] for r in self.load("verify.json")["reports"])

        ops = [
            self.cli_op("graph edgelist rook(3,3)",
                        ["graph", "--family", "rook", "--params", "3,3", "--format",
                         "edgelist", "--out", self.path("rook33.edges")],
                        ["rook33.edges"], check_graph),
            self.cli_op("schedule search edges rook(3,3)",
                        ["schedule", "--edges", self.path("rook33.edges"), "--task", "search",
                         "--out", self.path("rook33_search.json")],
                        ["rook33_search.json"], check_edge_search,
                        known=frozenset({"route_flag"}),
                        oracle=lambda: self.artifact_oracle("rook33_search.json")),
            self.cli_op(f"spectrum {big}",
                        ["spectrum", "--family", big_name, "--params",
                         ",".join(map(str, big_params)), "--out", self.path("big_spectrum.json")],
                        ["big_spectrum.json"], check_spectrum),
            self.cli_op(f"depth edges {big}",
                        ["depth", "--edges", self.path(f"{big}.edges"),
                         "--out", self.path("big_depth.json")],
                        ["big_depth.json"], check_depth),
            *self.schedule_pair("j62_search", "johnson(6,2)", "search", j62_probe),
            *self.schedule_pair("h52_sample", "hamming(5,2)", "sample", h52_start),
            *self.schedule_pair("kb57_bipartite", "complete_bipartite(5,7)", "bipartite",
                                kb57_marked),
            self.report_op("run sample edges johnson(5,2)",
                           ["run", "sample", "--edges", self.path("johnson(5,2).edges"),
                            "--marked", str(j52_start)],
                           "j52_sample", "johnson(5,2)", "sample", j52_start),
            self.report_op("run transfer rook(4,4)",
                           ["run", "transfer", "--family", "rook", "--params", "4,4",
                            "--source", str(r44_pair[0]), "--target", str(r44_pair[1])],
                           "r44_transfer", "rook(4,4)", "transfer", *r44_pair),
            self.report_op("run search kneser(7,2)",
                           ["run", "search", "--family", "kneser", "--params", "7,2",
                            "--marked", str(k72_marked)],
                           "k72_search", "kneser(7,2)", "search", k72_marked),
            self.report_op("run bipartite complete_bipartite(4,7)",
                           ["run", "bipartite", "--family", "complete_bipartite",
                            "--params", "4,7", "--marked", str(kb47_marked)],
                           "kb47_bipartite", "complete_bipartite(4,7)", "bipartite",
                           kb47_marked),
            self.cli_op("verify rook(3,3)",
                        ["verify", "--family", "rook", "--params", "3,3",
                         "--csv", self.path("verify.csv"), "--out", self.path("verify.json")],
                        ["verify.json", "verify.csv"], check_verify, oracle=verify_oracle),
        ]
        self.ops_per_round = len(ops)
        while True:
            yield ops

    def resim(self, rng, records: list[dict]) -> list[str]:
        """Dense re-simulation of the schedule artifacts the session wrote."""
        out = []
        for stem, key, task in (("j62_search", "johnson(6,2)", "search"),
                                ("h52_sample", "hamming(5,2)", "sample"),
                                ("kb57_bipartite", "complete_bipartite(5,7)", "bipartite")):
            data = json.loads(self.artifacts[stem].read_text(encoding="utf-8"))
            name, params = ck.parse_family(key)
            m = data["probe_marked"]
            if task == "bipartite":
                fails = ck.dense_bipartite(
                    *params, [sched["ops"] for sched in data["branches"]], m)
            else:
                fails = ck.dense_schedule(name, params, data["schedule"]["ops"], task, m)
            out += [f"{code} {task} {key}" for code in fails]
        return out


WORKLOADS = {w.name: w for w in (SearchSweep, LargeN, CliSession)}
