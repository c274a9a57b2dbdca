"""qwalk benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload search_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root.  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Raw per-run records and the trace's spans go to
``perfbench/out/``.  See perfbench/README.md.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here: imports included

import argparse
import bisect
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

# one BLAS thread, pinned before numpy loads; child processes inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 9  # set-ups in fresh processes
#: Reference-mix measurements before each set-up process and after the
#: last; one mix time alone varies by up to a fifth.
MIX_PER_SETUP = 3
#: The reference mix's time on the 2-core box whose figures README gives.
REF_SECONDS = 0.025
#: Wall time between two measurements of the reference mix.
CALIBRATE_EVERY = 0.25


class Calibration:
    """Machine speed, measured next to the runs.

    On a shared box the speed drifts by a quarter or more over tens of
    seconds, and numpy and pure-Python work slow down together.  A fixed
    mix of both, timed every ``CALIBRATE_EVERY`` seconds between runs,
    gives the speed at each moment; ``scale`` converts wall seconds into
    calibrated seconds, the time the same work takes when the mix takes
    ``REF_SECONDS``.  The mix touches no code of the program under test.
    """

    def __init__(self) -> None:
        import numpy as np
        rng = np.random.default_rng(0)
        # a real matrix against a complex vector, as in a spectral walk step
        self.mat = rng.standard_normal((256, 256))
        self.vec = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        self.marks: list[tuple[float, float]] = []  # (when, mix seconds)
        self.measure()

    def mix_seconds(self) -> float:
        t0 = time.perf_counter()
        acc: dict[int, int] = {}
        for i in range(80000):
            acc[i & 63] = acc.get(i & 63, 0) + i
        for _ in range(50):
            self.mat @ (self.mat.T @ self.vec)
        return time.perf_counter() - t0

    def measure(self) -> None:
        self.marks.append((time.perf_counter(), self.mix_seconds()))

    def tick(self) -> None:
        if time.perf_counter() - self.marks[-1][0] >= CALIBRATE_EVERY:
            self.measure()

    def scale(self, start: float, end: float) -> float:
        """Calibrated seconds per wall second over [start, end]: from the
        median of the measurements made in it and the one on either side."""
        whens = [w for w, _ in self.marks]
        first = max(bisect.bisect_right(whens, start) - 1, 0)
        last = min(bisect.bisect_left(whens, end), len(whens) - 1)
        return REF_SECONDS / statistics.median(m for _, m in self.marks[first:last + 1])


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("search_sweep", "large_n", "cli_session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds and exit")
    return parser.parse_args(argv)


def run_round(ops, round_index, clock, tracer=None):
    """Time each op's call; check its result outside the timed span."""
    records = []
    for op in ops:
        clock.tick()
        if tracer is not None:
            tracer.run_id += 1
        t0 = time.perf_counter()
        try:
            result = op.call() if tracer is None else tracer.span("bench.run", op.call)
            elapsed = time.perf_counter() - t0
            failures = op.check(result)
            oracle = op.oracle(result) if op.oracle else None
        except Exception as exc:  # a crash is a failed run, reported below
            elapsed = time.perf_counter() - t0
            failures, oracle = [f"exception {type(exc).__name__}: {exc}"], None
            print(traceback.format_exc(), file=sys.stderr)
        records.append({
            "round": round_index, "label": op.label, "seconds": elapsed, "start": t0,
            "failures": failures, "known": bool(failures) and set(failures) <= op.known,
            "oracle": oracle, "info": op.info,
        })
    return records


def timed_rounds(rounds, seconds, first_round, clock, tracer=None):
    """Whole rounds until ``seconds`` of wall time have passed; each round's
    seconds are then calibrated by the machine speed over that round."""
    records = []
    start = time.perf_counter()
    index = first_round
    while True:
        records += run_round(next(rounds), index, clock, tracer)
        index += 1
        if time.perf_counter() - start >= seconds:
            break
    clock.measure()
    for index in range(first_round, index):
        rnd = [r for r in records if r["round"] == index]
        scale = clock.scale(rnd[0]["start"], rnd[-1]["start"] + rnd[-1]["seconds"])
        for rec in rnd:
            rec["calibrated"] = rec["seconds"] * scale
    return records


def runs_per_s(records):
    """Median over rounds of passed runs per calibrated second of run time."""
    rates = []
    for index in sorted({r["round"] for r in records}):
        rnd = [r for r in records if r["round"] == index]
        rates.append(sum(not r["failures"] for r in rnd) / sum(r["calibrated"] for r in rnd))
    return statistics.median(rates)


def setups_in_fresh_processes(args, clock):
    """Wall set-up seconds of ``SETUP_SAMPLES`` fresh processes, one after
    another, and the calibration factor of each: machine speed shifts
    within a few seconds, so each sample is scaled by the mix measured
    right before and after it."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    spans, seconds = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        for _ in range(MIX_PER_SETUP):
            clock.measure()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        seconds.append(float(proc.stdout.strip().splitlines()[-1]))
        spans.append((start, time.perf_counter()))
    for _ in range(MIX_PER_SETUP):
        clock.measure()
    return seconds, [clock.scale(start, end) for start, end in spans]


def latency_summary(records):
    """Per-label median and tail, for the raw record file only."""
    out = {}
    for label in sorted({r["label"] for r in records}):
        times = sorted(r["seconds"] for r in records if r["label"] == label)
        entry = {"count": len(times), "median_ms": 1e3 * statistics.median(times)}
        # the highest percentile with at least ten samples beyond it
        for pct in (99, 90):
            if len(times) * (100 - pct) / 100 >= 10:
                entry[f"p{pct}_ms"] = 1e3 * times[int(len(times) * pct / 100)]
                break
        out[label] = entry
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workloads, workdir) -> int:
    wl = workloads.WORKLOADS[args.workload](workdir)
    wl.setup()
    if args.setup_only:
        print(time.perf_counter() - T0)
        return 0
    clock = Calibration()
    # set-up time is an end-to-end metric, so only the untraced run takes it
    setups, setup_scales = ([], []) if args.trace else setups_in_fresh_processes(args, clock)

    rng = random.Random(args.seed)
    rounds = wl.rounds(rng)
    warmup = run_round(next(rounds), -1, clock)
    phase = args.seconds / 2 if args.trace else args.seconds
    records = timed_rounds(rounds, phase, 0, clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    metrics = {}
    traced = []
    if args.trace:
        import tracer as trace_mod
        untraced_rate = runs_per_s(records)
        ref = {n: trace_mod.matvec_gflops(n) for n in sorted({g.n for g in wl.graphs.values()})}
        tracer = trace_mod.Tracer(workloads.QWALK_MODULES)
        tracer.install()
        wl.setup()
        traced = timed_rounds(rounds, phase, records[-1]["round"] + 1, clock, tracer)
        layer = tracer.layer_metrics(len(traced), ref)
        layer["trace.overhead_pct"] = 100.0 * (untraced_rate / runs_per_s(traced) - 1.0)
        layer["cli.artifact_bytes"] = wl.artifact_bytes_per_run()
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layer.items()}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}.trace.jsonl")

    all_runs = records + traced
    checker_failures = wl.verify_setup() + wl.resim(rng, records)
    unexpected = [r for r in warmup + all_runs if r["failures"] and not r["known"]]
    with_oracle = [r["oracle"] for r in all_runs if r["oracle"] is not None]
    if not args.trace:
        metrics = {
            "runs_per_s": {"value": runs_per_s(records), "unit": "1/s"},
            "oracle_calls_per_run": {
                "value": sum(with_oracle) / len(with_oracle), "unit": "calls"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "setup_s": {"value": statistics.median(
                s * f for s, f in zip(setups, setup_scales)), "unit": "s"},
        }

    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}.runs.json").write_text(json.dumps({
        "seed": args.seed, "trace": args.trace, "setup_wall_s": setups,
        "setup_scales": setup_scales,
        "reference_mix_s": [m for _, m in clock.marks],
        "latency": latency_summary(all_runs), "checker_failures": checker_failures,
        "unexpected": unexpected, "runs": all_runs,
    }, indent=1, default=str), encoding="utf-8")
    for rec in unexpected[:5]:
        print(f"failed: {rec['label']}: {rec['failures']}", file=sys.stderr)
    for failure in checker_failures:
        print(f"checker: {failure}", file=sys.stderr)

    print(json.dumps({
        "correct": not unexpected and not checker_failures,
        "attempted": len(all_runs),
        "failed": sum(bool(r["failures"]) for r in all_runs),
        "metrics": metrics,
    }))
    return 0


def unit_of(name: str) -> str:
    if "_ms" in name:
        return "ms"
    if name.endswith("us_per_op"):
        return "us"
    if name.endswith("gflops"):
        return "GFLOP/s"
    if name.endswith("gflop_computed"):
        return "GFLOP"
    if name.endswith("bytes_moved_computed"):
        return "MB"
    if name.endswith("artifact_bytes"):
        return "bytes"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("efficiency"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
