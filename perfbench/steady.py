"""Steadiness check: run each workload repeatedly and report the spread.

    python3 perfbench/steady.py --runs 10 --sets 2

Run from the repository root.  Each run is a fresh ``run.py`` process
with its own seed; the order of the workloads alternates between passes.
For every end-to-end metric of every workload the command prints the
median and quartiles, the spread (q3 - q1) / median next to the metric's
bound from BENCHMARK.json, and, with two sets, how far the second set's
median moved in the worse direction.  It also prints each run's share of
failed runs, which must be the same in every run.  Raw results go to
perfbench/out/steady.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = bench["end_to_end"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    names = [w["name"] for w in bench["workloads"]]

    results = {w: [[] for _ in range(args.sets)] for w in names}
    seed = args.first_seed
    for s in range(args.sets):
        for i in range(args.runs):
            for w in (names if i % 2 == 0 else names[::-1]):
                res = one_run(w, seed, bench["run_seconds"])
                res["seed"] = seed
                results[w][s].append(res)
                seed += 1
                print(f"set {s + 1} run {i + 1} {w} seed {res['seed']}: correct "
                      f"{res['correct']} failed {res['failed']}/{res['attempted']}",
                      file=sys.stderr, flush=True)

    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps(results, indent=1), encoding="utf-8")

    ok = True
    for w in names:
        print(f"\n{w}")
        shares = {r["failed"] / r["attempted"] for runs in results[w] for r in runs}
        correct = all(r["correct"] for runs in results[w] for r in runs)
        print(f"  correct in every run: {correct}; failed shares: "
              f"{sorted(round(x, 6) for x in shares)}")
        ok &= correct and len(shares) == 1
        medians = {}
        for m in metrics:
            for s, runs in enumerate(results[w]):
                values = [r["metrics"][m["name"]]["value"] for r in runs]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med
                medians.setdefault(m["name"], []).append(med)
                held = spread <= m["bound"]
                ok &= held
                print(f"  set {s + 1} {m['name']:<22} median {med:12.5g} q1 {q1:12.5g} "
                      f"q3 {q3:12.5g} spread {spread:7.2%} bound {m['bound']:.0%}"
                      f"{'' if held else '  EXCEEDS'}")
            if args.sets > 1:
                first, last = medians[m["name"]][0], medians[m["name"]][-1]
                worse = (last - first) / first * (1 if m["better"] == "lower" else -1)
                ok &= worse <= m["bound"]
                print(f"        {m['name']:<22} second median worse by {worse:7.2%} "
                      f"(bound {m['bound']:.0%})")
    print(f"\nsteady: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
