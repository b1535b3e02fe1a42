"""Steadiness study: repeat the benchmark over seeds and summarize each metric.

    python3 bench/steadiness.py --seeds 1-10 --seconds 20 --out bench/results/set-a.json
    python3 bench/steadiness.py --compare bench/results/set-a.json bench/results/set-b.json

A set runs every workload once per seed, one process after another, and
records each metric's median, quartiles (statistics.quantiles, n=4) and
spread, the distance between the quartiles as a share of the median.
--compare prints how far each median of the second set moved from the
first, and whether the share of failed operations is the same.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("certify", "recheck", "nonexistence")


def seeds_of(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(workloads, seeds, seconds, trace) -> dict:
    runs = {w: [] for w in workloads}
    for w in workloads:
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=HERE.parent, timeout=600)
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[w].append(result)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
    return runs


def summarize(runs: dict) -> dict:
    out = {}
    for w, results in runs.items():
        names = results[0]["metrics"]
        out[w] = {"failed_share": sorted({r["failed"] / r["attempted"] for r in results}),
                  "correct": all(r["correct"] for r in results)}
        for name in names:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            out[w][name] = {"median": med, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / med if med else 0.0, "values": values}
    return out


def print_summary(summary: dict) -> None:
    for w, metrics in summary.items():
        print(f"{w}: failed share {metrics['failed_share']}, correct {metrics['correct']}")
        for name, m in metrics.items():
            if isinstance(m, dict):
                print(f"  {name:24s} median {m['median']:12.5g}  q1 {m['q1']:12.5g}  "
                      f"q3 {m['q3']:12.5g}  spread {m['spread']:.4f}")


def compare(a: dict, b: dict) -> None:
    for w in a:
        same = a[w]["failed_share"] == b[w]["failed_share"]
        print(f"{w}: failed share {'identical' if same else 'DIFFERS'}")
        for name, m in a[w].items():
            if isinstance(m, dict):
                moved = b[w][name]["median"] / m["median"] - 1
                print(f"  {name:24s} median {m['median']:12.5g} -> "
                      f"{b[w][name]['median']:12.5g}  ({moved:+.4f})")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2)
    args = ap.parse_args()
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        compare(a, b)
        return 0
    summary = summarize(run_set(args.workloads, seeds_of(args.seeds), args.seconds,
                                args.trace))
    print_summary(summary)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
