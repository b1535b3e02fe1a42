"""Benchmark of the liouville certificate pipeline.

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Workloads: certify, recheck, nonexistence (see bench/README.md).  One
process, one thread, one caller, closed loop: each operation starts when
the previous one has returned.  With --trace 0 the last line of stdout is
a JSON object with the end-to-end metrics; with --trace 1 the package's
public functions are wrapped in spans and the line carries the per-layer
metrics instead.  --smoke sends one operation of each kind through its
check; --reference times `construct` per regime and stage at the
acceptance horizons.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402  (the clock above must start first)
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify", "recheck", "nonexistence")
MIN_OPS = 100
SETUP_REPEATS = 3
# Wall seconds of one round, probes included, on a 2-core sandbox (Python
# 3.11, mpmath 1.3 pure-Python backend).  A run makes round(seconds / this)
# rounds, at least enough for MIN_OPS operations: a fixed operation count
# for a given --seconds, so every run has the same samples whatever the
# machine's speed at the moment.
ROUND_SECONDS = {"certify": 1.15, "recheck": 1.45, "nonexistence": 2.6}
# The sandbox's speed drifts by 10-40% over seconds to minutes, in states
# that outlast a run, and a fixed mpmath computation slows with the program
# to within a few percent.  So each timed stretch is bracketed by a probe,
# a fixed computation of the benchmark's own, and reported at reference
# speed: its wall time times PROBE_S over the mean of the probes on either
# side.  PROBE_S is about the probe's wall time here, so the figures read
# as wall seconds on this machine at its usual speed.
PROBE_S = 0.0075


def probe() -> float:
    """Wall seconds of a fixed 128-bit mpmath computation.

    It shares no code with liouville, so no change to the program moves it,
    and garbage collection is off while it runs, so the program's heap does
    not either.
    """
    import mpmath as mp
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        with mp.workprec(128):
            x = mp.mpf(3) / 7
            s = mp.mpf(0)
            t0 = time.perf_counter()
            for i in range(1, 300):
                s += mp.sqrt(x * i) / (i + 1) - mp.log(i + x)
            return time.perf_counter() - t0
    finally:
        if gc_was_on:
            gc.enable()


def scaled_call(fn, before: float):
    """Run fn; return (its result, wall s, s at reference speed, the probe after).

    `before` is the probe taken just before; the one taken after is returned
    so that the next stretch can share it.  An exception from fn propagates.
    """
    t0 = time.perf_counter()
    out = fn()
    dt = time.perf_counter() - t0
    after = probe()
    return out, dt, dt * PROBE_S / ((before + after) / 2), after


def load_package():
    """Import liouville from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "liouville" / "__init__.py").is_file():
        sys.exit(f"bench: {src / 'liouville'} is missing; nothing to measure")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import liouville
    if Path(liouville.__file__).resolve().parent != (src / "liouville").resolve():
        sys.exit(f"bench: imported liouville from {liouville.__file__}, not {src}")
    return liouville


def fingerprint(obj) -> str:
    """sha256 of an output: CLI text, or a report object holding mpf values."""
    import mpmath as mp
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, mp.mpf):
            h.update(repr(x._mpf_).encode())     # exact (sign, mantissa, exp, bc)
        elif isinstance(x, (str, int, float, Fraction)) or x is None:
            h.update(f"{type(x).__name__}:{x!r};".encode())
        elif dataclasses.is_dataclass(x):
            h.update(type(x).__name__.encode())
            for f in dataclasses.fields(x):
                feed(getattr(x, f.name))
        elif isinstance(x, (tuple, list)):
            h.update(b"(")
            for y in x:
                feed(y)
            h.update(b")")
        else:
            raise TypeError(f"cannot fingerprint {type(x).__name__}")

    feed(obj)
    return h.hexdigest()


@dataclasses.dataclass
class LoopResult:
    wall: list          # wall seconds per operation, in the order they ran
    latencies: list     # the same at reference speed
    round_rates: list   # operations per second at reference speed, per round
    outputs: list       # per op: {digest: [count, output]}
    errors: list        # per op: list of traceback texts


def timed_loop(ops, rounds: int, tracer) -> LoopResult:
    res = LoopResult([], [], [], [{} for _ in ops], [[] for _ in ops])
    before = probe()
    for _ in range(rounds):
        busy = 0.0
        for i, op in enumerate(ops):
            span = tracer.span(f"op:{op.kind}") if tracer.active else contextlib.nullcontext()

            def call(op=op, span=span, i=i):
                try:
                    with span:
                        return op.run()
                except Exception:  # an operation's crash is a failed operation
                    res.errors[i].append(traceback.format_exc(limit=4))
                    return None

            out, dt, scaled, before = scaled_call(call, before)
            res.wall.append(dt)
            res.latencies.append(scaled)
            busy += scaled
            if out is not None:
                slot = res.outputs[i].setdefault(fingerprint(out), [0, out])
                slot[0] += 1
        res.round_rates.append(len(ops) / busy)
    return res


def check_outputs(ops, res: LoopResult):
    """(failed count, unexpected-failure lines, report lines) after the loop."""
    failed, unexpected, lines = 0, [], []
    for i, op in enumerate(ops):
        bad = len(res.errors[i])
        problems = [e.strip().splitlines()[-1] for e in res.errors[i][:1]]
        if len(res.outputs[i]) > 1:
            problems.append(f"{len(res.outputs[i])} different outputs across operations")
            bad += sum(c for c, _ in res.outputs[i].values())
        else:
            for count, out in res.outputs[i].values():
                try:
                    found = op.check(out)
                except Exception:  # a check that cannot read the output rejects it
                    found = [traceback.format_exc(limit=2).strip().splitlines()[-1]]
                if found:
                    bad += count
                    problems += found
        failed += bad
        done = len(res.errors[i]) + sum(c for c, _ in res.outputs[i].values())
        status = "ok" if not bad else ("KNOWN FAULT" if op.known_fault else "FAILED")
        median_ms = 1000 * statistics.median(res.latencies[i::len(ops)])
        lines.append(f"  {op.kind:26s} {done:4d} ops  {median_ms:8.1f} ms median  "
                     f"{bad:4d} failed  {status}")
        for p in problems[:3]:
            lines.append(f"      {p}")
        if bad and not op.known_fault:
            unexpected.append(op.kind)
        for _, out in res.outputs[i].values():
            if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], str):
                text_digest = hashlib.sha256(out[1].encode()).hexdigest()
                lines.append(f"      report sha256 {text_digest}")
    return failed, unexpected, lines


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(args) -> int:
    liouville = load_package()
    import_s = time.perf_counter() - STARTED
    import spans
    import workloads

    tracer = spans.Tracer()
    if args.trace:
        tracer.install()
        tracer.active = True
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        with liouville.precision(workloads.WORKING_BITS):
            probe()                     # mpmath's first-call caches
            before = probe()
            import_scaled = import_s * PROBE_S / before
            setups, setups_wall = [], []
            for _ in range(SETUP_REPEATS):
                ops, wall, scaled, before = scaled_call(
                    lambda: workloads.make(args.workload, args.seed, workdir), before)
                for op in ops:          # warm-up pass, untimed
                    _, dt, sc, before = scaled_call(op.run, before)
                    wall += dt
                    scaled += sc
                setups.append(scaled)
                setups_wall.append(wall)
            n_ops = len(ops)
            rounds = max(math.ceil(MIN_OPS / n_ops),
                         round(args.seconds / ROUND_SECONDS[args.workload]))
            tracer.phase = "loop"
            res = timed_loop(ops, rounds, tracer)
            tracer.active = False
            failed, unexpected, lines = check_outputs(ops, res)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(res.latencies)
    lat_ms = sorted(1000 * x for x in res.latencies)
    wall_ms = sorted(1000 * x for x in res.wall)
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds of {n_ops} ops"
          f"{' (traced)' if args.trace else ''}; wall time: import {import_s:.3f} s, "
          f"set-up runs {[round(s, 3) for s in setups_wall]} s, latency median "
          f"{statistics.median(wall_ms):.1f} ms, p90 "
          f"{statistics.quantiles(wall_ms, n=10)[8]:.1f} ms; at reference speed below")
    print("\n".join(lines))
    if args.trace:
        metrics = tracer.metrics(attempted)
    else:
        metrics = {
            "setup_s": metric(import_scaled + statistics.median(setups), "s"),
            "ops_per_s": metric(statistics.median(res.round_rates), "1/s"),
            "latency_ms.p50": metric(statistics.median(lat_ms), "ms"),
            "latency_ms.p90": metric(statistics.quantiles(lat_ms, n=10)[8], "ms"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                  "MB"),
        }
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        tracer.write(out_dir / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0


def smoke(args) -> int:
    """One operation of each kind through its check; exit 1 on an unexpected failure."""
    liouville = load_package()
    import workloads
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="smoke-", dir=work_root))
    bad = []
    try:
        with liouville.precision(workloads.WORKING_BITS):
            for name in ([args.workload] if args.workload else WORKLOADS):
                for op in workloads.make(name, args.seed, workdir):
                    t0 = time.perf_counter()
                    out = op.run()
                    dt = time.perf_counter() - t0
                    problems = op.check(out)
                    status = "ok" if not problems else (
                        "KNOWN FAULT" if op.known_fault else "FAILED")
                    print(f"{name:13s} {op.kind:26s} {dt * 1000:8.1f} ms  {status}")
                    for p in problems[:3]:
                        print(f"      {p}")
                    if problems and not op.known_fault:
                        bad.append(f"{name}: {op.kind}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("smoke:", "ok" if not bad else f"unexpected failures {bad}")
    return 1 if bad else 0


REFERENCE = {"I": 10 ** 4, "II": 10 ** 4, "III": 10 ** 4, "IV": 10 ** 4, "V1": 10 ** 4,
             "V2": 10 ** 3}
STAGES = ("counterexamples.calibrate", "counterexamples.build",
          "counterexamples.verify_radial", "counterexamples.tail_check",
          "counterexamples.volume_band")


def reference(args) -> int:
    """Traced `construct` per regime at the acceptance horizons, by stage."""
    load_package()
    import spans
    import workloads
    tracer = spans.Tracer()
    tracer.install()
    tracer.active = True
    print("| regime | horizon | total s | " + " | ".join(s.split(".")[1] for s in STAGES)
          + " | exit |")
    print("|---" * (len(STAGES) + 4) + "|")
    for regime, H in REFERENCE.items():
        p, q, params = workloads.REGIMES[regime]
        argv = ["construct", "--regime", regime, "--p", p, "--q", q, "--N", "3",
                "--horizon", str(H)]
        for key, value in params.items():
            argv += [f"--{key}", value]
        first = len(tracer.spans)
        code, _ = workloads.run_cli(argv)
        recorded = tracer.spans[first:]
        main = recorded[0]
        stage = {s: 0.0 for s in STAGES}
        for sp in recorded:
            if sp[4] == first and sp[0] in stage:     # direct children of cli.main
                stage[sp[0]] += sp[3] - sp[2]
        print(f"| {regime} | {H} | {main[3] - main[2]:.2f} | "
              + " | ".join(f"{stage[s]:.2f}" for s in STAGES) + f" | {code} |")
    return 0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--reference", action="store_true")
    args = ap.parse_args(argv)
    if not (args.smoke or args.reference or args.workload):
        ap.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.smoke:
        return smoke(args)
    if args.reference:
        return reference(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
