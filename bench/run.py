#!/usr/bin/env python3
"""heulag benchmark: one workload, one seed, a timed closed loop, checked outputs.

    python3 bench/run.py --workload {reconstruct,sweep,baselines} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; heulag is imported from ./src. The run:

1. sets up twice, each time in a fresh interpreter (import, the workload's
   set-up, then one pass of its operations, which builds heulag's lazily
   built tables), and reports the minimum as setup_s;
2. runs passes over the workload's fixed operation list, one operation at a
   time on one thread, until S seconds have gone (the pass under way finishes);
3. checks every output against independent references, outside the timing.

Times are reported at reference speed (see REF_KERNEL_S); the report lines
also give them unscaled.

With --trace 0 it reports the end-to-end metrics. With --trace 1 it runs an
untraced warm-up pass, then alternates traced and untraced passes, and
reports per-layer metrics per traced pass; spans are written to .bench_out/.
The last line of stdout is the JSON result; the lines before it are a
readable report with sample counts and the environment.
"""
from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 2
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it

# Reference speed. On a shared host other tenants' load slows this process by
# up to 1.8x for minutes at a time, in step with any other CPU-bound Python
# code, and no number of repeats inside one run removes that. So the kernel
# below is timed around every measurement, and each time is reported at
# reference speed: raw * REF_KERNEL_S / (kernel time measured around it).
# REF_KERNEL_S is a fixed constant near the kernel's time on the machine named
# in NOTES.md when it is lightly loaded; then a scaled time is close to the raw one.
REF_KERNEL_S = 0.0082
KERNEL_EVERY_S = 0.25  # a timed pass re-times the kernel at least this often

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "lat_p50_s": "s",
    "lat_tail_s": "s",
    "ok_ratio": "ratio",
    "agree_digits_min": "digits",
    "agree_digits_mean": "digits",
    "peak_rss_mb": "MB",
}


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    With n samples that is the (n-10)-th smallest, at percentile 100(n-10)/n.
    Below 20 samples that percentile would lie under the median, so the
    maximum is returned at percentile 100.
    """
    s = sorted(samples)
    k = len(s) - TAIL_BEYOND
    if k < TAIL_BEYOND:
        return s[-1], 100.0
    return s[k - 1], 100.0 * k / len(s)


def kernel() -> None:
    """Fixed interpreter, mpf, rational and big-integer work; no heulag code."""
    from fractions import Fraction

    from mpmath import mp, mpf

    with mp.workdps(60):
        x, s = mpf(1) / 3, mpf(0)
        for i in range(1, 1200):
            s += x * i / (i + 1)
    q = Fraction(0)
    for i in range(1, 240):
        q += Fraction(i, 2 * i + 1)
    n = 3 ** 3000
    for i in range(300):
        n = (n * 7 + i) // 5


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


@dataclass
class Pass:
    traced: bool
    wall: float
    latencies: list
    kernels: list  # per operation: mean kernel time of the timings just before and after it
    outputs: list
    p_hits: int
    p_misses: int

    def scaled(self) -> list[float]:
        return [t * REF_KERNEL_S / k for t, k in zip(self.latencies, self.kernels)]


def _same(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def cold_setup(t0: float, name: str, seed: int, params: dict, workdir: str) -> None:
    """Body of a set-up interpreter started at t0: set the workload up, run its
    pass once, and print the seconds taken, raw and at reference speed.

    The kernel is timed between operations every KERNEL_EVERY_S and at the
    end; each stretch between two kernel timings is scaled by their mean, the
    first by the first timing. Time spent on the kernel is left out.
    """
    import workloads
    from heulag.errors import HeulagError

    wl = workloads.WORKLOADS[name](seed, **params)
    wl.setup(workdir)
    stretches, kernels = [], []
    start = t0
    for op in wl.ops(workdir):
        if time.perf_counter() - start >= KERNEL_EVERY_S:
            stretches.append(time.perf_counter() - start)
            kernels.append(time_kernel())
            start = time.perf_counter()
        try:
            op.fn()
        except HeulagError:
            pass
    stretches.append(time.perf_counter() - start)
    kernels.append(time_kernel())
    speeds = [kernels[0]] + [(a + b) / 2 for a, b in zip(kernels, kernels[1:])]
    print(sum(stretches), sum(t * REF_KERNEL_S / k for t, k in zip(stretches, speeds)))


def timed_setup(wl, seed: int, workdir: str) -> tuple[float, float]:
    """(raw, scaled) seconds a fresh interpreter takes to import heulag, set the
    workload up and run its pass once: the time to a first result, lazy tables
    included."""
    code = "\n".join([
        "import sys, time",
        "t0 = time.perf_counter()",
        f"sys.path[:0] = {[str(SRC), str(BENCH)]!r}",
        "import run",
        f"run.cold_setup(t0, {wl.name!r}, {seed}, {wl.params!r}, {workdir!r})",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    raw, scaled = map(float, proc.stdout.split()[-2:])
    return raw, scaled


def timed_window(ops, seconds: float, trace: bool, tracer) -> list[Pass]:
    """Closed loop over the operation list until `seconds` have gone.

    With trace, the first pass is an untraced warm-up (it alone pays for the
    lazily built tables inside heulag), then traced and untraced passes
    alternate, at least one of each. Every pass starts with build_P_exact's
    cache empty, so passes do equal work. The kernel is timed at the start and
    end of each pass and between operations every KERNEL_EVERY_S.
    """
    from heulag import momentrec
    from heulag.errors import HeulagError

    build_p = momentrec.build_P_exact
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        build_p.cache_clear()
        if traced:
            tracer.install()
        latencies, outputs = [], []
        marks, kernels = [], []  # kernels[i] was timed just before operation marks[i]
        try:
            t0 = time.perf_counter()
            for op in ops:
                if not marks or time.perf_counter() - last >= KERNEL_EVERY_S:
                    marks.append(len(outputs))
                    kernels.append(time_kernel())
                    last = time.perf_counter()
                tracer.op = len(passes) * len(ops) + len(outputs)
                with tracer.span(f"op.{op.kind}") if traced else nullcontext():
                    ts = time.perf_counter()
                    try:
                        out = op.fn()
                    except HeulagError as e:
                        out = e
                    latencies.append(time.perf_counter() - ts)
                outputs.append(out)
            marks.append(len(ops))
            kernels.append(time_kernel())
            wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        around = [(kernels[i - 1] + kernels[i]) / 2 for i in
                  (bisect.bisect_right(marks, j) for j in range(len(ops)))]
        info = build_p.cache_info()
        passes.append(Pass(traced, wall, latencies, around, outputs, info.hits, info.misses))
        if time.perf_counter() - start >= seconds and (not trace or len(passes) >= 3):
            return passes


def check_passes(wl, ops, passes: list[Pass]) -> list[list]:
    """Verdicts per pass; a pass whose outputs equal the first pass's shares its verdicts."""
    first = wl.check(ops, passes[0].outputs)
    return [first if all(map(_same, p.outputs, passes[0].outputs))
            else wl.check(ops, p.outputs) for p in passes]


def op_latencies(passes: list[Pass], scaled: bool = True) -> list[float]:
    """Each operation's median latency over the passes after the first.

    The first pass pays for heulag's lazily built tables, whose cost shows in
    setup_s instead; it counts only when it is the sole pass.
    """
    timed = passes[1:] or passes
    return [statistics.median(lat) for lat in
            zip(*(p.scaled() if scaled else p.latencies for p in timed))]


def end_to_end(setup_times, passes, verdicts, rss_mb) -> dict:
    flat = [v for vs in verdicts for v in vs]
    agree = [v.agree for v in flat if v.agree is not None]
    lat = op_latencies(passes)
    return {
        "setup_s": min(scaled for _, scaled in setup_times),
        "wall_s": sum(lat),
        "lat_p50_s": statistics.median(lat),
        "lat_tail_s": tail(lat)[0],
        "ok_ratio": sum(v.ok for v in flat) / len(flat),
        "agree_digits_min": min(agree),
        "agree_digits_mean": statistics.fmean(agree),
        "peak_rss_mb": rss_mb,
    }


def per_layer(passes: list[Pass], tracer) -> dict:
    from spans import TRACED_NAMES, layer_totals

    traced = [p for p in passes if p.traced]
    n = len(traced)
    totals = layer_totals(tracer.spans)
    out = {}
    for name in TRACED_NAMES:
        t = totals.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0})
        out[f"{name}.calls"] = (t["calls"] / n, "count")
        out[f"{name}.busy_s"] = (t["busy_s"] / n, "s")
        out[f"{name}.self_s"] = (t["self_s"] / n, "s")
    for name in ("comparators.pade_eval", "comparators.weniger_delta"):
        out[f"{name}.failed"] = (totals.get(name, {"failed": 0})["failed"] / n, "count")
    hits = sum(p.p_hits for p in traced)
    looked = hits + sum(p.p_misses for p in traced)
    out["momentrec.build_P_exact.hit_ratio"] = (hits / looked if looked else 0.0, "ratio")
    out["trace.overhead_s"] = (
        statistics.median(sum(p.scaled()) for p in traced)
        - statistics.median(sum(p.scaled()) for p in passes[1:] if not p.traced), "s")
    return out


def environment(seed: int) -> dict:
    import mpmath

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


def run(wl, seed: int, seconds: float, trace: bool, setup_repeats: int = SETUP_REPEATS):
    """Set up, time, check; returns (result dict for the JSON line, report lines)."""
    from spans import Tracer

    OUT.mkdir(exist_ok=True)
    tracer = Tracer()
    kernel()  # first call warms mpmath's own caches
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{wl.name}-") as workdir:
        setup_times = [timed_setup(wl, seed, workdir) for _ in range(setup_repeats)]
        ops = wl.ops(workdir)
        passes = timed_window(ops, seconds, trace, tracer)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        verdicts = check_passes(wl, ops, passes)

    attempted = len(ops) * len(passes)
    failures = [(op, v) for vs in verdicts for op, v in zip(ops, vs) if not v.ok]
    e2e = end_to_end(setup_times, passes, verdicts, rss_mb)
    kernels = [k for p in passes for k in p.kernels]
    raw = op_latencies(passes, scaled=False)
    lines = [f"{wl.name} seed={seed}: {len(passes)} passes of {len(ops)} operations, "
             f"{sum(p.wall for p in passes):.2f} s timed",
             f"  machine speed: kernel median {statistics.median(kernels) * 1e3:.2f} ms "
             f"against {REF_KERNEL_S * 1e3:.2f} ms at reference speed; unscaled "
             f"setup_s {min(r for r, _ in setup_times):.4g} s, wall_s {sum(raw):.4g} s, "
             f"lat_p50_s {statistics.median(raw):.4g} s, lat_tail_s {tail(raw)[0]:.4g} s"]
    tail_pct = tail(raw)[1]
    timed = max(len(passes) - 1, 1)
    median_of = f"{len(ops)} operations, each the median of {timed} passes"
    checked = f"{sum(v.agree is not None for vs in verdicts for v in vs)} outputs"
    counts = {
        "setup_s": f"minimum of {len(setup_times)} set-ups",
        "wall_s": f"sum over {median_of}",
        "lat_p50_s": f"median of {median_of}",
        "lat_tail_s": f"p{tail_pct:.1f} of {median_of}",
        "ok_ratio": f"{attempted - len(failures)} of {attempted} operations",
        "agree_digits_min": checked,
        "agree_digits_mean": checked,
        "peak_rss_mb": "1 process",
    }
    for name, unit in END_TO_END.items():
        lines.append(f"  {name:<18} {e2e[name]:.6g} {unit}  ({counts[name]})")
    seen = set()
    for op, v in failures:
        key = (op.kind, op.model, op.beta, op.digits)
        if key not in seen:
            seen.add(key)
            known = " (known defect)" if wl.known_defect(op) else ""
            lines.append(f"  failed: {op.kind} {op.model} beta={op.beta} "
                         f"digits={op.digits}: {v.note}{known}")

    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer(passes, tracer).items()}
        span_path = OUT / f"{wl.name}-seed{seed}-spans.jsonl"
        tracer.write(str(span_path))
        lines.append(f"  {len(tracer.spans)} spans from "
                     f"{sum(p.traced for p in passes)} traced passes -> {span_path.name}")
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    result = {
        "correct": all(v.ok or wl.known_defect(op) for op, v in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["reconstruct", "sweep", "baselines"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "heulag" / "__init__.py").is_file():
        print(f"error: heulag sources not found at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    env = environment(args.seed)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    result, lines = run(wl, args.seed, args.seconds, bool(args.trace))
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": env, **result}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print("env: " + json.dumps(env))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
