"""critnum benchmark: one workload, timed and checked, or traced layer by layer.

    python3 perfbench/run.py --workload order27|closure --seed N --seconds S --trace 0|1

With --trace 0 the workload runs pass after pass until --seconds is used up
(at least one pass) and the end-to-end metrics are reported.  With --trace 1
a fixed number of passes runs with every traced call wrapped, then the same
passes run again untraced, and the per-layer metrics are reported together
with the tracing overhead.  Every output is checked.  Human-readable lines
come first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from measure import percentile, ratio, tail_percentile
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 11
RANKED_SPANS = 12


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["order27", "closure"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "critnum" / "__init__.py").is_file():
        print(f"error: no critnum sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # needs the package on the path

    workload = workloads.WORKLOADS[args.workload]
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.trace:
            result, lines = _trace(workload, args, tmp)
        else:
            result, lines = _measure(workload, args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


def _jobs() -> int:
    return len(os.sched_getaffinity(0))


def _measure(workload, args, tmp: Path):
    from workloads import Tally

    ctx = workload.setup()
    ctx.tmp, ctx.jobs = tmp, _jobs()
    tally = Tally()
    start = time.perf_counter()
    index = 0
    while True:
        workload.run_pass(ctx, args.seed, index, tally)
        if index == 0 and hasattr(workload, "replay"):
            workload.replay(ctx, tally)
        index += 1
        if time.perf_counter() - start + statistics.median(tally.pass_s) > args.seconds:
            break
    rss_mb = _peak_rss_mb()
    setup = [_setup_probe(workload.name) for _ in range(SETUP_PROBES)]

    lat = tally.latencies_ms
    busy = sum(tally.pass_s)
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (statistics.median(tally.pass_s), "s", len(tally.pass_s)),
        "subsets_per_s": (tally.work / busy, "1/s", len(tally.pass_s)),
        "call_ms.p50": (percentile(lat, 50), "ms", len(lat)),
        "call_ms.p99": (percentile(lat, 99), "ms", len(lat)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    tail = tail_percentile(len(lat))
    lines = _header(workload, args, ctx.jobs)
    lines += [f"{name:<16} {value:>16.10g} {unit:<4} samples={n}" for name, (value, unit, n) in metrics.items()]
    lines.append(
        f"call_ms tail: p{tail if tail is not None else '-'} is the highest percentile "
        f"with >= 10 of {len(lat)} samples beyond it"
    )
    lines += _footer(workload, tally, index, busy, args)
    result = _result(tally, {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()})
    return result, lines


def _trace(workload, args, tmp: Path):
    import layers
    from workloads import Tally

    jobs = _jobs()
    tracer = Tracer(spool_dir=tmp)
    restore = layers.install(tracer)
    try:
        ctx = workload.setup()
        ctx.tmp, ctx.jobs = tmp, jobs
        traced = Tally()
        for index in range(workload.trace_passes):
            workload.run_pass(ctx, args.seed, index, traced)
        hit_ms = 0.0
        if hasattr(workload, "replay"):
            get_s, gets = tracer.span_s["cache.get"], tracer.counts["cache.get"]
            workload.replay(ctx, traced)
            hit_ms = 1000 * ratio(tracer.span_s["cache.get"] - get_s, tracer.counts["cache.get"] - gets)
    finally:
        restore()
    plain = Tally(outcomes=traced.outcomes)
    for index in range(workload.trace_passes):
        workload.run_pass(ctx, args.seed, index, plain)
    overhead = sum(traced.pass_s) - sum(plain.pass_s)
    metrics = layers.per_layer(tracer, jobs, overhead, hit_ms)

    lines = _header(workload, args, jobs)
    lines += [f"{name:<34} {value:>16.10g} {layers.PER_LAYER[name]}" for name, value in metrics.items()]
    lines.append(
        f"traced wall {sum(traced.pass_s):.4f} s, untraced {sum(plain.pass_s):.4f} s "
        f"over the same {workload.trace_passes} passes"
    )
    lines.append("self time by span (s), highest first:")
    ranked = sorted((kv for kv in tracer.self_s.items() if tracer.counts[kv[0]]), key=lambda kv: -kv[1])
    lines += [f"  {name:<30} {s:>10.4f}  calls={tracer.counts[name]}" for name, s in ranked[:RANKED_SPANS]]
    lines += _footer(workload, traced, workload.trace_passes, sum(traced.pass_s), args)
    result = _result(traced, {name: {"value": v, "unit": layers.PER_LAYER[name]} for name, v in metrics.items()})
    return result, lines


def _header(workload, args, jobs: int) -> list[str]:
    return [f"# critnum benchmark: workload={workload.name} seed={args.seed} seconds={args.seconds} "
            f"trace={args.trace} jobs={jobs}"]


def _footer(workload, tally, passes: int, busy: float, args) -> list[str]:
    out = tally.outcomes
    lines = [
        f"work: {tally.work} {workload.unit} in {passes} passes, {busy:.4f} s timed",
        f"fail_frac {out.fail_frac:.6g} = {out.failed} failed / {out.attempted} items attempted",
    ]
    lines += [f"failed: {what}" for what in out.errors]
    provenance = {
        **_git(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "jobs": _jobs(),
        "workload": workload.name,
        "seed": args.seed,
        "work": tally.work,
        "work_unit": workload.unit,
        "passes": passes,
        "items": out.attempted,
    }
    lines.append("provenance " + json.dumps(provenance))
    return lines


def _result(tally, metrics: dict) -> dict:
    out = tally.outcomes
    return {"correct": out.failed == 0, "attempted": out.attempted, "failed": out.failed, "metrics": metrics}


def _setup_probe(workload: str) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def _git() -> dict:
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha, "git_dirty": bool(status.strip())}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


if __name__ == "__main__":
    sys.exit(main())
