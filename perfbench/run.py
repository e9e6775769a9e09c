"""hopfgen benchmark: one workload, one seed, one client, closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload roster|lattice_queries|identity_queries
                             [--seed N] [--seconds S] [--trace 0|1]

The op list comes from the seed (workloads.py).  Each pass runs the whole
list in a fresh interpreter (worker.py), one op after the other, so that
caches start cold as they do for a `hopfgen` invocation.  Passes repeat
while the next one would still end within --seconds (at least three).
Every op's exact output is compared with its digest in references.json;
an exception or a mismatch is a failed op.

With --trace 0 the last line of standard output is one JSON object with
the end-to-end metrics; with --trace 1, untraced and traced passes
alternate and it holds the per-layer metrics and the tracing overhead.
Times are expressed at a reference host speed, gauged by a probe the
worker interleaves with the ops (worker.HostGauge).  The line before the
result is a record of the run: op-list digest, sample counts, failures,
the probe's median time, the unscaled set-up and op-list times, Python
version, core count and platform.
Both are also written to .perfbench/ in the checkout, with the spans of
traced passes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads
from tracing import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DEADLINE_S = 170.0  # the whole run, set-up and every pass included
MIN_PASSES = 3  # untraced passes, for the medians
PERCENTILE_LADDER = (50, 90, 99, 99.9)
MIN_BEYOND = 10


def rank(n: int, p: float) -> int:
    """1-based rank of the p-th percentile of n samples: 0-based index
    ceil(p (n - 1) / 100), numpy's "higher" method.  On an even split, as
    the roster's 14 ops give at p50, it takes the upper sample."""
    return math.ceil(Fraction(str(p)) * (n - 1) / 100) + 1


def percentile(values, p: float) -> float:
    """The p-th percentile: a sample as measured, never interpolated."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), p) - 1]


def top_percentile(n: int, ladder=PERCENTILE_LADDER, min_beyond=MIN_BEYOND):
    """The highest percentile of the ladder with at least `min_beyond`
    samples above its rank, or None if even the median has fewer."""
    best = None
    for p in ladder:
        if n - rank(n, p) >= min_beyond:
            best = p
    return best


def load_references() -> dict[str, str]:
    with open(HERE / "references.json") as fh:
        return json.load(fh)["digests"]


def run_pass(ops, workload: str, spans: Path | None, timeout: float,
             keep_outputs: bool = False) -> dict:
    """Run the op list once in a fresh interpreter; the worker's result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(ROOT / "src"),
           "--workload", workload]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if keep_outputs:
        cmd.append("--outputs")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        cmd, input=json.dumps(ops), capture_output=True, text=True,
        timeout=timeout, env=env, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_outputs(ops, result, refs) -> list[str]:
    """One message per failed op of a pass."""
    failures = []
    for op, digest, err in zip(ops, result["digests"], result["errors"]):
        if err is not None:
            failures.append(f"{op['key']}: {err}")
        elif op["key"] not in refs:
            failures.append(f"{op['key']}: no reference digest")
        elif refs[op["key"]] != digest:
            failures.append(f"{op['key']}: output digest {digest} != {refs[op['key']]}")
    return failures


def op_latencies(passes: list[dict]) -> list[float]:
    """Each op's median latency across passes.  Summed they give the time
    for the op list, and the percentiles are taken over them, so that a
    burst of load from elsewhere on the host during one pass moves the
    figures less than it moves that pass."""
    return [statistics.median(lat) for lat in zip(*(r["latencies"] for r in passes))]


def end_to_end(plain: list[dict]) -> dict[str, tuple[float, str]]:
    latencies = op_latencies(plain)
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in plain), "s"),
        "wall_s": (sum(latencies), "s"),
        "op_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "op_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] for r in plain) / 1024, "MB"),
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def per_layer(ops, plain: list[dict], traced: list[dict]) -> dict[str, tuple[float, str]]:
    per_pass = [layer_metrics(r["trace"]) for r in traced]
    out = {
        name: (statistics.median(m[name] for m in per_pass), _layer_unit(name))
        for name in per_pass[0]
    }
    latencies = op_latencies(plain)
    for number in workloads.CRITERIA:
        secs = sum(t for t, op in zip(latencies, ops) if op.get("number") == number)
        out[f"selftest.c{number:02d}_s"] = (secs, "s")
    out["trace.overhead_s"] = (sum(op_latencies(traced)) - sum(latencies), "s")
    out["trace.spans"] = (statistics.median(r["trace"]["spans"] for r in traced), "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hopfgen benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "hopfgen" / "__init__.py").is_file():
        print(f"error: no hopfgen source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    refs = load_references()
    ops = workloads.generate(args.workload, args.seed)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    plain: list[dict] = []
    traced: list[dict] = []
    failures: list[str] = []
    last_pass_s = {False: 0.0, True: 0.0}
    while True:
        elapsed = time.perf_counter() - started
        trace_this = bool(args.trace) and len(traced) < len(plain)
        enough = len(plain) >= (1 if args.trace else MIN_PASSES) and (traced or not args.trace)
        # stop when the next pass would end after the measuring time
        if enough and elapsed + last_pass_s[trace_this] > args.seconds:
            break
        remaining = DEADLINE_S - elapsed
        if remaining <= 0:
            print("error: the run passed its deadline", file=sys.stderr)
            return 3
        spans = out_dir / f"{stem}-spans{len(traced)}.jsonl" if trace_this else None
        try:
            result = run_pass(ops, args.workload, spans, remaining)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        last_pass_s[trace_this] = time.perf_counter() - started - elapsed
        failures += check_outputs(ops, result, refs)
        (traced if trace_this else plain).append(result)

    attempted = len(ops) * (len(plain) + len(traced))
    metrics = per_layer(ops, plain, traced) if args.trace else end_to_end(plain)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops_digest": workloads.ops_digest(ops),
        "ops_per_pass": len(ops),
        "untraced_passes": len(plain),
        "traced_passes": len(traced),
        "latency_samples": len(ops),
        "top_percentile": top_percentile(len(ops)),
        "fail_frac": len(failures) / attempted,
        "host_probe_ms": statistics.median(r["probe_s"] for r in plain + traced) * 1e3,
        "raw_setup_s": statistics.median(r["raw_setup_s"] for r in plain),
        "raw_wall_s": statistics.median(r["raw_wall_s"] for r in plain),
        "failures": failures[:20],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }
    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump({"record": record, "result": summary}, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
