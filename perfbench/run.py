"""Benchmark of the bchrom package: requests from file to checked answer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tree --seed 1 --seconds 20 --trace 0

The workloads are ``tree``, ``cotree`` and ``tcograph`` (see
BENCHMARK.json), plus ``defects``, which asks only requests the seed is
known to fail.  The run writes its inputs, runs the closed loop in a worker
process (``worker.py``), which also samples set-up time in fresh
interpreters between its passes, and prints a report whose last line is one
JSON object.  With ``--trace 1`` that object holds the per-layer metrics
instead of the end-to-end ones.
Results, and the spans of a traced run, stay in ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 170.0


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def at_reference(sample: dict) -> float:
    """A sample's time in seconds at the reference speed: scaled by how
    long the reference loop took next to it (see calibration.py)."""
    return sample["elapsed"] * calibration.REFERENCE_S / sample["calib_s"]


def end_to_end(result: dict, limit: float, timer=at_reference) -> dict:
    """End-to-end metrics from the untraced passes.

    Interference from other processes on a shared machine only adds time,
    so a request's cost is its fastest pass in each labelling, averaged
    over the labellings, each pass timed by ``timer``.  The latency
    percentiles are taken over the pool's requests at that cost; a request
    that failed in any pass counts at the limit, above every answered one.
    Goodput is the pool's correct answers over the sum of those costs.
    Set-up time is the median of the samples taken between the passes.
    """
    passes: dict = collections.defaultdict(lambda: collections.defaultdict(list))
    for r in result["records"]:
        if not r["traced"]:
            passes[r["req"]][r["key"]].append(r)
    latencies, spent, good = [], 0.0, 0
    for by_key in passes.values():
        cost = statistics.mean(min(timer(r) for r in recs) for recs in by_key.values())
        ok = all(r["status"] == "ok" for recs in by_key.values() for r in recs)
        latencies.append(cost if ok else limit)
        spent += cost
        good += ok
    return {
        "setup_s": {"value": statistics.median(timer(s) for s in result["setup_samples"]),
                    "unit": "s"},
        "latency_p50_s": {"value": percentile(latencies, 50), "unit": "s"},
        "latency_p90_s": {"value": percentile(latencies, 90), "unit": "s"},
        "goodput_rps": {"value": good / spent, "unit": "1/s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def report(args, manifest: dict, result: dict, metrics: dict) -> list[str]:
    records = result["records"]
    failed = [r for r in records if r["status"] != "ok"]
    lines = [
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(records)} requests in {result['passes']} passes, "
        f"{result['wall_s']:.1f} s wall, limit {manifest['limit_s']} s per request",
        "phases: inputs {:.1f} s, worker {:.1f} s".format(*result["phases"]),
        f"fail_ratio {len(failed) / len(records):.4f} ({len(failed)} of {len(records)})",
    ]
    pool = len({r["req"] for r in records})
    plain = len({r["pass"] for r in records if not r["traced"]})
    lines.append(f"latency samples: {pool} requests of the pool, each at its fastest "
                 f"pass per labelling, over {plain} untraced passes")
    for name, m in metrics.items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    if "setup_samples" in result:
        wall = end_to_end(result, manifest["limit_s"], timer=lambda r: r["elapsed"])
        calib = [r["calib_s"] for r in records] + [s["calib_s"] for s in result["setup_samples"]]
        lines.append("the same in wall-clock seconds, unscaled: " + ", ".join(
            f"{name} {wall[name]['value']:.6g}" for name in
            ("setup_s", "latency_p50_s", "latency_p90_s", "goodput_rps")))
        lines.append(f"reference loop: median {statistics.median(calib):.6g} s, "
                     f"range {min(calib):.6g}-{max(calib):.6g} s, "
                     f"reference {calibration.REFERENCE_S} s")
    for field in ("q", "shape", "band", "fmt"):
        mix = collections.Counter(r[field] for r in records)
        lines.append(f"mix {field}: " + ", ".join(f"{k}={v}" for k, v in sorted(mix.items())))
    breakdown = collections.Counter(f"{r['status']}@{args.workload}/{r['q']}" for r in failed)
    lines.append("failures: " + (", ".join(f"{k}={v}" for k, v in sorted(breakdown.items()))
                                 or "none"))
    for r in failed[:20]:
        lines.append(f"  failed {r['q']} {r['shape']} n-band {r['band']} {r['fmt']}: "
                     f"{r['status']} {r['reason']}")
    if "trace" in result:
        trace = result["trace"]
        lines.append(f"trace: {trace['spans']} spans; self seconds per traced request:")
        lines += [f"  {group} {sec:.6g}" for group, sec in trace["table"].items()]
        lines.append("escaped errors: " + (", ".join(f"{k}={v}" for k, v in
                                                     trace["errors"].items()) or "none"))
    return lines


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.LIMITS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=("0", "1"), default="0")
    args = p.parse_args()

    started = time.perf_counter()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bchrom", "cli.py")):
        print(f"error: no bchrom sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    outdir = os.path.join(root, ".perfbench", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    inputs = os.path.join(outdir, "inputs")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(inputs)
    try:
        manifest = workloads.build(args.workload, args.seed, inputs)
        generated = time.perf_counter()
        manifest_path = os.path.join(inputs, "manifest.json")
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        result_path = os.path.join(outdir, "result.json")
        budget = RUN_LIMIT_S - (time.perf_counter() - started)
        passes = workloads.pass_count(args.workload, args.seconds, args.trace == "1")
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), manifest_path,
                        result_path, str(passes), args.trace, src],
                       check=True, timeout=budget)
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        result["phases"] = (generated - started, time.perf_counter() - generated)
        spans = os.path.join(inputs, "spans.jsonl.gz")
        if os.path.exists(spans):
            os.replace(spans, os.path.join(outdir, "spans.jsonl.gz"))
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    if args.trace == "1":
        metrics = result["trace"]["metrics"]
    else:
        metrics = end_to_end(result, manifest["limit_s"])
    lines = report(args, manifest, result, metrics)
    with open(os.path.join(outdir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    records = result["records"]
    wrong = sum(1 for r in records if r["status"] == "WrongAnswer")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["status"] != "ok"),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
