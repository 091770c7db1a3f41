#!/usr/bin/env python3
"""Run one workload of the welfare-maximisation benchmark.

    python3 wmbench/run.py --workload alloc-twitter --seed 1 --seconds 10 --trace 0

Builds the benchmark if its sources changed (see build.py), then starts one
JVM with explicit settings: heap sized from the machine's memory, Spark at
local[nproc], a quiet log4j2 configuration, and scratch space inside
`.bench_out/`. The JVM prints a `wmbench record` line (machine, run and
every metric); this script checks welfare against `reference.json` when
the seed is the reference seed, and prints as its last line the result
JSON: `correct`, `attempted`, `failed` and `metrics`, where the metrics are
the `end_to_end` ones of BENCHMARK.json, or the `per_layer` ones with
`--trace 1`.

Exit codes: 0 with a result; 2 bad usage or no repository sources; 3 build
failure; 4 the JVM failed or ran out of time.
"""
import argparse
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import build  # noqa: E402

WORKLOADS = ("alloc-twitter", "welfare-twitter", "cells-douban")
JVM_TIMEOUT_S = 165
# Same module opens that build.sbt gives Spark's test and run JVMs.
OPENS = ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
         "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
         "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar"]


def heap_mb() -> int:
    """A third of physical memory, between 2 and 6 GiB: the largest run
    (three Twitter graphs in set-up plus broadcasts) peaks near 2 GiB, and
    the machine may be shared.
    """
    total_kb = 0
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                total_kb = int(line.split()[1])
    return max(2048, min(6144, total_kb // 1024 // 3))


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return res.stdout.strip() or "unknown"


def reference_problems(workload: str, seed: int, welfare: dict) -> list:
    """Welfare must sit within a statistical band of the stored reference
    for the reference seed. The band allows for a different random stream
    with the same distribution: five combined standard errors plus 10% of
    the reference, which also absorbs a slightly different allocation.
    """
    ref = json.loads((HERE / "reference.json").read_text())
    cells = ref["workloads"].get(workload)
    if seed != ref["seed"] or not cells:
        return []
    out = []
    for label, r in cells.items():
        got = welfare.get(label)
        if got is None:
            out.append(f"reference cell {label} missing from the run")
            continue
        band = 5 * math.hypot(r["se"], got["se"]) + 0.10 * abs(r["mean"])
        if abs(got["mean"] - r["mean"]) > band:
            out.append(f"{label}: welfare {got['mean']:.1f} outside {r['mean']:.1f} +/- {band:.1f}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists() or not (ROOT / "src" / "main" / "scala").is_dir():
        print("wmbench: run from a checkout of the repository (BENCHMARK.json and src/main/scala)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    try:
        classes, source_sha = build.build(ROOT)
    except build.BuildError as e:
        print(f"wmbench: build failed: {e}", file=sys.stderr)
        return 3

    out = ROOT / ".bench_out" / "wmbench"
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    jars = build.spark_jars()
    cmd = [build.java(), f"-Xmx{heap_mb()}m", "-Xss8m", "-XX:-UsePerfData", "-XX:+IgnoreUnrecognizedVMOptions",
           f"-Djava.io.tmpdir={out / 'tmp'}", f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}"]
    cmd += [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS]
    cmd += ["-cp", os.pathsep.join([str(classes), str(jars / "*")]), "wmbench.Main",
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(out),
            "--git-sha", git_sha(), "--source-sha", source_sha]

    env = dict(os.environ, SPARK_LOCAL_DIRS=str(out / "spark-local"))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)

    def stop(*_):
        proc.kill()
        proc.wait()
        sys.exit(4)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        stdout, _ = proc.communicate(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"wmbench: JVM still running after {JVM_TIMEOUT_S}s, killed", file=sys.stderr)
        stop()
    result = None
    for line in stdout.splitlines():
        if line.startswith("wmbench result "):
            result = json.loads(line[len("wmbench result "):])
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        print(f"wmbench: JVM exited with {proc.returncode} and no result", file=sys.stderr)
        return 4

    problems = reference_problems(args.workload, args.seed, result["welfare"])
    for p in problems:
        print(f"wmbench reference check failed: {p}")
    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            print(f"wmbench: metric {m['name']} missing or malformed: {got}", file=sys.stderr)
            return 4
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({
        "correct": bool(result["correct"]) and not problems,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
