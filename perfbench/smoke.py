#!/usr/bin/env python3
"""Smoke test of the benchmark itself; run from the repository root:

    python3 perfbench/smoke.py

Runs every workload at tiny size, untraced and traced, and checks that:
  * each run exits 0 and ends with the result line {correct, attempted,
    failed, metrics}, correct and with no failure;
  * the untraced run emits exactly BENCHMARK.json's end_to_end metrics and
    the traced run exactly its per_layer metrics, each with its unit;
  * the run record holds the seed, the machine, the report SHA-256s and the
    full per-layer table, every metric of which has its unit;
  * the untraced and the traced run of one seed write byte-identical reports;
  * in a directory holding only BENCHMARK.json and perfbench/ the benchmark
    exits non-zero without printing a result.
Prints one line per workload with every end-to-end metric and fail_frac.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER, RECORD_ONLY_LAYER, SPEC  # noqa: E402

RUN_TIMEOUT_S = 300


def run(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=RUN_TIMEOUT_S)


def main() -> int:
    problems = []

    def check(ok: bool, what: str):
        if not ok:
            problems.append(what)

    units = {**END_TO_END, **PER_LAYER}
    table_units = {**PER_LAYER, **RECORD_ONLY_LAYER}

    for wl in SPEC["workloads"]:
        name, shown, hashes = wl["name"], {}, []
        for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
            done = run(ROOT, "--workload", name, "--seed", "7", "--seconds", "1",
                       "--trace", str(trace), "--size", "tiny")
            tag = f"{name} trace={trace}"
            if done.returncode != 0:
                problems.append(f"{tag}: exit {done.returncode}\n{done.stdout[-3000:]}{done.stderr[-3000:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{tag}: not correct")
            metrics = result["metrics"]
            check(list(metrics) == list(expected), f"{tag}: metric names {sorted(metrics)}")
            for key, m in metrics.items():
                check(m.get("unit") == units.get(key), f"{tag}: {key} unit {m.get('unit')}")
                check(isinstance(m.get("value"), (int, float)), f"{tag}: {key} is not a number")
            record = json.loads((HERE / "out" / f"{name}-seed7-trace{trace}.json").read_text())
            check(record["seed"] == 7 and record["machine"]["nproc"] >= 1, f"{tag}: record")
            check(len(record["report_sha256"]) >= 1, f"{tag}: no report hashes")
            hashes.append(record["report_sha256"])
            if trace:
                table = record["per_layer"]
                check({k: m["unit"] for k, m in table.items()} == table_units,
                      f"{tag}: per-layer table names or units")
                check(len(record["spans"]) > 0, f"{tag}: no spans")
            else:
                shown = {k: m["value"] for k, m in metrics.items()}
                shown["fail_frac"] = record["fail_frac"]
        check(len(hashes) == 2 and hashes[0] == hashes[1],
              f"{name}: the two runs of seed 7 wrote different reports")
        print(f"{name}: " + ", ".join(f"{k} = {v:.6g} {units.get(k, 'ratio')}"
                                      for k, v in shown.items()))

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = run(bare, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
               "--seconds", "1", "--trace", "0")
    check(done.returncode != 0 and '"metrics"' not in done.stdout,
          f"without the sources: exit {done.returncode}, stdout {done.stdout[-500:]!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for msg in problems:
        print(f"SMOKE FAILED: {msg}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
