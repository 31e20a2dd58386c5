#!/usr/bin/env python3
"""solispec benchmark: one workload, one seed, one measured run.

Run from the repository root (solispec is imported from ./src):

    python3 perfbench/run.py --workload scan-families --seed 1 --seconds 10 --trace 0

Workloads: scan-families, control-well, profiles, scan-parallel (see
BENCHMARK.json for why each exists and workloads.py for what it runs). A
run sets the workload up several times and checks the ground states; after
each set-up it cycles the job's units (one family's scan, one profile, ...)
back to back for its share of --seconds of job time, and it checks every
output. `import solispec`, timed in a fresh interpreter once per set-up,
counts toward set-up. Every reported time is scaled to a fixed host speed
by a reference computation run between the timed steps (see reference_s).
--trace 0 reports the end-to-end metrics; --trace 1 runs every unit
untraced and then traced, probes each layer at the job's energies and
reports the per-layer metrics, with the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The full record (machine, seed, inputs,
timings, per-layer table, report SHA-256s and, when traced, every span) is
written to perfbench/out/. Any failed check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

# One BLAS thread on every workload keeps workers x BLAS threads <= nproc, and
# single-worker timings then do not depend on whether a second core is free.
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Timed steps are scaled to the speed at which reference_s() takes REF_S; see
# reference_s. REF_S is about its time on an idle 2-vCPU cloud VM.
REF_S = 0.12

# BENCHMARK.json is the one place that names the metrics, their units and why
# each workload exists.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
# per-layer metrics that only the record's table holds: the ones some
# workloads do not measure (null there) and the checks' maxima
RECORD_ONLY_LAYER = {
    "ground_state.solve_s": "s", "ground_state.first_integral_max": "abs",
    "ground_state.oracle_err": "abs",
    "nonlinearity.eval_s": "s",
    "linearized_operator.eig_s": "s", "linearized_operator.eig_n": "count",
    "certificate.control_s": "s", "certificate.control_scan_s": "s",
    "certificate.control_lam_err": "abs",
    "certificate.parallel_speedup": "ratio", "certificate.shipped_bytes": "bytes",
    "inversion.fixed_point_s": "s", "inversion.residual_max": "abs",
    "trace.overhead_s": "s",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the smoke test's inputs")
    return ap.parse_args(argv)


def import_solispec():
    """Import solispec from this checkout's src/, never from anywhere else."""
    if not (SRC / "solispec" / "__init__.py").is_file():
        sys.exit(f"perfbench: no solispec sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import solispec
    if Path(solispec.__file__).resolve().parent != SRC / "solispec":
        sys.exit(f"perfbench: imported solispec from {solispec.__file__}, not from {SRC}")
    return solispec


def child_import_s() -> float:
    """`import solispec` timed inside a fresh interpreter, as every CLI run pays it."""
    code = ("import time; t = time.perf_counter(); import solispec; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def machine_record(nproc: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": nproc, "cpu_count": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "blas_threads": BLAS_THREADS,
            "thread_env": {v: os.environ.get(v) for v in BLAS_VARS},
            "loadavg_at_start": list(os.getloadavg())}


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus, with a worker pool, of its workers.

    RUSAGE_CHILDREN gives the largest peak among reaped children; the workers
    do the same work, so workers times that peak stands for their sum. Read it
    before any other child (the import probes) has been reaped.
    """
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers > 1:
        kb += workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def reference_s() -> float:
    """Time of a fixed computation that solispec does not own.

    The speed of a shared host drifts, by up to 2x over tens of seconds on a
    2-vCPU cloud VM, and across runs more than any in-run median can absorb.
    The harness runs this reference after each set-up and each unit, and
    scales every time it reports by REF_S over the run's mean reference time.
    The reference is the kind of work a jost sweep does (a DOP853 solve with
    a Python right-hand side through scipy's solve_ivp); a change to solispec
    leaves it as it is.
    """
    from scipy.integrate import solve_ivp

    def rhs(x, y):
        a = 2.0 / math.cosh(x) ** 2
        return (y[2], y[3], -(2.0 + a) * y[0] - 0.5 * a * y[1],
                -(1.0 + a) * y[1] - 0.5 * a * y[0])
    t0 = time.perf_counter()
    solve_ivp(rhs, (-120.0, 120.0), [1.0, 0.0, 0.0, 1.0], method="DOP853",
              rtol=1e-12, atol=1e-14)
    return time.perf_counter() - t0


def pass_time(walls: dict) -> float:
    """Time of one pass of the job: the sum over its units of each unit's mean time.

    A run holds only a few samples of each unit, and the host's speed jitters
    from one to the next; with so few, the mean varied less from run to run
    than the median did (IQR over median 0.07 against 0.12 on scan-families,
    ten seeds). Stalls outside the units (collection, the reference) are
    untimed.
    """
    return sum(statistics.mean(v) for v in walls.values())


def per_pass_total(tr, names, traced: dict) -> float | None:
    """Per-pass time in spans with these names: per unit, the median over its
    traced samples of the summed span durations; summed over the units."""
    totals = {key: 0.0 for keys in traced.values() for key in keys}
    found = set()
    for s in tr.spans:
        if s["name"] in names and s["unit"] in totals:
            totals[s["unit"]] += s["end"] - s["start"]
            found.add(s["unit"].rsplit("#", 1)[0])
    if not found:
        return None
    return sum(statistics.median(totals[key] for key in traced[u]) for u in found)


def layer_table(tr, layer: dict, traced: dict, one_pass, setup_reps: int) -> dict:
    from spans import median, percentile
    d = tr.durations
    t = {}
    solves = d("ground_state.solve_ground_state", under="bench.setup")
    t["ground_state.solve_s"] = median(solves)
    t["ground_state.solves"] = len(solves) // setup_reps
    t["ground_state.first_integral_max"] = layer.get("ground_state.first_integral_max")
    t["ground_state.oracle_err"] = layer.get("ground_state.oracle_err")
    t["nonlinearity.eval_s"] = median(d("nonlinearity.eval"))
    t["linearized_operator.potential_s"] = median(d("linearized_operator.potential"))
    t["linearized_operator.eig_s"] = median(
        d("linearized_operator.discrete_eigenvalues", under="bench.unit"))
    t["linearized_operator.eig_n"] = layer.get("linearized_operator.eig_n")
    t["linearized_operator.eig_pairs"] = one_pass.eig_pairs

    sweeps = d("jost.decaying_solution", under="bench.probe")
    fits = d("jost.fit", under="bench.probe")
    t["jost.sweep_p50_s"] = median(sweeps)
    t["jost.sweep_p95_s"] = percentile(sweeps, 95)
    t["jost.sweeps"] = len(sweeps)
    t["jost.fit_s"] = median(fits)
    for key in ("jost.residual_max", "jost.asym_dev_max", "jost.fit_cond_max"):
        t[key] = layer.get(key)

    t["certificate.certificates"] = one_pass.certificates
    serial = layer.get("certificate.serial_scan_s")
    scan_s = serial or per_pass_total(
        tr, ("certificate.scan_embedded", "certificate.control_scan"), traced)
    t["certificate.scan_s"] = scan_s
    # every probe runs at scan energies, so their sum is the scans' sweep and fit time
    t["certificate.scan_self_s"] = scan_s - sum(sweeps) - sum(fits) if scan_s else None
    t["certificate.control_s"] = median(d("certificate.negative_control", under="bench.unit"))
    t["certificate.control_scan_s"] = per_pass_total(tr, ("certificate.control_scan",), traced)
    t["certificate.control_lam_err"] = one_pass.control_lam_err
    t["certificate.report_s"] = per_pass_total(
        tr, ("certificate.to_json", "certificate.csv_rows"), traced)
    t["certificate.report_bytes"] = one_pass.report_bytes
    t["certificate.parallel_speedup"] = (
        serial / per_pass_total(tr, ("certificate.scan_embedded",), traced) if serial else None)
    t["certificate.shipped_bytes"] = layer.get("certificate.shipped_bytes")

    t["inversion.fixed_point_s"] = median(
        d("inversion.fixed_point_residual", under="bench.unit"))
    fp = one_pass.fixed_point_residuals
    t["inversion.residual_max"] = max(fp) if fp else None
    t["inversion.checks"] = len(fp)
    return t


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:                       # before numpy loads its BLAS
        os.environ[var] = str(BLAS_THREADS)
    import_solispec()
    sys.path.insert(0, str(HERE))
    import numpy as np
    from spans import Tracer
    from workloads import SIZES, WORKLOADS, Checks, JobOut

    machine = machine_record(nproc)
    rng = np.random.default_rng(args.seed)
    workers = WORKLOADS[args.workload].workers or nproc
    wl = WORKLOADS[args.workload](SIZES[args.size], rng, workers)
    chk, layer, tr = Checks(), {}, Tracer()
    tr.enabled = bool(args.trace)

    # per unit name: untraced and traced wall times, traced sample keys, last output
    walls, traced_walls, traced, last = {}, {}, {}, {}
    inproc_setup_s, margins, refs = [], [], []
    hashes: dict[str, str] = {}
    job_time = 0.0

    def after_step():
        """Untimed, after every timed step: collect garbage and run the reference.

        Without the collection, peak RSS grows with however much cyclic garbage
        the collector has left, that is with the number of units a run fits.
        """
        gc.collect()
        refs.append(reference_s())

    def run_unit(name: str, unit, traced_run: bool):
        nonlocal job_time
        key = f"{name}#{sum(map(len, walls.values())) + sum(map(len, traced_walls.values()))}"
        tr.enabled, tr.unit = traced_run, key
        with tr.span("bench.unit"):
            t0 = time.perf_counter()
            out = unit(tr, chk)
            wall = time.perf_counter() - t0
        tr.enabled, tr.unit = bool(args.trace), None
        job_time += wall
        after_step()
        for report, text in out.reports.items():
            digest = hashlib.sha256(text.encode()).hexdigest()
            if report in hashes:
                chk.expect(hashes[report] == digest, f"report {report} changed between jobs")
            hashes[report] = digest
        (traced_walls if traced_run else walls).setdefault(name, []).append(wall)
        if traced_run:
            traced.setdefault(name, []).append(key)
        margins.extend(out.margins)
        last[name] = out

    # The job runs as short units, cycled, so a run holds many samples of each;
    # each set-up is followed by its share of the work phase, so the samples
    # spread over the whole run.
    cycled = 0
    for k in range(1, wl.setup_reps + 1):
        state = units = None            # one set-up alive at a time, so peak RSS sees one
        gc.collect()
        with tr.span("bench.setup"):
            t0 = time.perf_counter()
            state = wl.setup(tr)
            inproc_setup_s.append(time.perf_counter() - t0)
        after_step()
        wl.check_setup(state, chk, layer)
        units = wl.units(state)
        names = list(units)
        while True:
            name = names[cycled % len(names)]
            cycled += 1
            run_unit(name, units[name], traced_run=False)
            if args.trace:
                run_unit(name, units[name], traced_run=True)
            if (job_time >= args.seconds * k / wl.setup_reps
                    and (k < wl.setup_reps or cycled >= len(names))):
                break
    # before the import probes below are reaped as children
    peak_rss = peak_rss_mb(workers)
    # `import solispec` timed in a fresh interpreter, once per set-up
    import_s = []
    for _ in inproc_setup_s:
        import_s.append(child_import_s())
        after_step()
    scale = REF_S / statistics.mean(refs)
    setup_s = [(a + b) * scale for a, b in zip(inproc_setup_s, import_s)]

    one_pass = JobOut()
    for name in names:
        one_pass.merge(last[name])
    record = {"workload": wl.name, "why": WHY[wl.name], "seed": args.seed, "size": args.size,
              "seconds": args.seconds, "trace": args.trace, "machine": machine,
              "inputs": wl.inputs, "reference_s": refs, "scale": scale,
              "setup_s": setup_s, "inproc_setup_wall_s": inproc_setup_s,
              "import_wall_s": import_s, "unit_wall_s": walls,
              "traced_unit_wall_s": traced_walls,
              "certificates_per_pass": one_pass.certificates, "report_sha256": hashes}
    if args.trace:
        tr.enabled = True
        with tr.span("bench.probe"):
            wl.probe(tr, state, layer, chk, one_pass)
        table = layer_table(tr, layer, traced, one_pass, len(setup_s))
        table["trace.overhead_s"] = (pass_time(traced_walls) - pass_time(walls)) * scale
        metrics = {k: {"value": table[k], "unit": u} for k, u in PER_LAYER.items()}
        record["per_layer"] = {k: {"value": table[k], "unit": u}
                               for k, u in {**PER_LAYER, **RECORD_ONLY_LAYER}.items()}
        record["layer_self_s"] = tr.layer_self_times()
        job_self = tr.layer_self_times(under="bench.unit")
        record["job_layer_share"] = {k: v / sum(job_self.values()) for k, v in job_self.items()}
        record["spans"] = tr.spans
    else:
        wall = pass_time(walls) * scale
        values = {"setup_s": statistics.median(setup_s), "wall_s": wall,
                  "energies_per_s": one_pass.certificates / wall,
                  "peak_rss_mb": peak_rss,
                  # no margin only when every scan raised, which the checks count as failed
                  "min_margin": min(margins, default=0.0)}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    failed = len(chk.failures)
    record.update(attempted=chk.attempted, failed=failed, fail_frac=failed / chk.attempted,
                  failures=chk.failures[:50], metrics=metrics)

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=float) + "\n", encoding="utf-8")

    samples = sum(map(len, walls.values()))
    print(f"perfbench {wl.name} seed={args.seed} size={args.size} trace={args.trace} "
          f"nproc={nproc} workers={workers} blas_threads={BLAS_THREADS}")
    print(f"  units: {', '.join(names)}; {samples} untraced and "
          f"{sum(map(len, traced_walls.values()))} traced unit runs; set-ups: {len(setup_s)}; "
          f"record: {out_path.relative_to(ROOT)}")
    for name, m in (record.get("per_layer") or metrics).items():
        shown = "not run on this workload" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name} = {shown} {m['unit'] if m['value'] is not None else ''}".rstrip())
    print(f"  times scaled by {scale:.6g}: REF_S {REF_S} s over the mean of "
          f"{len(refs)} reference runs; one pass unscaled: {pass_time(walls):.6g} s")
    if args.trace:
        print("  job self time by layer: " + ", ".join(
            f"{k} {v:.1%}" for k, v in sorted(record["job_layer_share"].items(),
                                              key=lambda kv: -kv[1])))
    print(f"  fail_frac = {record['fail_frac']:.6g} ratio ({failed} failed of "
          f"{chk.attempted} checked operations)")
    if not args.trace and one_pass.control_lam_err is not None:
        print(f"  control_lam_err = {one_pass.control_lam_err:.6g} abs")
    print("  report sha256: " + ", ".join(f"{k}={v[:16]}" for k, v in sorted(hashes.items())))
    for msg in chk.failures[:10]:
        print(f"  FAILED: {msg}")
    print(json.dumps({"correct": failed == 0, "attempted": chk.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
