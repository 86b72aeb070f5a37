"""helmdual benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sweep-2d --seed 0 --seconds 55 --trace 0

Closed loop with one caller in one process and no threads: each pass starts
when the previous one has returned.  ``--trace 0`` measures the end-to-end
metrics for ``--seconds``: warm passes in this process, interleaved with cold
passes and set-ups in fresh interpreters.  ``--trace 1`` alternates untraced and traced
warm passes and reports the per-layer metrics.  Every pass's outputs are
checked against perfbench/references.json.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# before numpy is imported here or in a child: one BLAS thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP = ROOT / ".bench_tmp"

#: shares of --seconds spent on fresh-interpreter set-ups and on cold passes;
#: warm passes get the rest.  All three are interleaved over the whole run.
SETUP_SHARE = 0.10
COLD_SHARE = 0.30
#: every run ends within this, children included
RUN_DEADLINE_S = 170.0

NOT_MEASURED = (
    "The benchmark acts only on its own process and children, so it does not "
    "measure: sustained memory bandwidth (needs arrays >= 4x the L3 size, so "
    "no roofline ratio), hardware counters, CPU pinning, or page-cache "
    "control. FFT flops and bytes are computed from array sizes."
)

clock = time.perf_counter


class Run:
    """Tallies of one benchmark run."""

    def __init__(self, workload, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = clock() + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]

    def remaining(self) -> float:
        return self.deadline - clock()

    def child(self, mode: str) -> tuple[float, dict | None]:
        """Run child.py once: wall time seen from here and its JSON.

        A child that fails is recorded here as a failed attempt and gives None.
        """
        cmd = [sys.executable, str(HERE / "child.py"), mode, self.workload.name,
               str(self.seed), str(TMP)]
        start = clock()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            self.record(f"{mode} child", ["timed out"])
            return clock() - start, None
        wall = clock() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            self.record(f"{mode} child", [f"exit code {proc.returncode}"])
            return wall, None
        return wall, json.loads(proc.stdout.splitlines()[-1])

    def timed_pass(self, label: str) -> tuple[float, dict | None]:
        """One in-process pass: its wall time and outputs (None if it raised)."""
        start = clock()
        try:
            outputs = self.workload.run(self.seed, TMP)
        except Exception:
            wall = clock() - start
            traceback.print_exc()
            self.record(label, ["raised " + traceback.format_exc(limit=0).strip()])
            return wall, None
        wall = clock() - start
        self.record(label, self.workload.check(outputs))
        return wall, outputs

    def keep_going(self, started: float, last: float) -> bool:
        """Another pass of length ``last`` still ends within --seconds and the deadline."""
        now = clock()
        return now - started + last <= self.seconds and self.deadline - now > 2.0 * last


def end_to_end(run: Run) -> tuple[dict, dict]:
    """Warm passes in this process, interleaved with cold passes and set-ups
    in fresh interpreters, each kind given its share of --seconds."""
    setups, colds, rss, walls, cycles = [], [], [], [], []
    setup_used = cold_used = 0.0
    run.workload.setup(run.seed)  # warm-up: imports, FFT plans, grid caches
    started = clock()
    while True:
        cycle_start = clock()
        wall, _ = run.timed_pass("warm pass")
        walls.append(wall)
        if cold_used <= COLD_SHARE * (clock() - started):
            wall, out = run.child("pass")
            cold_used += wall
            if out is not None:
                run.record("cold pass", run.workload.check(out["outputs"]))
                colds.append(wall)
                rss.append(out["maxrss_kb"] / 1024.0)
        while setup_used <= SETUP_SHARE * (clock() - started) and run.remaining() > 10.0:
            wall, out = run.child("setup")
            setup_used += wall
            if out is not None:
                run.record("setup", [])
                setups.append(out["setup_s"])
        cycles.append(clock() - cycle_start)
        if not run.keep_going(started, max(cycles)):
            break

    metrics = {
        # fastest pass: contention from other tenants of the host only adds time
        "wall_s": min(walls),
        "cold_wall_s": min(colds) if colds else float("nan"),
        "setup_s": statistics.median(setups) if setups else float("nan"),
        "peak_rss_mb": statistics.median(rss) if rss else float("nan"),
    }
    detail = {"warm_walls_s": walls, "cold_walls_s": colds, "setups_s": setups,
              "peak_rss_mb": rss, "wall_median_s": statistics.median(walls),
              "cold_wall_median_s": statistics.median(colds) if colds else None,
              "wall_tail": tail(walls)}
    return metrics, detail


def per_layer(run: Run) -> tuple[dict, dict]:
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    run.workload.setup(run.seed)
    plain, traced, layers, identical = [], [], [], True
    started = clock()
    while True:
        wall, out_plain = run.timed_pass("untraced pass")
        plain.append(wall)
        tracer.reset()
        with tracer:
            wall, out_traced = run.timed_pass("traced pass")
        traced.append(wall)
        summary = tracer.summary()
        layers.append(layer_metrics(summary))
        identical = identical and out_plain is not None and out_plain == out_traced
        if not run.keep_going(started, plain[-1] + traced[-1]):
            break
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    functions = sorted((kv for kv in summary.self_time.items() if "." in kv[0]),
                       key=lambda kv: -kv[1])
    detail = {"untraced_walls_s": plain, "traced_walls_s": traced,
              "traced_outputs_bit_identical": identical,
              "seed_outcomes_last_pass": summary.seeds,
              "top_self_s_last_pass": dict(functions[:12])}
    return metrics, detail


def tail(walls: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it, if there is one."""
    n = len(walls)
    if n < 11:
        return None
    k = n - 11  # 0-based rank with n - 1 - k = 10 samples above it
    return {"percentile": 100.0 * k / (n - 1), "value_s": sorted(walls)[k], "samples": n}


def machine_facts() -> dict:
    import numpy

    libc = ctypes.CDLL(None)
    libc.sysconf.argtypes, libc.sysconf.restype = [ctypes.c_int], ctypes.c_long
    try:
        import numpy.fft._pocketfft_umath  # noqa: F401
        backend = "numpy.fft pocketfft C++ (single-threaded)"
    except ImportError:
        backend = "numpy.fft pocketfft C (single-threaded)"
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fft_backend": backend,
        # glibc _SC_LEVEL2_CACHE_SIZE / _SC_LEVEL3_CACHE_SIZE, read-only
        "l2_bytes": libc.sysconf(191),
        "l3_bytes": libc.sysconf(194),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json, or 'all' for each in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/helmdual/__init__.py", "configs/sweep.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        # one fresh process per workload, so no workload runs warm from another
        return max(subprocess.run([sys.executable, __file__, "--workload", w["name"],
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)]).returncode
                   for w in spec["workloads"])
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    TMP.mkdir(exist_ok=True)
    run = Run(workloads.WORKLOADS[args.workload], args.seed, args.seconds)
    load_before = os.getloadavg()
    if args.trace:
        values, detail = per_layer(run)
        declared = spec["per_layer"]
    else:
        values, detail = end_to_end(run)
        declared = spec["end_to_end"]
    load_after = os.getloadavg()
    try:
        TMP.rmdir()
    except OSError:
        pass

    metrics = {}
    for m in declared:
        value = values[m["name"]]
        # a metric that could not be measured (NaN) is printed as null
        metrics[m["name"]] = {"value": None if value != value else value, "unit": m["unit"]}
    correct = run.failed == 0 and all(v["value"] is not None for v in metrics.values())
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  inputs_depend_on_seed=workloads.inputs_depend_on_seed(),
                  machine=machine_facts(), loadavg_before=load_before,
                  loadavg_after=load_after, problems=run.problems,
                  not_measured=NOT_MEASURED)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']!r} {m['unit']}")
    print(f"  {'failed_frac':<36} {run.failed / max(run.attempted, 1)!r} 1"
          f"  ({run.failed} of {run.attempted})")
    if not args.trace:
        print(f"  {'wall_median_s':<36} {detail['wall_median_s']!r} s"
              f"  (of {len(detail['warm_walls_s'])} warm passes)")
        print(f"  {'cold_wall_median_s':<36} {detail['cold_wall_median_s']!r} s"
              f"  (of {len(detail['cold_walls_s'])} cold passes)")
        walls, t = detail["warm_walls_s"], detail["wall_tail"]
        print(f"  {'wall_tail_s':<36} " + (
            f"{t['value_s']!r} s  (p{t['percentile']:.0f} of {t['samples']} passes)" if t else
            f"n/a: {len(walls)} warm passes, none with ten samples beyond it"))
    for problem in run.problems:
        print(f"  FAILED {problem}")
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
