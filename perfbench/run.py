"""Benchmark launcher for riskquad.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Runs one workload in this process, in one thread and a closed loop, for a
number of rounds fixed by ``--seconds`` (see ``Workload.rounds_for``), and
prints the metrics named in BENCHMARK.json; the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
gives the end-to-end metrics; ``--trace 1`` replays a fixed number of rounds
untraced and then traced, and gives the per-layer metrics and the tracing
overhead.  ``--workload all`` runs every workload in its own process, both
ways, and prints one table.

The program is imported from ``src/`` of the checkout this file sits in;
without it the launcher exits with an error and prints no result.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# numpy links a multithreaded BLAS; pin it before numpy is first imported
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")
# set-ups per untraced run: the run's own and the rest in fresh processes
SETUP_REPEATS = 3
_T_LOADED = time.perf_counter()


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _process_age() -> float:
    """Seconds since this process started, interpreter start-up included.

    The start time comes from /proc in clock ticks; where that cannot be
    read, the age counts from when this file was loaded.
    """
    try:
        with open("/proc/self/stat") as fh:
            stat = fh.read()
        ticks = int(stat[stat.rindex(")") + 2 :].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T_LOADED


class OpResult:
    __slots__ = ("op", "start", "end", "seconds", "value", "error")

    def __init__(self, op, start, end, seconds, value, error):
        self.op = op
        self.start = start
        self.end = end
        self.seconds = seconds
        self.value = value
        self.error = error


def execute(plan, clock, rounds, tracer=None, speed=None):
    """Closed loop over ``rounds`` whole rounds of the plan.

    With an active ``speed`` sampler, its samples are taken out of the op
    times.  Returns the results and their op times summed.
    """
    results = []
    for r in range(rounds):
        for op in plan.rounds[r % len(plan.rounds)]:
            if tracer is not None:
                tracer.op = len(results)
            spent = speed.spent if speed is not None else 0.0
            t0 = clock()
            try:
                raw, error = op.run(), None
            except Exception as exc:  # a raising op is a failed op, not a crash
                raw, error = None, f"{type(exc).__name__}: {exc}"
            t1 = clock()
            seconds = t1 - t0 - (speed.spent - spent if speed is not None else 0.0)
            value = op.finish(raw) if error is None else None
            results.append(OpResult(op, t0, t1, seconds, value, error))
    return results, sum(res.seconds for res in results)


def check_all(results):
    """Run each op's oracle check; returns the failure reason per result."""
    reasons = []
    for res in results:
        if res.error is not None:
            reasons.append(res.error)
            continue
        try:
            reasons.append(res.op.check(res.value))
        except Exception as exc:  # a malformed output fails its op
            reasons.append(f"check raised {type(exc).__name__}: {exc}")
    return reasons


def _setup(wl, seed, workdir, clock):
    """Inputs, CSV files, quadrangles and one small warm-up op per op class."""
    import workloads

    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    plan = wl.build(seed, workdir)
    execute(workloads.Plan([plan.warmups], []), clock, 1)
    return plan


def _fresh_setup_seconds(args) -> float:
    """One more set-up, timed from the start of a fresh process and scaled
    by that process's spot host factor."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def run_one(args, bench) -> int:
    import numpy as np

    import hostspeed
    import tracing
    import workloads

    clock = time.perf_counter
    wl = workloads.WORKLOADS[args.workload]
    known = {(k["workload"], c) for k in _load_json(os.path.join(HERE, "known_failures.json")) for c in k["op_classes"]}
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{wl.name}-{os.getpid()}")
    try:
        # set-up: wall time from process start to the first timed op
        plan = _setup(wl, args.seed, workdir, clock)
        setups = [_process_age() * hostspeed.spot_factor(clock)]
        if args.setup_only:
            print(setups[0])
            return 0

        if args.trace:
            # raw wall times: a sampler would run inside the traced spans
            factor = 1.0
            n_rounds = wl.trace_rounds
            _, wall_plain = execute(plan, clock, n_rounds)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                plan = wl.build(args.seed, workdir)
                tracer.reset()
                results, wall = execute(plan, clock, n_rounds, tracer=tracer)
            finally:
                tracer.uninstall()
        else:
            n_rounds = wl.rounds_for(args.seconds)
            with hostspeed.HostSpeed(clock) as speed:
                results, wall = execute(plan, clock, n_rounds, speed=speed)
            # the peak of set-up and the timed ops, before the oracle runs
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            factor = speed.factor()
            for res in results:
                res.seconds *= speed.factor_over(res.start, res.end)
            wall = sum(res.seconds for res in results)
            setups += [_fresh_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]

        reasons = check_all(results)
        passed = [res.seconds for res, why in zip(results, reasons) if why is None]
        failures = {}
        for res, why in zip(results, reasons):
            if why is not None:
                failures.setdefault(res.op.cls, []).append(why)
        unexpected = [c for c in failures if (wl.name, c) not in known]

        # how each metric was measured, printed beside it
        how = {}
        if args.trace:
            metrics = tracer.layer_metrics()
            metrics["trace.overhead_frac"] = wall / wall_plain - 1.0
            os.makedirs(OUT, exist_ok=True)
            tracer.dump(os.path.join(OUT, f"trace-{wl.name}-seed{args.seed}.npz"))
            declared = bench["per_layer"]
        else:
            times = np.asarray(passed)
            metrics = {
                "ops_per_s": len(passed) / wall,
                "op_p50_ms": 1e3 * float(np.median(times)) if times.size else 0.0,
                "op_tail_ms": 1e3 * float(np.percentile(times, wl.tail_pct)) if times.size else 0.0,
                "ok_frac": len(passed) / len(results),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_mb,
            }
            for name in ("ops_per_s", "op_p50_ms", "op_tail_ms"):
                how[name] = f"each op at its own host factor; run factor {factor:.3f}"
            how["setup_s"] = "median of " + ", ".join(f"{s:.3f}" for s in setups) + ", each at its own host factor"
            declared = bench["end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        if set(units) != set(metrics):
            print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json", file=sys.stderr)
            return 2

        print(
            f"# {wl.name} seed={args.seed} trace={args.trace} rounds={n_rounds} ops={len(results)}"
            f" timed={wall:.3f}s scaled to the reference host speed; run factor {factor:.3f}"
        )
        lo, hi = hostspeed.FACTOR_RANGE
        if not args.trace and not lo <= factor <= hi:
            warning = (
                f"# HOST FACTOR OUT OF RANGE: {factor:.3f} is outside [{lo}, {hi}], the factors the bounds"
                " were derived on; the scaled times of this run may be off by more than the bounds, rerun it"
            )
            print(warning)
            print(warning[2:], file=sys.stderr)
        for cls, whys in sorted(failures.items()):
            tag = "known" if (wl.name, cls) in known else "UNEXPECTED"
            print(f"# failed {cls} x{len(whys)} [{tag}]: {whys[0]}")
        for name in units:
            print(f"# {name} = {metrics[name]:.6g} {units[name]}" + (f"  ({how[name]})" if name in how else ""))
        result = {
            "correct": not unexpected,
            "attempted": len(results),
            "failed": len(results) - len(passed),
            "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
        }
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args, bench) -> int:
    """Every workload in its own process, untraced then traced, as one table."""
    names = [w["name"] for w in bench["workloads"]]
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"error: workload {name} trace={trace} exited {proc.returncode}", file=sys.stderr)
                return 2
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            res = json.loads(lines[-1])
            merged["correct"] &= res["correct"]
            if not trace:
                merged["attempted"] += res["attempted"]
                merged["failed"] += res["failed"]
            for metric, val in res["metrics"].items():
                merged["metrics"][f"{name}.{metric}"] = val
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    bench = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one set-up in this fresh process, print its seconds and exit
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "riskquad", "__init__.py")):
        print(f"error: no riskquad sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args, bench)
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
