"""Benchmark for regenrepair: four seeded closed-loop workloads, one process each.

    python3 perfbench/run.py --workload pm-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 2

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs a
fixed number of cycles twice, untraced and then traced, and reports per-layer
self times and counts plus the tracing overhead; the spans are written to
perfbench/out/spans-<workload>.jsonl. `--workload all` runs every workload in
a fresh interpreter, one after the other.

Every end-to-end time is read from a clock that runs at a fixed reference
speed of the host (see reference.py), so that a host which slows down or
speeds up for a while does not move the figures. The table shows the host
speed readings.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A failed correctness check makes the exit code
1; the library is imported from src/ next to this directory and nowhere else.
"""

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("pm-sweep", "ia-sweep", "stripe-file", "design")

END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "request_ms_p50": "ms",
    "request_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
CALLS = [
    "gf.mat_solve",
    "gf.mat_det",
    "framework.coupling_solve",
    "pm.coupling_coefficient",
    "pm.repair_transfer",
    "tradeoff.min_cut_oracle",
]
SELF_MS = [
    "gf.mat_solve",
    "gf.mat_det",
    "gf.mat_inv",
    "gf.mat_mul",
    "gf.mat_vec",
    "gf.dot",
    "framework.coupling_solve",
    "framework.determinant",
    "pm.coupling_coefficient",
    "pm.assemble_multi",
    "ia.coupling_system",
    "ia.assemble_multi",
    *["%s.%s" % (fam, op) for op in ("encode", "repair_multi", "reconstruct") for fam in ("pm", "ia", "mds", "ambr")],
    "tradeoff.min_cut_oracle",
    "tradeoff.compare_strategies",
    "tradeoff.tradeoff_curve",
    "workbench.random_message",
    "workbench.search_assignment",
]
PER_LAYER = {
    **{name + ".calls": "count" for name in CALLS},
    **{name + ".self_ms": "ms" for name in SELF_MS},
    "gf.mul.calls": "count",
    "framework.coupling_unknowns.mean": "count",
    "framework.singular_share": "share",
    "tradeoff.compositions": "count",
    "trace.overhead_pct": "%",
}


def import_library():
    sys.path.insert(0, str(SRC))
    try:
        import regenrepair
    except ImportError as exc:
        sys.exit("perfbench: cannot import regenrepair from %s: %s" % (SRC, exc))
    if not Path(regenrepair.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit("perfbench: regenrepair was imported from %s, not %s" % (regenrepair.__file__, SRC))


def clear_library_caches():
    """Empty every functools cache in the library, so set-up starts cold."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "regenrepair":
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def timed_setup(wl, setups):
    from workloads import CLOCKS

    clear_library_caches()
    gc.collect()
    perf = CLOCKS[wl.setup_kernel]
    t0 = perf()
    wl.setup()
    setups.append(perf() - t0)


def closed_loop(wl, seconds=None, cycles=None, setups=None):
    """Send the workload's requests one at a time, whole cycles only, until
    the time is up or the cycle count is reached. Request seconds land in
    wl.cycles["request"], one summary per cycle.

    With `setups`, the set-up is repeated between cycles at evenly spaced
    times, so its median is not taken from one stretch of a noisy machine.
    """
    start = time.perf_counter()
    done = 0
    while True:
        for kind, request in wl.cycle(done):
            wl.request_id += 1
            with wl.tracer.request(kind, wl.request_id):
                took = request()
            wl.samples["request"].append(took)
            wl.requests.append(took)
        wl.close_cycle()
        done += 1
        elapsed = time.perf_counter() - start
        if done == cycles or (cycles is None and elapsed >= seconds):
            return
        if setups is not None and elapsed >= len(setups) * seconds / wl.setup_repeats:
            timed_setup(wl, setups)


def measure(wl, seconds):
    """End-to-end metrics, tracing off.

    Throughput is computed per cycle (every cycle holds the same mix) and
    the run reports the median over its cycles. The percentiles are over
    every request of the run, so that many requests lie beyond the 90th.
    Set-up is the median of repeats spread over the run. Times come from the reference clock, which
    takes out the host's changes of speed.
    """
    from workloads import CLOCKS, percentile

    clock = reference.Clock(wl.kernels)
    CLOCKS.update(clock.timers)
    with clock:
        setups = []
        timed_setup(wl, setups)
        wl.prepare()
        gc.collect()
        wall = time.perf_counter()
        closed_loop(wl, seconds=seconds, setups=setups)
        wall = time.perf_counter() - wall
        while len(setups) < wl.setup_repeats:
            timed_setup(wl, setups)
    wl.finish()
    cycles = wl.cycles["request"]
    values = {
        "setup_s": statistics.median(setups),
        "requests_per_s": statistics.median(n / total for n, total, _, _ in cycles),
        "request_ms_p50": percentile(wl.requests, 50) * 1e3,
        "request_ms_p90": percentile(wl.requests, 90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    pooled = "over %d requests" % len(wl.requests)
    notes = {
        "setup_s": "median of %d" % len(setups),
        "requests_per_s": "median over %d cycles of %d requests" % (len(cycles), cycles[0][0]),
        "request_ms_p50": pooled,
        "request_ms_p90": pooled,
    }
    rows = [(name, values[name], unit, notes.get(name, "")) for name, unit in END_TO_END.items()]
    for kernel in wl.kernels:
        speeds = clock.speeds(kernel)
        rows.append((
            "host_speed." + kernel, statistics.median(speeds), "x",
            "median of %d readings, quartiles %.2f..%.2f" % (len(speeds), *statistics.quantiles(speeds, n=4)[::2]),
        ))
    rows.append(("reference_share", clock.reference_s / wall, "share", "of the loop's wall time"))
    return values, rows + wl.report()


def trace(wl, seconds):
    """Per-layer metrics: the same cycles untraced, then traced."""
    from tracing import NullTracer, Tracer
    from workloads import compositions

    cycles = max(1, round(seconds * wl.trace_cycles_per_s))
    tracer = Tracer()
    clear_library_caches()
    with tracer:
        wl.tracer = tracer
        with tracer.request("setup", 0):
            wl.setup()
    wl.tracer = NullTracer()
    wl.prepare()
    gc.collect()
    closed_loop(wl, cycles=cycles)
    untraced = sum(c[1] for c in wl.cycles.pop("request"))
    gc.collect()
    with tracer:
        wl.tracer = tracer
        closed_loop(wl, cycles=cycles)
    wl.tracer = NullTracer()
    traced = sum(c[1] for c in wl.cycles["request"])
    wl.finish()

    times = tracer.self_times()
    values = {}
    for name in CALLS:
        values[name + ".calls"] = times.get(name, (0, 0.0))[0]
    for name in SELF_MS:
        values[name + ".self_ms"] = times.get(name, (0, 0.0))[1] * 1e3
    sizes = tracer.solve_sizes
    shapes = tracer.oracle_shapes
    values["gf.mul.calls"] = tracer.mul_calls
    values["framework.coupling_unknowns.mean"] = sum(sizes) / len(sizes) if sizes else 0
    values["framework.singular_share"] = tracer.singular_solves / len(sizes) if sizes else 0
    values["tradeoff.compositions"] = (
        sum(compositions(k, min(e, k)) for k, e in shapes) / len(shapes) if shapes else 0
    )
    values["trace.overhead_pct"] = (traced / untraced - 1) * 100
    tracer.write(HERE / "out" / ("spans-%s.jsonl" % wl.name))
    notes = {
        "trace.overhead_pct": "%d cycles, %.3f s traced vs %.3f s untraced" % (cycles, traced, untraced),
        "tradeoff.compositions": "mean per oracle query",
    }
    rows = [(name, values[name], unit, notes.get(name, "")) for name, unit in PER_LAYER.items()]
    return values, rows


def run_one(args):
    import_library()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    values, rows = (trace if args.trace else measure)(wl, args.seconds)
    units = PER_LAYER if args.trace else END_TO_END
    print("# %s seed=%d seconds=%g trace=%d" % (wl.name, args.seed, args.seconds, args.trace))
    for name, value, unit, note in rows:
        print("%-36s %16.6f %-6s %s" % (name, value, unit, note))
    print("%-36s %16.6f %-6s %d of %d operations" % ("failed_share", wl.failed / wl.attempted, "share", wl.failed, wl.attempted))
    for error in wl.errors:
        print("FAILED: " + error)
    result = {
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if wl.failed == 0 else 1


def run_all(args):
    """Each workload in a fresh single-threaded interpreter, in turn."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 and (not lines or not lines[-1].startswith("{")):
            return child.returncode or 1
        status = status or child.returncode
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"]["%s/%s" % (name, metric)] = value
    print(json.dumps(merged))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
