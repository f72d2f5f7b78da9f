#!/usr/bin/env python3
"""One layered benchmark for both substrates.

Driver form (one workload, one level, the result as the last line)::

    python3 perf/run.py --workload real-read-hot --seed 1 --seconds 16 --trace 0

By hand: every workload, untraced, plus the traced pass with ``--traced``::

    python3 perf/run.py [--seed N] [--workload NAME] [--traced] [--out FILE]
    python3 perf/run.py --smoke
    python3 perf/run.py --compare A.json B.json

``BENCHMARK.json`` at the root of the checkout is the metric dictionary:
names, units, directions and bounds are read from it, never repeated here.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The program under test is imported from the checkout's own src/.
sys.path.insert(1, os.path.join(ROOT, "src"))
try:
    import probes
    from stats import latency_summary, median, spread
    from tracing import (SpanRecorder, host_shares, new_profiler,
                         op_breakdown)
    from workloads import NAMES, REAL, run_workload
except ModuleNotFoundError as exc:
    sys.exit(f"perf/run.py: {exc}; run it from a checkout that has src/repro")

SMOKE_SIZE = 0.05
#: Indexed by ``--trace``.
LEVELS = ("end_to_end", "per_layer")


def load_benchmark() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _peak_rss_mb() -> float:
    """Largest resident set of this process and of any reaped child."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def _fill(bench: Dict, level: str, measured: Dict[str, float]) -> Dict:
    """``measured`` under exactly the names ``BENCHMARK.json`` lists for
    ``level``; a layer the workload does not use reads 0."""
    names = [row["name"] for row in bench[level]]
    unknown = sorted(set(measured) - set(names))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    return {name: float(measured.get(name, 0.0)) for name in names}


# -- the untraced pass: end-to-end metrics ----------------------------------


def measure_end_to_end(name: str, seed: int, seconds: float, size: float,
                       sections: int, bench: Dict) -> Dict:
    run = run_workload(name, seed, seconds, size, sections)
    samples = {
        "setup_s": run.setup_s,
        "ops_per_s": run.rates,
        "hit_rate": run.hit_rate,
        "peak_rss_mb": [_peak_rss_mb()],
        "slowness": run.slowness,
    }
    return {
        # Timings are for the quiet machine: each was divided by the
        # slowness measured beside it (see reference.py and workloads.py).
        "metrics": _fill(bench, "end_to_end", {
            "setup_s": median(run.setup_s),
            "ops_per_s": run.ops_per_s,
            "hit_rate": median(run.hit_rate),
            "peak_rss_mb": samples["peak_rss_mb"][0],
        }),
        "samples": samples,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "notes": [
            f"{name}: timings are divided by the machine's slowness, "
            f"median {median(run.slowness):.3f} (lowest "
            f"{min(run.slowness):.3f}, highest {max(run.slowness):.3f}) "
            f"over {len(run.slowness)} samples"
        ],
    }


# -- the traced pass: per-layer metrics -------------------------------------


def _rdma_verbs(counters: Dict[str, int]) -> int:
    return sum(v for k, v in counters.items() if k.startswith("rdma_"))


def _overhead(traced, dark) -> float:
    """Share of throughput a traced pass loses against the dark one; the
    reference loops run with the tracer off, so both rates are for the
    quiet machine."""
    return 1.0 - traced.ops_per_s / dark.ops_per_s


def _real_layers(name: str, seed: int, seconds: float, size: float,
                 rec, profiler) -> Dict:
    # The dark pass gets most of the time: its Set tail needs 1000 samples
    # at 5 % Sets.  Shares and overheads settle within a second.
    side_s = seconds * 0.08
    dark = run_workload(name, seed, seconds * 0.76, size, 1)
    armed = run_workload(name, seed, side_s, size, 1, armed=True)
    spans = run_workload(name, seed, side_s, size, 1, armed=True, rec=rec)
    profiled = run_workload(name, seed, side_s, size, 1, profiler=profiler)

    section = dark.detail["sections"][0]
    tally = section["tally"]
    ops = max(1, tally.attempted)
    gets = latency_summary(tally.get_us)
    sets = latency_summary(tally.set_us)
    counters = section["counters"]
    out = {
        "get_p50_us": gets["p50"], "get_p99_us": gets["tail"],
        "set_p50_us": sets["p50"], "set_p99_us": sets["tail"],
        "cpu_us_per_op": dark.cpu_us_per_op,
        "server.frames_per_op": section["frames"] / ops,
        "server.open_connections": section["connections"],
        "server.cpu_us_per_op": section["server_cpu_s"] * 1e6 / ops,
        "loadgen.cpu_us_per_op": section["loadgen_cpu_s"] * 1e6 / ops,
        "loadgen.destroyed_task_warnings": dark.detail["destroyed_tasks"],
        "client.bg_pending_at_window_end": median(
            [w["bg_pending"] for w in section["windows"]]),
        "client.verbs_per_op": _rdma_verbs(counters) / ops,
        "client.rpc_per_kop": counters.get("rdma_rpc", 0) * 1e3 / ops,
        "client.evictions_per_kop": section["evictions"] * 1e3 / ops,
        "obs.armed_overhead_frac": _overhead(armed, dark),
        "bench.trace_overhead_frac": _overhead(spans, dark),
    }

    traced = spans.detail["sections"][0]
    traced_ops = max(1, traced["tally"].attempted)
    retried = traced["cas_lost"] + sum(
        traced["counters"].get(key, 0)
        for key in ("fault_retry", "stale_epoch_retry", "conn_resend")
    )
    out["client.retries_per_kop"] = retried * 1e3 / traced_ops
    out.update(op_breakdown(rec.spans))
    for row in (traced["server_metrics"] or {}).get("histograms", []):
        if row["name"] == "verb.service_us":
            verb = row["labels"]["verb"]
            if verb in ("read", "write", "cas", "rpc"):
                out[f"server.{verb}_service_us_p50"] = row["p50"]
        elif row["name"] == "frame.bytes":
            out["server.frame_bytes_p50"] = row["p50"]

    out.update({f"host_share.{k}": v
                for k, v in host_shares(profiler).items()})
    out.update(probes.wire_probes())
    out.update(probes.runtime_probes())
    out.update(probes.journal_probe())
    out.update(probes.memory_probes())
    out.update(probes.workloads_probes(seed))

    runs = (dark, armed, spans, profiled)
    reads, self_us = out["client.reads_per_get"], out["core.self_us_per_get"]
    idle_read = ("endpoint.shm_read_us" if REAL[name].shm_reads
                 else "endpoint.read_rtt_us")
    notes = [
        f"{name}: get_p99_us is p{gets['tail_p']:g} of {gets['count']} "
        f"samples, set_p99_us is p{sets['tail_p']:g} of {sets['count']}",
        f"{name}: dark get_p50_us {gets['p50']:.1f} us; with {idle_read}, "
        f"client.reads_per_get x READ + core.self_us_per_get = "
        f"{reads * out[idle_read] + self_us:.1f} us",
        f"{name}: in the spans pass a Get took "
        f"{out['client.get_traced_us']:.1f} us = {reads:.2f} READs x "
        f"{out['client.read_wait_us']:.1f} us + {self_us:.1f} us of core "
        f"({reads * out['client.read_wait_us'] + self_us:.1f} us)",
    ]
    return {"metrics": out, "runs": runs, "notes": notes, "problems": []}


def _model_layers(name: str, seed: int, seconds: float, size: float,
                  rec, profiler) -> Dict:
    """Sim and cachesim workloads: a dark section, then a profiled one."""
    dark = run_workload(name, seed, seconds / 2.0, size, 1, rec=rec)
    profiled = run_workload(name, seed, seconds / 2.0, size, 1,
                            profiler=profiler)
    problems = []
    if dark.detail != profiled.detail:
        problems.append(f"{name}: profiling changed the simulated statistics")
    out = {"bench.trace_overhead_frac": _overhead(profiled, dark),
           "cpu_us_per_op": dark.cpu_us_per_op}
    out.update({f"host_share.{k}": v
                for k, v in host_shares(profiler).items()})
    out.update(probes.workloads_probes(seed))
    if name == "hitrate-replay":
        rates = dark.detail["hit_rates"]
        fixed = [v for k, v in rates.items()
                 if k.startswith("phase-switch/") and not k.endswith("/ditto")]
        out["hitrate.adaptive_margin"] = (
            rates["phase-switch/ditto"] - max(fixed))
        out.update(probes.cachesim_probes())
    else:
        stats = dark.detail["stats"]
        ops = max(1, stats["ops"])
        counters = stats["counters"]
        out.update({
            "sim_mops": stats["sim_mops"],
            "sim_p99_us": stats["sim_p99_us"],
            "client.verbs_per_op": _rdma_verbs(counters) / ops,
            "client.rpc_per_kop": counters.get("rdma_rpc", 0) * 1e3 / ops,
            "client.evictions_per_kop": stats["evictions"] * 1e3 / ops,
            "client.retries_per_kop": sum(
                counters.get(key, 0)
                for key in ("fault_retry", "stale_epoch_retry")
            ) * 1e3 / ops,
        })
        out.update(probes.sim_probes())
        out.update(probes.memory_probes())
    return {"metrics": out, "runs": (dark, profiled), "notes": [],
            "problems": problems}


def measure_per_layer(name: str, seed: int, seconds: float, size: float,
                      bench: Dict) -> Dict:
    rec, profiler = SpanRecorder(), new_profiler(cpu_time=name in REAL)
    layers = _real_layers if name in REAL else _model_layers
    found = layers(name, seed, seconds, size, rec, profiler)
    metrics = _fill(bench, "per_layer", found["metrics"])
    problems = list(found["problems"])
    for run in found["runs"]:
        problems.extend(run.problems)
    share = sum(v for k, v in metrics.items() if k.startswith("host_share."))
    if abs(share - 1.0) > 1e-6:
        problems.append(f"{name}: host_share.* sums to {share}, not 1")
    trace_path = os.path.join(HERE, "out", f"{name}.trace.json")
    rec.write_chrome_trace(trace_path)
    return {
        "metrics": metrics,
        # The rest read 0: layers this workload does not use.
        "measured": sorted(found["metrics"]),
        "attempted": sum(run.attempted for run in found["runs"]),
        "failed": sum(run.failed for run in found["runs"]),
        "problems": problems,
        "notes": found["notes"] + [f"{name}: trace written to {trace_path}"],
    }


# -- comparing two result files ---------------------------------------------


def compare(path_a: str, path_b: str, bench: Dict) -> int:
    """One row per (workload, end-to-end metric); then the per-layer rows
    that moved most.  Returns 1 if any row reads ``worse``."""
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    if not (a.get("comparable") and b.get("comparable")):
        print("note: a smoke result is not comparable; verdicts are void")
    worse = 0
    print(f"{'workload':18s} {'metric':16s} {'A':>14s} {'B':>14s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    for name in a["workloads"]:
        left = a["workloads"][name].get("end_to_end")
        right = b["workloads"].get(name, {}).get("end_to_end")
        if not left or not right:
            continue
        for row in bench["end_to_end"]:
            metric, bound = row["name"], row["bound"]
            va, vb = left["metrics"][metric], right["metrics"][metric]
            change = (vb - va) / va if va else 0.0
            gain = change if row["better"] == "higher" else -change
            noise = max(spread(left["samples"][metric]),
                        spread(right["samples"][metric]))
            if noise > bound:
                verdict = f"unresolved (spread {noise:.1%} > bound)"
            elif gain < -bound:
                verdict, worse = "worse", worse + 1
            elif gain > bound:
                verdict = "better"
            else:
                verdict = "unchanged"
            print(f"{name:18s} {metric:16s} {va:14.4f} {vb:14.4f} "
                  f"{change:+8.1%} {bound:6.3f}  {verdict}")
    moved = []
    for name in a["workloads"]:
        left = a["workloads"][name].get("per_layer")
        right = b["workloads"].get(name, {}).get("per_layer")
        if not left or not right:
            continue
        for metric, va in left["metrics"].items():
            vb = right["metrics"].get(metric, 0.0)
            if va and vb:
                moved.append((abs(vb - va) / abs(va), name, metric, va, vb))
    if moved:
        print("\nper-layer rows that moved most:")
        for _size, name, metric, va, vb in sorted(moved, reverse=True)[:12]:
            print(f"  {name:18s} {metric:34s} {(vb - va) / va:+8.1%}  "
                  f"({va:.4g} -> {vb:.4g})")
    return 1 if worse else 0


# -- command line -----------------------------------------------------------


def _print_level(name: str, level: str, result: Dict, bench: Dict,
                 comparable: bool) -> None:
    units = {row["name"]: row["unit"] for row in bench[level]}
    mark = "" if comparable else "  (smoke: not comparable)"
    for metric, value in result["metrics"].items():
        print(f"{name:18s} {metric:34s} {value:16.4f} {units[metric]}{mark}")
    print(f"{name:18s} {'attempted / failed':34s} "
          f"{result['attempted']:>9d} / {result['failed']}")
    for note in result.get("notes", []):
        print(f"note: {note}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)


def _run_in_child(args, name: str, level: str, seconds: float) -> Dict:
    """Run one (workload, level) job as its own ``run.py`` process, let its
    table through and return its part of the result file."""
    part = os.path.join(HERE, "out", f".part-{name}-{level}.json")
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--trace", str(LEVELS.index(level)), "--seed", str(args.seed),
        "--seconds", repr(seconds), "--out", part, "--worker",
    ] + (["--smoke"] if args.smoke else [])
    child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    print("\n".join(child.stdout.splitlines()[:-1]))  # not the result line
    try:
        with open(part, encoding="utf-8") as fh:
            return json.load(fh)["workloads"][name][level]
    except FileNotFoundError:
        return {"metrics": {}, "attempted": 0, "failed": 0,
                "problems": [f"{name}: run.py exited {child.returncode}"]}
    finally:
        if os.path.exists(part):
            os.remove(part)


PR_SET_CHILD_SUBREAPER = 36
#: Seconds the processes a worker leaves behind get to end by themselves.
REAP_GRACE_S = 10.0


def _reap_all(deadline: float) -> bool:
    """Wait for every child of this process; False if some outlive
    ``deadline``."""
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        if pid == 0:
            if time.monotonic() > deadline:
                return False
            time.sleep(0.005)


def supervise(argv: List[str]) -> int:
    """Run ``run.py --worker argv`` and return only once every process it
    started has ended, on every way out.

    The worker leads its own session, so the memory nodes and the
    ``multiprocessing`` resource trackers (one per node and, under
    ``shm_reads``, one of the loadgen's own, which outlives the loadgen by
    a moment) can be signalled as one group; this process adopts the ones
    that lose their parent, so they can be waited for.  Anything still
    running a grace period after the worker is stopped and fails the run.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")

    def interrupted(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, interrupted)
    worker = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--worker", *argv],
        start_new_session=True,
    )
    clean = False
    try:
        code = worker.wait()
        clean = _reap_all(time.monotonic() + REAP_GRACE_S)
    finally:
        if not clean:
            # SIGTERM first: a memory node unlinks its segment on the way.
            for signum in (signal.SIGTERM, signal.SIGKILL):
                try:
                    os.killpg(worker.pid, signum)
                except ProcessLookupError:
                    break
                if _reap_all(time.monotonic() + REAP_GRACE_S):
                    break
    if not clean:
        print("CHECK FAILED: processes were still running after the run "
              "and had to be killed", file=sys.stderr)
    return code if clean else code or 1


def pin_to_one_cpu() -> None:
    """Keep this process and everything it starts on one CPU.

    With the loadgen and the memory node free to move, the kernel sometimes
    stacks the two on one CPU and sometimes spreads them; ``real-read-hot``
    then runs at 3.6 k or at 4.8 k ops/s for minutes at a time.  On one CPU
    the pair takes turns, nothing waits for another CPU to wake up, and
    ``ops_per_s`` is operations per second of one core.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver form: run only this level and print "
                             "the result object as the last line")
    parser.add_argument("--traced", action="store_true",
                        help="also run the traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help="all six workloads at 1/20 size, every check on")
    parser.add_argument("--out", help="write the result file here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)

    bench = load_benchmark()
    if args.compare:
        return compare(*args.compare, bench)
    if args.trace is not None and not args.workload:
        parser.error("--trace needs --workload")
    if args.workload and args.workload not in NAMES:
        parser.error(f"unknown workload; choose from {', '.join(NAMES)}")
    if not args.worker:
        return supervise(argv)
    pin_to_one_cpu()
    names = [args.workload] if args.workload else list(NAMES)
    size = SMOKE_SIZE if args.smoke else 1.0
    seconds = args.seconds or bench["run_seconds"] * size
    levels = ([LEVELS[args.trace]] if args.trace is not None
              else list(LEVELS) if args.traced else [LEVELS[0]])

    report = {"seed": args.seed, "seconds": seconds,
              "comparable": not args.smoke, "workloads": {}}
    jobs = [(name, level) for name in names for level in levels]
    result: Dict = {}
    correct = True
    for name, level in jobs:
        if len(jobs) > 1:
            # One process per workload and level, as the driver runs them:
            # peak memory and interpreter state do not leak between jobs.
            result = _run_in_child(args, name, level, seconds)
        elif level == "end_to_end":
            # Smoke keeps one repeat of each seeded section so the
            # identical-statistics check still has a pair to compare.
            sections = 3 if not args.smoke else 1 if name in REAL else 2
            result = measure_end_to_end(
                name, args.seed, seconds, size, sections, bench)
            _print_level(name, level, result, bench, not args.smoke)
        else:
            result = measure_per_layer(name, args.seed, seconds, size, bench)
            _print_level(name, level, result, bench, not args.smoke)
        correct = correct and not result["problems"]
        report["workloads"].setdefault(name, {})[level] = result

    out_path = args.out or os.path.join(HERE, "out", "result.json")
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    if args.trace is not None:
        units = {row["name"]: row["unit"] for row in bench[levels[0]]}
        print(json.dumps({
            "correct": correct,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                metric: {"value": value, "unit": units[metric]}
                for metric, value in result["metrics"].items()
            },
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
