"""Run every paper experiment and print all tables.

Usage::

    python -m repro.bench.run_all                   # one worker, no cache
    python -m repro.bench.run_all -j 4              # 4 worker processes + cache
    python -m repro.bench.run_all -j 4 --no-cache   # parallel, always simulate
    python -m repro.bench.run_all --clear-cache     # drop cached results
    REPRO_SCALE=full python -m repro.bench.run_all
    python -m repro.bench.run_all fig14 fig24       # a subset

Every run goes through :class:`~repro.bench.parallel.ParallelRunner`.
Without ``-j`` it has one worker, runs each experiment in this process and
uses no cache.  With ``-j`` the experiments fan out over a process pool
and completed runs are memoized in an on-disk result cache
(``.bench_cache/`` by default, or ``REPRO_CACHE_DIR``), so a re-run of an
unchanged grid replays instantly.  Either way each table prints as soon as
its experiment and every earlier one are done, in submission order, so
the output is byte-identical across modes.  Harness lines start with
``[``; ``grep -v '^\\['`` leaves the tables and the ``scale:`` line.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    extra_controller_failover,
    extra_elasticity_churn,
    extra_failover_timeline,
    extra_fault_recovery,
    extra_history_size,
    extra_sample_size,
    fig01_redis_elasticity,
    fig02_caching_structure_cost,
    fig03_client_mix,
    fig04_cache_size,
    fig05_concurrency_effects,
    fig13_ditto_elasticity,
    fig14_ycsb_scaling,
    fig15_mn_cpu_cores,
    fig16_real_world_tput,
    fig17_real_world_hitrate,
    fig18_corpus_boxplot,
    fig19_changing_workload,
    fig20_compute_mix,
    fig21_client_scaling,
    fig22_memory_scaling,
    fig23_twelve_algorithms,
    fig24_ablation,
    fig25_fc_cache_size,
    tab02_workload_catalog,
)
from .parallel import ExperimentJob, ParallelRunner, ResultCache
from .scale import scale_name

EXPERIMENTS = {
    "fig01": fig01_redis_elasticity,
    "fig02": fig02_caching_structure_cost,
    "fig03": fig03_client_mix,
    "fig04": fig04_cache_size,
    "fig05": fig05_concurrency_effects,
    "fig13": fig13_ditto_elasticity,
    "fig14": fig14_ycsb_scaling,
    "fig15": fig15_mn_cpu_cores,
    "fig16": fig16_real_world_tput,
    "fig17": fig17_real_world_hitrate,
    "fig18": fig18_corpus_boxplot,
    "fig19": fig19_changing_workload,
    "fig20": fig20_compute_mix,
    "fig21": fig21_client_scaling,
    "fig22": fig22_memory_scaling,
    "fig23": fig23_twelve_algorithms,
    "fig24": fig24_ablation,
    "fig25": fig25_fc_cache_size,
    "tab02": tab02_workload_catalog,
    "extra-samples": extra_sample_size,
    "extra-history": extra_history_size,
    "extra-faults": extra_fault_recovery,
    "extra-elasticity-churn": extra_elasticity_churn,
    "extra-controller-failover": extra_controller_failover,
    "extra-failover-timeline": extra_failover_timeline,
}


def _parse(argv):
    parser = argparse.ArgumentParser(
        prog="repro.bench.run_all", add_help=True, allow_abbrev=False
    )
    parser.add_argument("names", nargs="*", help="experiments to run (default: all)")
    parser.add_argument(
        "-j",
        "--parallel",
        type=int,
        default=None,
        metavar="N",
        help="fan experiments out over N worker processes (with result cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="with -j: always simulate, never read or write cached results",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache directory (default .bench_cache or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--clear-cache",
        action="store_true",
        help="delete all cached results and exit",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const=".traces",
        default=None,
        metavar="DIR",
        help="capture a Chrome trace + metrics snapshot per experiment "
        "into DIR (default .traces); open *.trace.json in chrome://tracing",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv if argv is not None else sys.argv[1:])
    if args.clear_cache:
        removed = ResultCache(args.cache_dir).clear()
        print(f"cleared {removed} cached results")
        return 0
    if args.parallel is not None and args.parallel < 1:
        print("error: -j/--parallel requires a positive worker count")
        return 2
    names = args.names or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; available: {sorted(EXPERIMENTS)}")
        return 2
    print(f"scale: {scale_name()}")
    runner = ParallelRunner(
        workers=args.parallel or 1,
        cache_dir=args.cache_dir,
        use_cache=args.parallel is not None and not args.no_cache,
        trace_dir=args.trace,
    )
    jobs = [
        ExperimentJob(experiment=name, fn=f"{EXPERIMENTS[name].__name__}:main")
        for name in names
    ]
    for outcome in runner.stream(jobs):
        name = outcome.job.experiment
        print(f"\n########## {name} ##########")
        sys.stdout.write(outcome.stdout)
        if outcome.trace_file:
            print(f"[trace: {outcome.trace_file}]")
        status = (
            "cached" if outcome.cached
            else f"simulated in {outcome.elapsed_s:.1f}s"
        )
        replayed = outcome.replayed
        if replayed and any(replayed.values()):
            status += (
                f"; replayed {replayed['vectorized']} vectorized, "
                f"{replayed['scalar']} scalar"
            )
        print(f"[{name}: {status}]", flush=True)
    s = runner.summary()
    print(
        f"[runner: {s['jobs']} jobs ({s['simulated']} simulated, "
        f"{s['cached']} cached) on {s['workers']} "
        f"worker{'s' if s['workers'] > 1 else ''} in {s['elapsed_s']:.1f}s]"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
