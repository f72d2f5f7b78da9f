"""Run every paper experiment and print all tables.

Usage::

    python -m repro.bench.run_all                   # one worker
    python -m repro.bench.run_all -j 4              # 4 worker processes
    REPRO_SCALE=full python -m repro.bench.run_all
    python -m repro.bench.run_all fig14 fig24       # a subset

Every run goes through :class:`~repro.bench.parallel.ParallelRunner` and
simulates every experiment it names.  Without ``-j`` it has one worker and
runs each experiment in this process; with ``-j`` the experiments fan out
over a process pool.  Either way each table prints as soon as its
experiment and every earlier one are done, in submission order, so the
output is byte-identical across modes.  Harness lines start with ``[``;
``grep -v '^\\['`` leaves the tables and the ``scale:`` line, and the
``########## name ##########`` headers split it into one section per
experiment (``tests/bench/golden/<name>.txt``): a header, the table, and
one blank line, the same bytes in any run that includes the experiment.
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
from .parallel import ExperimentJob, ParallelRunner
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
        help="fan experiments out over N worker processes",
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
    if args.parallel is not None and args.parallel < 1:
        print("error: -j/--parallel requires a positive worker count")
        return 2
    names = args.names or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; available: {sorted(EXPERIMENTS)}")
        return 2
    print(f"scale: {scale_name()}")
    runner = ParallelRunner(workers=args.parallel or 1, trace_dir=args.trace)
    jobs = [
        ExperimentJob(experiment=name, fn=f"{EXPERIMENTS[name].__name__}:main")
        for name in names
    ]
    for outcome in runner.stream(jobs):
        # The blank line closes the section, so a section reads the same
        # wherever the experiment falls in the run.
        print(f"########## {outcome.job.experiment} ##########")
        sys.stdout.write(outcome.stdout + "\n")
        if outcome.trace_file:
            print(f"[trace: {outcome.trace_file}]")
        status = f"simulated in {outcome.elapsed_s:.1f}s"
        replayed = outcome.replayed
        if any(replayed.values()):
            status += (
                f"; replayed {replayed['vectorized']} vectorized, "
                f"{replayed['scalar']} scalar"
            )
        print(f"[{outcome.name}: {status}]", flush=True)
    s = runner.summary()
    print(
        f"[runner: {s['jobs']} jobs on {s['workers']} "
        f"worker{'s' if s['workers'] > 1 else ''} in {s['elapsed_s']:.1f}s]"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
