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

Each experiment with a ``claims(result)`` function (the paper's qualitative
shape of its figure, as named verdicts) is checked on the result its run
already returned: ``[claims: fig14 17/17]`` counts the verdicts that held,
and each failed verdict gets its own ``[claim failed: ...]`` line with the
compared values.  A failed verdict makes the run exit 1, unless it is one
of :data:`EXPECTED_FAILURES`, which must fail: one that passes exits 1 too.
"""

from __future__ import annotations

import argparse
import resource
import sys
import traceback

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
from .parallel import ExperimentJob, JobOutcome, ParallelRunner
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


#: (experiment, verdict) pairs known to fail: EXPERIMENTS.md known
#: deviation #5, CliqueMap-LFU's higher hit rate on three of Fig 16's
#: workloads.
EXPECTED_FAILURES = {
    ("fig16", f"{workload}: ditto > 0.9 x best cliquemap")
    for workload in ("ibm", "cloudphysics", "twitter-storage")
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


def _peak_rss_mb() -> float:
    """Largest resident set of this process and of any worker it reaped
    (``ru_maxrss`` is in KiB on Linux)."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def _check_claims(outcome: JobOutcome) -> bool:
    """Print the experiment's claims lines; False if a verdict broke the
    gate.  Claims that raise on the result count as one failed verdict
    (traceback on stderr), and the run goes on to the next experiment."""
    claims = getattr(EXPERIMENTS[outcome.job.experiment], "claims", None)
    if claims is None:
        return True
    verdicts = []
    try:
        verdicts.extend(claims(outcome.result))
    except Exception as exc:
        traceback.print_exc()
        verdicts.append(("the claims evaluate", False, repr(exc)))
    held = sum(ok for _, ok, _ in verdicts)
    print(f"[claims: {outcome.name} {held}/{len(verdicts)}]")
    gate = True
    for name, ok, values in verdicts:
        expected = (outcome.job.experiment, name) in EXPECTED_FAILURES
        if ok and expected:
            print(f"[claim passed but is expected to fail: {outcome.name} "
                  f"{name}: {values}]")
            gate = False
        elif not ok:
            print(f"[claim failed{' as expected' if expected else ''}: "
                  f"{outcome.name} {name}: {values}]")
            gate = gate and expected
    return gate


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
    claims_hold = True
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
        print(f"[{outcome.name}: {status}]")
        claims_hold = _check_claims(outcome) and claims_hold
        sys.stdout.flush()
    s = runner.summary()
    print(
        f"[runner: {s['jobs']} jobs on {s['workers']} "
        f"worker{'s' if s['workers'] > 1 else ''} in {s['elapsed_s']:.1f}s; "
        f"peak RSS {_peak_rss_mb():.0f} MB]"
    )
    return 0 if claims_hold else 1


if __name__ == "__main__":
    raise SystemExit(main())
