"""Parallel experiment fan-out.

Every (experiment, grid-point, seed) simulation in this repository is
deterministic and independent — the same structure rack-scale simulators
(DRackSim, CXL-ClusterSim) exploit for parallel per-node simulation.  This
module applies it to the benchmark suite:

- :class:`ExperimentJob` — one unit of work: a spawn-safe reference to a
  module-level callable (``"pkg.module:attr"``) plus keyword params and an
  optional seed.
- :class:`ParallelRunner` — runs every job, inline with one worker or one
  job, otherwise in a spawn-context ``ProcessPoolExecutor`` (workers never
  inherit interpreter state).  It yields outcomes **in submission order**
  as they become available, making parallel output byte-identical to a
  serial run of the same jobs.
- :func:`execute_job` — the one place a job runs: stdout captured, and with
  a trace directory a fresh observability hub that writes
  ``<name>.trace.json`` and ``<name>.metrics.json``.

Each job runs under one name: its experiment, suffixed with its submission
position (``fig04_1``) when the experiment appears more than once in the
run.  That name labels the job's trace, metrics and profile files.

Usage::

    from repro.bench.parallel import ExperimentJob, ParallelRunner

    jobs = [ExperimentJob("fig04", "repro.bench.experiments.fig04_cache_size:run",
                          params={"n_requests": 150_000}, seed=3)]
    runner = ParallelRunner(workers=4)
    outcomes = runner.run(jobs)          # [JobOutcome, ...] in submission order
    print(runner.summary())              # {'jobs': 1, 'workers': 4, 'elapsed_s': ...}

or from the CLI: ``python -m repro.bench.run_all`` (one worker) or
``python -m repro.bench.run_all -j 4``.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..cachesim.simulator import REPLAYED
from ..obs.observer import Observability, activate, deactivate


def jsonify(value: Any) -> Any:
    """Convert an experiment result into plain JSON types.

    numpy scalars/arrays become Python numbers/lists, tuples become lists,
    dict keys become strings.  Deterministic: equal inputs always serialize
    to equal bytes, which is what makes results comparable across serial
    and pooled runs (a pooled result crosses a process boundary).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    # numpy scalars expose item(); arrays expose tolist().
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        return jsonify(value.item())
    if hasattr(value, "tolist"):
        return jsonify(value.tolist())
    raise TypeError(f"result of type {type(value).__name__} is not JSON-serializable")


@dataclass(frozen=True)
class ExperimentJob:
    """One deterministic unit of benchmark work."""

    #: Experiment name (display label, and the stem of the job's name).
    experiment: str
    #: Spawn-safe callable reference, ``"package.module:attr"``.  The worker
    #: re-imports the module, so the callable must be module-level.
    fn: str
    #: Keyword arguments for the callable (must be JSON-serializable).
    params: Dict[str, Any] = field(default_factory=dict)
    #: Optional seed, passed as the ``seed=`` keyword when not None.
    seed: Optional[int] = None


@dataclass
class JobOutcome:
    """What one job produced."""

    job: ExperimentJob
    #: The job's name in this run (see the module docstring).
    name: str
    result: Any
    stdout: str
    elapsed_s: float
    #: Accesses the job replayed through ``SampledAdaptiveCache.access_many``,
    #: ``{"vectorized": V, "scalar": S}``.
    replayed: Dict[str, int]
    #: Observability snapshot (``repro.obs``) when the job ran traced.
    metrics: Optional[Dict[str, Any]] = None
    #: Chrome trace path written by a traced run (None otherwise).
    trace_file: Optional[str] = None


def execute_job(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job in the current process; module-level for spawn safety.

    ``spec`` is the job as a plain dict (picklable); returns
    ``{"result": <jsonified>, "stdout": <captured text>, "replayed":
    {"vectorized": V, "scalar": S}}`` (the change in
    ``cachesim.simulator.REPLAYED`` across the job) plus, when
    enabled, ``metrics``/``trace_file`` (observability) and
    ``profile_file`` (``REPRO_PROFILE=1``).  With a ``trace_dir`` the job
    runs under a fresh hub and leaves ``<trace_dir>/<name>.trace.json`` and
    ``<trace_dir>/<name>.metrics.json``.

    Profiling composes with the process pool: the profiler runs inside the
    worker around this one job and dumps ``bench_<name>.prof``, so
    concurrent workers (and repeated jobs of one experiment, which carry
    distinct names) never clobber each other's profiles.
    ``REPRO_PROFILE_DIR`` overrides the default ``.profiles/`` output
    directory.
    """
    module_name, _, attr = spec["fn"].partition(":")
    if not attr:
        raise ValueError(f"job fn must look like 'module:attr', got {spec['fn']!r}")
    fn = getattr(importlib.import_module(module_name), attr)
    kwargs = dict(spec.get("params") or {})
    if spec.get("seed") is not None:
        kwargs["seed"] = spec["seed"]

    name = spec.get("name") or attr
    obs: Optional[Observability] = None
    trace_dir = spec.get("trace_dir")
    if trace_dir:
        obs = activate(Observability())

    profiler = None
    if os.environ.get("REPRO_PROFILE") == "1":
        import cProfile

        profiler = cProfile.Profile()

    buffer = io.StringIO()
    before = dict(REPLAYED)
    try:
        with redirect_stdout(buffer):
            if profiler is not None:
                profiler.enable()
            try:
                result = fn(**kwargs)
            finally:
                if profiler is not None:
                    profiler.disable()
    finally:
        if obs is not None:
            deactivate()

    raw: Dict[str, Any] = {
        "result": jsonify(result),
        "stdout": buffer.getvalue(),
        "replayed": {branch: REPLAYED[branch] - before[branch]
                     for branch in REPLAYED},
    }

    if profiler is not None:
        profile_dir = Path(os.environ.get("REPRO_PROFILE_DIR") or ".profiles")
        profile_dir.mkdir(parents=True, exist_ok=True)
        profile_path = profile_dir / f"bench_{name}.prof"
        profiler.dump_stats(str(profile_path))
        raw["profile_file"] = str(profile_path)

    if obs is not None:
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, f"{name}.trace.json")
        obs.export_chrome(trace_path)
        raw["metrics"] = obs.snapshot()
        raw["trace_file"] = trace_path
        metrics_path = os.path.join(trace_dir, f"{name}.metrics.json")
        with open(metrics_path, "w", encoding="utf-8") as fh:
            json.dump(raw["metrics"], fh, indent=2, sort_keys=True)

    return raw


def _timed_execute(spec: Dict[str, Any]) -> Tuple[Dict[str, Any], float]:
    """:func:`execute_job` plus its wall time; module-level so a spawn
    worker can unpickle it."""
    started = time.perf_counter()
    raw = execute_job(spec)
    return raw, time.perf_counter() - started


class ParallelRunner:
    """Run jobs; yield outcomes in submission order.

    ``workers=None`` uses ``os.cpu_count()``.  Jobs run inline in this
    process with one worker or one job (no pool start-up cost), otherwise
    in a spawn-context ``ProcessPoolExecutor``: workers import modules
    fresh, never inheriting engine or rng state from this process.  Either
    way results are identical — a job is a pure function of its spec.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        trace_dir: Optional[str] = None,
    ):
        """``trace_dir`` turns on per-job observability: each job activates
        a fresh hub where it runs, writes ``<trace_dir>/<name>.trace.json``
        and ``.metrics.json``, and returns its metrics snapshot."""
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        self.trace_dir = trace_dir
        self.jobs = 0
        self.elapsed_s = 0.0

    def run(self, jobs: Sequence[ExperimentJob]) -> List[JobOutcome]:
        return list(self.stream(jobs))

    def stream(self, jobs: Sequence[ExperimentJob]) -> Iterator[JobOutcome]:
        """Yield each job's outcome, in submission order, as soon as it and
        every job before it are done."""
        started = time.perf_counter()
        counts = Counter(job.experiment for job in jobs)
        names = [
            job.experiment if counts[job.experiment] == 1
            else f"{job.experiment}_{position}"
            for position, job in enumerate(jobs)
        ]
        raws = self._execute([
            {
                "fn": job.fn,
                "params": job.params,
                "seed": job.seed,
                "name": name,
                "trace_dir": self.trace_dir,
            }
            for job, name in zip(jobs, names)
        ])
        try:
            for job, name in zip(jobs, names):
                raw, elapsed = next(raws)
                self.jobs += 1
                yield JobOutcome(
                    job=job,
                    name=name,
                    result=raw["result"],
                    stdout=raw["stdout"],
                    elapsed_s=elapsed,
                    replayed=raw["replayed"],
                    metrics=raw.get("metrics"),
                    trace_file=raw.get("trace_file"),
                )
        finally:
            raws.close()  # shuts the pool down if the caller stopped early
            self.elapsed_s += time.perf_counter() - started

    def _execute(
        self, specs: List[Dict[str, Any]]
    ) -> Iterator[Tuple[Dict[str, Any], float]]:
        """``(raw, elapsed_s)`` per spec, in order; both branches are lazy
        in-order iterators, so each result is available when it is done."""
        if self.workers == 1 or len(specs) <= 1:
            yield from map(_timed_execute, specs)
            return
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(specs)),
            mp_context=get_context("spawn"),
        ) as pool:
            yield from pool.map(_timed_execute, specs)

    def summary(self) -> Dict[str, Any]:
        """Counters for the run: jobs run, workers, wall time."""
        return {
            "jobs": self.jobs,
            "workers": self.workers,
            "elapsed_s": round(self.elapsed_s, 3),
        }


def run_grid(
    experiment: str,
    fn: str,
    grid: Sequence[Dict[str, Any]],
    seeds: Sequence[Optional[int]] = (None,),
    workers: Optional[int] = None,
    trace_dir: Optional[str] = None,
) -> List[JobOutcome]:
    """Fan a parameter grid × seeds out across workers.

    Returns outcomes in ``(grid-point, seed)`` submission order — the same
    order a serial double loop would produce.
    """
    jobs = [
        ExperimentJob(experiment=experiment, fn=fn, params=dict(point), seed=seed)
        for point in grid
        for seed in seeds
    ]
    return ParallelRunner(workers=workers, trace_dir=trace_dir).run(jobs)
