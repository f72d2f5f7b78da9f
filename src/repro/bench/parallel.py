"""Parallel experiment fan-out with an on-disk result cache.

Every (experiment, grid-point, seed) simulation in this repository is
deterministic and independent — the same structure rack-scale simulators
(DRackSim, CXL-ClusterSim) exploit for parallel per-node simulation and
cached sweep results.  This module applies it to the benchmark suite:

- :class:`ExperimentJob` — one unit of work: a spawn-safe reference to a
  module-level callable (``"pkg.module:attr"``) plus keyword params and an
  optional seed.
- :class:`ResultCache` — a JSON file per completed job, keyed by the SHA-256
  of ``(experiment, params, seed, REPRO_SCALE)``.  Re-running an unchanged
  grid simulates nothing.
- :class:`ParallelRunner` — serves cache hits and runs the misses itself:
  inline with one worker or one job, otherwise in a spawn-context
  ``ProcessPoolExecutor`` (workers never inherit interpreter state).  It
  yields outcomes **in submission order** as they become available, making
  parallel output byte-identical to a serial run of the same jobs.
- :func:`execute_job` — the one place a job runs: stdout captured, and with
  a trace directory a fresh observability hub that writes
  ``<name>.trace.json`` and ``<name>.metrics.json``.

The runner counts how many jobs were actually simulated vs served from
cache; ``summary()`` exposes both.

Usage::

    from repro.bench.parallel import ExperimentJob, ParallelRunner

    jobs = [ExperimentJob("fig04", "repro.bench.experiments.fig04_cache_size:run",
                          params={"n_requests": 150_000}, seed=3)]
    runner = ParallelRunner(workers=4)
    outcomes = runner.run(jobs)          # [JobOutcome, ...] in submission order
    print(runner.summary())              # {'jobs': 1, 'simulated': 1, 'cached': 0, ...}

or from the CLI: ``python -m repro.bench.run_all`` (one worker, no cache)
or ``python -m repro.bench.run_all -j 4``.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import os
import time
import uuid
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..cachesim.simulator import REPLAYED
from ..obs.observer import Observability, activate, deactivate
from .scale import scale_name

#: Default cache directory, relative to the current working directory.
DEFAULT_CACHE_DIR = ".bench_cache"

#: Cache file schema version; bump to invalidate every cached result.
CACHE_SCHEMA = 1


def jsonify(value: Any) -> Any:
    """Convert an experiment result into plain JSON types.

    numpy scalars/arrays become Python numbers/lists, tuples become lists,
    dict keys become strings.  Deterministic: equal inputs always serialize
    to equal bytes, which is what makes cached results comparable across
    serial and parallel runs.
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
    raise TypeError(f"result of type {type(value).__name__} is not cacheable")


@dataclass(frozen=True)
class ExperimentJob:
    """One deterministic unit of benchmark work."""

    #: Experiment name (cache-key component and display label).
    experiment: str
    #: Spawn-safe callable reference, ``"package.module:attr"``.  The worker
    #: re-imports the module, so the callable must be module-level.
    fn: str
    #: Keyword arguments for the callable (must be JSON-serializable).
    params: Dict[str, Any] = field(default_factory=dict)
    #: Optional seed, passed as the ``seed=`` keyword when not None.
    seed: Optional[int] = None

    def key(self, scale: Optional[str] = None) -> str:
        """Cache key: SHA-256 over (experiment, fn, params, seed, scale)."""
        payload = json.dumps(
            {
                "schema": CACHE_SCHEMA,
                "experiment": self.experiment,
                "fn": self.fn,
                "params": jsonify(self.params),
                "seed": self.seed,
                "scale": scale if scale is not None else scale_name(),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class JobOutcome:
    """What one job produced (simulated or replayed from cache)."""

    job: ExperimentJob
    result: Any
    stdout: str
    cached: bool
    elapsed_s: float
    #: Observability snapshot (``repro.obs``) when the job ran traced;
    #: replayed from the cache entry for cached outcomes.
    metrics: Optional[Dict[str, Any]] = None
    #: Chrome trace path written by a traced run (None otherwise).
    trace_file: Optional[str] = None
    #: Accesses the job replayed through ``SampledAdaptiveCache.access_many``,
    #: ``{"vectorized": V, "scalar": S}``; None for cached outcomes.
    replayed: Optional[Dict[str, int]] = None


class ResultCache:
    """One JSON file per completed job under ``directory``."""

    def __init__(self, directory: Optional[str] = None):
        self.directory = Path(
            directory
            or os.environ.get("REPRO_CACHE_DIR")
            or DEFAULT_CACHE_DIR
        )

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None

    def put(self, key: str, entry: Dict[str, Any]) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        # One temporary file per writer, renamed into place: concurrent
        # runners putting the same key never share a half-written file.
        tmp = path.with_suffix(f".{uuid.uuid4().hex}.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, sort_keys=True)
        os.replace(tmp, path)

    def clear(self) -> int:
        """Delete every cached result; returns how many were removed."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                path.unlink()
                removed += 1
        return removed


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
    worker around this one job, and the dump file is keyed by the job's
    cache key, so concurrent workers (and repeated grid points of the same
    experiment) never clobber each other's profiles.  ``REPRO_PROFILE_DIR``
    overrides the default ``.profiles/`` output directory.
    """
    module_name, _, attr = spec["fn"].partition(":")
    if not attr:
        raise ValueError(f"job fn must look like 'module:attr', got {spec['fn']!r}")
    fn = getattr(importlib.import_module(module_name), attr)
    kwargs = dict(spec.get("params") or {})
    if spec.get("seed") is not None:
        kwargs["seed"] = spec["seed"]

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
        label = spec.get("experiment") or attr
        stem = spec.get("key") or hashlib.sha256(
            json.dumps(spec, sort_keys=True, default=str).encode()
        ).hexdigest()
        profile_path = profile_dir / f"bench_{label}_{stem[:12]}.prof"
        profiler.dump_stats(str(profile_path))
        raw["profile_file"] = str(profile_path)

    if obs is not None:
        os.makedirs(trace_dir, exist_ok=True)
        name = spec.get("trace_name") or spec.get("experiment") or attr
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
    """Run jobs, serving cache hits; yield outcomes in submission order.

    ``workers=None`` uses ``os.cpu_count()``.  Misses run inline in this
    process with one worker or one job (no pool start-up cost), otherwise
    in a spawn-context ``ProcessPoolExecutor``: workers import modules
    fresh, never inheriting engine or rng state from this process.  Either
    way results are identical — a job is a pure function of its spec.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
        trace_dir: Optional[str] = None,
    ):
        """``trace_dir`` turns on per-job observability: each simulated job
        activates a fresh hub where it runs, writes
        ``<trace_dir>/<experiment>[_<key>].trace.json`` and
        ``.metrics.json``, and returns its metrics snapshot (persisted into
        the result cache alongside the result)."""
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        self.cache = ResultCache(cache_dir) if use_cache else None
        self.trace_dir = trace_dir
        self.simulated = 0
        self.cached = 0
        self.elapsed_s = 0.0

    def run(self, jobs: Sequence[ExperimentJob]) -> List[JobOutcome]:
        return list(self.stream(jobs))

    def stream(self, jobs: Sequence[ExperimentJob]) -> Iterator[JobOutcome]:
        """Yield each job's outcome, in submission order, as soon as it and
        every job before it are done."""
        started = time.perf_counter()
        scale = scale_name()
        keys = [job.key(scale) for job in jobs]
        entries = [self.cache.get(key) if self.cache else None for key in keys]
        misses = [i for i, entry in enumerate(entries) if entry is None]
        # Trace filenames: the experiment name alone when unique among the
        # misses, suffixed with the cache key otherwise (grid sweeps).
        names = Counter(jobs[i].experiment for i in misses)
        raws = self._execute([
            {
                "fn": jobs[i].fn,
                "params": jobs[i].params,
                "seed": jobs[i].seed,
                "experiment": jobs[i].experiment,
                "key": keys[i],
                "trace_dir": self.trace_dir,
                "trace_name": (
                    jobs[i].experiment if names[jobs[i].experiment] == 1
                    else f"{jobs[i].experiment}_{keys[i][:10]}"
                ),
            }
            for i in misses
        ])
        try:
            for job, key, entry in zip(jobs, keys, entries):
                if entry is not None:
                    self.cached += 1
                    yield JobOutcome(
                        job=job,
                        result=entry["result"],
                        stdout=entry.get("stdout", ""),
                        cached=True,
                        elapsed_s=0.0,
                        metrics=entry.get("metrics"),
                        trace_file=entry.get("trace_file"),
                    )
                    continue
                raw, elapsed = next(raws)
                self.simulated += 1
                if self.cache is not None:
                    entry = {
                        "experiment": job.experiment,
                        "fn": job.fn,
                        "params": jsonify(job.params),
                        "seed": job.seed,
                        "scale": scale,
                        "result": raw["result"],
                        "stdout": raw["stdout"],
                    }
                    if "metrics" in raw:
                        entry["metrics"] = raw["metrics"]
                        entry["trace_file"] = raw.get("trace_file")
                    self.cache.put(key, entry)
                yield JobOutcome(
                    job=job,
                    result=raw["result"],
                    stdout=raw["stdout"],
                    cached=False,
                    elapsed_s=elapsed,
                    metrics=raw.get("metrics"),
                    trace_file=raw.get("trace_file"),
                    replayed=raw["replayed"],
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
        """Counters for the run: how much was simulated vs replayed."""
        return {
            "jobs": self.simulated + self.cached,
            "simulated": self.simulated,
            "cached": self.cached,
            "workers": self.workers,
            "elapsed_s": round(self.elapsed_s, 3),
        }


def run_grid(
    experiment: str,
    fn: str,
    grid: Sequence[Dict[str, Any]],
    seeds: Sequence[Optional[int]] = (None,),
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
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
    runner = ParallelRunner(
        workers=workers, cache_dir=cache_dir, use_cache=use_cache,
        trace_dir=trace_dir,
    )
    return runner.run(jobs)
