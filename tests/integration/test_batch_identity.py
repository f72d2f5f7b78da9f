"""End-to-end identity: the vectorized cachesim replay vs ``REPRO_VECTORIZE=0``.

The vectorized replay is an optimization, so a whole hit-rate-tier figure
must produce byte-identical results with it enabled (default) and
force-disabled.  A spy on ``vectorized.replay`` checks that the default run
really took the fast path and the forced run really did not, so the
comparison can never silently become scalar against scalar.
"""

import json

from repro.bench.experiments import fig04_cache_size
from repro.bench.parallel import jsonify
from repro.cachesim import vectorized


def canonical(result) -> str:
    return json.dumps(jsonify(result), sort_keys=True)


def test_fig04_identical_with_and_without_vectorized_replay(monkeypatch):
    calls = []
    original = vectorized.replay

    def spy(cache, keys):
        calls.append(len(keys))
        return original(cache, keys)

    monkeypatch.setattr(vectorized, "replay", spy)
    params = dict(n_requests=8000, n_keys=1024, size_fracs=(0.05, 0.2))

    monkeypatch.delenv("REPRO_VECTORIZE", raising=False)
    fast = canonical(fig04_cache_size.run(**params))
    assert calls, "the default run never took the vectorized replay"
    calls.clear()
    monkeypatch.setenv("REPRO_VECTORIZE", "0")
    scalar = canonical(fig04_cache_size.run(**params))
    assert not calls, "REPRO_VECTORIZE=0 must force the scalar replay"
    assert fast == scalar
