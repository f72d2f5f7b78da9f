"""Key decoding shared by every cachesim replay loop.

A replay loop walks Python ints: ``ndarray.tolist()`` boxes each key once
(about 36 B per access), so decoding a whole trace up front makes replay
memory grow with trace length.  :func:`chunks` decodes a fixed
:data:`CHUNK` at a time instead, which bounds that memory by the chunk, not
the trace (DESIGN §3.5).  Callers nest a plain ``for`` over each chunk, so
the per-key hit path is the same loop it was over one whole-trace list.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, List

import numpy as np

#: Keys decoded to Python ints at a time.
CHUNK = 65_536


def chunks(keys: Iterable) -> Iterator[List[int]]:
    """``keys`` (an ndarray or any int sequence) as consecutive lists of
    Python ints of at most :data:`CHUNK` keys each, in order."""
    if isinstance(keys, np.ndarray):
        for start in range(0, len(keys), CHUNK):
            yield keys[start : start + CHUNK].tolist()
        return
    it = iter(keys)
    while True:
        chunk = [int(key) for key in islice(it, CHUNK)]
        if not chunk:
            return
        yield chunk
