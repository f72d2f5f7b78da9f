"""How slow the machine is right now.

The reference box is a shared VM whose speed moves by 30-40 % for minutes at
a time, faster than any bound could allow for and slower than a run could
outlast.  So every timing of the benchmark is taken next to a *reference*:
three fixed loops that stand for the kinds of work the workloads do (plain
interpreter arithmetic; dependent loads over a table larger than the L2
cache; allocation, dict, method and string work).  :func:`slowness` is how
long they take now over how long they take on the quiet reference box, and
a timing divided by it is the timing on that quiet box.

The three do not slow down by the same factor in every phase (the
arithmetic loop can double while the loads gain a third), which is why it
is the mean of three and why no single one is used.  The loops are part of
the benchmark's definition: changing them changes every timing metric.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, List, Tuple

import numpy as np

#: Entries of the table the second loop walks: 4 MB of ``int64``, twice the
#: L2 cache of the reference box.
TABLE = 1 << 19


def _cycle(n: int) -> array:
    """``table[i]`` is the entry after ``i`` on one random cycle through
    all ``n``, so every load depends on the one before it."""
    order = np.random.default_rng(20230923).permutation(n)
    table = array("q", bytes(8 * n))
    links = np.frombuffer(table, dtype=np.int64)
    links[order[:-1]] = order[1:]
    links[order[-1]] = order[0]
    return table


_table = _cycle(TABLE)
_at = 0


def arithmetic() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(30_000):
        total += i * 3 % 7
    return time.perf_counter() - start


def dependent_loads() -> float:
    global _at
    table, at = _table, _at
    start = time.perf_counter()
    for _ in range(12_000):
        at = table[at]
    elapsed = time.perf_counter() - start
    _at = at
    return elapsed


class _Cell:
    __slots__ = ("count", "pair")

    def __init__(self, count: int, pair: Tuple[int, int]):
        self.count = count
        self.pair = pair

    def bump(self, by: int) -> int:
        self.count += by
        return self.count


def objects() -> float:
    start = time.perf_counter()
    index = {}
    recent: List[_Cell] = []
    total = 0
    for i in range(2_000):
        cell = _Cell(i, (i, i + 1))
        recent.append(cell)
        index[i & 1023] = cell
        total += cell.bump(i) + len(cell.pair)
        if len(recent) > 64:
            recent = recent[32:]
        total += len((b"key-%d" % i).decode())
    return time.perf_counter() - start


LOOPS: Tuple[Callable[[], float], ...] = (arithmetic, dependent_loads, objects)
#: Seconds each loop takes on the quiet reference box (median of a quiet
#: stretch, Python 3.11).  Constants of the benchmark: on another machine
#: they only scale every timing by one factor.
QUIET_S = (1.9e-3, 1.35e-3, 1.3e-3)


def slowness() -> float:
    """1.0 on the quiet reference box; 1.3 when the machine is 30 % slower."""
    return sum(loop() / quiet for loop, quiet in zip(LOOPS, QUIET_S)) / len(LOOPS)
