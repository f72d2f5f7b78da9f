"""Session-wide checks that hold for every test."""

from __future__ import annotations

import os

import pytest

_SHM_DIR = "/dev/shm"


def _segments():
    return {name for name in os.listdir(_SHM_DIR) if name.startswith("ditto-")}


@pytest.fixture(scope="session", autouse=True)
def no_leaked_shm_segments():
    """A memory-node heap is a ``ditto-*`` segment in ``/dev/shm``; every
    test that starts a node must leave it unlinked.  Segments present
    before the session (another run's) are not this run's to judge.
    Where ``/dev/shm`` does not exist the check does nothing."""
    if not os.path.isdir(_SHM_DIR):
        yield
        return
    before = _segments()
    yield
    leaked = sorted(_segments() - before)
    if leaked:
        pytest.fail(f"shared-memory segments left behind: {leaked}")
