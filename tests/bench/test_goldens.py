"""The golden directory pins every experiment ``run_all`` can run.

``tests/bench/golden/<name>.txt`` holds experiment ``name``'s section of
``run_all`` output: its ``########## name ##########`` header and table,
up to the next header, with the ``[`` harness lines stripped.  CI runs
every experiment, splits the output on those headers and diffs the
result against this directory, so the file set must match the registry
exactly: an experiment without a golden would go unchecked.
"""

from pathlib import Path

from repro.bench import run_all

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_one_golden_per_experiment():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(
        f"{name}.txt" for name in run_all.EXPERIMENTS)


def test_each_golden_opens_with_its_own_header():
    for name in run_all.EXPERIMENTS:
        with open(GOLDEN / f"{name}.txt", encoding="utf-8") as fh:
            assert fh.readline() == f"########## {name} ##########\n", name
