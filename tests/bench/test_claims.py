"""The claims gate: ``run_all`` checks each experiment's ``claims`` on the
result its run returned, prints one ``[claims: name P/N]`` line, and exits
non-zero on a failed verdict or on an expected failure that passes.

Claims read the result after ``parallel.jsonify`` (string dict keys,
lists for tuples), so the hand-built results here go through it too.
"""

import re
from pathlib import Path

import pytest

from repro.bench import run_all
from repro.bench.experiments import (
    fig14_ycsb_scaling,
    fig16_real_world_tput,
    tab02_workload_catalog,
)
from repro.bench.parallel import jsonify

GOLDEN = Path(__file__).resolve().parent / "golden"


def _split(out):
    """CI's golden split: drop ``[`` lines, cut at the section headers."""
    sections, name = {}, None
    for line in out.splitlines(keepends=True):
        if line.startswith("["):
            continue
        header = re.fullmatch(r"########## (\S+) ##########\n", line)
        if header:
            name = header.group(1)
            sections[name] = ""
        if name:
            sections[name] += line
    return sections


def _failed(verdicts):
    return [name for name, ok, _ in verdicts if not ok]


def test_tab02_prints_its_claims_line_and_passes(capsys):
    assert run_all.main(["tab02"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^\[claims: tab02 (\d+)/\1\]$", out, re.M)
    assert "[claim failed" not in out


def test_a_claims_line_leaves_the_section_equal_to_its_golden(capsys):
    assert run_all.main(["tab02"]) == 0
    out = capsys.readouterr().out
    assert "[claims: tab02 " in out
    assert _split(out) == {
        "tab02": (GOLDEN / "tab02.txt").read_text(encoding="utf-8")
    }


@pytest.mark.parametrize("result, failed", [
    ({"rows": []}, "[claim failed: tab02 six workloads: 0 == 6]"),
    ({}, "[claim failed: tab02 the claims evaluate: KeyError('rows')]"),
])
def test_a_failed_claim_fails_the_run_and_is_named(monkeypatch, capsys,
                                                    result, failed):
    monkeypatch.setattr(tab02_workload_catalog, "main", lambda: result)
    assert run_all.main(["tab02"]) == 1
    assert failed in capsys.readouterr().out.splitlines()


def _fig16(ibm_ditto):
    def row(mops):
        return {"mops": mops, "hit_rate": 0.5}

    return jsonify({"results": {
        "webmail": {"ditto": row(0.2), "ditto-lru": row(0.2),
                    "ditto-lfu": row(0.19), "cm-lru": row(0.1),
                    "cm-lfu": row(0.1)},
        "ibm": {"ditto": row(ibm_ditto), "ditto-lru": row(0.1),
                "ditto-lfu": row(0.1), "cm-lru": row(0.11),
                "cm-lfu": row(0.122)},
    }})


def test_fig16_cliquemap_claims_are_the_expected_failures():
    assert run_all.EXPECTED_FAILURES == {
        ("fig16", "ibm: ditto > 0.9 x best cliquemap"),
        ("fig16", "cloudphysics: ditto > 0.9 x best cliquemap"),
        ("fig16", "twitter-storage: ditto > 0.9 x best cliquemap"),
    }


def test_an_expected_failure_prints_as_expected(monkeypatch, capsys):
    name = "ibm: ditto > 0.9 x best cliquemap"
    assert _failed(fig16_real_world_tput.claims(_fig16(0.098))) == [name]
    monkeypatch.setattr(fig16_real_world_tput, "main", lambda: _fig16(0.098))
    assert run_all.main(["fig16"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "[claims: fig16 5/6]" in out
    assert f"[claim failed as expected: fig16 {name}: 0.098 > 0.1098]" in out


def test_an_expected_failure_that_passes_errors(monkeypatch, capsys):
    monkeypatch.setattr(fig16_real_world_tput, "main", lambda: _fig16(0.2))
    assert run_all.main(["fig16"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "[claims: fig16 6/6]" in out
    assert ("[claim passed but is expected to fail: fig16 "
            "ibm: ditto > 0.9 x best cliquemap: 0.2 > 0.1098]") in out


def _fig14():
    """A jsonified fig14 result in the paper's shape: Ditto far ahead at 16
    clients, and CliqueMap ahead with one client on A."""
    mops = {"ditto": (0.5, 4.0), "shard-lru": (0.3, 0.6),
            "cm-lru": (0.6, 1.0), "cm-lfu": (0.5, 0.9)}
    return jsonify({
        "client_counts": (1, 16),
        "results": {
            workload: {
                system: {count: {"mops": m, "p99_us": 10.0}
                         for count, m in zip((1, 16), pair)}
                for system, pair in mops.items()
            }
            for workload in ("A", "C")
        },
    })


def test_fig14_claims_read_the_jsonified_result():
    result = _fig14()
    assert list(result["results"]["C"]["ditto"]) == ["1", "16"]
    verdicts = list(fig14_ycsb_scaling.claims(result))
    assert len(verdicts) == 9 and _failed(verdicts) == []


def test_fig14_claims_name_the_verdicts_a_row_swap_breaks():
    result = _fig14()
    for by_system in result["results"].values():
        by_system["ditto"], by_system["shard-lru"] = (
            by_system["shard-lru"], by_system["ditto"])
    assert _failed(fig14_ycsb_scaling.claims(result)) == [
        "A: ditto > 2 x shard-lru at 16 clients",
        "A: ditto > 2 x cm-lru at 16 clients",
        "A: ditto > 2 x cm-lfu at 16 clients",
        "C: ditto > 2 x shard-lru at 16 clients",
        "C: ditto > 2 x cm-lru at 16 clients",
        "C: ditto > 2 x cm-lfu at 16 clients",
    ]
