"""``run.py --compare``: one verdict per (workload, end-to-end metric)."""

import json

import run


def result(ops_per_s, samples):
    metrics = {"setup_s": 1.0, "ops_per_s": ops_per_s, "hit_rate": 1.0,
               "peak_rss_mb": 50.0}
    return {
        "comparable": True,
        "workloads": {"real-read-hot": {
            "end_to_end": {
                "metrics": metrics,
                "samples": {**{k: [v] for k, v in metrics.items()},
                            "ops_per_s": samples},
            },
            "per_layer": {"metrics": {"endpoint.read_rtt_us": 100.0
                                      * 3000.0 / ops_per_s}},
        }},
    }


def verdicts(tmp_path, capsys, a, b):
    paths = []
    for label, doc in (("a", a), ("b", b)):
        paths.append(tmp_path / f"{label}.json")
        paths[-1].write_text(json.dumps(doc))
    code = run.compare(str(paths[0]), str(paths[1]), run.load_benchmark())
    return code, capsys.readouterr().out


def test_worse_beyond_the_bound_fails(tmp_path, capsys):
    code, out = verdicts(tmp_path, capsys,
                         result(3000.0, [2990.0, 3000.0, 3010.0]),
                         result(2000.0, [1990.0, 2000.0, 2010.0]))
    assert code == 1
    row = next(line for line in out.splitlines() if " ops_per_s " in line)
    assert row.endswith("worse")
    assert "endpoint.read_rtt_us" in out and "+50.0%" in out


def test_within_bound_is_unchanged_and_gain_is_better(tmp_path, capsys):
    base = result(3000.0, [2990.0, 3000.0, 3010.0])
    code, out = verdicts(tmp_path, capsys, base,
                         result(3100.0, [3090.0, 3100.0, 3110.0]))
    assert code == 0 and "unchanged" in out and "worse" not in out
    code, out = verdicts(tmp_path, capsys, base,
                         result(4000.0, [3990.0, 4000.0, 4010.0]))
    assert code == 0
    assert next(l for l in out.splitlines() if " ops_per_s " in l).endswith(
        "better")


def test_spread_wider_than_the_bound_is_unresolved(tmp_path, capsys):
    code, out = verdicts(tmp_path, capsys,
                         result(3000.0, [2000.0, 3000.0, 4000.0]),
                         result(2500.0, [2490.0, 2500.0, 2510.0]))
    assert code == 0
    assert "unresolved" in next(
        l for l in out.splitlines() if " ops_per_s " in l)
