"""``python -m repro.serve``: flags that only mean something with a chaos
plan are refused before any process launches."""

import pytest

from repro import serve


@pytest.mark.parametrize("argv", [
    ["--chaos-plan", "plan.json"],
    ["--load", "100", "--kill"],
    ["--load", "100", "--time-scale", "2"],
    ["--kill"],
])
def test_chaos_flags_without_their_mode_are_refused(monkeypatch, argv):
    def launched(**_kwargs):
        raise AssertionError("a cluster launched despite a stray chaos flag")

    monkeypatch.setattr(serve, "RealClusterHarness", launched)
    with pytest.raises(SystemExit) as exc:
        serve.main(argv)
    assert exc.value.code == 2
