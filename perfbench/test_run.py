"""The benchmark's exit status follows the gate.

Run with ``python3 -m pytest perfbench -q``.  ``run_workload`` is replaced
by a fake result, so neither ballq nor any process is run here.
"""

import json

import pytest

import run


def _fake_result(correct, failed):
    names = [m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    return {"correct": correct, "attempted": 4, "failed": failed,
            "metrics": {name: (1.0, "s") for name in names}}


@pytest.mark.parametrize("correct, failed, code", [(True, 0, 0), (False, 1, 1), (False, 0, 1)])
def test_exit_status_is_nonzero_when_output_is_wrong(monkeypatch, capsys, correct, failed, code):
    monkeypatch.setattr(run, "run_workload", lambda *args: _fake_result(correct, failed))
    assert run.main(["--workload", "sweep", "--seed", "1", "--seconds", "1"]) == code
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["correct"] is correct
    assert summary["failed"] == failed
