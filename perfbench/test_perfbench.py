"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench -q

Each workload is run smoke-sized through the real command, untraced and
traced: every metric ``BENCHMARK.json`` names must come out, finite and
with its unit.  A planted wrong logit must be counted as a failure.
"""

from __future__ import annotations

import asyncio
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (ROOT / "src", ROOT / "benchmarks", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import common  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import serving  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3", "--seconds", "2",
         "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == [w for w in run.WORKLOADS if w != "serve_http_sys64"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        name: spec[:2] for name, spec in run.PER_LAYER.items()
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_finite_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for metric in named:
        got = result["metrics"][metric["name"]]
        assert math.isfinite(got["value"]), metric["name"]
        assert got["unit"] == metric["unit"], metric["name"]


def test_planted_wrong_logit_counts_as_failed():
    pool = serving.payload_pool(0)[:4]
    reference = np.arange(40, dtype=float).reshape(4, 10)
    calls = {"n": 0}

    async def submit(image, request_id):
        calls["n"] += 1
        index = int(np.flatnonzero((pool == image).all(axis=(1, 2)))[0])
        out = reference[index].copy()
        if calls["n"] == 5:
            out[3] += 1e-6  # one wrong logit, well past the 1e-10 tolerance
        return out

    run_ = asyncio.run(serving.open_loop(submit, pool, reference, 12, np.random.default_rng(0)))
    assert (run_.offered, run_.failed, run_.wrong) == (12, 1, 1)
    assert len(run_.latencies_ms) == 11
    clean = measure.Outcome({}, attempted=12, failed=0, correct=True, info={})
    planted = measure.Outcome({}, attempted=12, failed=run_.failed, correct=False, info={})
    assert planted.error_ratio() == 2 * clean.error_ratio()


def test_self_time_subtracts_the_union_of_children():
    spans = [
        common.Span("root", 0.0, 10.0, "r", None, "t"),
        common.Span("a", 1.0, 4.0, "a", "r", "t"),
        common.Span("b", 3.0, 6.0, "b", "r", "t"),  # overlaps a
        common.Span("c", 5.0, 5.5, "c", "b", "t"),
    ]
    selfs = common.self_times(spans, common.children_of(spans))
    assert selfs == pytest.approx({"r": 5.0, "a": 3.0, "b": 2.5, "c": 0.5})


def test_command_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text((HERE / "run.py").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_sys200", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
