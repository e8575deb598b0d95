"""Self-tests of the end-to-end benchmark at tiny scale (a few seconds each).

They check the benchmark, not the package: every declared metric is emitted
with its unit, a corrupted sink trips the correctness gate, and a command
that exits non-zero is counted against ``attempted``.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

_spec = importlib.util.spec_from_file_location("e2ebench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench  # dataclasses resolve annotations through it
_spec.loader.exec_module(bench)

TINY = {
    "discovery": bench.Workload("discovery", sites=150, days=1),
    "campaign": bench.Workload(
        "campaign", sites=150, days=2, store="columnar", checkpoint=True, figures=("table1", "fig12"),
    ),
    "pool": bench.Workload(
        "pool", sites=150, days=2, backend="process", workers=2, figures=("table1", "fig12"),
    ),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path_factory):
    """Tiny workloads, one setup probe, state kept out of the checkout."""
    state = tmp_path_factory.getbasetemp() / "e2ebench-state"
    monkeypatch.setattr(bench, "WORKLOADS", TINY)
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    monkeypatch.setattr(bench, "STATE_DIR", str(state))
    monkeypatch.chdir(ROOT)
    return state


def _result(capsys, *args: str) -> dict:
    bench.main(["--seed", "3", "--seconds", "0.01", *args])
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(tiny, capsys, trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = _result(capsys, "--workload", "campaign", "--trace", trace)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if trace == "1":
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
        assert result["metrics"]["crawler.checkpoint_saves"]["value"] > 0
        assert result["metrics"]["crawler.pool_execute_s"]["value"] == 0


def test_flipping_one_sink_byte_trips_the_gate(tiny, monkeypatch):
    real = bench.run_process

    def corrupting(argv, cwd, env, scratch, timeout):
        result = real(argv, cwd, env, scratch, timeout)
        if "run" in argv and "--slow-path" not in argv:
            sink = Path(argv[argv.index("--save") + 1])
            data = bytearray(sink.read_bytes())
            data[len(data) // 2] ^= 0x01
            sink.write_bytes(bytes(data))
        return result

    monkeypatch.setattr(bench, "run_process", corrupting)
    session = bench.Session(ROOT, 3)
    try:
        report = bench.measure(session, TINY["discovery"], 0.01, trace=False)
    finally:
        session.close()
    assert report["failed"] >= 1
    assert any("sha256" in failure for failure in report["failures"])
    assert report["metrics"]["error_rate"] == report["failed"] / report["attempted"] > 0


def test_a_command_exiting_non_zero_is_counted(tiny):
    broken = bench.Workload("broken", sites=150, days=1, workers=0)  # run rejects --workers 0
    session = bench.Session(ROOT, 3)
    try:
        report = bench.measure(session, broken, 0.01, trace=False)
    finally:
        session.close()
    assert report["samples"] == []
    assert any(f.startswith("run exited 1") for f in report["failures"])
    assert 0 < report["metrics"]["error_rate"] == report["failed"] / report["attempted"]


def test_host_speed_probe_restores_affinity_and_scales_wall_time():
    cpus = os.sched_getaffinity(0)
    assert bench.host_loop_s() > 0
    assert os.sched_getaffinity(0) == cpus  # commands start unpinned
    # A command measured while the host ran at half the reference speed
    # took twice as long as it would have at the reference speed.
    assert bench.at_reference_speed(3.0, 2 * bench.REFERENCE_LOOP_S) == 1.5
