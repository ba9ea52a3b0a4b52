"""The benchmark's own tests, at smoke sizes.

Run from the repository root with ``python3 -m pytest perfbench/tests``.

The sensitivity tests slow one layer down from outside the program and
check that the benchmark notices on the workload that exercises the
layer, and that the workload that bypasses it never calls it.
"""

import contextlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.disk.drive import SimulatedDrive
from repro.rope.scattering_repair import ScatteringRepairer
from run import PhaseClock
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


@contextlib.contextmanager
def delayed(cls, method, seconds):
    """Busy-wait *seconds* before every call of ``cls.method``; yields a
    one-element list holding the call count."""
    original = cls.__dict__[method]
    calls = [0]

    def slow(*args, **kwargs):
        calls[0] += 1
        until = time.perf_counter() + seconds
        while time.perf_counter() < until:
            pass
        return original(*args, **kwargs)

    setattr(cls, method, slow)
    try:
        yield calls
    finally:
        setattr(cls, method, original)


def timed_phase(name, patch=None, repeats=3):
    """Best blocks/s over *repeats* smoke iterations, and the calls the
    patch saw during the timed phases."""
    workload = WORKLOADS[name](seed=7, smoke=True)
    best = 0.0
    calls = 0
    for _ in range(repeats):
        system = workload.setup(PhaseClock())
        with patch() if patch else contextlib.nullcontext([0]) as seen:
            started = time.perf_counter()
            raw = workload.timed(system, PhaseClock())
            elapsed = time.perf_counter() - started
            calls += seen[0]
        outcome = workload.summarize(system, raw)
        assert all(outcome.checks.values()), outcome.checks
        best = max(best, outcome.blocks / elapsed)
    return best, calls


def slow_drive():
    return delayed(SimulatedDrive, "read_slot", 100e-6)


def slow_repair():
    return delayed(ScatteringRepairer, "repair_segments", 5e-3)


def test_drive_delay_lowers_vod_disk_throughput():
    base, _ = timed_phase("vod-disk")
    slowed, calls = timed_phase("vod-disk", slow_drive)
    assert calls > 0
    assert slowed < 0.7 * base


def test_vod_hot_timed_phase_never_reads_the_drive():
    _, calls = timed_phase("vod-hot", slow_drive, repeats=1)
    assert calls == 0


def test_repair_delay_lowers_newsroom_throughput():
    base, _ = timed_phase("newsroom")
    slowed, calls = timed_phase("newsroom", slow_repair)
    assert calls > 0
    assert slowed < 0.7 * base


@pytest.mark.parametrize("name", ["vod-disk", "vod-hot"])
def test_vod_timed_phases_never_repair(name):
    _, calls = timed_phase(name, slow_repair, repeats=1)
    assert calls == 0


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_same_seed_repeats_simulated_outputs_across_processes():
    args = ("--workload", "newsroom", "--seed", "3", "--seconds", "0",
            "--trace", "0", "--smoke")
    outputs = []
    for _ in range(2):
        done = run_bench(ROOT, *args)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0
        outputs.append([l for l in lines if l.startswith("simulated ")])
    assert outputs[0] == outputs[1] and outputs[0]


def test_traced_run_reports_every_per_layer_metric():
    done = run_bench(ROOT, "--workload", "vod-hot", "--seed", "2",
                     "--seconds", "0", "--trace", "1", "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["obs.spans"]["value"] > 0
    assert result["metrics"]["drive.reads"]["value"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench(tmp_path, "--workload", "vod-disk", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert not done.stdout.strip()
