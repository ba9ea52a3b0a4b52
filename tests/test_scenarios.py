"""The scenario registry: one definition per name, reachable everywhere.

Every registry scenario must run from every observing command
(``obs-report``, ``profile``, ``trace-export``) and print byte-identical
``--json`` on a second run; the registry defaults must reproduce the
committed golden snapshots; and ``obs-report`` must pass ``--seed``
through to the scenario's observability.
"""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.config import DEFAULT_SEED
from repro.scenarios import METRIC_KEYS, SCENARIOS

#: The observing commands, each asked for its byte-stable JSON.
COMMANDS = ("obs-report", "profile", "trace-export")

#: Scenarios with a committed golden snapshot at their defaults.
GOLDENS = {
    "steady": "steady_snapshot.json",
    "fault": "fault_snapshot.json",
    "server-steady": "server_steady_snapshot.json",
    "server-hot": "server_hot_snapshot.json",
    "server-fault": "server_fault_snapshot.json",
}


@pytest.fixture
def smoke_registry(monkeypatch):
    """Every registry entry with its smoke sizes as its defaults."""
    for name, entry in list(SCENARIOS.items()):
        monkeypatch.setitem(SCENARIOS, name, dataclasses.replace(
            entry, params=entry.resolve(smoke=True)
        ))


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_scenario_runs_from_every_command(
    smoke_registry, capsys, name, command
):
    outputs = []
    for _ in range(2):
        assert main([command, "--scenario", name, "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_registry_defaults_reproduce_the_golden(golden, name):
    run = SCENARIOS[name].run(DEFAULT_SEED)
    golden(GOLDENS[name], run.snapshot())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_metrics_carry_every_matrix_key(smoke_registry, name):
    entry = SCENARIOS[name]
    run = entry.run(0)
    assert tuple(entry.metrics(run)) == METRIC_KEYS
    assert entry.healthy(run)


def test_unknown_parameter_is_a_usage_error():
    with pytest.raises(SystemExit, match="no parameter 'streams'"):
        main(["profile", "--scenario", "steady", "--streams", "3"])


class TestObsReportSeed:
    def _trace_ids(self, monkeypatch, capsys, *seed_args):
        entry = SCENARIOS["steady"]
        built = []

        def observability(seed):
            built.append(entry.observability(seed))
            return built[-1]

        monkeypatch.setitem(SCENARIOS, "steady", dataclasses.replace(
            entry, observability=observability
        ))
        assert main(["obs-report", *seed_args, "--json"]) == 0
        capsys.readouterr()
        return [span.trace_id for span in built[-1].tracer.spans()]

    def test_seed_reaches_span_trace_ids(self, monkeypatch, capsys):
        first = self._trace_ids(monkeypatch, capsys, "--seed", "1")
        second = self._trace_ids(monkeypatch, capsys, "--seed", "2")
        assert first and second
        assert first != second

    def test_default_seed_matches_steady_golden(self, golden, capsys):
        assert main(["obs-report", "--json"]) == 0
        golden("steady_snapshot.json", capsys.readouterr().out)
