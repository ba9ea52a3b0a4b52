"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestProfiles:
    def test_lists_all_profiles(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        assert "testbed-1991" in out
        assert "hdtv-2.5gbit" in out
        assert "fast-array-1995" in out
        assert "Mbit" in out


class TestPolicy:
    def test_default_profile(self, capsys):
        assert main(["policy"]) == 0
        out = capsys.readouterr().out
        assert "video: granularity" in out
        assert "pipelined l_ds bound" in out

    def test_unknown_profile_raises(self):
        with pytest.raises(KeyError):
            main(["policy", "--profile", "nope"])


class TestExperiments:
    def test_registry_covers_all_experiments(self):
        assert set(EXPERIMENTS) == {f"e{i}" for i in range(1, 22)}

    def test_single_experiment(self, capsys):
        assert main(["experiments", "e7"]) == 0
        out = capsys.readouterr().out
        assert "HDTV" in out

    def test_multiple_experiments(self, capsys):
        assert main(["experiments", "e2", "e5"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out
        assert "read-ahead" in out

    def test_unknown_id_fails_cleanly(self, capsys):
        assert main(["experiments", "e99"]) == 2
        assert "unknown experiment" in capsys.readouterr().out


class TestDemo:
    def test_demo_runs_continuously(self, capsys):
        assert main(["demo", "--seconds", "4"]) == 0
        out = capsys.readouterr().out
        assert "recorded rope" in out
        assert "misses 0" in out


class TestServe:
    def test_serve_small_scenario(self, capsys):
        assert main([
            "serve", "--sessions", "6", "--strands", "2",
            "--seconds", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "6 admitted" in out
        assert "2 batches" in out

    def test_serve_json_is_the_serve_result_shape(self, capsys):
        assert main([
            "serve", "--sessions", "4", "--strands", "2",
            "--seconds", "1", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["admitted"] == 4
        assert payload["continuous_sessions"] == 4
        assert payload["cache_stats"]["hits"] > 0
        assert len(payload["sessions"]) == 4

    def test_serve_compare_batched_beats_per_request(self, capsys):
        assert main([
            "serve", "--compare", "--sessions", "8", "--strands", "2",
            "--seconds", "1", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["batched"]["continuous"] > (
            payload["per_request"]["continuous"]
        )

    def test_serve_smoke_emits_snapshot(self, capsys):
        assert main(["serve", "--smoke"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "metrics" in payload
        assert payload["metrics"]["counters"]["server.batches"] > 0

    def test_serve_no_cache_disables_batching(self, capsys):
        assert main([
            "serve", "--sessions", "4", "--strands", "2",
            "--seconds", "1", "--no-cache", "--json",
        ]) == 0  # the admitted subset still plays without misses
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache_stats"] == {}
        assert payload["batches"] == 4
        # Without the cache there is no batching: per-request admission
        # fills the controller and overload rejects the tail.
        assert payload["admitted"] < 4
        assert payload["sessions"][-1]["state"] == "rejected"


class TestCluster:
    def test_cluster_smoke_emits_snapshot(self, capsys):
        assert main(["cluster", "--smoke"]) == 0
        payload = json.loads(capsys.readouterr().out)
        counters = payload["metrics"]["counters"]
        assert counters["cluster.handoffs_total"] >= 1
        assert counters["cluster.handoffs_total"] == (
            counters["cluster.handoffs_clean"]
        )

    def test_cluster_json_reports_bounds_and_placement(self, capsys):
        assert main([
            "cluster", "--nodes", "3", "--sessions", "8",
            "--titles", "4", "--per-node-streams", "8",
            "--seconds", "1", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["admitted"] == 8
        assert payload["summary"]["continuous"] == 8
        assert payload["bounds"]["full_catalog"] == 24
        assert set(payload["placement"]) == {
            "T01", "T02", "T03", "T04",
        }

    def test_cluster_failover_hands_off_cleanly(self, capsys):
        assert main(["cluster", "--failover", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        summary = payload["summary"]
        assert summary["handoffs"] >= 1
        assert summary["handoff_clean_ratio"] > 0.9
        assert summary["continuous"] == summary["admitted"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    @staticmethod
    def _subcommand_options(name):
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions
            if isinstance(a, type(parser._subparsers._group_actions[0]))
        )
        sub = subparsers.choices[name]
        return {
            option
            for action in sub._actions
            for option in action.option_strings
        }

    def test_scenario_commands_share_seed_and_json_options(self):
        for name in (
            "demo", "obs-report", "perf-sweep", "serve", "trace-export",
            "cluster", "profile",
        ):
            options = self._subcommand_options(name)
            assert "--seed" in options, name
            assert "--json" in options, name

    def test_expt_subcommands_share_the_json_option(self):
        # expt run/gate/diff take --json through the same shared
        # builder as the scenario commands (seed does not apply: the
        # matrix's seeds axis owns seeding).
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions
            if isinstance(a, type(parser._subparsers._group_actions[0]))
        )
        expt = subparsers.choices["expt"]
        nested = next(
            a for a in expt._actions
            if isinstance(a, type(parser._subparsers._group_actions[0]))
        )
        for name in ("run", "gate", "diff"):
            sub = nested.choices[name]
            options = {
                option
                for action in sub._actions
                for option in action.option_strings
            }
            assert "--json" in options, name
            assert "--seed" not in options, name

    def test_profile_flags_present(self):
        options = self._subcommand_options("profile")
        for flag in (
            "--scenario", "--streams", "--blocks", "--top", "--smoke",
            "--trace-out",
        ):
            assert flag in options, flag

    def test_obs_report_gained_cluster_and_top(self):
        options = self._subcommand_options("obs-report")
        assert "--scenario" in options
        assert "--top" in options

    def test_cluster_failover_flags_present(self):
        options = self._subcommand_options("cluster")
        for flag in (
            "--nodes", "--sessions", "--titles", "--per-node-streams",
            "--chunks", "--failover", "--kill-node", "--kill-chunk",
            "--smoke",
        ):
            assert flag in options, flag


class TestTraceExport:
    def test_json_output_is_a_chrome_trace(self, capsys):
        assert main([
            "trace-export", "--scenario", "steady", "--json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["displayTimeUnit"] == "ms"
        assert document["otherData"]["clock"] == "simulated"
        phases = {event["ph"] for event in document["traceEvents"]}
        assert phases == {"M", "X"}

    def test_export_is_deterministic(self, capsys):
        payloads = []
        for _ in range(2):
            assert main([
                "trace-export", "--scenario", "steady", "--json",
            ]) == 0
            payloads.append(capsys.readouterr().out)
        assert payloads[0] == payloads[1]

    def test_out_writes_perfetto_loadable_file(self, tmp_path, capsys):
        target = tmp_path / "trace.json"
        assert main([
            "trace-export", "--scenario", "steady",
            "--out", str(target),
        ]) == 0
        out = capsys.readouterr().out
        assert f"wrote {target}" in out
        document = json.loads(target.read_text())
        assert document["traceEvents"]

    def test_summary_mentions_viewer_without_out(self, capsys):
        assert main(["trace-export", "--scenario", "steady"]) == 0
        assert "perfetto" in capsys.readouterr().out


class TestProfile:
    def test_smoke_exits_zero_with_one_line(self, capsys):
        assert main(["profile", "--smoke"]) == 0
        out = capsys.readouterr().out.strip()
        assert len(out.splitlines()) == 1
        assert "hottest" in out

    def test_json_is_byte_deterministic(self, capsys):
        payloads = []
        for _ in range(2):
            assert main(["profile", "--smoke", "--json"]) == 0
            payloads.append(capsys.readouterr().out)
        assert payloads[0] == payloads[1]
        section = json.loads(payloads[0])
        shares = sum(
            stat["share"] for stat in section["phases"].values()
        )
        assert abs(shares - 1.0) <= 1e-9

    def test_steady_preset_prints_cost_centers(self, capsys):
        assert main([
            "profile", "--scenario", "steady", "--top", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "cost centers" in out
        assert "transfer" in out

    def test_trace_out_writes_counter_tracks(self, tmp_path, capsys):
        target = tmp_path / "profile.json"
        assert main([
            "profile", "--smoke", "--trace-out", str(target),
        ]) == 0
        document = json.loads(target.read_text())
        counter_events = [
            event for event in document["traceEvents"]
            if event["ph"] == "C"
        ]
        assert counter_events
        assert all(
            event["name"].startswith("profile.")
            for event in counter_events
        )

    def test_obs_report_cluster_preset(self, capsys):
        assert main(["obs-report", "--scenario", "cluster-failover"]) == 0
        out = capsys.readouterr().out
        assert "cluster.handoffs_total" in out


class TestExtensionExperimentsViaCli:
    def test_extension_experiment_runs(self, capsys):
        assert main(["experiments", "e13"]) == 0
        out = capsys.readouterr().out
        assert "variable-rate" in out

    def test_ablation_experiments_not_in_registry(self):
        # Ablations run through benchmarks, not the eN registry.
        assert "ablate" not in " ".join(EXPERIMENTS)
