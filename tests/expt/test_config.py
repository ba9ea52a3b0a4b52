"""Unit tests for experiment-matrix configs: schema, expansion, hashing."""

import json

import pytest

from repro.expt import (
    ExperimentConfig,
    ExperimentConfigError,
    canonical_json,
    config_hash,
    load_config,
    smoke_config,
)
from repro.expt.config import FULL_CONFIG_DICT, SMOKE_CONFIG_DICT


def _minimal(**overrides):
    raw = {
        "schema_version": 1,
        "name": "unit",
        "workloads": [{"kind": "scale", "streams": 2,
                       "blocks_per_stream": 8}],
    }
    raw.update(overrides)
    return raw


class TestValidation:
    def test_minimal_config_validates(self):
        config = ExperimentConfig.from_dict(_minimal())
        assert config.name == "unit"
        assert config.drives == ("testbed",)
        assert config.seeds == (0,)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ExperimentConfigError, match="unknown config"):
            ExperimentConfig.from_dict(_minimal(topology="ring"))

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(ExperimentConfigError, match="schema_version"):
            ExperimentConfig.from_dict(_minimal(schema_version=99))

    def test_missing_workloads_rejected(self):
        raw = _minimal()
        del raw["workloads"]
        with pytest.raises(ExperimentConfigError, match="workloads"):
            ExperimentConfig.from_dict(raw)

    def test_unknown_workload_kind_rejected(self):
        with pytest.raises(ExperimentConfigError, match="kind"):
            ExperimentConfig.from_dict(
                _minimal(workloads=[{"kind": "warp-drive"}])
            )

    def test_unknown_workload_param_rejected(self):
        with pytest.raises(ExperimentConfigError, match="unknown param"):
            ExperimentConfig.from_dict(_minimal(
                workloads=[{"kind": "scale", "streamz": 2}]
            ))

    def test_non_positive_param_rejected(self):
        with pytest.raises(ExperimentConfigError, match="positive"):
            ExperimentConfig.from_dict(_minimal(
                workloads=[{"kind": "scale", "streams": 0}]
            ))

    def test_unknown_drive_rejected(self):
        with pytest.raises(ExperimentConfigError, match="drive"):
            ExperimentConfig.from_dict(
                _minimal(axes={"drives": ["floppy"]})
            )

    def test_unknown_axis_rejected(self):
        with pytest.raises(ExperimentConfigError, match="unknown axes"):
            ExperimentConfig.from_dict(
                _minimal(axes={"node_count": [1]})
            )

    def test_bad_tolerance_kind_rejected(self):
        with pytest.raises(ExperimentConfigError, match="kind"):
            ExperimentConfig.from_dict(_minimal(
                tolerances={
                    "blocks_per_second": {"kind": "fuzzy", "limit": 0.1}
                }
            ))

    def test_nan_tolerance_limit_rejected(self):
        with pytest.raises(ExperimentConfigError, match="finite"):
            ExperimentConfig.from_dict(_minimal(
                tolerances={
                    "blocks_per_second": {
                        "kind": "max", "limit": float("nan"),
                    }
                }
            ))

    def test_duplicate_cells_rejected(self):
        workload = {"kind": "scale", "streams": 2, "blocks_per_stream": 8}
        config = ExperimentConfig.from_dict(
            _minimal(workloads=[workload, dict(workload)])
        )
        with pytest.raises(ExperimentConfigError, match="duplicate"):
            config.expand()


class TestExpansion:
    def test_expansion_is_deterministic(self):
        a = [c.cell_id for c in smoke_config().expand()]
        b = [c.cell_id for c in smoke_config().expand()]
        assert a == b

    def test_scale_consumes_drives_and_seeds_only(self):
        config = ExperimentConfig.from_dict(_minimal(axes={
            "drives": ["testbed", "fast"],
            "cache_blocks": [0, 64, 128],
            "batching": [True, False],
            "seeds": [0, 7],
        }))
        cells = config.expand()
        # cache and batching axes must not multiply scale cells.
        assert len(cells) == 2 * 2
        assert {c.spec_dict()["drive"] for c in cells} == {
            "testbed", "fast",
        }
        assert {c.spec_dict()["seed"] for c in cells} == {0, 7}

    def test_server_consumes_cache_batching_seeds(self):
        config = ExperimentConfig.from_dict(_minimal(
            workloads=[{"kind": "server-hot", "sessions": 4,
                        "strands": 2}],
            axes={
                "drives": ["testbed", "fast"],
                "cache_blocks": [0, 64],
                "batching": [True, False],
                "seeds": [0],
            },
        ))
        cells = config.expand()
        # the drive axis must not multiply server cells.
        assert len(cells) == 2 * 2

    def test_golden_binds_to_acceptance_configuration_only(self):
        config = ExperimentConfig.from_dict(_minimal(
            workloads=[{"kind": "server-hot", "sessions": 4,
                        "strands": 2, "golden": True}],
            axes={"cache_blocks": [0, 64], "batching": [True, False]},
        ))
        golden = {
            c.cell_id: c.golden for c in config.expand()
        }
        assert golden == {
            "server-hot-s4x2-c0-batchon-seed0": False,
            "server-hot-s4x2-c0-batchoff-seed0": False,
            "server-hot-s4x2-c64-batchon-seed0": True,
            "server-hot-s4x2-c64-batchoff-seed0": False,
        }

    def test_smoke_matrix_shape(self):
        cells = smoke_config().expand()
        kinds = [c.kind for c in cells]
        assert kinds == [
            "scale", "server-hot", "server-hot", "obs-overhead",
            "cluster-failover",
        ]
        assert sum(1 for c in cells if c.golden) == 2

    def test_cluster_consumes_seeds_only(self):
        config = ExperimentConfig.from_dict(_minimal(
            workloads=[{"kind": "cluster-failover", "nodes": 3,
                        "sessions": 8, "titles": 4}],
            axes={
                "drives": ["testbed", "fast"],
                "cache_blocks": [0, 64],
                "batching": [True, False],
                "seeds": [0, 7],
            },
        ))
        cells = config.expand()
        # drive/cache/batching axes must not multiply cluster cells.
        assert len(cells) == 2
        assert [c.cell_id for c in cells] == [
            "cluster-n3-s8-t4-seed0", "cluster-n3-s8-t4-seed7",
        ]


class TestHashing:
    def test_hash_is_key_order_insensitive(self):
        a = {"x": 1, "y": [1, 2]}
        b = {"y": [1, 2], "x": 1}
        assert config_hash(a) == config_hash(b)
        assert config_hash(a).startswith("sha256:")

    def test_canonical_json_is_compact_and_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_config_hash_changes_with_content(self):
        base = smoke_config()
        altered = ExperimentConfig.from_dict({
            **SMOKE_CONFIG_DICT,
            "description": "different",
        })
        assert base.hash != altered.hash

    def test_roundtrip_preserves_hash(self):
        config = smoke_config()
        again = ExperimentConfig.from_dict(config.to_dict())
        assert config.hash == again.hash


class TestLoading:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(_minimal()))
        config = load_config(str(path))
        assert config.name == "unit"

    def test_missing_file_has_clear_error(self, tmp_path):
        with pytest.raises(ExperimentConfigError, match="not found"):
            load_config(str(tmp_path / "nope.json"))

    def test_invalid_json_has_clear_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ExperimentConfigError, match="not valid JSON"):
            load_config(str(path))

    def test_committed_configs_match_builtins(self):
        # experiments/*.json are the on-disk mirrors of the builtin
        # matrices; any drift would make `--smoke` and `--config
        # experiments/smoke.json` silently diverge.
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        for name, builtin in (
            ("smoke", SMOKE_CONFIG_DICT), ("full", FULL_CONFIG_DICT),
        ):
            on_disk = json.loads(
                (root / "experiments" / f"{name}.json").read_text()
            )
            assert on_disk == builtin, (
                f"experiments/{name}.json drifted from the builtin "
                "config; regenerate it from "
                f"repro.expt.config.{name.upper()}_CONFIG_DICT"
            )
            assert config_hash(on_disk) == config_hash(builtin)
