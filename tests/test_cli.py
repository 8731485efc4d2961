import csv
import json

import pytest

from treefed.cli import main
from treefed.presets import preset_config


@pytest.fixture()
def tiny_config(tmp_path):
    cfg = preset_config("fig2")
    cfg["name"] = "tiny"
    cfg["data"].update({
        "vocab_size": 8,
        "leaf_budgets": {k: 600 for k in cfg["data"]["leaf_budgets"]},
        "val_tokens": 96,
        "test_tokens": 96,
    })
    cfg["model"].update({"vocab_size": 8, "embed_dim": 8})
    cfg["trainer"].update({"local_steps": 3, "batch_size": 8})
    cfg["rounds"] = 2
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(cfg))
    return path


def read_metrics(path):
    with open(path) as f:
        return list(csv.DictReader(f))


class TestRun:
    def test_run_writes_metrics_and_manifest(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        rc = main(["run", "--config", str(tiny_config), "--method", "worldlm",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        run_dir = out / "tiny__worldlm__seed1"
        rows = read_metrics(run_dir / "metrics.csv")
        assert {r["round"] for r in rows} == {"0", "1"}
        assert {r["split"] for r in rows} >= {"train", "val", "test"}
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["seed"] == 1
        assert manifest["method"] == "worldlm"
        assert "content_hash" in manifest
        assert (run_dir / "attention.csv").exists()
        assert (run_dir / "residuals.csv").exists()

    def test_missing_preset_names_it(self, capsys):
        rc = main(["run", "--preset", "nope"])
        assert rc != 0
        err = capsys.readouterr().err
        assert "nope" in err

    def test_same_command_twice_identical_metrics(self, tiny_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            rc = main(["run", "--config", str(tiny_config), "--method", "worldlm",
                       "--seed", "7", "--out", str(out)])
            assert rc == 0
        d1 = out1 / "tiny__worldlm__seed7"
        d2 = out2 / "tiny__worldlm__seed7"
        for name in ("metrics.csv", "manifest.json", "attention.csv", "residuals.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_override_applies(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        rc = main(["run", "--config", str(tiny_config), "--seed", "1",
                   "--rounds", "1", "--override", "residual.nu=0",
                   "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "tiny__worldlm__seed1" / "manifest.json").read_text())
        assert manifest["config"]["residual"]["nu"] == 0

    def test_bad_config_json_line_anchored(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"name": "x",\n  broken\n}')
        rc = main(["run", "--config", str(p)])
        assert rc != 0
        assert "line 2" in capsys.readouterr().err

    def test_bad_rounds_rejected(self, tiny_config, capsys):
        rc = main(["run", "--config", str(tiny_config), "--rounds", "0"])
        assert rc != 0

    def test_tree_node_dp_flag_rejected(self, tiny_config, capsys):
        cfg = json.loads(tiny_config.read_text())
        cfg["tree"]["nodes"][3]["dp_enabled"] = True
        tiny_config.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(tiny_config)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "tree node 3: unknown key 'dp_enabled'" in err
        assert "dp.enabled_nodes" in err

    def test_workers_flag_refused(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--workers", "2"])
        assert exc.value.code == 2


class TestCompare:
    def test_identical_plans_ratio_one(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["compare", "--config", str(tiny_config),
                   "--method", "worldlm", "--method", "worldlm",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        with open(out / "compare.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        assert all(float(r["ratio_vs_worldlm"]) == pytest.approx(1.0) for r in rows)

    def test_table_parses_back(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        rc = main(["compare", "--config", str(tiny_config),
                   "--method", "worldlm", "--method", "flat_fl",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        with open(out / "compare.csv") as f:
            rows = list(csv.DictReader(f))
        methods = {r["method"] for r in rows}
        assert methods == {"worldlm", "flat_fl"}
        for r in rows:
            float(r["mean_ppl"]), float(r["std_ppl"])  # parse check


class TestAblate:
    def test_no_op_toggle_zero_delta(self, tiny_config, tmp_path):
        # residuals axis on a config that already has nu=0: both runs identical
        cfg = json.loads(tiny_config.read_text())
        cfg["residual"]["nu"] = 0
        p = tiny_config.parent / "nores.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        rc = main(["ablate", "--axis", "residuals", "--config", str(p),
                   "--seed", "2", "--out", str(out)])
        assert rc == 0
        with open(out / "ablate_residuals.csv") as f:
            rows = list(csv.DictReader(f))
        assert float(rows[0]["delta"]) == 0.0

    def test_manifest_records_axis(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        rc = main(["ablate", "--axis", "attention", "--config", str(tiny_config),
                   "--seed", "2", "--out", str(out)])
        assert rc == 0
        run_dirs = sorted(out.glob("*attention-*"))
        assert len(run_dirs) == 2
        for d in run_dirs:
            manifest = json.loads((d / "manifest.json").read_text())
            assert manifest["ablation_axis"] == "attention"
            assert manifest["toggle"] in ("on", "off")

    def test_swap_axis_exchanges_small_leaves(self, tiny_config, tmp_path):
        cfg = json.loads(tiny_config.read_text())
        cfg["data"]["leaf_budgets"] = {"3": 600, "4": 200, "5": 600, "6": 200}
        p = tiny_config.parent / "skewed.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        rc = main(["ablate", "--axis", "swap", "--config", str(p),
                   "--seed", "2", "--out", str(out)])
        assert rc == 0
        dirs = sorted(out.glob("*swap-off"))
        manifest = json.loads((dirs[0] / "manifest.json").read_text())
        sources = manifest["config"]["data"]["leaf_sources"]
        assert sources["4"] == "c1s1" and sources["6"] == "c0s1"


class TestTextDataset:
    def test_text_kind_runs(self, tiny_config, tmp_path):
        text = tmp_path / "corpus.txt"
        text.write_bytes((b"the quick brown fox jumps over the lazy dog. " * 60))
        cfg = json.loads(tiny_config.read_text())
        cfg["name"] = "textrun"
        cfg["data"] = {"kind": "text", "path": str(text)}
        cfg["model"]["vocab_size"] = 64
        p = tmp_path / "text.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        rc = main(["run", "--config", str(p), "--seed", "1", "--rounds", "1",
                   "--out", str(out)])
        assert rc == 0
        rows = read_metrics(out / "textrun__worldlm__seed1" / "metrics.csv")
        assert any(r["split"] == "test" for r in rows)

    def test_text_vocab_too_large_for_model(self, tiny_config, tmp_path):
        text = tmp_path / "corpus.txt"
        text.write_bytes(bytes(range(200)) * 10)
        cfg = json.loads(tiny_config.read_text())
        cfg["data"] = {"kind": "text", "path": str(text)}
        cfg["model"]["vocab_size"] = 8
        p = tmp_path / "text.json"
        p.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(p), "--seed", "1"])
        assert rc != 0


class TestExportPreset:
    def test_prints_json(self, capsys):
        rc = main(["export-preset", "fig2"])
        assert rc == 0
        cfg = json.loads(capsys.readouterr().out)
        assert cfg["name"] == "fig2"
        assert cfg["rounds"] == 12

    def test_unknown_name(self, capsys):
        rc = main(["export-preset", "zzz"])
        assert rc != 0
        assert "zzz" in capsys.readouterr().err
