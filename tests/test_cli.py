import csv
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import treefed
from treefed import cli, presets
from treefed.cli import main, numerics
from treefed.presets import PRESETS, ResolvedExperiment, preset_config, resolve, tree_to_json
from treefed.topology import FederationTree

from oracles import tree_faults

SRC = str(Path(__file__).resolve().parent.parent / "src")
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture()
def tiny_config(tmp_path):
    cfg = preset_config("fig2")
    cfg["name"] = "tiny"
    cfg["data"].update({
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


def fig2_tree_override(fields: dict, leaves_only: bool = False) -> str:
    """An override that sets `fields` on every node, or every leaf, of
    fig2's tree."""
    nodes = [{**node, **fields} if not (leaves_only and node["children"]) else node
             for node in preset_config("fig2")["tree"]["nodes"]]
    return "tree=" + json.dumps({"nodes": nodes})


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
        assert manifest["treefed_version"] == treefed.__version__
        assert manifest["numerics"] == numerics()
        assert manifest["numerics"]["numpy"] == np.__version__
        assert (run_dir / "attention.csv").exists()
        assert (run_dir / "residuals.csv").exists()

    def test_numerics_without_a_build_config_dict(self, monkeypatch):
        # numpy before 1.26 has no show_config(mode="dicts"), and a numpy
        # that bundles no OpenBLAS has no runtime report
        monkeypatch.setattr(cli, "openblas_runtime", lambda: None)
        monkeypatch.setattr(np, "show_config", lambda: None)
        assert numerics() == {"numpy": np.__version__, "blas": "unknown", "blas_core": "unknown"}

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
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == ["error: rounds must be >= 1, got 0"]

    def test_tree_node_dp_flag_rejected(self, tiny_config, capsys):
        cfg = json.loads(tiny_config.read_text())
        cfg["tree"]["nodes"][3]["dp_enabled"] = True
        tiny_config.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(tiny_config)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "tree node 3: unknown key 'dp_enabled'" in err
        assert "dp.enabled_nodes" in err

    def test_tree_node_dataset_key_rejected(self, tiny_config, capsys, monkeypatch):
        cfg = json.loads(tiny_config.read_text())
        cfg["tree"]["nodes"][3]["dataset"] = "3"
        tiny_config.write_text(json.dumps(cfg))
        monkeypatch.setattr(presets, "build_hierarchy_dataset", mock.Mock(
            side_effect=AssertionError("data sampled before the config was checked")))
        assert main(["run", "--config", str(tiny_config)]) == 1
        assert capsys.readouterr().err.startswith("error: tree node 3: unknown key 'dataset'")

    @pytest.mark.parametrize("fault", sorted(tree_faults()))
    def test_tree_fault_exits_1_naming_the_node(self, tmp_path, capsys, monkeypatch, fault):
        # --override cannot edit the tree.nodes list, so each fault is a file
        config, message = tree_faults()[fault]
        path = tmp_path / "fault.json"
        path.write_text(json.dumps(config))
        monkeypatch.setattr(presets, "build_hierarchy_dataset", mock.Mock(
            side_effect=AssertionError("data sampled before the config was checked")))
        assert main(["run", "--config", str(path), "--rounds", "1", "--seed", "1"]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("command, flags, flag", [
        ("run", ["--seed", "1", "--seed", "2"], "seed"),
        ("run", ["--seed", "1", "--seed", "2", "--method", "flat_fl", "--method", "local"],
         "method"),
        ("ablate", ["--axis", "residuals", "--method", "flat_fl", "--method", "local"], "method"),
    ])
    def test_repeated_single_run_flag_exits_1_naming_it(self, tiny_config, tmp_path, capsys,
                                                         command, flags, flag):
        out = tmp_path / "out"
        rc = main([command, "--config", str(tiny_config), *flags, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {command} takes one --{flag}, got 2; use compare to run several"]
        assert not out.exists()

    def test_workers_flag_refused(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--workers", "2"])
        assert exc.value.code == 2


class TestBlasPin:
    def run_import(self, env_value):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        if env_value is not None:
            env["OPENBLAS_NUM_THREADS"] = env_value
        code = "import os, treefed; print(os.environ['OPENBLAS_NUM_THREADS'])"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()

    def test_import_pins_one_thread(self):
        assert self.run_import(None) == "1"

    def test_user_value_wins(self):
        assert self.run_import("2") == "2"

    def test_numerics_names_the_core_openblas_runs(self):
        # OPENBLAS_CORETYPE forces the core OpenBLAS picks when it loads; the
        # build configuration would name the same build target either way
        if cli.openblas_runtime() is None:
            pytest.skip("numpy bundles no OpenBLAS that reports its core")
        env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
               "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
        code = "import json, treefed.cli; print(json.dumps(treefed.cli.numerics()))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        got = json.loads(out.stdout)
        assert got["blas_core"] == "Haswell"
        assert " Haswell " in got["blas"]


class TestCompare:
    def test_ratio_is_against_the_worldlm_row(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        rc = main(["compare", "--config", str(tiny_config),
                   "--method", "flat_fl", "--method", "worldlm",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        with open(out / "compare.csv") as f:
            rows = {r["method"]: r for r in csv.DictReader(f)}
        base = float(rows["worldlm"]["mean_ppl"])
        for r in rows.values():
            assert float(r["ratio_vs_worldlm"]) == pytest.approx(float(r["mean_ppl"]) / base,
                                                                 abs=1e-4)
        assert rows["worldlm"]["ratio_vs_worldlm"] == "1.0000"

    @pytest.mark.parametrize("command,flags,named", [
        (["compare"], ["--seed", "1", "--seed", "1"], "--seed 1"),
        (["compare"], ["--method", "worldlm", "--method", "local", "--method", "worldlm"],
         "--method worldlm"),
        (["ablate", "--axis", "residuals"], ["--seed", "2", "--seed", "1", "--seed", "2"],
         "--seed 2"),
    ])
    def test_repeated_value_exits_1_before_any_run(self, tiny_config, tmp_path, capsys,
                                                   monkeypatch, command, flags, named):
        # a repeated value would run twice into one run directory and count
        # twice in the mean and std
        monkeypatch.setattr(cli, "execute", mock.Mock(side_effect=AssertionError("ran")))
        out = tmp_path / "out"
        rc = main([*command, "--config", str(tiny_config), *flags, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {named} given twice"]
        assert not out.exists()

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

    def test_swap_axis_crosses_sub_federations(self, tiny_config, tmp_path):
        # 2 x 3 tree: leaves 3 and 4 are the smallest but siblings, so the
        # swap takes 3 and the smallest leaf under node 2
        cfg = json.loads(tiny_config.read_text())
        cfg["tree"] = tree_to_json(FederationTree.from_children_map(
            {0: [1, 2], 1: [3, 4, 5], 2: [6, 7, 8]}))
        sources = {"3": "c0s0", "4": "c0s1", "5": "c0s0", "6": "c1s0", "7": "c1s1", "8": "c1s0"}
        cfg["data"]["leaf_sources"] = sources
        cfg["data"]["leaf_budgets"] = {"3": 200, "4": 200, "5": 600, "6": 300, "7": 300, "8": 600}
        p = tmp_path / "wide.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["ablate", "--axis", "swap", "--config", str(p), "--rounds", "1",
                     "--seed", "2", "--out", str(out)]) == 0
        manifest = json.loads((out / "tiny-swapped__worldlm__seed2__swap-off" / "manifest.json")
                              .read_text())
        assert manifest["config"]["data"]["leaf_sources"] == {**sources, "3": "c1s0", "6": "c0s0"}

    def test_swap_axis_needs_two_parents(self, tiny_config, tmp_path, capsys):
        cfg = json.loads(tiny_config.read_text())
        cfg["tree"] = tree_to_json(FederationTree.from_children_map({0: [1, 2]}))
        cfg["data"]["leaf_sources"] = {"1": "c0s0", "2": "c1s0"}
        cfg["data"]["leaf_budgets"] = {"1": 600, "2": 600}
        p = tmp_path / "flat.json"
        p.write_text(json.dumps(cfg))
        assert main(["ablate", "--axis", "swap", "--config", str(p), "--rounds", "1"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: swap axis needs two leaves under different parents"]


class TestOneRunPath:
    def test_compare_and_ablate_write_the_files_run_writes(self, tiny_config, tmp_path):
        def files(run_dir):
            return {p.name: p.read_bytes() for p in run_dir.iterdir() if p.name != "timings.csv"}

        common = ["--config", str(tiny_config), "--seed", "3"]
        for method in ("worldlm", "flat_fl"):
            assert main(["run", *common, "--method", method, "--out", str(tmp_path / "run")]) == 0
        assert main(["compare", *common, "--method", "worldlm", "--method", "flat_fl",
                     "--out", str(tmp_path / "compare")]) == 0
        assert main(["ablate", "--axis", "residuals", *common,
                     "--out", str(tmp_path / "ablate")]) == 0
        for method in ("worldlm", "flat_fl"):
            name = f"tiny__{method}__seed3"
            assert files(tmp_path / "compare" / name) == files(tmp_path / "run" / name), method
        run = files(tmp_path / "run" / "tiny__worldlm__seed3")
        ablated = files(tmp_path / "ablate" / "tiny__worldlm__seed3__residuals-on")
        manifest = json.loads(ablated.pop("manifest.json"))
        assert (manifest.pop("ablation_axis"), manifest.pop("toggle")) == ("residuals", "on")
        assert manifest == json.loads(run.pop("manifest.json"))
        assert ablated == run
        assert sorted(run) == ["attention.csv", "dp.csv", "metrics.csv", "residuals.csv"]

    def test_every_command_times_execute_on_a_resolved_experiment(self, tiny_config):
        # run_plan resolves a plan before it starts the clock, so the seconds
        # that run prints and timings.csv holds cover execute alone for
        # run, compare and ablate alike
        execute, given = cli.execute, []

        def spy(plan, exp=None):
            given.append(exp)
            return execute(plan, exp=exp)

        common = ["--config", str(tiny_config), "--seed", "3", "--rounds", "1"]
        with mock.patch.object(cli, "execute", spy):
            assert main(["run", *common]) == 0
            assert main(["compare", *common, "--method", "flat_fl"]) == 0
            assert main(["ablate", "--axis", "attention", *common]) == 0
        assert len(given) == 4
        assert all(isinstance(exp, ResolvedExperiment) for exp in given)

    def test_log_headers_are_the_row_fields(self, tiny_config, tmp_path):
        # write_outputs takes each log's columns from its row type: the
        # fields of AttentionRow and DpRow, and residual.EVENT_FIELDS, the
        # keys of a routing event
        out = tmp_path / "out"
        assert main(["run", "--config", str(tiny_config), "--seed", "1", "--rounds", "1",
                     "--out", str(out)]) == 0
        headers = {name: (out / "tiny__worldlm__seed1" / name).read_text().splitlines()[0]
                   for name in ("attention.csv", "residuals.csv", "dp.csv")}
        assert headers == {
            "attention.csv": "node,round,stage,layer,candidate,weight",
            "residuals.csv": "round,router,origin,layer,created_round,action,landed_at,similarity",
            "dp.csv": "round,node,pre_clip_norm,bound,noise_std"}


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

    def test_text_vocab_too_large_for_model(self, tiny_config, tmp_path, capsys):
        text = tmp_path / "corpus.txt"
        text.write_bytes(bytes(range(200)) * 10)
        cfg = json.loads(tiny_config.read_text())
        cfg["data"] = {"kind": "text", "path": str(text)}
        cfg["model"]["vocab_size"] = 8
        p = tmp_path / "text.json"
        p.write_text(json.dumps(cfg))

        def train(*args, **kwargs):
            raise AssertionError("training started before the data was checked")

        with mock.patch.object(cli, "fit", train):
            rc = main(["run", "--config", str(p), "--seed", "1"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: config data path: {text} holds 200 distinct bytes, "
            "more than model vocab_size 8"]

    def test_text_too_small_for_a_window_exits_1_before_training(self, tmp_path, capsys):
        # 170 bytes over fig2's four leaves leave each a 2-token val split
        text = tmp_path / "short.txt"
        text.write_bytes((b"the quick brown fox jumps over the lazy dog. " * 4)[:170])
        data = json.dumps({"kind": "text", "path": str(text)})

        def train(*args, **kwargs):
            raise AssertionError("training started before the data was checked")

        with mock.patch.object(cli, "fit", train):
            rc = main(["run", "--preset", "fig2", "--rounds", "1", "--override", f"data={data}"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: config data path: {text} gives leaf 3 a val split of 2 tokens, "
            "less than one context window (3 tokens)"]

    @pytest.mark.parametrize("size, split", [(50, "val"), (3, "train")])
    def test_text_too_small_to_split_exits_1_before_training(self, tmp_path, capsys,
                                                              size, split):
        # fig2's four leaves share the file: 50 bytes give each 12 tokens, a
        # 10/0/2 split, and 3 bytes (fewer than leaves) none
        text = tmp_path / "tiny.txt"
        text.write_bytes((b"the quick brown fox jumps over the lazy dog. " * 2)[:size])
        data = json.dumps({"kind": "text", "path": str(text)})

        def train(*args, **kwargs):
            raise AssertionError("training started before the data was checked")

        with mock.patch.object(cli, "fit", train):
            rc = main(["run", "--preset", "fig2", "--rounds", "1", "--override", f"data={data}"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: config data path: {text} gives leaf 3 a {split} split of 0 tokens, "
            "less than one context window (3 tokens)"]

    def test_swap_axis_names_the_data_kind(self, tiny_config, tmp_path, capsys):
        text = tmp_path / "corpus.txt"
        text.write_bytes(b"abcd" * 200)
        data = json.dumps({"kind": "text", "path": str(text)})
        rc = main(["ablate", "--axis", "swap", "--config", str(tiny_config), "--rounds", "1",
                   "--override", f"data={data}"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: swap axis: data kind 'text' has no leaf sources to exchange"]


class TestConfigKeys:
    @pytest.mark.parametrize("override, message", [
        ("trainer.local_step=2", "config trainer: unknown key 'local_step'; "
                                 "did you mean 'local_steps'?"),
        ("schedul.eta_max=2", "config: unknown key 'schedul'; did you mean 'schedule'?"),
    ])
    def test_typo_exits_1_naming_the_key(self, override, message, capsys):
        rc = main(["run", "--preset", "fig2", "--rounds", "1", "--override", override])
        assert rc == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("override, message", [
        ("tree.nodes=5", "tree nodes: expected a list, got 5"),
        ("model=3", "config model: expected an object, got 3"),
        ("trainer=3", "config trainer: expected an object, got 3"),
    ])
    def test_non_object_section_exits_1_naming_the_key(self, override, message, capsys):
        rc = main(["run", "--preset", "fig2", "--rounds", "1", "--override", override])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("override, message", [
        ("data.kind=iid", "config data kind: expected one of ['clustered', 'text'], got 'iid'"),
        ("schedule.shape=warmup_cosine", "config schedule: unknown key 'shape'; "
                                         "expected one of ['alpha', 'eta_max', 'total_steps']"),
    ])
    def test_removed_data_kind_and_schedule_shape_exit_1(self, override, message, capsys):
        rc = main(["run", "--preset", "fig2", "--rounds", "1", "--override", override])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    def test_override_of_a_non_object_config_exits_1(self, tmp_path, capsys):
        p = tmp_path / "list.json"
        p.write_text("[1, 2]")
        assert main(["run", "--config", str(p), "--override", "rounds=1"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: config: expected an object, got [1, 2]"]

    @pytest.mark.parametrize("override, message", [
        ("attention.temperature=abc",
         "config attention temperature: expected a number, got 'abc'"),
        ("residual.nu=abc", "config residual nu: expected an integer, got 'abc'"),
        ("trainer.local_steps=true", "config trainer local_steps: expected an integer, got True"),
        ("data.val_tokens=abc", "config data val_tokens: expected an integer, got 'abc'"),
        ("data.leaf_budgets.3=abc", "config data leaf_budgets.3: expected an integer, got 'abc'"),
        ("model={}", "config model: missing key 'vocab_size'"),
        ("data.vocab_size=40", "config data: unknown key 'vocab_size'; expected one of "
         "['kind', 'num_clusters', 'sources_per_cluster', 'divergence', 'concentration', "
         "'intra_jitter', 'leaf_sources', 'leaf_budgets', 'val_tokens', 'test_tokens', "
         "'internal_budget_scale']"),
        ("rounds=abc", "config rounds: expected an integer, got 'abc'"),
        ("dp.enabled_nodes=5", "config dp enabled_nodes: expected a list, got 5"),
        ("dp.sigma=null", "config dp sigma: expected a number, got None"),
        ("server.eta=abc", "config server eta: expected a number, got 'abc'"),
        ("model.embed_dim=1.5", "config model embed_dim: expected an integer, got 1.5"),
        ("tree.nodes.3.residual_ceiling=1",
         "override tree.nodes.3.residual_ceiling: tree.nodes is a list, not an object"),
        ("rounds.max=1", "override rounds.max: rounds is an integer, not an object"),
        ("data.leaf_budgets.4=0",
         "config data leaf_budgets.4: 0 tokens is less than one context window (3 tokens)"),
        ("data.leaf_budgets.4=-5",
         "config data leaf_budgets.4: -5 tokens is less than one context window (3 tokens)"),
        ("data.val_tokens=0",
         "config data val_tokens: 0 tokens is less than one context window (3 tokens)"),
        ("data.test_tokens=-3",
         "config data test_tokens: -3 tokens is less than one context window (3 tokens)"),
        ("data.internal_budget_scale=-1",
         "config data internal_budget_scale: must be positive, got -1"),
        ("data.internal_budget_scale=0",
         "config data internal_budget_scale: must be positive, got 0"),
        ("data.internal_budget_scale=0.0001",
         "config data internal_budget_scale: node 0's train budget of 1 tokens is less than "
         "one context window (3 tokens)"),
        ("server.mu=1.5", "config server: mu must lie in [0, 1), got 1.5"),
        ("server.eta=0", "config server: eta must be positive, got 0"),
        ("data.divergence=2", "config data: divergence must lie in [0, 1], got 2"),
        ("data.concentration=0", "config data: concentration must be positive, got 0"),
        ("data.concentration=-1", "config data: concentration must be positive, got -1"),
        ("data.intra_jitter=-1", "config data: intra_jitter must be >= 0 with divergence * "
         "intra_jitter <= 1, got -1"),
        ("data.intra_jitter=2", "config data: intra_jitter must be >= 0 with divergence * "
         "intra_jitter <= 1, got 2"),
        ("model.vocab_size=1",
         "config model vocab_size: clustered sources need at least 2 tokens, got 1"),
        ("model.embed_dim=0", "config model: embed_dim must be >= 1, got 0"),
        ("model.key_block_count=4",
         "config model: key_block_count must lie in [0, num_blocks = 3], got 4"),
        ("rounds=0", "config rounds: must be >= 1, got 0"),
        ("trainer.batch_size=0", "config trainer: batch_size must be >= 1, got 0"),
        ("trainer.local_steps=-1", "config trainer: local_steps must be >= 0, got -1"),
        ("trainer.beta2=1", "config trainer: beta2 must lie in [0, 1), got 1"),
        # every baseline trains with the experiment trainer, so it must take a
        # step even when each node trainer does
        ("trainer.local_steps=0",
         "config trainer local_steps: the experiment trainer takes no step"),
        pytest.param([fig2_tree_override({"trainer": {"local_steps": 8}}, leaves_only=True),
                      "trainer.local_steps=0"],
                     "config trainer local_steps: the experiment trainer takes no step",
                     id="leaf-trainers-8-experiment-trainer-0"),
        pytest.param(fig2_tree_override({"trains_locally": False}),
                     "config tree: no node trains locally with at least one local step",
                     id="no-node-trains_locally"),
        pytest.param(fig2_tree_override({"trainer": {"local_steps": 0}}),
                     "config tree: no node trains locally with at least one local step",
                     id="every-node-trainer-0"),
        # JSON readers take NaN and Infinity, so a number must be finite
        ("server.eta=Infinity", "config server eta: expected a finite number, got inf"),
        ("server.mu=-Infinity", "config server mu: expected a finite number, got -inf"),
        ("schedule.eta_max=Infinity",
         "config schedule eta_max: expected a finite number, got inf"),
        ("residual.threshold=NaN", "config residual threshold: expected a finite number, got nan"),
        ("data.internal_budget_scale=Infinity",
         "config data internal_budget_scale: expected a finite number, got inf"),
        pytest.param(["--seed=-1"], "seed: must be >= 0, got -1", id="negative-seed"),
    ])
    def test_wrong_value_exits_1_naming_the_key_before_sampling(self, override, message,
                                                                 capsys, monkeypatch):
        def sample(*args, **kwargs):
            raise AssertionError("data sampled before the config was checked")

        monkeypatch.setattr(presets, "build_hierarchy_dataset", sample)
        monkeypatch.setattr(presets, "make_clustered_sources", sample)
        overrides = [override] if isinstance(override, str) else override
        rc = main(["run", "--preset", "fig2", *[a for o in overrides for a in (
            (o,) if o.startswith("--") else ("--override", o))]])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("preset, override, message", [
        ("fig2", "residual.nu=-1", "config residual: nu must be >= 0"),
        ("dp-cc-wk", "dp.enabled_nodes=[9]", "config dp enabled_nodes: node 9 is not in the tree"),
        ("dp-cc-wk", "dp.enabled_nodes=[0]",
         "config dp enabled_nodes: node 0 is the root, which has no server to be a client of"),
        ("dp-cc-wk", 'data.leaf_sources.3="c9s9"', "config data leaf_sources.3: unknown source "
         "'c9s9'; expected one of ['c0s0', 'c0s1', 'c1s0', 'c1s1']"),
        ("dp-cc-wk", 'data.leaf_budgets={"3":100}', "config data leaf_budgets: missing leaf '4'"),
        ("dp-cc-wk", 'data.leaf_sources.1="c0s0"', "config data leaf_sources: '1' is not a leaf "
         "of the tree; its leaves are ['3', '4', '5', '6']"),
        ("dp-cc-wk", "dp.sigma=NaN", "config dp sigma: expected a finite number, got nan"),
        ("dp-cc-wk", "dp.initial_bound=Infinity",
         "config dp initial_bound: expected a finite number, got inf"),
    ])
    def test_wrong_reference_exits_1_naming_it_before_sampling(self, preset, override, message,
                                                                capsys, monkeypatch):
        def sample(*args, **kwargs):
            raise AssertionError("data sampled before the config was checked")

        monkeypatch.setattr(presets, "build_hierarchy_dataset", sample)
        rc = main(["run", "--preset", preset, "--rounds", "1", "--override", override])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    def test_shipped_configs_and_a_manifest_resolve(self, tiny_config, tmp_path):
        configs = [preset_config(name) for name in PRESETS]
        configs += [json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))]
        assert len(configs) == len(PRESETS) + 3
        for cfg in configs:
            resolve({**cfg, "rounds": 1}, seed=1)
        out = tmp_path / "out"
        assert main(["run", "--config", str(tiny_config), "--seed", "1", "--out", str(out)]) == 0
        manifest = json.loads((out / "tiny__worldlm__seed1" / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 1
        resolve(manifest["config"], seed=1)

    def test_config_seed_other_than_the_run_seed_exits_1_before_sampling(
            self, tiny_config, tmp_path, capsys, monkeypatch):
        # a manifest's config records its run's seed; rerunning it under
        # another --seed, or without one, must not silently run that seed
        out = tmp_path / "out"
        assert main(["run", "--config", str(tiny_config), "--seed", "1", "--out", str(out)]) == 0
        again = tmp_path / "again.json"
        again.write_text(json.dumps(json.loads(
            (out / "tiny__worldlm__seed1" / "manifest.json").read_text())["config"]))
        capsys.readouterr()

        def sample(*args, **kwargs):
            raise AssertionError("data sampled before the config was checked")

        monkeypatch.setattr(presets, "build_hierarchy_dataset", sample)
        for argv, (config_seed, run_seed) in (
                (["--config", str(again)], (1, 0)),
                (["--config", str(again), "--seed", "2"], (1, 2)),
                (["--preset", "fig2", "--override", "seed=3"], (3, 0))):
            assert main(["run", *argv, "--rounds", "1"]) == 1
            assert capsys.readouterr().err.splitlines() == [
                f"error: config seed: {config_seed} differs from the run's seed {run_seed}; "
                f"pass --seed {config_seed}, or drop the key"]

    def test_non_finite_number_in_a_config_file_exits_1(self, tiny_config, tmp_path, capsys):
        cfg = json.loads(tiny_config.read_text())
        cfg["attention"]["temperature"] = float("nan")
        p = tmp_path / "nan.json"
        p.write_text(json.dumps(cfg))  # writes the bare NaN that json.loads reads back
        assert main(["run", "--config", str(p)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: config attention temperature: expected a finite number, got nan"]

    def test_compare_and_ablate_check_every_seed_before_the_first_run(self, tiny_config,
                                                                       tmp_path, capsys):
        # a manifest's config records its run's seed: seed 2 must fail
        # before seed 1 runs and writes its directory
        cfg = json.loads(tiny_config.read_text())
        cfg["seed"] = 1
        p = tmp_path / "seed1.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        for command in (["compare"], ["ablate", "--axis", "residuals"]):
            assert main([*command, "--config", str(p), "--seed", "1", "--seed", "2",
                         "--rounds", "1", "--out", str(out)]) == 1
            assert capsys.readouterr().err.splitlines() == [
                "error: config seed: 1 differs from the run's seed 2; pass --seed 1, "
                "or drop the key"]
            assert not out.exists(), command

    def test_manifest_reproduces_node_trainer_overrides(self, tiny_config, tmp_path):
        # node 3 trains 2 steps a stage against the experiment's 3, so with a
        # null total_steps its schedule is its own; the manifest's config
        # must give it the same trainer and the rerun the same outputs
        cfg = json.loads(tiny_config.read_text())
        cfg["tree"]["nodes"][3]["trainer"] = {"local_steps": 2}
        first = tmp_path / "first.json"
        first.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(first), "--seed", "1",
                     "--out", str(tmp_path / "a")]) == 0
        manifest = json.loads((tmp_path / "a" / "tiny__worldlm__seed1" / "manifest.json")
                              .read_text())
        again = tmp_path / "again.json"
        again.write_text(json.dumps(manifest["config"]))
        assert main(["run", "--config", str(again), "--seed", "1",
                     "--out", str(tmp_path / "b")]) == 0
        original, rerun = resolve(cfg, seed=1), resolve(manifest["config"], seed=1)
        # rounds x trainable stages x local_steps
        assert original.tree.nodes[3].trainer.schedule.total_steps == 2 * 3 * 2
        assert original.engine.trainer.schedule.total_steps == 2 * 3 * 3
        assert rerun.engine.trainer == original.engine.trainer
        for nid, node in original.tree.nodes.items():
            assert rerun.tree.nodes[nid].trainer == node.trainer, nid
        for name in ("metrics.csv", "manifest.json", "attention.csv", "residuals.csv"):
            assert ((tmp_path / "a" / "tiny__worldlm__seed1" / name).read_bytes()
                    == (tmp_path / "b" / "tiny__worldlm__seed1" / name).read_bytes()), name


class TestDpBound:
    # both runs give every DP client a zero update in round 0: flat FL's
    # only step of that round runs at learning rate 0 (warmup starts at 0),
    # and leaves that do not train keep their parent's backbone; their
    # median of 0 must not become the next bound, which clip cannot take
    def dp_rows(self, run_dir):
        with open(run_dir / "dp.csv") as f:
            return [(int(r["round"]), float(r["pre_clip_norm"]), float(r["bound"]))
                    for r in csv.DictReader(f)]

    def test_zero_updates_keep_the_flat_fl_bound(self, tmp_path):
        assert main(["run", "--preset", "dp-cc-wk", "--method", "flat_fl", "--rounds", "2",
                     "--seed", "1", "--override", "trainer.local_steps=1",
                     "--out", str(tmp_path)]) == 0
        rows = self.dp_rows(tmp_path / "dp-cc-wk__flat_fl__seed1")
        assert rows[:2] == [(0, 0.0, 1.0), (0, 0.0, 1.0)]
        assert [bound for k, _, bound in rows if k == 1] == [1.0, 1.0]
        assert all(bound > 0 for _, _, bound in rows)

    def test_clients_that_do_not_train_keep_the_bound(self, tmp_path):
        cfg = preset_config("dp-cc-wk")
        for node in cfg["tree"]["nodes"]:
            if node["id"] in (3, 4):
                node["trains_locally"] = False
        p = tmp_path / "idle-dp.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(p), "--rounds", "2", "--seed", "1",
                     "--out", str(tmp_path)]) == 0
        rows = self.dp_rows(tmp_path / "dp-cc-wk__worldlm__seed1")
        assert rows == [(k, 0.0, 1.0) for k in (0, 1) for _ in (3, 4)]


class TestFlatFlScope:
    # flat FL's server is a keyless star over the leaves: a DP flag on an
    # internal node names no client of it, and a one-node tree's root is its
    # only leaf, so the server takes an id that no leaf has
    def flat_fl(self, tmp_path, tag, *overrides):
        args = [arg for override in overrides for arg in ("--override", override)]
        assert main(["run", "--preset", "fig2", "--method", "flat_fl", "--rounds", "2",
                     "--seed", "1", *args, "--out", str(tmp_path / tag)]) == 0
        return tmp_path / tag / "fig2__flat_fl__seed1"

    @pytest.mark.parametrize("nodes, logged", [([1], set()), ([1, 3], {3})])
    def test_dp_counts_only_on_a_leaf(self, tmp_path, nodes, logged):
        run = self.flat_fl(tmp_path, "dp", "dp.sigma=0.5", "dp.initial_bound=1.0",
                           f"dp.enabled_nodes={json.dumps(nodes)}")
        rows = read_metrics(run / "dp.csv")
        assert {int(row["node"]) for row in rows} == logged
        if not logged:  # dp.csv holds only its header, and nothing is sanitized
            plain = self.flat_fl(tmp_path, "plain")
            assert (run / "metrics.csv").read_bytes() == (plain / "metrics.csv").read_bytes()

    @staticmethod
    def run_one_node(tmp_path, method):
        """fig2's config on the one-node tree whose root 0 is its only leaf,
        run for 2 rounds at seed 1; returns the run's directory."""
        cfg = preset_config("fig2")
        cfg["tree"] = {"nodes": [{"id": 0, "parent": None, "children": []}]}
        cfg["data"].update({"leaf_budgets": {"0": 16000}, "leaf_sources": {"0": "c0s0"}})
        path = tmp_path / "one-node.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path), "--method", method, "--rounds", "2",
                     "--seed", "1", "--out", str(tmp_path)]) == 0
        return tmp_path / f"fig2__{method}__seed1"

    @pytest.mark.parametrize("method", ["worldlm", "flat_fl", "local", "centralized"])
    def test_one_node_tree_runs_under_every_method(self, tmp_path, capsys, method):
        self.run_one_node(tmp_path, method)
        if method == "flat_fl":  # pinned: FedAvg with momentum over the one leaf
            assert "final leaf test perplexity 28.4128 " in capsys.readouterr().out

    def test_centralized_on_one_leaf_is_local_on_it(self, tmp_path):
        # the pooled model is node 0, training on the one leaf's shard from
        # node 0's own batch stream, as local's model of leaf 0 does; only
        # the method, and the experiment_id that names it, differ
        def rows(method):
            return [{k: v for k, v in row.items() if k not in ("experiment_id", "method")}
                    for row in read_metrics(self.run_one_node(tmp_path, method) / "metrics.csv")]

        assert rows("centralized") == rows("local")


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

    def test_runs_as_a_module(self):
        # `python -m treefed` works from a source checkout, with no installed script
        env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
        out = subprocess.run([sys.executable, "-m", "treefed", "export-preset", "fig2"],
                             env=env, capture_output=True, text=True, check=True)
        assert out.stdout == (CONFIGS / "fig2.json").read_text()

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
    def test_shipped_config_is_the_exported_preset(self, path, capsys):
        assert main(["export-preset", path.stem]) == 0
        assert capsys.readouterr().out == path.read_text()
