import json
import re
import shlex
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mssvdd import (
    KernelParams,
    SolverError,
    TrainConfig,
    fit_model,
    load_dataset,
    load_model,
    pca_init,
    predict_model,
    save_model,
    svdd_solve,
    synth_multimodal,
)
from mssvdd import cli, evaluation
from mssvdd.cli import _MODEL_KEYS, ExperimentConfig, _train_config, main
import old_models
from test_persistence import CONFIG_EDITS, RETAGGINGS, write_edited_config, write_retagged


def _read(path):
    return Path(path).read_bytes()


def _synth_files(tmp_path, name="data", seed=7, separation=6.0, n=40):
    out = tmp_path / name
    rc = main(
        [
            "synth",
            "--out-dir",
            str(out),
            "--n-target",
            str(n),
            "--n-outlier",
            str(n),
            "--modalities",
            "2",
            "--dims",
            "4,4",
            "--separation",
            str(separation),
            "--seed",
            str(seed),
        ]
    )
    assert rc == 0
    return (
        [str(out / "modality_1.csv"), str(out / "modality_2.csv")],
        str(out / "labels.csv"),
    )


def _write_config(tmp_path, modality_csvs, label_csv, **extra):
    cfg = {
        "modality_csvs": modality_csvs,
        "label_csv": label_csv,
        "model": "subspace",
        "d": 2,
        "eta": 0.01,
        "beta": 0.0,
        "c": 0.5,
        "max_iter": 3,
        "seed": 5,
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestSynth:
    def test_deterministic_files(self, tmp_path):
        paths_a, labels_a = _synth_files(tmp_path, "a", seed=7)
        paths_b, labels_b = _synth_files(tmp_path, "b", seed=7)
        for pa, pb in zip(paths_a + [labels_a], paths_b + [labels_b]):
            assert _read(pa) == _read(pb)

    def test_shapes(self, tmp_path):
        paths, labels = _synth_files(tmp_path, "c", n=50)
        data = load_dataset(paths, labels)
        assert data.n_modalities == 2
        assert data.n_samples == 100

    def test_seed_changes_content(self, tmp_path):
        paths_a, _ = _synth_files(tmp_path, "d", seed=1)
        paths_b, _ = _synth_files(tmp_path, "e", seed=2)
        assert _read(paths_a[0]) != _read(paths_b[0])

    @pytest.mark.parametrize("dims", ["4,x", "4.5", "", "4,,4"])
    def test_malformed_dims_exits_nonzero(self, tmp_path, capsys, dims):
        argv = ["synth", "--out-dir", str(tmp_path / "out"), "--n-target", "5",
                "--n-outlier", "5", "--dims", dims]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: --dims must be comma-separated integers, got {dims!r}\n"
        assert list(tmp_path.iterdir()) == []


class TestTrainPredict:
    def test_train_writes_model(self, tmp_path):
        paths, labels = _synth_files(tmp_path)
        cfg = _write_config(tmp_path, paths, labels)
        model_path = tmp_path / "model.json"
        assert main(["train", "--config", cfg, "--out", str(model_path)]) == 0
        model = load_model(model_path)
        assert model.config.d == 2

    def test_no_learning_model_equals_pca_pipeline(self, tmp_path):
        paths, labels = _synth_files(tmp_path)
        cfg = _write_config(tmp_path, paths, labels, eta=0.0, max_iter=1)
        model_path = tmp_path / "model.json"
        assert main(["train", "--config", cfg, "--out", str(model_path)]) == 0
        model = load_model(model_path)
        data = load_dataset(paths, labels)
        targets = data.target_subset()
        pooled = np.hstack(
            [pca_init(mod, 2).q @ mod.values for mod in targets.modalities]
        )
        direct = svdd_solve(pooled, 0.5, model.config.kkt_tol)
        # The file stores what scoring reads: the center and the radius.
        assert model.description.center.tobytes() == direct.center.tobytes()
        assert model.description.radius_sq == direct.radius_sq

    def test_predict_csv(self, tmp_path):
        paths, labels = _synth_files(tmp_path)
        cfg = _write_config(tmp_path, paths, labels, eta=0.0, max_iter=1)
        model_path = tmp_path / "model.json"
        main(["train", "--config", cfg, "--out", str(model_path)])
        out = tmp_path / "pred.csv"
        rc = main(
            ["predict", "--model", str(model_path)]
            + ["--data", paths[0], "--data", paths[1]]
            + ["--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == (
            "index,fused,m1_label,m2_label,m1_distance_sq,m2_distance_sq,radius_sq"
        )
        assert len(lines) == 81  # header + 80 samples

    def test_predict_training_targets_within_radius(self, tmp_path):
        paths, labels = _synth_files(tmp_path)
        cfg = _write_config(tmp_path, paths, labels, eta=0.0, max_iter=1, c=1.0)
        model_path = tmp_path / "model.json"
        main(["train", "--config", cfg, "--out", str(model_path)])
        model = load_model(model_path)
        data = load_dataset(paths, labels)
        result = predict_model(model, data.target_subset())
        # with C = 1 no support vector is at the box bound
        assert np.all(result.distances <= result.radius_sq + 1e-6)

    def test_predict_modality_count_mismatch(self, tmp_path, capsys):
        paths, labels = _synth_files(tmp_path)
        cfg = _write_config(tmp_path, paths, labels)
        model_path = tmp_path / "model.json"
        main(["train", "--config", cfg, "--out", str(model_path)])
        rc = main(
            ["predict", "--model", str(model_path), "--data", paths[0],
             "--out", str(tmp_path / "pred.csv")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "modality" in err and paths[0] in err

    def test_predict_empty_input(self, tmp_path):
        paths, labels = _synth_files(tmp_path)
        cfg = _write_config(tmp_path, paths, labels)
        model_path = tmp_path / "model.json"
        main(["train", "--config", cfg, "--out", str(model_path)])
        empty1 = tmp_path / "e1.csv"
        empty2 = tmp_path / "e2.csv"
        empty1.write_text("")
        empty2.write_text("")
        out = tmp_path / "pred.csv"
        rc = main(
            ["predict", "--model", str(model_path)]
            + ["--data", str(empty1), "--data", str(empty2)]
            + ["--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 and lines[0].startswith("index,fused")

    @pytest.mark.parametrize("first", ["", "1,2,x\n"])
    def test_predict_rejects_one_empty_modality(self, tmp_path, capsys, first):
        # The second file has rows, so the input is not empty as a whole. A
        # first row with a number in it is data, so its bad cell is reported.
        error = {
            "": "row-count mismatch",
            "1,2,x\n": "e1.csv: non-numeric cell at row 1, column 3: 'x'",
        }[first]
        paths, labels = _synth_files(tmp_path)
        cfg = _write_config(tmp_path, paths, labels)
        model_path = tmp_path / "model.json"
        main(["train", "--config", cfg, "--out", str(model_path)])
        empty = tmp_path / "e1.csv"
        empty.write_text(first)
        out = tmp_path / "pred.csv"
        rc = main(
            ["predict", "--model", str(model_path)]
            + ["--data", str(empty), "--data", paths[1]]
            + ["--out", str(out)]
        )
        assert rc == 1
        assert error in capsys.readouterr().err
        assert not out.exists()

    def test_failed_predict_leaves_out_file_alone(self, tmp_path, capsys):
        paths, labels = _synth_files(tmp_path)
        cfg = _write_config(tmp_path, paths, labels)
        model_path = tmp_path / "model.json"
        main(["train", "--config", cfg, "--out", str(model_path)])
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("".join(f"{i},{i + 1}\n" for i in range(80)))
        out = tmp_path / "pred.csv"
        argv = (
            ["predict", "--model", str(model_path)]
            + ["--data", str(narrow), "--data", paths[1]]
            + ["--out", str(out)]
        )
        assert main(argv) == 1
        assert "dims" in capsys.readouterr().err
        assert not out.exists()
        out.write_text("earlier predictions\n")
        assert main(argv) == 1
        assert out.read_text() == "earlier predictions\n"

    @pytest.mark.parametrize("case", sorted(RETAGGINGS))
    def test_predict_rejects_retagged_model(self, tmp_path, capsys, case):
        model_path = write_retagged(tmp_path, case)
        rng = np.random.default_rng(0)
        csvs = []
        for v in range(2):
            csv = tmp_path / f"m{v}.csv"
            np.savetxt(csv, rng.standard_normal((5, 3)), delimiter=",")
            csvs += ["--data", str(csv)]
        out = tmp_path / "pred.csv"
        argv = ["predict", "--model", str(model_path)] + csvs + ["--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed model file {model_path}: ")
        assert err.count("\n") == 1
        assert RETAGGINGS[case][3] in err and "Traceback" not in err
        assert not out.exists()

    def test_predict_rejects_permuted_dims(self, tmp_path, capsys):
        # A baseline fit on modality dims [3, 4] reads fused features of
        # width 7, which data of dims [4, 3] also has.
        data = synth_multimodal(12, 8, 2, [3, 4], 4.0, seed=18)
        model_path = tmp_path / "model.json"
        save_model(fit_model(data, TrainConfig(model_kind="svdd", c_penalty=0.5)), model_path)
        rng = np.random.default_rng(0)
        csvs = []
        for v, dim in enumerate((4, 3)):
            csv = tmp_path / f"m{v}.csv"
            np.savetxt(csv, rng.standard_normal((5, dim)), delimiter=",")
            csvs += ["--data", str(csv)]
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model_path)] + csvs + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: model reads modalities of dims [3, 4], data has dims [4, 3]\n"
        assert not out.exists()

    # A legacy two-modality baseline loads with unknown dims and a warning
    # saying so; a model with no warning prints nothing on stderr.
    @pytest.mark.parametrize("version, name, warned", [
        (4, "ocsvm", True), (6, "svdd", True), (6, "kernelized-ocsvm", False),
    ])
    def test_predict_prints_model_warning(self, tmp_path, capsys, version, name, warned):
        model_path = old_models.model_path(version, name)
        rng = np.random.default_rng(0)
        csvs = []
        for v in range(2):
            csv = tmp_path / f"m{v}.csv"
            np.savetxt(csv, rng.standard_normal((5, 3)), delimiter=",")
            csvs += ["--data", str(csv)]
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", model_path] + csvs + ["--out", str(out)]) == 0
        err = capsys.readouterr().err
        if warned:
            assert err == f"warning: {load_model(model_path).warning}\n"
            assert "checks only the modality count" in err
        else:
            assert err == ""
        assert len(out.read_text().splitlines()) == 6

    @pytest.mark.parametrize("case", sorted(CONFIG_EDITS))
    def test_predict_rejects_edited_config(self, tmp_path, capsys, case):
        model_path = write_edited_config(tmp_path, case)
        paths, _ = _synth_files(tmp_path)
        out = tmp_path / "pred.csv"
        argv = ["predict", "--model", str(model_path), "--data", paths[0],
                "--data", paths[1], "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed model file {model_path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_train_round_trip_predictions_identical(self, tmp_path):
        paths, labels = _synth_files(tmp_path)
        cfg = _write_config(
            tmp_path, paths, labels, kernelized=True, kernel="composite",
            sigma=10.0, eta=0.001,
        )
        model_path = tmp_path / "model.json"
        main(["train", "--config", cfg, "--out", str(model_path)])
        out1 = tmp_path / "p1.csv"
        out2 = tmp_path / "p2.csv"
        for out in (out1, out2):
            main(
                ["predict", "--model", str(model_path)]
                + ["--data", paths[0], "--data", paths[1]]
                + ["--out", str(out)]
            )
        assert _read(out1) == _read(out2)


class TestCv:
    def test_fixed_config_outputs(self, tmp_path):
        paths, labels = _synth_files(tmp_path)
        cfg = _write_config(tmp_path, paths, labels)
        prefix = str(tmp_path / "report")
        assert main(["cv", "--config", cfg, "--out-prefix", prefix]) == 0
        report = json.loads(Path(prefix + ".json").read_text())
        cm = report["pooled_confusion"]
        assert cm["tp"] + cm["fn"] + cm["fp"] + cm["tn"] == 80
        assert Path(prefix + ".csv").exists()
        assert Path(prefix + ".txt").exists()
        assert Path(prefix + "_folds.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        paths, labels = _synth_files(tmp_path)
        cfg = _write_config(tmp_path, paths, labels)
        p1 = str(tmp_path / "r1")
        p2 = str(tmp_path / "r2")
        main(["cv", "--config", cfg, "--out-prefix", p1])
        main(["cv", "--config", cfg, "--out-prefix", p2])
        for suffix in (".json", ".csv", ".txt", "_folds.csv"):
            assert _read(p1 + suffix) == _read(p2 + suffix)

    def test_svdd_baseline_on_separable_data(self, tmp_path):
        paths, labels = _synth_files(tmp_path, "sep", seed=7, separation=6.0, n=50)
        cfg = _write_config(
            tmp_path, paths, labels, model="svdd", c=0.6
        )
        prefix = str(tmp_path / "svdd_report")
        assert main(["cv", "--config", cfg, "--out-prefix", prefix]) == 0
        report = json.loads(Path(prefix + ".json").read_text())
        assert report["mean_metrics"]["gm"] >= 0.90

    def test_nested_grid_cv(self, tmp_path):
        paths, labels = _synth_files(tmp_path, n=30)
        cfg = _write_config(
            tmp_path,
            paths,
            labels,
            max_iter=2,
            outer_folds=3,
            inner_folds=3,
            grid={"d": [2], "c": [0.5], "eta": [0.01], "beta": [0.0]},
        )
        prefix = str(tmp_path / "nested")
        assert main(["cv", "--config", cfg, "--out-prefix", prefix]) == 0
        report = json.loads(Path(prefix + ".json").read_text())
        assert report["selection"] == "nested"
        assert len(report["fold_configs"]) == 3

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        rc = main(["cv", "--config", str(tmp_path / "nope.json"),
                   "--out-prefix", str(tmp_path / "x")])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestGridsearchAndReport:
    def test_singleton_gridsearch(self, tmp_path):
        paths, labels = _synth_files(tmp_path, n=30)
        cfg = _write_config(
            tmp_path,
            paths,
            labels,
            max_iter=2,
            inner_folds=3,
            grid={
                "d": [2], "c": [0.5], "eta": [0.01], "beta": [0.0],
                "update_strategies": ["SD-"], "regularizers": ["w0"],
                "decision_strategies": ["ds1"],
            },
        )
        prefix = str(tmp_path / "gs")
        assert main(["gridsearch", "--config", cfg, "--out-prefix", prefix]) == 0
        best = json.loads(Path(prefix + "_best.json").read_text())
        assert best["config"]["d"] == 2
        assert best["config"]["c_penalty"] == 0.5
        cells = Path(prefix + "_cells.csv").read_text().strip().split("\n")
        assert cells[0].startswith("cell,fold")

    @pytest.mark.parametrize(
        "command, selection, fits",
        [("gridsearch", None, 3), ("cv", "nested", 3 * (3 + 1)), ("cv", "global", 3 + 3)],
    )
    def test_search_size_on_stderr(self, tmp_path, capsys, command, selection, fits):
        # Four cells, one distinct fit: w0 ignores beta, and the decision
        # strategy does not change a fit.
        paths, labels = _synth_files(tmp_path, n=30)
        grid = {
            "d": [2], "c": [0.5], "eta": [0.01], "beta": [0.0, 0.1],
            "update_strategies": ["SD-"], "regularizers": ["w0"],
            "decision_strategies": ["ds1", "ds2"],
        }
        extra = {} if selection is None else {"selection": selection}
        cfg = _write_config(
            tmp_path, paths, labels, max_iter=2, outer_folds=3, inner_folds=3,
            grid=grid, **extra,
        )
        prefix = str(tmp_path / "out")
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out-prefix", prefix]) == 0
        out, err = capsys.readouterr()
        assert err == f"grid search: 4 cells, {fits} fits\n"
        suffixes = ["_best.json", "_cells.csv"] if command == "gridsearch" else [
            ".json", ".csv", ".txt", "_folds.csv"]
        assert out == "".join(f"{prefix}{s}\n" for s in suffixes)

    @pytest.mark.parametrize(
        "command, selection, fits",
        [("gridsearch", None, 16 * 3), ("cv", "nested", 147), ("cv", "global", 51)],
    )
    def test_announced_fits_are_made(
        self, tmp_path, capsys, monkeypatch, command, selection, fits
    ):
        # 32 cells, 16 distinct fits: w0 ignores beta. Nested selection
        # makes 3 * (16 * 3 + 1) fits, global 16 * 3 + 3.
        made = []

        def spy(*args, **kwargs):
            made.append(1)
            return fit_model(*args, **kwargs)

        monkeypatch.setattr(evaluation, "fit_model", spy)
        monkeypatch.delenv("MSSVDD_WORKERS", raising=False)
        paths, labels = _synth_files(tmp_path, n=30)
        grid = {
            "d": [1, 2], "c": [0.3, 0.5], "eta": [0.01, 0.02], "beta": [0.0, 0.1],
            "update_strategies": ["SD-", "SD+"], "regularizers": ["w0"],
            "decision_strategies": ["ds1"],
        }
        extra = {} if selection is None else {"selection": selection}
        cfg = _write_config(
            tmp_path, paths, labels, max_iter=2, outer_folds=3, inner_folds=3,
            grid=grid, **extra,
        )
        capsys.readouterr()
        argv = [command, "--config", cfg, "--out-prefix", str(tmp_path / "out")]
        assert main(argv) == 0
        assert capsys.readouterr().err == f"grid search: 32 cells, {fits} fits\n"
        assert len(made) == fits

    @pytest.mark.parametrize(
        "command, config, line",
        [
            ("gridsearch", {}, "201,600 cells, 440,000 fits"),
            ("cv", {"grid": {}}, "201,600 cells, 2,200,005 fits"),
            ("cv", {"grid": {}, "kernelized": True}, "1,209,600 cells, 13,200,005 fits"),
        ],
    )
    def test_default_grid_size_announced(
        self, tmp_path, capsys, monkeypatch, command, config, line
    ):
        # The search itself would take hours; stop it where it would start.
        def stop(*args, **kwargs):
            raise SolverError("search not run")

        monkeypatch.setattr(cli, "grid_search", stop)
        monkeypatch.setattr(cli, "nested_cv", stop)
        paths, labels = _synth_files(tmp_path)
        cfg = _write_config(tmp_path, paths, labels, **config)
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out-prefix", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err == f"grid search: {line}\nerror: search not run\n"

    @pytest.mark.parametrize("value", ["two", "0", ""])
    def test_malformed_workers_env_exits_nonzero(
        self, tmp_path, capsys, monkeypatch, value
    ):
        paths, labels = _synth_files(tmp_path, n=30)
        grid = {
            "d": [2], "c": [0.5], "eta": [0.01], "beta": [0.0],
            "update_strategies": ["SD-"], "regularizers": ["w0"],
            "decision_strategies": ["ds1"],
        }
        cfg = _write_config(tmp_path, paths, labels, inner_folds=3, grid=grid)
        monkeypatch.setenv("MSSVDD_WORKERS", value)
        prefix = str(tmp_path / "gs")
        capsys.readouterr()
        assert main(["gridsearch", "--config", cfg, "--out-prefix", prefix]) == 1
        err = capsys.readouterr().err
        assert f"MSSVDD_WORKERS must be a positive integer, got {value!r}" in err
        assert not Path(prefix + "_cells.csv").exists()

    @pytest.mark.parametrize("command", ["report", "predict"])
    def test_malformed_file_exits_nonzero(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        if command == "report":
            argv = ["report", "--report", str(bad)]
        else:
            argv = ["predict", "--model", str(bad), "--data", str(bad),
                    "--out", str(tmp_path / "pred.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed") and str(bad) in err

    def test_report_rerender_matches(self, tmp_path):
        paths, labels = _synth_files(tmp_path)
        cfg = _write_config(tmp_path, paths, labels)
        prefix = str(tmp_path / "report")
        main(["cv", "--config", cfg, "--out-prefix", prefix])
        out = tmp_path / "again.txt"
        assert main(["report", "--report", prefix + ".json", "--out", str(out)]) == 0
        assert out.read_text() == Path(prefix + ".txt").read_text()


class TestTargetDesignation:
    def test_target_label_zero_swaps_classes(self, tmp_path):
        paths, labels = _synth_files(tmp_path, "des", seed=9, separation=6.0, n=30)
        cfg_pos = _write_config(tmp_path, paths, labels, target_label=1)
        prefix_pos = str(tmp_path / "pos")
        main(["cv", "--config", cfg_pos, "--out-prefix", prefix_pos])
        cfg_neg = tmp_path / "config_neg.json"
        cfg_neg.write_text(
            json.dumps(
                json.loads(Path(cfg_pos).read_text()) | {"target_label": 0}
            )
        )
        prefix_neg = str(tmp_path / "neg")
        main(["cv", "--config", str(cfg_neg), "--out-prefix", prefix_neg])
        pos = json.loads(Path(prefix_pos + ".json").read_text())
        neg = json.loads(Path(prefix_neg + ".json").read_text())
        # positive class sizes swap when the designation flips
        pos_cm = pos["pooled_confusion"]
        neg_cm = neg["pooled_confusion"]
        assert pos_cm["tp"] + pos_cm["fn"] == 30
        assert neg_cm["tp"] + neg_cm["fn"] == 30
        assert pos != neg


# Malformed experiment configs: each exits 1 with one error line and writes nothing.
MALFORMED_CONFIGS = [
    {"kernelized": "false"},
    {"normalize": "false"},
    {"d": 2.9},
    {"max_iter": 2.7},
    {"d": "two"},
    {"c": None},
    {"sigma": "abc"},
    {"sigma": 1e300},
    {"sigma": 1e-300},
    {"target_label": "x"},
    {"model": "ocsvm", "c": -1},
    {"model": "ocsvm", "kkt_tol": 0},
    {"seed": 1.5},
    {"outer_folds": "3"},
    {"inner_folds": True},
    {"target_label": 1.0},
    {"normalize": 1},
    {"modality_csvs": "m1.csv"},
    {"modality_csvs": [1, 2]},
    {"selection": 3},
    {"grid": []},
    {"grid": {"d": 3}},
    {"grid": {"d": []}},
    {"grid": {"gamma": [0.5]}},
    {"grid": {"d": [2.5]}},
    {"grid": {"c": ["x"]}},
    {"selection": "bogus"},
    {"inner_folds": 0},
    {"outer_folds": 1},
    {"target_label": 2},
    {"grid": {}, "inner_folds": 0},
]


class TestConfigSchema:
    @pytest.mark.parametrize(
        "command, extra",
        [(c, e) for e in MALFORMED_CONFIGS for c in ("train", "cv")],
        ids=json.dumps,
    )
    def test_malformed_config_exits_nonzero(self, tmp_path, capsys, command, extra):
        paths, labels = _synth_files(tmp_path)
        cfg = _write_config(tmp_path, paths, labels)
        Path(cfg).write_text(json.dumps(json.loads(Path(cfg).read_text()) | extra))
        out = tmp_path / "out"
        argv = [command, "--config", cfg]
        argv += ["--out", str(out)] if command == "train" else ["--out-prefix", str(out)]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "data"]

    def test_model_keys_cover_every_field_once(self):
        fields_ = [f.name for f in fields(TrainConfig) if f.name != "kernel_params"]
        fields_ += [f"kernel_params.{f.name}" for f in fields(KernelParams)]
        assert sorted(_MODEL_KEYS.values()) == sorted(fields_)

    def test_no_model_keys_gives_default_config(self):
        assert _train_config({}) == TrainConfig()
        experiment = {"modality_csvs": ["m.csv"], "seed": 3, "normalize": True, "grid": {}}
        assert _train_config(experiment) == TrainConfig()


class TestParser:
    # Each command's required flags besides the shared ones.
    REQUIRED = {
        "train": ["--out", "m.json"],
        "cv": ["--config", "c.json", "--out-prefix", "r"],
        "gridsearch": ["--config", "c.json", "--out-prefix", "r"],
    }

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_experiment_commands_parse_the_shared_flags_alike(self, command):
        parser = cli.build_parser()
        shared = [
            "--data", "a.csv", "--data", "b.csv", "--labels", "y.csv", "--seed", "3",
            "--normalize",
        ]
        args = parser.parse_args([command, *shared, *self.REQUIRED[command]])
        assert (args.data, args.labels, args.seed, args.normalize) == (
            ["a.csv", "b.csv"], "y.csv", 3, True
        )
        args = parser.parse_args([command, *self.REQUIRED[command]])
        assert (args.data, args.labels, args.seed, args.normalize) == (None, None, None, False)


class TestReadme:
    README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

    def test_example_config_states_every_key(self):
        block = re.search(r"### Experiment config.*?```json\n(.*?)```", self.README, re.S)
        example = json.loads(block.group(1))
        experiment = {f.name for f in fields(ExperimentConfig)}
        assert example.keys() == _MODEL_KEYS.keys() | experiment
        # The example is a valid config.
        ExperimentConfig(**{key: example[key] for key in experiment})
        _train_config(example)

    def test_cli_examples_parse(self):
        block = re.search(r"## CLI\n\n```bash\n(.*?)```", self.README, re.S)
        lines = block.group(1).replace("\\\n", " ").splitlines()
        assert len(lines) == 6
        parser = cli.build_parser()
        for line in lines:
            argv = shlex.split(line)
            assert argv[0] == "mssvdd"
            assert parser.parse_args(argv[1:]).command == argv[1]
