import copy
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

import old_models

from mssvdd import (
    FeatureMatrix,
    KernelParams,
    MultiModalDataset,
    PersistenceError,
    ToolkitError,
    TrainConfig,
    dataset_digest,
    fit_model,
    load_model,
    load_report,
    predict_model,
    run_cv,
    save_model,
    save_report,
    synth_multimodal,
)
from mssvdd.baselines import fuse_features
from mssvdd.persistence import (
    _decode_array,
    _encode_array,
    config_from_dict,
    config_to_dict,
    model_to_dict,
)


# Retaggings of a format 6 fixture, whose file states its kind beside
# config.model_kind: case -> (fixture, key, new value, the tag the error
# names). A None value takes the ocsvm fixture's hyperplane description.
RETAGGINGS = {
    "ocsvm-tagged-svdd": ("ocsvm", "baseline_kind", "svdd", "baseline_kind"),
    "svdd-tagged-ocsvm": ("svdd", "baseline_kind", "ocsvm", "baseline_kind"),
    "subspace-with-hyperplane": ("linear", "description", None, "description kind"),
    "ocsvm-tagged-bogus": ("ocsvm", "baseline_kind", "bogus", "baseline_kind"),
    "svdd-tagged-subspace": ("svdd", "model_class", "subspace", "model_class"),
}


def write_retagged(tmp_path, case):
    """Path of a format 6 fixture, which reads two modalities of 3 features
    each, retagged per case."""
    name, key, value, _ = RETAGGINGS[case]

    def fixture(name):
        return json.loads(Path(old_models.model_path(6, name)).read_text())

    obj = fixture(name)
    obj[key] = fixture("ocsvm")["description"] if value is None else value
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(obj))
    return path


# Edits of the config in a saved ocsvm model or report file: case -> (field,
# new value or ... to delete it, what the error says).
CONFIG_EDITS = {
    "bogus-kind": ("model_kind", "bogus", "unknown model kind 'bogus'"),
    "negative-c": ("c_penalty", -1, "c_penalty must be positive"),
    "fractional-d": ("d", 2.5, "d must be int, got 2.5"),
    "missing-field": ("nu", ..., r"TrainConfig fields missing \['nu'\]"),
}


def write_edited_config(tmp_path, case, what="model"):
    """Path of a saved ocsvm model (or report) whose config is edited per case."""
    key, value, _ = CONFIG_EDITS[case]
    data = synth_multimodal(12, 8, 2, [3, 3], 4.0, seed=11)
    config = TrainConfig(model_kind="ocsvm", nu=0.3)
    path = tmp_path / f"{what}-{case}.json"
    if what == "model":
        save_model(fit_model(data, config), path)
    else:
        save_report(run_cv(data, config, k=3, seed=1), path)
    obj = json.loads(path.read_text())
    if value is ...:
        del obj["config"][key]
    else:
        obj["config"][key] = value
    path.write_text(json.dumps(obj))
    return path


def _matches_parent(model, path):
    """model, loaded from the fixture at path, holds the kernel maps and
    gives the predictions on old_models.probe() stored for that file."""
    with open(os.path.join(old_models.DATA, "expected.json")) as fh:
        want = json.load(fh)[os.path.basename(path)]
    maps = model.kernel_maps
    digests = None if maps is None else [old_models.map_digest(km.map) for km in maps]
    assert digests == want["maps"]
    result = predict_model(model, old_models.probe())
    assert result.fused.tolist() == want["fused"]
    assert result.per_modality.tolist() == want["per_modality"]
    assert result.distances.tobytes() == np.array(want["distances"]).tobytes()
    assert result.radius_sq == want["radius_sq"]


def _predictions_equal(a, b):
    np.testing.assert_array_equal(a.fused, b.fused)
    np.testing.assert_array_equal(a.per_modality, b.per_modality)
    np.testing.assert_array_equal(a.distances, b.distances)
    assert a.radius_sq == b.radius_sq


class TestModelRoundTrip:
    def test_linear_subspace(self, tmp_path):
        data = synth_multimodal(15, 10, 2, [4, 3], 4.0, seed=0)
        model = fit_model(data, TrainConfig(d=2, eta=0.01, c_penalty=0.5, max_iter=3))
        path = tmp_path / "model.json"
        save_model(model, path, {"seed": 0, "dataset_digest": dataset_digest(data)})
        back = load_model(path)
        rng = np.random.default_rng(1)
        probe = synth_multimodal(20, 20, 2, [4, 3], 4.0, seed=2)
        _predictions_equal(predict_model(model, probe), predict_model(back, probe))

    def test_kernelized_subspace(self, tmp_path):
        data = synth_multimodal(12, 8, 2, [3, 3], 4.0, seed=3)
        config = TrainConfig(
            d=2,
            eta=0.001,
            c_penalty=0.5,
            max_iter=2,
            kernelized=True,
            kernel_params=KernelParams(kind="composite", sigma=3.0),
        )
        model = fit_model(data, config)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        probe = synth_multimodal(9, 9, 2, [3, 3], 4.0, seed=4)
        _predictions_equal(predict_model(model, probe), predict_model(back, probe))

    def test_normalized_model_keeps_scaler(self, tmp_path):
        data = synth_multimodal(12, 8, 2, [3, 3], 4.0, seed=5)
        model = fit_model(
            data,
            TrainConfig(d=2, eta=0.01, c_penalty=0.5, max_iter=2),
            normalize=True,
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.scaler is not None
        probe = synth_multimodal(7, 7, 2, [3, 3], 4.0, seed=6)
        _predictions_equal(predict_model(model, probe), predict_model(back, probe))

    def test_baseline_round_trip(self, tmp_path):
        data = synth_multimodal(15, 10, 2, [3, 3], 5.0, seed=7)
        kernel = {"kernelized": True, "kernel_params": KernelParams(sigma=3.0)}
        for i, (kind, kwargs) in enumerate((
            ("svdd", {"c_penalty": 0.6}),
            ("ocsvm", {"nu": 0.3}),
            ("svdd", {"c_penalty": 0.6, **kernel}),
            ("ocsvm", {"nu": 0.3, **kernel}),
        )):
            model = fit_model(data, TrainConfig(model_kind=kind, **kwargs))
            path = tmp_path / f"{kind}{i}.json"
            save_model(model, path)
            back = load_model(path)
            probe = synth_multimodal(6, 6, 2, [3, 3], 5.0, seed=8)
            _predictions_equal(predict_model(model, probe), predict_model(back, probe))

    def test_version_mismatch_rejected(self, tmp_path):
        data = synth_multimodal(10, 5, 1, [3], 3.0, seed=9)
        model = fit_model(
            data, TrainConfig(d=1, c_penalty=0.5, max_iter=1, regularizer="psi0")
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        obj = json.loads(path.read_text())
        obj["format_version"] = 99
        path.write_text(json.dumps(obj))
        with pytest.raises(PersistenceError, match="version"):
            load_model(path)

    def test_format_versions(self, tmp_path):
        data = synth_multimodal(12, 8, 2, [3, 3], 4.0, seed=3)
        config = TrainConfig(
            d=2, eta=0.001, c_penalty=0.5, max_iter=2, kernelized=True,
            kernel_params=KernelParams(kind="composite", sigma=3.0),
        )
        model = fit_model(data, config)
        path = tmp_path / "model.json"
        save_model(model, path)
        obj = json.loads(path.read_text())
        assert obj["format_version"] == 7
        assert "npt_states" not in obj and "model_class" not in obj
        for entry in obj["kernel_maps"]:
            assert set(entry) == {"row_means", "train_data", "map"}
        assert set(obj["description"]) == {"center", "radius_sq"}
        probe = synth_multimodal(9, 9, 2, [3, 3], 4.0, seed=4)
        _predictions_equal(
            predict_model(model, probe), predict_model(load_model(path), probe)
        )

        # Files that the writers of versions 1 to 4 and 6 wrote load to the
        # maps and predictions their expected loaders gave.
        for version in old_models.VERSIONS:
            for name in old_models.models(version):
                old_path = old_models.model_path(version, name)
                assert json.loads(Path(old_path).read_text())["format_version"] == version
                back = load_model(old_path)
                _matches_parent(back, old_path)
                # Saved again, it is a current file that predicts the same.
                again = tmp_path / f"again-v{version}-{name}.json"
                save_model(back, again)
                _matches_parent(load_model(again), old_path)

        report = run_cv(
            data, TrainConfig(d=2, eta=0.01, c_penalty=0.5, max_iter=2), k=4, seed=1
        )
        report_path = tmp_path / "report.json"
        save_report(report, report_path)
        assert json.loads(report_path.read_text())["format_version"] == 1

    # Edits of the first kernel map entry of a saved format 3 file:
    # case -> (edit, what the error says).
    KERNEL_MAP_EDITS = {
        "truncated-map": (
            lambda e: e.update(map=_encode_array(_decode_array(e["map"])[:, :-1])),
            r"modality 0 kernel map has shape \(2, 11\), expected \(2, 12\)",
        ),
        "truncated-row-means": (
            lambda e: e.update(row_means=_encode_array(_decode_array(e["row_means"])[:1])),
            r"row_means shape \(1,\) does not match 12 training samples",
        ),
    }

    @pytest.mark.parametrize("case", sorted(KERNEL_MAP_EDITS) + ["missing-entry"])
    def test_malformed_kernel_map_rejected(self, tmp_path, case):
        data = synth_multimodal(12, 8, 2, [3, 3], 4.0, seed=3)
        config = TrainConfig(
            d=2, eta=0.001, c_penalty=0.5, max_iter=2, kernelized=True,
            kernel_params=KernelParams(kind="composite", sigma=3.0),
        )
        obj = model_to_dict(fit_model(data, config))
        if case == "missing-entry":
            del obj["kernel_maps"][1]
            match = "1 kernel_maps entries for 2 projections"
        else:
            edit, match = self.KERNEL_MAP_EDITS[case]
            edit(obj["kernel_maps"][0])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(PersistenceError, match=f"malformed .*bad.json.*{match}"):
            load_model(path)

    @staticmethod
    def _kernelized_baseline(kind):
        data = synth_multimodal(12, 8, 2, [3, 3], 4.0, seed=3)
        config = TrainConfig(
            model_kind=kind, c_penalty=0.5, nu=0.3, kernelized=True,
            kernel_params=KernelParams(kind="composite", sigma=3.0),
        )
        return data, fit_model(data, config)

    @pytest.mark.parametrize("kind", ["svdd", "ocsvm"])
    def test_baseline_file_holds_one_kernel_map(self, tmp_path, kind):
        _, model = self._kernelized_baseline(kind)
        path = tmp_path / "model.json"
        save_model(model, path)
        obj = json.loads(path.read_text())
        assert obj["format_version"] == 7
        assert obj["input_dims"] == [3, 3]
        assert not {"npt_state", "model_class", "baseline_kind", "n_modalities"} & set(obj)
        [entry] = obj["kernel_maps"]
        stored = {"center", "radius_sq"} if kind == "svdd" else {"weight", "rho"}
        assert set(obj["description"]) == stored
        if kind == "svdd":
            assert set(entry) == {"row_means", "train_data", "map"}
        else:
            # The uncentered kernel has no row means, and the weight is
            # folded into a 1 x N map: the description's weight is [1].
            assert set(entry) == {"train_data", "map"}
            assert _decode_array(entry["map"]).shape == (1, 12)
            assert _decode_array(obj["description"]["weight"]).tolist() == [1.0]
        back = load_model(path)
        assert back.kernel_maps[0].map.tobytes() == model.kernel_maps[0].map.tobytes()
        probe = synth_multimodal(9, 9, 2, [3, 3], 4.0, seed=4)
        _predictions_equal(predict_model(model, probe), predict_model(back, probe))

    @pytest.mark.parametrize("kind", ["svdd", "ocsvm"])
    def test_format_5_kernelized_baseline(self, tmp_path, kind):
        # Format 6 changed only the kernelized ocsvm, which format 5 fit on
        # the centered kernel: such a file is rejected, any other loads as
        # it is. The format 6 fixtures stand in for format 5 files.
        fixture = old_models.model_path(6, "svdd" if kind == "svdd" else "kernelized-ocsvm")
        obj = json.loads(Path(fixture).read_text())
        obj["format_version"] = 5
        path = tmp_path / "v5.json"
        path.write_text(json.dumps(obj))
        if kind == "ocsvm":
            with pytest.raises(PersistenceError, match="before format 6: .*re-fit the model"):
                load_model(path)
        else:
            _matches_parent(load_model(path), fixture)

    def test_uncentered_kernel_stores_no_row_means(self, tmp_path):
        obj = model_to_dict(self._kernelized_baseline("ocsvm")[1])
        obj["kernel_maps"][0]["row_means"] = _encode_array(np.zeros(12))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        match = "holds row_means, but the ocsvm kernel is uncentered"
        with pytest.raises(PersistenceError, match=match):
            load_model(path)

    @pytest.mark.parametrize("kind", ["svdd", "ocsvm"])
    def test_baseline_eigenpair_versions_load(self, kind):
        # Baseline files before format 4 store the fused kernel's eigenpairs
        # under npt_state (null for the linear ocsvm fixture); loading
        # composes the map training composes.
        for version in (1, 2, 3):
            path = old_models.model_path(version, kind)
            obj = json.loads(Path(path).read_text())
            assert "kernel_maps" not in obj
            assert (obj["npt_state"] is None) == (kind == "ocsvm")
            back = load_model(path)
            assert back.kind == kind
            _matches_parent(back, path)

    @pytest.mark.parametrize("case", ["two-entries", "truncated-map"])
    @pytest.mark.parametrize("kind", ["svdd", "ocsvm"])
    def test_malformed_baseline_kernel_map_rejected(self, tmp_path, kind, case):
        obj = model_to_dict(self._kernelized_baseline(kind)[1])
        entries = obj["kernel_maps"]
        if case == "two-entries":
            entries.append(entries[0])
            match = "2 kernel_maps entries for 1 fused feature set"
        else:
            entries[0]["map"] = _encode_array(_decode_array(entries[0]["map"])[:, :-1])
            match = r"kernel map has shape \(\d+, 11\), expected \(\d+, 12\)"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(PersistenceError, match=f"malformed .*bad.json.*{match}"):
            load_model(path)

    @pytest.mark.parametrize("loader", [load_model, load_report])
    @pytest.mark.parametrize("text", ['{"format_version": 1}', "[]"])
    def test_malformed_file_rejected(self, tmp_path, loader, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(PersistenceError, match="malformed .*bad.json"):
            loader(path)

    # A baseline file before format 7 gets its dims from its scaler, from
    # its fused width when it has one modality, and else None for each,
    # which the gate does not check and the model's warning states.
    @pytest.mark.parametrize("version, name, n_modalities, dims", [
        (4, "svdd", 2, (None, None)),
        (6, "ocsvm", 2, (None, None)),
        (6, "kernelized-ocsvm", 2, (3, 3)),
        (6, "ocsvm", 1, (6,)),
        (6, "svdd", 1, (6,)),
    ])
    def test_older_baseline_dims(self, tmp_path, version, name, n_modalities, dims):
        fixture = old_models.model_path(version, name)
        obj = json.loads(Path(fixture).read_text())
        obj["n_modalities"] = n_modalities
        path = tmp_path / "old.json"
        path.write_text(json.dumps(obj))
        model = load_model(path)
        assert model.input_dims == dims
        assert (model.warning is None) == (None not in dims)
        assert model_to_dict(model)["input_dims"] == list(dims)
        probe = old_models.probe()
        if n_modalities == 1:
            # One modality of the fused width reads the fused probe.
            fused = MultiModalDataset((FeatureMatrix(fuse_features(probe)),), probe.labels)
            _predictions_equal(predict_model(model, fused), predict_model(load_model(fixture), probe))
        else:
            _matches_parent(model, fixture)

    # Such a null dim is stated in the model's warning, after any warning
    # the file has, and a re-saved file keeps it.
    @pytest.mark.parametrize("version, name", [
        (4, "ocsvm"), (4, "svdd"), (6, "ocsvm"), (6, "svdd"),
    ])
    @pytest.mark.parametrize("stated", [None, "stopped early: no step"])
    def test_unknown_dims_warned(self, tmp_path, version, name, stated):
        obj = json.loads(Path(old_models.model_path(version, name)).read_text())
        obj["warning"] = stated
        path = tmp_path / "old.json"
        path.write_text(json.dumps(obj))
        model = load_model(path)
        assert model.input_dims == (None, None)
        prefix = "" if stated is None else f"{stated}; "
        assert model.warning == prefix + (
            "the file does not state the model's modality dims, so predict checks "
            "only the modality count; re-fit the model to record them"
        )
        save_model(model, tmp_path / "again.json")
        back = load_model(tmp_path / "again.json")
        assert (back.input_dims, back.warning) == (model.input_dims, model.warning)

    @pytest.mark.parametrize("case", sorted(RETAGGINGS))
    def test_retagged_kind_rejected(self, tmp_path, case):
        # config.model_kind states the kind; every other tag must agree.
        path = write_retagged(tmp_path, case)
        with pytest.raises(PersistenceError, match=f"states {RETAGGINGS[case][3]} "):
            load_model(path)

    @pytest.mark.parametrize("what", ["model", "report"])
    @pytest.mark.parametrize("case", sorted(CONFIG_EDITS))
    def test_edited_config_rejected(self, tmp_path, case, what):
        path = write_edited_config(tmp_path, case, what)
        load = load_model if what == "model" else load_report
        message = f"malformed {what} file {re.escape(str(path))}: ConfigError: "
        with pytest.raises(PersistenceError, match=message + CONFIG_EDITS[case][2]):
            load(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("normalize", "no"), ("normalize", 1), ("normalize", None),
            ("max_ortho_error", "x"), ("max_ortho_error", []),
            ("max_ortho_error", {}), ("max_ortho_error", True),
            ("selection", 3), ("selection", []),
            ("fold_configs", "x"), ("fold_configs", {}), ("fold_configs", [1]),
            ("k", 2.9), ("k", "3"), ("seed", "1"), ("seed", 1.5),
            ("fold_assignment", [0, 1, 2, 0.7]),
            ("fold_confusions", [{"tp": 1, "fn": 0, "fp": 0, "tn": 1}] * 2),
            ("fold_confusions", [{"tp": 2.0, "fn": 0, "fp": 0, "tn": 1}] * 3),
            ("fold_confusions", [{"tp": True, "fn": 0, "fp": 0, "tn": 1}] * 3),
            ("fold_confusions", [{"tp": 1e400, "fn": 0, "fp": 0, "tn": 1}] * 3),
            ("fold_confusions", [{"tp": 1, "fn": 0, "fp": 0}] * 3),
        ],
    )
    def test_edited_report_field_rejected(self, tmp_path, key, value):
        path = tmp_path / "report.json"
        data = synth_multimodal(12, 8, 2, [3, 3], 4.0, seed=11)
        save_report(run_cv(data, TrainConfig(d=2, c_penalty=0.5), k=3, seed=1), path)
        obj = json.loads(path.read_text())
        obj[key] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(PersistenceError, match=f"malformed report file {re.escape(str(path))}"):
            load_report(path)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(PersistenceError):
            load_model(path)

    def test_save_is_deterministic(self, tmp_path):
        data = synth_multimodal(10, 5, 2, [3, 3], 3.0, seed=10)
        config = TrainConfig(d=2, eta=0.01, c_penalty=0.5, max_iter=2)
        m1 = fit_model(data, config)
        m2 = fit_model(data, config)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(m1, p1, {"seed": 1})
        save_model(m2, p2, {"seed": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_over_existing_file(self, tmp_path):
        data = synth_multimodal(10, 5, 2, [3, 3], 3.0, seed=11)
        first = fit_model(data, TrainConfig(d=2, eta=0.01, c_penalty=0.5, max_iter=2))
        second = fit_model(data, TrainConfig(d=1, eta=0.01, c_penalty=0.5, max_iter=2))
        fresh = tmp_path / "fresh.json"
        save_model(second, fresh)

        plain = tmp_path / "plain.json"
        save_model(first, plain)
        save_model(second, plain)
        assert plain.read_bytes() == fresh.read_bytes()

        # A symlink and a second hard link keep pointing at the new contents.
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        save_model(first, target)
        link.symlink_to(target)
        save_model(second, link)
        assert link.is_symlink()
        assert target.read_bytes() == fresh.read_bytes()

        shared, other_name = tmp_path / "shared.json", tmp_path / "other.json"
        save_model(first, shared)
        other_name.hardlink_to(shared)
        save_model(second, shared)
        assert other_name.read_bytes() == fresh.read_bytes()


def _old_file(tmp_path, name, version):
    """The parsed version 4 fixture of model name, or (version 5) that
    model saved again in the current format."""
    path = old_models.model_path(4, name)
    if version == 5:
        path = tmp_path / f"{name}-v5.json"
        save_model(load_model(old_models.model_path(4, name)), path)
    return json.loads(Path(path).read_text())


def _edited(obj, key_path, value):
    """A copy of obj with the field at key_path set to value, or deleted
    when value is ...."""
    obj = copy.deepcopy(obj)
    *parents, last = key_path
    owner = obj
    for key in parents:
        owner = owner[key]
    if value is ...:
        del owner[last]
    else:
        owner[last] = value
    return obj


NAN, INF = float("nan"), float("inf")


def _scaler(*dims):
    """A scaler file entry per modality of dims: valid, but for dims."""
    return [{"mean": _encode_array(np.zeros(n)), "std": _encode_array(np.ones(n))} for n in dims]


# Single-field edits of a fixture's file: case -> (model, field path, new
# value, versions it applies to, what the error says, or per version what
# it says). Version 4 files hold copies of the kernel params and of the
# description's C or nu, which version 5 files derive from the config.
FILE_EDITS = {
    "nu-0": ("ocsvm", ("description", "nu"), 0, (4,), r"description\.nu 0\.0 disagrees"),
    "c-copy": (
        "linear", ("description", "c_penalty"), 0.25, (4,),
        r"description\.c_penalty 0\.25 disagrees with the config's 0\.5",
    ),
    "kappa-0-copy": (
        "kernelized", ("kernel_maps", 0, "params", "kappa"), 0, (4,),
        r"kernel_maps\[0\]\.params .*'kappa': 0\.0.* disagree",
    ),
    "sigma-copy": (
        "svdd", ("kernel_maps", 0, "params", "sigma"), 2.0, (4,),
        r"kernel_maps\[0\]\.params .*'sigma': 2\.0.* disagree",
    ),
    "config-nu-0": ("ocsvm", ("config", "nu"), 0, (4, 5), r"nu must lie in \(0, 1\]"),
    # An older kernelized ocsvm was fit on the centered kernel.
    "kernelized-ocsvm": (
        "ocsvm", ("config", "kernelized"), True, (4,),
        r"kernelized ocsvm file before format 6: .* labels are rounding noise; re-fit the model",
    ),
    "radius-nan": (
        "svdd", ("description", "radius_sq"), NAN, (4, 5),
        "description.radius_sq must be finite, got nan",
    ),
    "radius-negative": (
        "linear", ("description", "radius_sq"), -1, (4, 5),
        "radius_sq must be finite and non-negative, got -1.0",
    ),
    "radius-true": (
        "kernelized", ("description", "radius_sq"), True, (4, 5),
        "description.radius_sq must be float, got True",
    ),
    "rho-nan": (
        "ocsvm", ("description", "rho"), NAN, (4, 5), "description.rho must be finite, got nan"
    ),
    "rho-true": (
        "ocsvm", ("description", "rho"), True, (4, 5), "description.rho must be float, got True"
    ),
    "kernelized-flip": (
        "linear", ("config", "kernelized"), True, (4, 5),
        "kernel_maps is null, but the config's kernelized is True",
    ),
    "d-edit": (
        "linear", ("config", "d"), 3, (4, 5), "projection 0 has 2 rows, but the config's d is 3"
    ),
    "eta-nan": ("linear", ("config", "eta"), NAN, (4, 5), "eta must be finite, got nan"),
    "beta-inf": ("kernelized", ("config", "beta"), INF, (4, 5), "beta must be finite, got inf"),
    "c-inf": ("svdd", ("config", "c_penalty"), INF, (4, 5), "c_penalty must be finite, got inf"),
    "kkt-tol-inf": (
        "ocsvm", ("config", "kkt_tol"), INF, (4, 5), "kkt_tol must be finite, got inf"
    ),
    "sigma-nan": (
        "kernelized", ("config", "kernel_params", "sigma"), NAN, (4, 5),
        "sigma must be finite, got nan",
    ),
    "kappa-inf": (
        "svdd", ("config", "kernel_params", "kappa"), INF, (4, 5),
        "kappa must be finite, got inf",
    ),
    "theta-nan": (
        "linear", ("config", "kernel_params", "theta"), NAN, (4, 5),
        "theta must be finite, got nan",
    ),
    # The linear fixture z-scores its two modalities of 3 features each.
    "scaler-one-entry": (
        "linear", ("scaler", 1), ..., (4, 5),
        "scaler has 1 entries, but the model has 2 modalities",
    ),
    "scaler-mean-short": (
        "linear", ("scaler", 0, "mean"), _encode_array(np.zeros(2)), (4, 5),
        r"scaler\[0\] mean and std must be 1-D of one length, got shapes \(2,\) and \(3,\)",
    ),
    "scaler-std-2d": (
        "linear", ("scaler", 1, "std"), _encode_array(np.ones((3, 1))), (4, 5),
        r"scaler\[1\] mean and std must be 1-D",
    ),
    "scaler-std-0": (
        "linear", ("scaler", 1, "std"), _encode_array(np.zeros(3)), (4, 5),
        r"scaler\[1\] must hold finite means and finite, positive stds",
    ),
    "scaler-std-negative": (
        "linear", ("scaler", 0, "std"), _encode_array(-np.ones(3)), (4, 5),
        r"scaler\[0\] must hold finite means and finite, positive stds",
    ),
    "scaler-mean-nan": (
        "linear", ("scaler", 0, "mean"), _encode_array(np.full(3, NAN)), (4, 5),
        r"scaler\[0\] must hold finite means",
    ),
    "scaler-on-unscaled": (
        "svdd", ("scaler",), [], (4, 5), "scaler has 0 entries, but the model has 2 modalities",
    ),
    # Every fixture's model reads two modalities of 3 features each.
    "scaler-dims": (
        "linear", ("scaler", 0), _scaler(4)[0], (4, 5),
        r"scaler z-scores modalities of dims \[4, 3\], but the model reads modality dims \[3, 3\]",
    ),
    "scaler-kernel-dims": (
        "kernelized", ("scaler",), _scaler(3, 4), (4, 5),
        r"dims \[3, 4\], but the model reads modality dims \[3, 3\]",
    ),
    # A baseline file before format 7 takes its dims from its scaler, which
    # must sum to its fused width; the unscaled baseline fixtures, saved
    # again, state null dims, which no scaler matches.
    "scaler-fused-width": (
        "svdd", ("scaler",), _scaler(3, 4), (4, 5), {
            4: r"input_dims \[3, 4\] sum to 7, but the fused width is 6",
            5: r"dims \[3, 4\], but the model reads modality dims \[None, None\]",
        },
    ),
    "scaler-fused-width-linear": (
        "ocsvm", ("scaler",), _scaler(4, 4), (4, 5), {
            4: r"input_dims \[4, 4\] sum to 8, but the fused width is 6",
            5: r"dims \[4, 4\], but the model reads modality dims \[None, None\]",
        },
    ),
    # A current baseline file states the dims it reads, whose sum, when all
    # are known, is its fused width.
    "input-dims-width": (
        "svdd", ("input_dims",), [3, 4], (5,),
        r"input_dims \[3, 4\] sum to 7, but the fused width is 6$",
    ),
    "input-dims-type": (
        "ocsvm", ("input_dims", 0), "x", (5,), r"input_dims\[0\] must be int or None, got 'x'$"
    ),
    # The config states a model's kind: an older file's tags must agree,
    # and a current file's layout must be that kind's.
    "config-kind-flip": (
        "ocsvm", ("config", "model_kind"), "svdd", (4, 5), {
            4: "states baseline_kind 'ocsvm', but its config's model_kind 'svdd' implies 'svdd'",
            5: "KeyError: 'center'",
        },
    ),
}

# The sweep's edits of every field: delete it (...) or set it to each value.
SWEEP_VALUES = (..., None, "x", -1, NAN, 0, 1e6, True, [], {})


def _key_paths(obj, prefix=()):
    """The path to every key of every object nested in obj."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        if isinstance(obj, dict):
            yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, prefix + (key,))


class TestFileEdits:
    @pytest.mark.parametrize(
        "case, version",
        [(case, v) for case, edit in sorted(FILE_EDITS.items()) for v in edit[3]],
    )
    def test_edit_rejected(self, tmp_path, case, version):
        name, key_path, value, _, message = FILE_EDITS[case]
        message = message[version] if isinstance(message, dict) else message
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(_edited(_old_file(tmp_path, name, version), key_path, value)))
        names_file = f"^malformed model file {re.escape(str(path))}: "
        with pytest.raises(PersistenceError, match=names_file + f".*{message}"):
            load_model(path)

    @pytest.mark.parametrize("version", [4, 5])
    @pytest.mark.parametrize("name", sorted(old_models.MODELS))
    def test_every_field_edit_fails_typed(self, tmp_path, name, version):
        # Loading and predicting with a file that has any one field deleted
        # or replaced either works or raises a ToolkitError.
        obj = _old_file(tmp_path, name, version)
        probe = old_models.probe()
        path = tmp_path / "edited.json"
        untyped = []
        for key_path in _key_paths(obj):
            for value in SWEEP_VALUES:
                path.write_text(json.dumps(_edited(obj, key_path, value)))
                try:
                    predict_model(load_model(path), probe)
                except ToolkitError:
                    pass
                except Exception as exc:  # noqa: BLE001 - the failure under test
                    untyped.append(f"{key_path} = {value!r}: {type(exc).__name__}: {exc}")
        assert not untyped, "\n".join(untyped)


class TestConfigDict:
    def test_round_trip(self):
        config = TrainConfig(
            d=3,
            eta=0.1,
            beta=10.0,
            c_penalty=0.2,
            max_iter=7,
            update_strategy="AD+-",
            regularizer="w5",
            kernelized=True,
            kernel_params=KernelParams(kind="composite", sigma=10.0, kappa=None),
            decision_strategy="ds4",
        )
        assert config_from_dict(config_to_dict(config)) == config
        # Numbers given as ints are stored, saved and read back as floats.
        ints = TrainConfig(
            eta=0, beta=10, c_penalty=1, nu=1, kkt_tol=1,
            kernel_params=KernelParams(gamma=1, sigma=10, kappa=1, theta=0),
        )
        saved = json.loads(json.dumps(config_to_dict(ints)))
        assert saved["c_penalty"] == 1.0 and type(saved["c_penalty"]) is float
        back = config_from_dict(saved)
        assert back == ints and config_to_dict(back) == saved
        kp = saved["kernel_params"]
        assert all(type(kp[name]) is float for name in ("gamma", "sigma", "kappa", "theta"))


class TestReportRoundTrip:
    def test_report_file(self, tmp_path):
        data = synth_multimodal(15, 10, 2, [3, 3], 4.0, seed=11)
        report = run_cv(
            data, TrainConfig(d=2, eta=0.01, c_penalty=0.5, max_iter=2), k=5, seed=12
        )
        path = tmp_path / "report.json"
        save_report(report, path)
        back = load_report(path)
        assert back.fold_metrics == report.fold_metrics
        assert back.pooled_confusion == report.pooled_confusion
        assert back.mean_metrics == report.mean_metrics
        np.testing.assert_array_equal(
            back.fold_plan.assignment, report.fold_plan.assignment
        )

    def test_metrics_derive_from_confusions(self, tmp_path):
        data = synth_multimodal(15, 10, 2, [3, 3], 4.0, seed=11)
        report = run_cv(
            data, TrainConfig(d=2, eta=0.01, c_penalty=0.5, max_iter=2), k=5, seed=12
        )
        path, again = tmp_path / "report.json", tmp_path / "again.json"
        save_report(report, path)
        save_report(load_report(path), again)
        assert again.read_bytes() == path.read_bytes()

        # The stored metric blocks are output only; loading recomputes them.
        obj = json.loads(path.read_text())
        obj["mean_metrics"]["gm"] = obj["pooled_metrics"]["gm"] = 2.0
        obj["fold_metrics"][0]["sen"] = -1.0
        obj["pooled_confusion"]["tp"] = 0
        path.write_text(json.dumps(obj))
        back = load_report(path)
        assert back.mean_metrics == report.mean_metrics
        assert back.fold_metrics == report.fold_metrics
        assert back.pooled_confusion == report.pooled_confusion
        assert back.pooled_metrics == report.pooled_metrics

    def test_dataset_digest_sensitivity(self):
        a = synth_multimodal(10, 5, 1, [3], 3.0, seed=13)
        b = synth_multimodal(10, 5, 1, [3], 3.0, seed=14)
        assert dataset_digest(a) != dataset_digest(b)
        assert dataset_digest(a) == dataset_digest(
            synth_multimodal(10, 5, 1, [3], 3.0, seed=13)
        )
