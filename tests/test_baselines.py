import numpy as np
import pytest

from mssvdd import (
    ConfigError,
    KernelParams,
    MultiModalDataset,
    ToolkitError,
    TrainConfig,
    fit_baseline,
    predict_baseline,
    synth_multimodal,
)
from mssvdd.baselines import fuse_features


class TestFuseFeatures:
    def test_stacks_modalities(self):
        data = synth_multimodal(5, 5, 2, [3, 2], 2.0, seed=0)
        fused = fuse_features(data)
        assert fused.shape == (5, 10)
        np.testing.assert_array_equal(fused[:3], data.modalities[0].values)
        np.testing.assert_array_equal(fused[3:], data.modalities[1].values)


class TestSvddBaseline:
    def test_separable_data(self):
        data = synth_multimodal(25, 25, 2, [3, 3], 8.0, seed=1)
        config = TrainConfig(model_kind="svdd", c_penalty=0.6)
        model = fit_baseline(data, config)
        result = predict_baseline(model, data)
        acc = float(np.mean(result.fused == data.labels))
        assert acc >= 0.9
        assert result.per_modality.shape == (1, 50)

    def test_kernelized(self):
        data = synth_multimodal(20, 15, 2, [3, 3], 5.0, seed=2)
        config = TrainConfig(
            model_kind="svdd",
            c_penalty=0.6,
            kernelized=True,
            kernel_params=KernelParams(kind="composite", sigma=5.0),
        )
        model = fit_baseline(data, config)
        assert model.kernel_maps is not None and len(model.kernel_maps) == 1
        # kappa resolved against the fused feature dimensionality
        assert model.kernel_maps[0].state.params.kappa == pytest.approx(1.0 / 6.0)
        result = predict_baseline(model, data)
        assert result.fused.shape == (35,)

    def test_rejects_subspace_config(self):
        data = synth_multimodal(10, 5, 1, [3], 2.0, seed=3)
        with pytest.raises(ConfigError):
            fit_baseline(data, TrainConfig(model_kind="subspace"))

    def test_modality_mismatch_at_predict(self):
        data = synth_multimodal(10, 5, 2, [3, 3], 2.0, seed=4)
        model = fit_baseline(data, TrainConfig(model_kind="svdd", c_penalty=0.6))
        v1 = MultiModalDataset((data.modalities[0],), data.labels, data.sample_ids)
        with pytest.raises(ConfigError):
            predict_baseline(model, v1)

    @pytest.mark.parametrize("kind", ["svdd", "ocsvm"])
    @pytest.mark.parametrize("kernelized", [False, True])
    def test_wrong_fused_width_at_predict(self, kind, kernelized):
        data = synth_multimodal(10, 5, 2, [3, 3], 2.0, seed=4)
        model = fit_baseline(data, TrainConfig(model_kind=kind, kernelized=kernelized))
        wide = synth_multimodal(10, 5, 2, [3, 4], 2.0, seed=4)
        with pytest.raises(ToolkitError):
            predict_baseline(model, wide)


class TestOcsvmBaseline:
    def test_fit_predict(self):
        data = synth_multimodal(25, 20, 1, [4], 8.0, seed=5)
        config = TrainConfig(model_kind="ocsvm", nu=0.2)
        model = fit_baseline(data, config)
        result = predict_baseline(model, data)
        assert result.radius_sq == 0.0
        # score convention: target iff score <= 0
        np.testing.assert_array_equal(
            (result.distances[0] <= 0.0).astype(int), result.fused
        )

    def test_targets_mostly_accepted(self):
        # The one-class hyperplane separates data from the origin, so put
        # targets in a far cluster and outliers near the origin.
        from mssvdd import FeatureMatrix

        rng = np.random.default_rng(6)
        targets = 8.0 + rng.standard_normal((3, 30))
        outliers = rng.standard_normal((3, 30))
        data = MultiModalDataset(
            (FeatureMatrix(np.hstack([targets, outliers])),),
            np.array([1] * 30 + [0] * 30),
        )
        config = TrainConfig(model_kind="ocsvm", nu=0.1)
        model = fit_baseline(data, config)
        result = predict_baseline(model, data)
        target_rate = float(np.mean(result.fused[:30]))
        outlier_rate = float(np.mean(result.fused[30:]))
        assert target_rate > 0.7
        assert outlier_rate < 0.3
