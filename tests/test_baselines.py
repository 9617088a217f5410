import re
from dataclasses import replace

import numpy as np
import pytest

from mssvdd import (
    ConfigError,
    DataError,
    FeatureMatrix,
    KernelError,
    KernelParams,
    MultiModalDataset,
    SolverError,
    ToolkitError,
    TrainConfig,
    fit_baseline,
    fit_model,
    load_model,
    npt_embed_test,
    npt_fit,
    predict_baseline,
    predict_model,
    save_model,
    svdd_solve,
    synth_multimodal,
)
from mssvdd.baselines import fuse_features
from mssvdd.svdd import support_masks

# The benchmark's baseline kernel, on 300 targets of two 20-dim modalities.
BASELINE_KERNEL = KernelParams(kind="composite", gamma=0.5, sigma=3.0)


def _baseline_data(seed):
    return synth_multimodal(300, 1, 2, [20, 20], 3.0, seed)


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

    @pytest.mark.parametrize("seed", [11, 12])
    def test_kernel_gram_solves_as_syrk(self, seed):
        # The kernelized solve takes its Gram from the centered kernel less
        # its dropped eigenpairs; the embedded points' own Gram gives the
        # same alphas to rounding, with the same support.
        config = TrainConfig(
            model_kind="svdd", kernelized=True, kernel_params=BASELINE_KERNEL, c_penalty=0.05
        )
        desc = fit_baseline(_baseline_data(seed), config).description
        syrk = svdd_solve(desc.train_points, config.c_penalty, config.kkt_tol)
        assert np.max(np.abs(desc.alphas - syrk.alphas)) <= 1e-13
        np.testing.assert_array_equal(
            support_masks(desc.alphas, 0.05)[0], support_masks(syrk.alphas, 0.05)[0]
        )


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


class TestBaselineKernelParams:
    # Fused dims [3, 3]: an unset slope defaults to 1/6, not the 1/d of d = 2.
    @pytest.mark.parametrize("kappa", [None, 0.25])
    @pytest.mark.parametrize("kind", ["svdd", "ocsvm"])
    def test_config_states_the_fitted_and_reloaded_kernel(self, tmp_path, kind, kappa):
        data = synth_multimodal(30, 10, 2, [3, 3], 3.0, 1)
        config = TrainConfig(
            model_kind=kind, kernelized=True, kernel_params=KernelParams(kappa=kappa)
        )
        params = config.resolved_kernel_params(6)
        assert params.kappa == (1.0 / 6 if kappa is None else kappa)
        model = fit_baseline(data, config)
        path = str(tmp_path / "model.json")
        save_model(model, path)
        for m in (model, load_model(path)):
            (km,) = m.kernel_maps
            assert km.state.params == params


class TestKernelizedOcsvm:
    NU = 0.1

    @pytest.fixture(scope="class", params=[11, 12])
    def fitted(self, request):
        data = _baseline_data(request.param)
        config = TrainConfig(
            model_kind="ocsvm", kernelized=True, kernel_params=BASELINE_KERNEL, nu=self.NU
        )
        return data, fit_baseline(data, config)

    def test_weight_far_above_rounding_level(self, fitted):
        # On the centered kernel the embedded points sum to 0 and the
        # weight was ~1e-16 of the largest column norm.
        desc = fitted[1].description
        largest = np.max(np.linalg.norm(desc.train_points, axis=0))
        assert np.linalg.norm(desc.weight) > 1e-3 * largest

    def test_accepts_its_training_targets(self, fitted):
        data, model = fitted
        accepted = predict_baseline(model, data.target_subset()).fused
        assert np.mean(accepted) >= 1.0 - self.NU - 0.02

    def test_scores_through_folded_weight(self, fitted):
        # The 1 x N map is beta' = (U Lambda^-1/2 w)' on the uncentered
        # kernel: its scores are w' phi(x) - rho, phi the test embedding.
        data, model = fitted
        km = model.kernel_maps[0]
        assert km.map.shape == (1, 300) and km.state.row_means is None
        desc = model.description
        probe = synth_multimodal(40, 40, 2, [20, 20], 3.0, seed=13)
        state = npt_fit(
            FeatureMatrix(fuse_features(data.target_subset())), km.state.params, centered=False
        )
        decision = desc.weight @ npt_embed_test(state, fuse_features(probe)) - desc.rho
        scores = predict_baseline(model, probe).distances[0]
        np.testing.assert_allclose(-scores, decision, rtol=0.0, atol=1e-12)


# 2 sigma^2 overflows at 1e300 and rounds to 0 at 1e-300.
@pytest.mark.parametrize("sigma", [1e300, 1e-300])
@pytest.mark.parametrize("kind", ["subspace", "svdd", "ocsvm"])
def test_out_of_range_sigma_is_a_kernel_error(kind, sigma):
    data = synth_multimodal(30, 10, 2, [5, 4], 3.0, 1)
    with pytest.raises(KernelError, match="sigma .* out of range"):
        fit_model(data, TrainConfig(
            model_kind=kind, d=2, kernelized=True, kernel_params=KernelParams(sigma=sigma)
        ))


# Linear fits of features scaled by 1e200 or 1e155 overflow the feature
# covariance (subspace) or the Gram (svdd, ocsvm); scaled by 1e-200, the
# Gram underflows to 0 in every kind. Each is a typed error naming the
# scale, with no numpy warning before it.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale, exponent", [(1e200, "+200"), (1e155, "+155"), (1e-200, "-200")])
@pytest.mark.parametrize("kind", ["subspace", "svdd", "ocsvm"])
def test_out_of_range_features_are_typed_errors(kind, scale, exponent):
    data = synth_multimodal(30, 10, 2, [5, 4], 3.0, 1)
    data = replace(data, modalities=[FeatureMatrix(scale * m.values) for m in data.modalities])
    if kind == "subspace" and scale > 1.0:
        error, message = DataError, "feature covariance is not finite (largest |feature|"
    else:
        cause = "is not finite" if scale > 1.0 else "underflows to 0"
        error, message = SolverError, f"Gram of the training columns {cause} (largest |point|"
    with pytest.raises(error, match=re.escape(message) + rf" [\d.]+e{re.escape(exponent)}\)"):
        fit_model(data, TrainConfig(model_kind=kind, d=2, kernelized=False))


# Queries scaled by 1e200 or 1e155 overflow their squared norms, and with
# them the scale that bounds every term of a score. Each is a typed error
# naming the scale, with no numpy warning before it, rather than an
# infinite boundary allowance that accepts every query as a target.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale, exponent", [(1e200, "+200"), (1e155, "+155")])
@pytest.mark.parametrize(
    "config",
    [
        TrainConfig(model_kind="svdd", c_penalty=0.1),
        TrainConfig(model_kind="ocsvm", nu=0.1),
        TrainConfig(d=2),
    ],
    ids=lambda c: c.model_kind,
)
def test_out_of_range_queries_are_typed_errors(config, scale, exponent):
    data = synth_multimodal(30, 10, 2, [5, 4], 3.0, 1)
    model = fit_model(data, config)
    data = replace(data, modalities=[FeatureMatrix(scale * m.values) for m in data.modalities])
    message = re.escape("query scale is not finite (largest |value|")
    with pytest.raises(DataError, match=message + rf" [\d.]+e{re.escape(exponent)}\)"):
        predict_model(model, data)
