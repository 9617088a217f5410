from dataclasses import replace

import numpy as np
import pytest

from mssvdd import (
    ConfigError,
    ConfusionMatrix,
    DataError,
    FeatureMatrix,
    GridSpec,
    KernelParams,
    MultiModalDataset,
    SolverError,
    SubspaceModel,
    ToolkitError,
    TrainConfig,
    compute_metrics,
    default_grid,
    grid_search,
    nested_cv,
    predict,
    predict_baseline,
    run_cv,
    synth_multimodal,
)
import mssvdd.evaluation
from mssvdd.datamodel import stratified_folds
from mssvdd.evaluation import (
    GridCell,
    GridSearchResult,
    confusion_from_labels,
    expand_grid,
    fit_model,
    grid_size,
    grid_table_to_csv,
    mean_metrics,
    predict_model,
    report_to_csv,
    report_to_text,
)
from mssvdd.subspace import training_key


class TestComputeMetrics:
    def test_majority_positive_reference_row(self):
        m = compute_metrics(ConfusionMatrix(tp=62, fn=26, fp=14, tn=28))
        assert m.sen == pytest.approx(0.7045, abs=1e-4)
        assert m.spe == pytest.approx(0.6667, abs=1e-4)
        assert m.pre == pytest.approx(0.8158, abs=1e-4)
        assert m.f1 == pytest.approx(0.7561, abs=1e-4)
        assert m.acc == pytest.approx(0.6923, abs=1e-4)
        assert m.gm == pytest.approx(0.6853, abs=1e-4)

    def test_minority_positive_reference_row(self):
        m = compute_metrics(ConfusionMatrix(tp=28, fn=14, fp=21, tn=67))
        assert m.sen == pytest.approx(0.6667, abs=1e-4)
        assert m.spe == pytest.approx(0.7614, abs=1e-4)
        assert m.pre == pytest.approx(0.5714, abs=1e-4)
        assert m.f1 == pytest.approx(0.6154, abs=1e-4)
        assert m.acc == pytest.approx(0.7308, abs=1e-4)
        assert m.gm == pytest.approx(0.7124, abs=1e-4)

    def test_no_positives_zero_rule(self):
        m = compute_metrics(ConfusionMatrix(tp=0, fn=0, fp=0, tn=10))
        assert m.sen == 0.0
        assert m.pre == 0.0
        assert m.f1 == 0.0
        assert m.spe == 1.0
        assert m.acc == 1.0
        assert m.gm == 0.0

    def test_scale_free(self):
        base = compute_metrics(ConfusionMatrix(5, 3, 2, 7))
        scaled = compute_metrics(ConfusionMatrix(50, 30, 20, 70))
        assert base == scaled

    def test_gm_is_root_of_product(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            cm = ConfusionMatrix(*[int(x) for x in rng.integers(0, 40, size=4)])
            if cm.total == 0:
                continue
            m = compute_metrics(cm)
            assert m.gm**2 == pytest.approx(m.sen * m.spe, abs=1e-12)
            if m.pre + m.sen > 0:
                assert m.f1 == pytest.approx(
                    2 * m.pre * m.sen / (m.pre + m.sen), abs=1e-12
                )

    def test_empty_matrix_rejected(self):
        with pytest.raises(DataError):
            compute_metrics(ConfusionMatrix(0, 0, 0, 0))

    def test_negative_counts_rejected(self):
        with pytest.raises(DataError):
            ConfusionMatrix(-1, 0, 0, 2)

    @pytest.mark.parametrize("count", [2.0, True, float("inf"), "2", None])
    def test_non_integer_counts_rejected(self, count):
        with pytest.raises(DataError, match="tp must be int"):
            ConfusionMatrix(count, 0, 0, 2)

    def test_integral_counts_stored_as_int(self):
        cm = ConfusionMatrix(*np.array([1, 2, 3, 4]))
        assert cm == ConfusionMatrix(1, 2, 3, 4)
        assert {type(v) for v in (cm.tp, cm.fn, cm.fp, cm.tn)} == {int}


class TestConfusionFromLabels:
    def test_counts(self):
        y = np.array([1, 1, 0, 0, 1])
        p = np.array([1, 0, 0, 1, 1])
        cm = confusion_from_labels(y, p)
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (2, 1, 1, 1)

    def test_addition(self):
        a = ConfusionMatrix(1, 2, 3, 4)
        b = ConfusionMatrix(4, 3, 2, 1)
        assert (a + b) == ConfusionMatrix(5, 5, 5, 5)


class TestRunCv:
    def test_pooled_total_equals_dataset_size(self):
        data = synth_multimodal(26, 14, 2, [3, 3], 4.0, seed=1)
        config = TrainConfig(d=2, eta=0.01, c_penalty=0.5, max_iter=3)
        report = run_cv(data, config, k=5, seed=2)
        assert report.pooled_confusion.total == 40
        assert len(report.fold_metrics) == 5

    def test_pooled_total_on_imbalanced_130_sample_dataset(self):
        # 88/42 over two views, the shape of the motivating benchmark
        data = synth_multimodal(88, 42, 2, [4, 4], 3.0, seed=42)
        config = TrainConfig(d=2, eta=0.0, c_penalty=0.3, max_iter=1)
        report = run_cv(data, config, k=5, seed=42)
        assert report.pooled_confusion.total == 130
        sizes = [cm.total for cm in report.fold_confusions]
        assert sizes == [26] * 5

    def test_perfect_separation_gm_one_per_fold(self):
        data = synth_multimodal(20, 20, 2, [3, 3], 50.0, seed=3)
        config = TrainConfig(d=2, eta=0.0, c_penalty=1.0, max_iter=1)
        report = run_cv(data, config, k=5, seed=4)
        for m in report.fold_metrics:
            assert m.gm == pytest.approx(1.0)

    def test_leave_one_out_mean_equals_pooled_accuracy(self):
        data = synth_multimodal(8, 8, 1, [2], 8.0, seed=5)
        config = TrainConfig(
            d=1, eta=0.0, c_penalty=1.0, max_iter=1, regularizer="psi0"
        )
        report = run_cv(data, config, k=16, seed=6)
        assert report.mean_metrics.acc == pytest.approx(report.pooled_metrics.acc)

    def test_reproducible(self):
        data = synth_multimodal(15, 10, 2, [3, 3], 3.0, seed=7)
        config = TrainConfig(d=2, eta=0.01, c_penalty=0.5, max_iter=3)
        a = run_cv(data, config, k=5, seed=8)
        b = run_cv(data, config, k=5, seed=8)
        assert a.fold_metrics == b.fold_metrics
        assert a.pooled_confusion == b.pooled_confusion

    def test_requires_labels(self):
        mods = synth_multimodal(10, 10, 1, [2], 3.0, seed=9).modalities
        unlabeled = MultiModalDataset(mods)
        with pytest.raises(DataError):
            run_cv(unlabeled, TrainConfig(d=1, regularizer="psi0"), k=5, seed=0)

    def test_mean_and_pooled_both_reported(self):
        data = synth_multimodal(15, 10, 2, [3, 3], 2.0, seed=10)
        config = TrainConfig(d=2, eta=0.01, c_penalty=0.5, max_iter=2)
        report = run_cv(data, config, k=5, seed=11)
        assert report.mean_metrics is not None
        assert report.pooled_metrics is not None

    def test_normalization_flag(self):
        data = synth_multimodal(15, 10, 2, [3, 3], 4.0, seed=12)
        config = TrainConfig(d=2, eta=0.01, c_penalty=0.5, max_iter=2)
        plain = run_cv(data, config, k=5, seed=13, normalize=False)
        scaled = run_cv(data, config, k=5, seed=13, normalize=True)
        assert plain.pooled_confusion.total == scaled.pooled_confusion.total

    def test_baseline_model_kinds(self):
        data = synth_multimodal(20, 15, 2, [3, 3], 6.0, seed=14)
        svdd_cfg = TrainConfig(model_kind="svdd", c_penalty=0.6)
        report = run_cv(data, svdd_cfg, k=5, seed=15)
        assert report.mean_metrics.gm > 0.8
        ocsvm_cfg = TrainConfig(model_kind="ocsvm", nu=0.3)
        report2 = run_cv(data, ocsvm_cfg, k=5, seed=15)
        assert report2.pooled_confusion.total == 35


KERNEL = {"kernelized": True, "kernel_params": KernelParams(kind="composite", sigma=3.0)}


class TestNormalizedPredict:
    # A z-scoring model predicts only data whose modalities its scaler fits,
    # as the same model without a scaler does.
    @pytest.mark.parametrize("kind", ["subspace", "svdd"])
    @pytest.mark.parametrize("modalities, dims", [(3, [3, 3, 3]), (2, [3, 4]), (1, [3])])
    def test_other_modalities_rejected(self, kind, modalities, dims):
        data = synth_multimodal(12, 8, 2, [3, 3], 4.0, seed=18)
        config = TrainConfig(model_kind=kind, d=2, c_penalty=0.5, max_iter=2)
        model = fit_model(data, config, normalize=True)
        other = synth_multimodal(6, 4, modalities, dims, 4.0, seed=19)
        with pytest.raises(ConfigError):
            predict_model(model, other)
        assert predict_model(model, data).fused.shape == (20,)

    # A model's own predict function z-scores its data as predict_model does,
    # here on features whose scale z-scoring changes.
    @pytest.mark.parametrize("config", [
        TrainConfig(d=2, eta=0.01, c_penalty=0.5, max_iter=2),
        TrainConfig(d=2, eta=0.001, c_penalty=0.5, max_iter=2, **KERNEL),
        TrainConfig(model_kind="svdd", c_penalty=0.5, **KERNEL),
        TrainConfig(model_kind="ocsvm", nu=0.3),
    ], ids=["linear", "kernelized", "svdd", "ocsvm"])
    def test_predict_functions_apply_scaler(self, config):
        data = synth_multimodal(40, 40, 2, [3, 4], 3.0, seed=20)
        data = MultiModalDataset(
            tuple(FeatureMatrix(100.0 * m.values + 50.0) for m in data.modalities), data.labels
        )
        model = fit_model(data, config, normalize=True)
        own = predict if isinstance(model, SubspaceModel) else predict_baseline
        got, want = own(model, data), predict_model(model, data)
        np.testing.assert_array_equal(got.fused, want.fused)
        np.testing.assert_array_equal(got.per_modality, want.per_modality)
        np.testing.assert_array_equal(got.distances, want.distances)
        assert got.radius_sq == want.radius_sq

    @pytest.mark.parametrize("normalize", [False, True])
    def test_one_modality_count_message(self, normalize):
        data = synth_multimodal(12, 8, 2, [3, 3], 4.0, seed=18)
        one = MultiModalDataset(data.modalities[:1], data.labels)
        for config, own in [
            (TrainConfig(d=2, c_penalty=0.5, max_iter=2), predict),
            (TrainConfig(model_kind="svdd", c_penalty=0.5), predict_baseline),
        ]:
            model = fit_model(data, config, normalize=normalize)
            with pytest.raises(ConfigError, match=r"^model has 2 modalities, data has 1$"):
                own(model, one)

    # Every model kind, linear and kernelized, checks each modality's dims
    # in one place and with one message, with or without a scaler.
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("config", [
        TrainConfig(d=2, c_penalty=0.5, max_iter=2),
        TrainConfig(d=2, eta=0.001, c_penalty=0.5, max_iter=2, **KERNEL),
        TrainConfig(model_kind="svdd", c_penalty=0.5),
        TrainConfig(model_kind="svdd", c_penalty=0.5, **KERNEL),
        TrainConfig(model_kind="ocsvm", nu=0.3),
        TrainConfig(model_kind="ocsvm", nu=0.3, **KERNEL),
    ], ids=["linear", "kernelized", "svdd", "kernelized-svdd", "ocsvm", "kernelized-ocsvm"])
    def test_permuted_dims_rejected(self, config, normalize):
        model = fit_model(synth_multimodal(12, 8, 2, [3, 4], 4.0, seed=18), config, normalize)
        assert model.input_dims == (3, 4)
        permuted = synth_multimodal(6, 4, 2, [4, 3], 4.0, seed=19)
        own = predict if isinstance(model, SubspaceModel) else predict_baseline
        message = r"^model reads modalities of dims \[3, 4\], data has dims \[4, 3\]$"
        for predict_with in (predict_model, own):
            with pytest.raises(ConfigError, match=message):
                predict_with(model, permuted)


class TestGridSearch:
    def _separable(self, seed=16):
        return synth_multimodal(20, 16, 2, [3, 3], 6.0, seed=seed)

    def _singleton_grid(self, **over):
        base = dict(
            sigma_grid=(1.0,),
            eta_grid=(0.01,),
            beta_grid=(0.01,),
            c_grid=(0.5,),
            d_grid=(2,),
            update_strategies=("SD-",),
            regularizers=("w0",),
            decision_strategies=("ds1",),
        )
        base.update(over)
        return GridSpec(**base)

    def test_singleton_grid_returns_that_cell(self):
        data = self._separable()
        grid = self._singleton_grid()
        base = TrainConfig(max_iter=2)
        result = grid_search(data, grid, base, inner_k=4, seed=17)
        assert len(result.cells) == 1
        assert result.best_config.d == 2
        assert result.best_config.c_penalty == 0.5

    def test_tie_broken_by_smaller_d(self):
        # Degenerate data scores gm = 1.0 exactly for every d, forcing a tie:
        # all targets coincide (radius 0) and all outliers sit far away.
        from mssvdd import FeatureMatrix

        n_t, n_o = 20, 16
        mods = tuple(
            FeatureMatrix(
                np.hstack([np.ones((4, n_t)), 100.0 * np.ones((4, n_o))])
            )
            for _ in range(2)
        )
        labels = np.array([1] * n_t + [0] * n_o)
        data = MultiModalDataset(mods, labels)
        grid = self._singleton_grid(d_grid=(3, 2), eta_grid=(0.0,))
        base = TrainConfig(max_iter=1)
        result = grid_search(data, grid, base, inner_k=4, seed=19)
        gms = [c.mean_gm for c in result.cells]
        assert gms[0] == gms[1] == 1.0
        assert result.best_config.d == 2

    def test_tie_broken_by_grid_order_when_identical(self):
        data = self._separable(seed=40)
        grid = self._singleton_grid(d_grid=(2, 2))
        result = grid_search(data, grid, TrainConfig(max_iter=1), inner_k=4, seed=41)
        assert result.cells[0].mean_gm == result.cells[1].mean_gm
        assert result.best_index == 0

    def test_sigma_extremes_composite(self):
        data = synth_multimodal(18, 14, 2, [3, 3], 6.0, seed=20)
        grid = self._singleton_grid(sigma_grid=(0.01, 1000.0), eta_grid=(0.001,))
        base = TrainConfig(
            max_iter=3,
            kernelized=True,
            kernel_params=KernelParams(kind="composite"),
        )
        result = grid_search(data, grid, base, inner_k=4, seed=21)
        ok = [c for c in result.cells if c.status == "ok"]
        assert len(ok) == 2
        best = result.best_config.kernel_params.sigma
        scores = {c.config.kernel_params.sigma: c.mean_gm for c in ok}
        rejected = [s for s in scores if s != best][0]
        assert scores[best] > scores[rejected]

    def test_all_cells_failed_carries_diagnostics(self):
        data = self._separable()
        grid = self._singleton_grid(c_grid=(0.001,))  # infeasible: C*M < 1
        base = TrainConfig(max_iter=1)
        with pytest.raises(SolverError, match="every grid cell failed"):
            grid_search(data, grid, base, inner_k=4, seed=22)

    def test_selection_ignores_test_labels(self):
        # Permuting labels outside the searched data cannot change the
        # winner: grid search only ever sees the training split it is given.
        data = self._separable(seed=23)
        labels = np.asarray(data.labels)
        train_idx = np.arange(0, 30)
        test_idx = np.arange(30, 36)
        train_set = data.subset(train_idx)
        grid = self._singleton_grid(d_grid=(1, 2))
        base = TrainConfig(max_iter=2)
        first = grid_search(train_set, grid, base, inner_k=4, seed=24)
        flipped = labels.copy()
        flipped[test_idx] = 1 - flipped[test_idx]
        data2 = MultiModalDataset(data.modalities, flipped, data.sample_ids)
        second = grid_search(data2.subset(train_idx), grid, base, inner_k=4, seed=24)
        assert first.best_index == second.best_index
        assert first.best_config == second.best_config

    def test_grid_order_deterministic(self):
        grid = GridSpec(
            sigma_grid=(1.0,),
            eta_grid=(0.1, 0.2),
            beta_grid=(0.0,),
            c_grid=(0.5, 0.6),
            d_grid=(1, 2),
            update_strategies=("SD-",),
            regularizers=("w0",),
            decision_strategies=("ds1",),
        )
        cells = expand_grid(grid, TrainConfig())
        assert len(cells) == 8
        assert [c.d for c in cells[:4]] == [1, 1, 1, 1]
        assert cells[0].c_penalty == 0.5 and cells[2].c_penalty == 0.6
        # kappa derived from d per cell
        assert cells[0].kernel_params.kappa == pytest.approx(1.0)
        assert cells[4].kernel_params.kappa == pytest.approx(0.5)

    def test_empty_grid_axis_rejected(self):
        with pytest.raises(Exception):
            GridSpec(sigma_grid=())


def _per_cell_reference(data, grid, base, inner_k, seed, normalize):
    """The search scored one cell at a time, with one run_cv per cell."""
    cells = []
    for i, config in enumerate(expand_grid(grid, base)):
        try:
            report = run_cv(data, config, k=inner_k, seed=seed, normalize=normalize)
        except ToolkitError as exc:
            row = ("failed", str(exc), float("-inf"), (), None)
        else:
            row = (
                "ok",
                "",
                report.mean_metrics.gm,
                tuple(m.gm for m in report.fold_metrics),
                report.max_ortho_error,
            )
        cells.append(GridCell(i, config, *row))
    best = min(
        (c for c in cells if c.status == "ok"),
        key=lambda c: (
            -c.mean_gm, c.config.d, c.config.c_penalty, c.config.eta, c.index
        ),
    )
    return GridSearchResult(best.config, best.index, cells, inner_k, seed)


class TestGroupedGridSearch:
    # Every grid holds groups of several cells (decision strategies; beta
    # under w0/psi0) and whole groups that fail (C*M < 1). The uni-modal grid
    # also holds cells that only their decision strategy makes invalid (ds4)
    # and cells that fail at fit time for their update strategy (AD-+). The
    # stage-sharing grids span two sigma (when kernelized), two d and two C,
    # so groups share embeddings and first solves. Their C=0.037 is feasible
    # on the first two folds (M=28) and not on the last two (M=26), so every
    # group with that (sigma, d) fails its cold solve with the same error.
    STAGE_SHARING = (
        dict(n_target=18, n_outlier=10, v=2, dims=[3, 3]),
        GridSpec(
            sigma_grid=(1.0, 4.0),
            eta_grid=(0.01,),
            beta_grid=(0.1,),
            c_grid=(0.037, 0.5),
            d_grid=(1, 2),
            update_strategies=("AD-+",),
            regularizers=("w0", "w4"),
            decision_strategies=("ds1", "ds2"),
        ),
        TrainConfig(
            max_iter=2, kernelized=True, kernel_params=KernelParams("composite")
        ),
    )
    # case -> (data shape, grid, base config, normalize)
    CASES = {
        "multi-modal": (
            dict(n_target=20, n_outlier=16, v=2, dims=[3, 3]),
            GridSpec(
                sigma_grid=(2.0,),
                eta_grid=(0.01,),
                beta_grid=(0.01, 1.0),
                c_grid=(0.02, 0.5),
                d_grid=(2,),
                update_strategies=("AD-+",),
                regularizers=("w0", "w4"),
                decision_strategies=("ds1", "ds2", "ds3", "ds4"),
            ),
            TrainConfig(
                max_iter=2, kernelized=True, kernel_params=KernelParams("composite")
            ),
            True,
        ),
        "uni-modal": (
            dict(n_target=20, n_outlier=16, v=1, dims=[4]),
            GridSpec(
                sigma_grid=(1.0,),
                eta_grid=(0.01,),
                beta_grid=(0.0, 0.5),
                c_grid=(0.02, 0.5),
                d_grid=(1,),
                update_strategies=("SD-", "AD-+"),
                regularizers=("psi0", "psi2"),
                decision_strategies=("ds1", "ds4"),
            ),
            TrainConfig(max_iter=2),
            True,
        ),
        "stage-sharing": STAGE_SHARING + (True,),
        "stage-sharing-raw": STAGE_SHARING + (False,),
        # Without a kernel, no kappa = 1/d tells two d values apart.
        "stage-sharing-linear": (
            STAGE_SHARING[0], STAGE_SHARING[1], TrainConfig(max_iter=2), False
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_per_cell_search(self, case):
        shape, grid, base, normalize = self.CASES[case]
        data = synth_multimodal(separation=3.0, seed=60, **shape)
        got = grid_search(data, grid, base, inner_k=4, seed=61, normalize=normalize)
        want = _per_cell_reference(data, grid, base, 4, 61, normalize)
        statuses = {c.status for c in got.cells}
        assert statuses == {"ok", "failed"}
        assert got.cells == want.cells
        assert got.best_index == want.best_index
        assert grid_table_to_csv(got) == grid_table_to_csv(want)

    def test_fits_each_distinct_model_once_per_fold(self, monkeypatch):
        # The benchmark's select grid: 32 cells, 12 distinct training keys,
        # one kernel, one d and two C values.
        calls = []
        real_fit = mssvdd.evaluation.fit_model

        def counting_fit(data, config, normalize=False, **kwargs):
            calls.append(config)
            return real_fit(data, config, normalize=normalize, **kwargs)

        monkeypatch.setattr(mssvdd.evaluation, "fit_model", counting_fit)
        stage_calls = {"npt_fit": 0, "pca_init": 0, "npt_embed_test": 0}
        for name in stage_calls:
            real = getattr(mssvdd.subspace, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                stage_calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(mssvdd.subspace, name, counting)
        solves = []
        real_solve = mssvdd.subspace.svdd_solve

        def counting_solve(points, c_penalty, kkt_tol, alpha0=None):
            solves.append(alpha0 is None)
            return real_solve(points, c_penalty, kkt_tol, alpha0=alpha0)

        monkeypatch.setattr(mssvdd.subspace, "svdd_solve", counting_solve)
        data = synth_multimodal(20, 20, 2, [5, 5], 3.0, seed=62)
        grid = GridSpec(
            sigma_grid=(10.0,),
            eta_grid=(1e-3,),
            beta_grid=(1e-2, 1.0),
            c_grid=(0.1, 0.3),
            d_grid=(3,),
            update_strategies=("SD-", "AD-+"),
            regularizers=("w0", "w4"),
            decision_strategies=("ds1", "ds2"),
        )
        base = TrainConfig(
            max_iter=1, kernelized=True, kernel_params=KernelParams(sigma=10.0)
        )
        configs = expand_grid(grid, base)
        keys = {training_key(c) for c in configs}
        assert (len(configs), len(keys)) == (32, 12)
        grid_search(data, grid, base, inner_k=5, seed=63)
        assert len(calls) == len(keys) * 5 == 60
        assert {training_key(c) for c in calls} == keys
        # One embedding and test embedding per fold and modality, and no
        # pca_init: a kernelized start is the identity on the embedding.
        # One cold first solve per fold and C, one warm solve per fit.
        assert stage_calls == {"npt_fit": 10, "pca_init": 0, "npt_embed_test": 10}
        assert (len(solves), sum(solves)) == (70, 10)

    def test_linear_grid_takes_pca_once_per_fold_and_modality(self, monkeypatch):
        calls = []
        real = mssvdd.subspace.pca_init

        def counting(f, d):
            calls.append(d)
            return real(f, d)

        monkeypatch.setattr(mssvdd.subspace, "pca_init", counting)
        data = synth_multimodal(20, 20, 2, [5, 5], 3.0, seed=62)
        grid = GridSpec(
            sigma_grid=(1.0,),
            eta_grid=(1e-3,),
            beta_grid=(1e-2,),
            c_grid=(0.1, 0.3),
            d_grid=(2, 3),
            update_strategies=("SD-",),
            regularizers=("w4",),
            decision_strategies=("ds1",),
        )
        grid_search(data, grid, TrainConfig(max_iter=1), inner_k=5, seed=63)
        # Each fold's one linear embedding takes all min(D, N) = 5 principal
        # directions of each modality, and every d starts from its first d.
        assert calls == [5] * 10

    def test_test_kernel_evaluated_once_per_state_and_fold(self, monkeypatch):
        # 12 distinct fits per fold share one kernel state per modality; each
        # test fold evaluates that state's test kernel once.
        calls = {"train": 0, "test": 0}
        real = mssvdd.kernels.kernel_cross

        def counting(a, b, params):
            calls["train" if a is b else "test"] += 1
            return real(a, b, params)

        monkeypatch.setattr(mssvdd.kernels, "kernel_cross", counting)
        data = synth_multimodal(20, 20, 2, [5, 5], 3.0, seed=62)
        grid = GridSpec(
            sigma_grid=(10.0,),
            eta_grid=(1e-3,),
            beta_grid=(1e-2, 1.0),
            c_grid=(0.1, 0.3),
            d_grid=(3,),
            update_strategies=("SD-", "AD-+"),
            regularizers=("w0", "w4"),
            decision_strategies=("ds1", "ds2"),
        )
        base = TrainConfig(
            max_iter=1, kernelized=True, kernel_params=KernelParams(sigma=10.0)
        )
        result = grid_search(data, grid, base, inner_k=5, seed=63)
        assert {c.status for c in result.cells} == {"ok"}
        assert calls == {"train": 10, "test": 10}

    def test_first_failing_fold_message_wins(self, monkeypatch):
        # Folds 0 and 1 train on 28 pooled columns, folds 2 and 3 on 26. The
        # cold solves with C=0.3 fail on folds 2 and 3, each fold with its
        # own message; the C=0.3 group must carry fold 2's.
        real_solve = mssvdd.subspace.svdd_solve

        def failing_solve(points, c_penalty, kkt_tol, alpha0=None):
            if points.shape[1] == 26 and c_penalty == 0.3 and alpha0 is None:
                raise SolverError(f"forced failure, column sum {points.sum()!r}")
            return real_solve(points, c_penalty, kkt_tol, alpha0=alpha0)

        monkeypatch.setattr(mssvdd.subspace, "svdd_solve", failing_solve)
        data = synth_multimodal(18, 10, 2, [3, 3], 3.0, seed=60)
        grid = GridSpec(
            sigma_grid=(1.0,),
            eta_grid=(0.01,),
            beta_grid=(0.0,),
            c_grid=(0.3, 0.5),
            d_grid=(1,),
            update_strategies=("SD-",),
            regularizers=("w0",),
            decision_strategies=("ds1", "ds2"),
        )
        base = TrainConfig(max_iter=2)
        failing = expand_grid(grid, base)[0]
        plan = stratified_folds(data.labels, 4, 61)
        messages = []
        for fold in (2, 3):
            with pytest.raises(SolverError) as info:
                fit_model(data.subset(plan.train_indices(fold)), failing)
            messages.append(str(info.value))
        assert messages[0] != messages[1]
        result = grid_search(data, grid, base, inner_k=4, seed=61)
        assert [(c.config.c_penalty, c.status) for c in result.cells] == [
            (0.3, "failed"), (0.3, "failed"), (0.5, "ok"), (0.5, "ok")
        ]
        assert {c.message for c in result.cells[:2]} == {messages[0]}


class TestNestedCv:
    def test_nested_runs_and_reports(self):
        data = synth_multimodal(18, 14, 2, [3, 3], 6.0, seed=25)
        grid = GridSpec(
            sigma_grid=(1.0,),
            eta_grid=(0.01,),
            beta_grid=(0.0,),
            c_grid=(0.5,),
            d_grid=(2,),
            update_strategies=("SD-",),
            regularizers=("w0",),
            decision_strategies=("ds1",),
        )
        base = TrainConfig(max_iter=2)
        report = nested_cv(data, grid, base, outer_k=4, inner_k=4, seed=26)
        assert report.selection == "nested"
        assert len(report.fold_configs) == 4
        assert report.pooled_confusion.total == 32
        assert report.max_ortho_error is not None

    def test_global_mode(self):
        data = synth_multimodal(18, 14, 2, [3, 3], 6.0, seed=27)
        grid = GridSpec(
            sigma_grid=(1.0,),
            eta_grid=(0.01,),
            beta_grid=(0.0,),
            c_grid=(0.5,),
            d_grid=(1, 2),
            update_strategies=("SD-",),
            regularizers=("w0",),
            decision_strategies=("ds1",),
        )
        base = TrainConfig(max_iter=2)
        report = nested_cv(
            data, grid, base, outer_k=4, inner_k=4, seed=28, selection="global"
        )
        assert report.selection == "global"
        assert len(set(c.d for c in report.fold_configs)) == 1

    def test_deterministic(self):
        data = synth_multimodal(15, 12, 2, [3, 3], 4.0, seed=29)
        grid = GridSpec(
            sigma_grid=(1.0,),
            eta_grid=(0.01,),
            beta_grid=(0.0,),
            c_grid=(0.5,),
            d_grid=(1, 2),
            update_strategies=("SD-",),
            regularizers=("w0",),
            decision_strategies=("ds1",),
        )
        base = TrainConfig(max_iter=2)
        a = nested_cv(data, grid, base, outer_k=3, inner_k=3, seed=30)
        b = nested_cv(data, grid, base, outer_k=3, inner_k=3, seed=30)
        assert a.fold_metrics == b.fold_metrics
        assert a.fold_configs == b.fold_configs

    @pytest.mark.parametrize("kernelized", [False, True])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_outer_folds_match_separate_fits(self, normalize, kernelized):
        # Oracle: search each outer training split, refit its winner on the
        # whole split, predict the test split.
        data = synth_multimodal(16, 14, 2, [3, 3], 3.0, seed=33)
        grid = GridSpec(
            sigma_grid=(1.0, 5.0),
            eta_grid=(0.01,),
            beta_grid=(0.1,),
            c_grid=(0.3, 0.6),
            d_grid=(1, 2),
            update_strategies=("SD-",),
            regularizers=("w4",),
            decision_strategies=("ds1", "ds2"),
        )
        base = TrainConfig(
            max_iter=2, kernelized=kernelized, kernel_params=KernelParams("composite")
        )
        report = nested_cv(
            data, grid, base, outer_k=3, inner_k=3, seed=34, normalize=normalize
        )
        plan = stratified_folds(data.labels, 3, 34)
        confusions, configs, orthos = [], [], []
        for fold in range(3):
            train = data.subset(plan.train_indices(fold))
            test = data.subset(plan.test_indices(fold))
            search = grid_search(
                train, grid, base, inner_k=3, seed=34, normalize=normalize
            )
            model = fit_model(train, search.best_config, normalize=normalize)
            result = predict_model(model, test)
            confusions.append(confusion_from_labels(test.labels, result.fused))
            configs.append(search.best_config)
            orthos += [c.max_ortho_error for c in search.cells]
            orthos += model.ortho_errors
        assert report.fold_confusions == confusions
        assert report.fold_configs == configs
        assert report.max_ortho_error == max(o for o in orthos if o is not None)

        glob = nested_cv(
            data, grid, base, outer_k=3, inner_k=3, seed=34, normalize=normalize,
            selection="global",
        )
        best = grid_search(
            data, grid, base, inner_k=3, seed=34, normalize=normalize
        ).best_config
        fixed = run_cv(data, best, k=3, seed=34, normalize=normalize)
        assert glob.fold_confusions == fixed.fold_confusions
        assert glob.fold_configs == [best] * 3

    @pytest.mark.parametrize("protocol", ["fixed", "nested", "global"])
    def test_one_class_data_rejected(self, protocol):
        # Every protocol checks its outer folds the same way, before any fit.
        data = synth_multimodal(15, 12, 2, [3, 3], 4.0, seed=31).target_subset()
        grid = GridSpec(
            sigma_grid=(1.0,),
            eta_grid=(0.01,),
            beta_grid=(0.0,),
            c_grid=(0.5,),
            d_grid=(2,),
            update_strategies=("SD-",),
            regularizers=("w0",),
            decision_strategies=("ds1",),
        )
        base = TrainConfig(max_iter=2)
        with pytest.raises(DataError, match="both classes"):
            if protocol == "fixed":
                run_cv(data, base, k=3, seed=32)
            else:
                nested_cv(
                    data, grid, base, outer_k=3, inner_k=3, seed=32,
                    selection=protocol,
                )


class TestDefaultGrid:
    def test_reference_grids(self):
        grid = default_grid(2, kernelized=True)
        assert grid.sigma_grid == (1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3)
        assert grid.eta_grid == (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
        assert grid.beta_grid == (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3, 1e4)
        assert grid.c_grid == (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
        assert grid.d_grid == (1, 2, 3, 4, 5)
        assert grid.regularizers == ("w0", "w1", "w2", "w3", "w4", "w5", "w6")

    def test_unimodal_grid(self):
        grid = default_grid(1, kernelized=False)
        assert grid.update_strategies == ("SD-", "SD+")
        assert grid.regularizers == ("psi0", "psi1", "psi2", "psi3")
        assert grid.decision_strategies == ("ds1",)

    @pytest.mark.parametrize("kind", ["svdd", "ocsvm"])
    def test_baseline_cells_search_c_and_sigma_only(self, kind):
        base = TrainConfig(model_kind=kind, kernelized=True)
        grid = default_grid(2, kernelized=True)
        want = [
            replace(
                base, c_penalty=c, nu=min(max(c, 1e-4), 1.0),
                kernel_params=replace(base.kernel_params, sigma=sigma),
            )
            for c in (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
            for sigma in (1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3)
        ]
        assert expand_grid(grid, base) == want
        assert grid_size(grid, base) == (48, 48)


class TestGridSize:
    @pytest.mark.parametrize(
        "base, modalities",
        [
            (TrainConfig(), 2),
            (TrainConfig(kernelized=True), 2),
            (TrainConfig(kernelized=True, kernel_params=KernelParams(kind="composite")), 2),
            (TrainConfig(), 1),
            (TrainConfig(model_kind="svdd", kernelized=True), 2),
            (TrainConfig(model_kind="ocsvm"), 2),
        ],
    )
    def test_matches_expanded_grid(self, base, modalities):
        # The default grid with d and C cut to one value each, which
        # grid_size scales by as plain factors.
        full = default_grid(modalities, base.kernelized)
        grid = replace(full, d_grid=full.d_grid[:1], c_grid=full.c_grid[:1])
        cells = expand_grid(grid, base)
        assert grid_size(grid, base) == (len(cells), len({training_key(c) for c in cells}))
        scale = len(full.d_grid) * len(full.c_grid) if base.model_kind == "subspace" else len(full.c_grid)
        assert grid_size(full, base) == (scale * len(cells), scale * grid_size(grid, base)[1])

    def test_default_grid_sizes(self):
        assert grid_size(default_grid(2, False), TrainConfig()) == (201_600, 44_000)
        kernelized = TrainConfig(kernelized=True)
        assert grid_size(default_grid(2, True), kernelized) == (1_209_600, 264_000)


class TestReportRendering:
    def _report(self):
        data = synth_multimodal(12, 10, 2, [3, 3], 4.0, seed=31)
        config = TrainConfig(d=2, eta=0.01, c_penalty=0.5, max_iter=2)
        return run_cv(data, config, k=4, seed=32)

    def test_csv_layout(self):
        report = self._report()
        text = report_to_csv(report)
        lines = text.strip().split("\n")
        assert lines[0].startswith("row,fold,tp,fn,fp,tn,sen")
        assert len([l for l in lines if l.startswith("fold,")]) == 4
        assert any(l.startswith("mean,") for l in lines)
        assert any(l.startswith("pooled,") for l in lines)

    def test_text_has_metric_columns(self):
        report = self._report()
        text = report_to_text(report)
        for col in ("OS", "r", "Sen", "Spe", "Pre", "F1", "Acc", "GM"):
            assert col in text

    def test_nested_row_labelled_by_fold_configs(self):
        report = self._report()
        folds = [
            replace(report.config, update_strategy=s, regularizer="w4", decision_strategy="ds2")
            for s in ("SD-", "AD-+", "SD-", "SD+")
        ]

        def label(fold_configs):
            nested = replace(report, fold_configs=fold_configs, selection="nested")
            return report_to_text(nested).split("\n")[1].split()[:3]

        assert label(folds) == ["subspace[ds2]", "*", "w4"]
        assert label([replace(f, update_strategy="AD+-") for f in folds]) == [
            "subspace[ds2]", "+-", "w4"
        ]

    def test_grid_table_csv(self):
        data = synth_multimodal(12, 10, 2, [3, 3], 4.0, seed=33)
        grid = GridSpec(
            sigma_grid=(1.0,),
            eta_grid=(0.01,),
            beta_grid=(0.0,),
            c_grid=(0.5,),
            d_grid=(1, 2),
            update_strategies=("SD-",),
            regularizers=("w0",),
            decision_strategies=("ds1",),
        )
        result = grid_search(data, grid, TrainConfig(max_iter=2), inner_k=3, seed=34)
        table = grid_table_to_csv(result)
        lines = table.strip().split("\n")
        assert lines[0].startswith("cell,fold")
        # one mean row per cell plus one row per inner fold
        assert len([l for l in lines if ",mean," in l]) == 2


class TestParallelism:
    def test_parallel_grid_search_matches_sequential(self):
        # Groups of several cells: two decision strategies share every fit,
        # and so do the two beta values under w0.
        data = synth_multimodal(16, 12, 2, [3, 3], 4.0, seed=50)
        grid = GridSpec(
            sigma_grid=(1.0,),
            eta_grid=(0.01, 0.1),
            beta_grid=(0.0, 0.1),
            c_grid=(0.5, 0.6),
            d_grid=(1, 2),
            update_strategies=("SD-",),
            regularizers=("w0", "w4"),
            decision_strategies=("ds1", "ds2"),
        )
        base = TrainConfig(max_iter=2)
        seq = grid_search(data, grid, base, inner_k=3, seed=51, workers=1)
        par = grid_search(data, grid, base, inner_k=3, seed=51, workers=2)
        assert seq.best_index == par.best_index
        assert seq.cells == par.cells

    def test_parallel_folds_share_stages_as_sequential(self):
        # Five folds over two workers; groups span two sigma and two d, so
        # each fold's task shares embeddings and starts between its groups.
        data = synth_multimodal(20, 15, 2, [3, 3], 3.0, seed=54)
        grid = GridSpec(
            sigma_grid=(1.0, 4.0),
            eta_grid=(0.01,),
            beta_grid=(0.1,),
            c_grid=(0.5,),
            d_grid=(1, 2),
            update_strategies=("SD-", "AD-+"),
            regularizers=("w4",),
            decision_strategies=("ds1", "ds2"),
        )
        base = TrainConfig(
            max_iter=2, kernelized=True, kernel_params=KernelParams("composite")
        )
        seq = grid_search(data, grid, base, inner_k=5, seed=55, workers=1)
        par = grid_search(data, grid, base, inner_k=5, seed=55, workers=2)
        assert {c.status for c in seq.cells} == {"ok"}
        assert seq.best_index == par.best_index
        assert seq.cells == par.cells

    @pytest.mark.parametrize("selection", ["nested", "global"])
    def test_parallel_nested_cv_matches_sequential(self, selection):
        data = synth_multimodal(15, 12, 2, [3, 3], 4.0, seed=52)
        grid = GridSpec(
            sigma_grid=(1.0,),
            eta_grid=(0.01,),
            beta_grid=(0.0,),
            c_grid=(0.5,),
            d_grid=(1, 2),
            update_strategies=("SD-",),
            regularizers=("w0",),
            decision_strategies=("ds1",),
        )
        base = TrainConfig(max_iter=2)
        seq, par = (
            nested_cv(
                data, grid, base, outer_k=3, inner_k=3, seed=53,
                selection=selection, workers=workers,
            )
            for workers in (1, 2)
        )
        assert seq.fold_confusions == par.fold_confusions
        assert seq.fold_configs == par.fold_configs
        assert seq.max_ortho_error == par.max_ortho_error
        assert seq.selection == par.selection == selection
        assert seq.pooled_confusion == par.pooled_confusion


class TestMeanMetrics:
    def test_average(self):
        a = compute_metrics(ConfusionMatrix(2, 0, 0, 2))
        b = compute_metrics(ConfusionMatrix(1, 1, 1, 1))
        m = mean_metrics([a, b])
        assert m.acc == pytest.approx(0.75)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            mean_metrics([])


def test_dense_subspace_solves_build_hessian_from_points(monkeypatch):
    # The benchmark's select op: a 32-cell grid with inner 5-fold CV and one
    # iteration per fit, on 40 + 40 samples of two 5-dim modalities. Each
    # of its 70 solves pools 2 x 32 targets in d = 3, a dense problem that
    # builds H from its points; only a kernelized baseline passes a Gram.
    built = []
    init = mssvdd.svdd._DenseHessian.__init__

    def recording(self, points, scale, gram=None):
        built.append((points.shape, gram is None))
        init(self, points, scale, gram)

    monkeypatch.setattr(mssvdd.svdd._DenseHessian, "__init__", recording)
    base = TrainConfig(
        d=3, eta=1e-3, beta=1e-2, c_penalty=0.1, max_iter=1, update_strategy="AD-+",
        regularizer="w4", kernelized=True,
        kernel_params=KernelParams(kind="composite", gamma=0.5, sigma=10.0),
    )
    grid = GridSpec(
        sigma_grid=(10.0,), eta_grid=(1e-3,), beta_grid=(1e-2, 1.0), c_grid=(0.1, 0.3),
        d_grid=(3,), update_strategies=("SD-", "AD-+"), regularizers=("w0", "w4"),
        decision_strategies=("ds1", "ds2"),
    )
    data = synth_multimodal(40, 40, 2, [5, 5], 3.0, seed=21)
    grid_search(data, grid, base, inner_k=5, seed=22, workers=1)
    assert built == [((3, 64), True)] * 70
