import numpy as np
import pytest

from mssvdd import (
    DataError,
    FeatureMatrix,
    FoldPlan,
    MultiModalDataset,
    load_dataset,
    save_dataset,
    stratified_folds,
    synth_multimodal,
)
from mssvdd.datamodel import load_fold_plan, save_fold_plan


def _write_csv(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")


class TestFeatureMatrix:
    def test_shape_and_accessors(self):
        f = FeatureMatrix(np.arange(6.0).reshape(2, 3))
        assert f.dim == 2 and f.n_samples == 3

    def test_rejects_nan(self):
        with pytest.raises(DataError):
            FeatureMatrix(np.array([[1.0, np.nan]]))

    def test_rejects_inf(self):
        with pytest.raises(DataError):
            FeatureMatrix(np.array([[np.inf, 1.0]]))

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            FeatureMatrix(np.zeros((0, 3)))

    def test_values_read_only(self):
        f = FeatureMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            f.values[0, 0] = 5.0


class TestMultiModalDataset:
    def test_sample_count_mismatch(self):
        a = FeatureMatrix(np.ones((2, 3)))
        b = FeatureMatrix(np.ones((2, 4)))
        with pytest.raises(DataError):
            MultiModalDataset((a, b))

    def test_label_length_checked(self):
        a = FeatureMatrix(np.ones((2, 3)))
        with pytest.raises(DataError):
            MultiModalDataset((a,), labels=np.array([1, 0]))

    def test_label_values_checked(self):
        a = FeatureMatrix(np.ones((2, 3)))
        with pytest.raises(DataError):
            MultiModalDataset((a,), labels=np.array([1, 0, 2]))

    def test_subset_keeps_alignment(self):
        data = synth_multimodal(5, 5, 2, [3, 2], 1.0, seed=0)
        sub = data.subset(np.array([0, 7, 3]))
        assert sub.n_samples == 3
        assert sub.labels.tolist() == [1, 0, 1]
        np.testing.assert_array_equal(
            sub.modalities[1].values, data.modalities[1].values[:, [0, 7, 3]]
        )

    def test_target_subset(self):
        data = synth_multimodal(4, 6, 1, [2], 1.0, seed=1)
        targets = data.target_subset()
        assert targets.n_samples == 4
        assert np.all(targets.labels == 1)
        # Unlabelled data is taken as all-target.
        unlabelled = MultiModalDataset(data.modalities)
        assert unlabelled.target_subset() is unlabelled


class TestLoadDataset:
    def test_two_modalities_with_labels(self, tmp_path):
        # 130 samples split 88 target / 42 non-target across two views.
        rng = np.random.default_rng(0)
        a = rng.standard_normal((130, 5))
        b = rng.standard_normal((130, 3))
        labels = [[1]] * 88 + [[0]] * 42
        _write_csv(tmp_path / "a.csv", a.tolist())
        _write_csv(tmp_path / "b.csv", b.tolist())
        _write_csv(tmp_path / "labels.csv", labels)
        data = load_dataset(
            [tmp_path / "a.csv", tmp_path / "b.csv"], tmp_path / "labels.csv"
        )
        assert data.n_modalities == 2
        assert data.n_samples == 130
        assert int(data.labels.sum()) == 88
        assert data.modalities[0].dim == 5 and data.modalities[1].dim == 3

    def test_single_modality_no_labels(self, tmp_path):
        _write_csv(tmp_path / "a.csv", [[1.0, 2.0], [3.0, 4.0]])
        data = load_dataset([tmp_path / "a.csv"])
        assert data.n_modalities == 1
        assert data.labels is None

    def test_row_count_mismatch(self, tmp_path):
        _write_csv(tmp_path / "a.csv", [[1.0]] * 10)
        _write_csv(tmp_path / "b.csv", [[1.0]] * 11)
        with pytest.raises(DataError, match="row-count mismatch"):
            load_dataset([tmp_path / "a.csv", tmp_path / "b.csv"])

    def test_files_without_data_rows(self, tmp_path):
        (tmp_path / "a.csv").write_text("")
        (tmp_path / "b.csv").write_text("x1,x2\n")
        with pytest.raises(DataError, match="no data rows"):
            load_dataset([tmp_path / "a.csv", tmp_path / "b.csv"])

    def test_non_numeric_cell(self, tmp_path):
        with open(tmp_path / "a.csv", "w") as fh:
            fh.write("1.0,2.0\n1.0,oops\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_dataset([tmp_path / "a.csv"])

    def test_first_row_with_a_number_is_data(self, tmp_path):
        (tmp_path / "a.csv").write_text("1,2,x\n3,4,5\n")
        with pytest.raises(DataError, match=r"a.csv: non-numeric cell at row 1, column 3: 'x'"):
            load_dataset([tmp_path / "a.csv"])

    def test_nan_cell_rejected(self, tmp_path):
        with open(tmp_path / "a.csv", "w") as fh:
            fh.write("1.0,2.0\n1.0,nan\n")
        with pytest.raises(DataError, match="non-finite"):
            load_dataset([tmp_path / "a.csv"])

    def test_unknown_label_value(self, tmp_path):
        _write_csv(tmp_path / "a.csv", [[1.0], [2.0]])
        _write_csv(tmp_path / "y.csv", [[1], [3]])
        with pytest.raises(DataError, match="unknown label"):
            load_dataset([tmp_path / "a.csv"], tmp_path / "y.csv")

    def test_header_autodetected(self, tmp_path):
        with open(tmp_path / "a.csv", "w") as fh:
            fh.write("feat_1,feat_2\n1.5,2.5\n3.5,4.5\n")
        data = load_dataset([tmp_path / "a.csv"])
        assert data.n_samples == 2
        np.testing.assert_array_equal(
            data.modalities[0].values, np.array([[1.5, 3.5], [2.5, 4.5]])
        )

    def test_round_trip_bit_identical(self, tmp_path):
        data = synth_multimodal(8, 5, 2, [4, 3], 2.5, seed=9)
        paths = [tmp_path / "m1.csv", tmp_path / "m2.csv"]
        save_dataset(data, paths, tmp_path / "y.csv")
        again = load_dataset(paths, tmp_path / "y.csv")
        for orig, back in zip(data.modalities, again.modalities):
            np.testing.assert_array_equal(orig.values, back.values)
        np.testing.assert_array_equal(data.labels, again.labels)


class TestStratifiedFolds:
    def test_hmcqu_shaped_fold_sizes(self):
        # 88 + 42 over 5 folds: every fold has 26 samples, with 17 or 18
        # of the majority class and 8 or 9 of the minority class.
        labels = np.array([1] * 88 + [0] * 42)
        plan = stratified_folds(labels, 5, seed=3)
        for f in range(5):
            idx = plan.test_indices(f)
            assert idx.size == 26
            n_target = int(labels[idx].sum())
            assert n_target in (17, 18)
            assert idx.size - n_target in (8, 9)

    def test_tiny_exact_stratification(self):
        labels = np.array([1, 1, 0, 0])
        plan = stratified_folds(labels, 2, seed=0)
        for f in range(2):
            idx = plan.test_indices(f)
            assert labels[idx].tolist().count(1) == 1
            assert labels[idx].tolist().count(0) == 1

    def test_deterministic(self):
        labels = np.array([1] * 20 + [0] * 15)
        a = stratified_folds(labels, 5, seed=11)
        b = stratified_folds(labels, 5, seed=11)
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_seed_changes_assignment(self):
        labels = np.array([1] * 20 + [0] * 15)
        a = stratified_folds(labels, 5, seed=1)
        b = stratified_folds(labels, 5, seed=2)
        assert not np.array_equal(a.assignment, b.assignment)

    def test_partition(self):
        labels = np.array([1] * 13 + [0] * 9)
        plan = stratified_folds(labels, 3, seed=5)
        seen = np.concatenate([plan.test_indices(f) for f in range(3)])
        assert sorted(seen.tolist()) == list(range(22))

    def test_class_smaller_than_k(self):
        labels = np.array([1, 1, 1, 0, 0])
        with pytest.raises(DataError, match="fewer than"):
            stratified_folds(labels, 3, seed=0)

    def test_per_class_imbalance_at_most_one(self):
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 2, size=101)
        labels[:10] = 1
        labels[10:20] = 0
        plan = stratified_folds(labels, 7, seed=2)
        for cls in (0, 1):
            counts = [
                int(np.sum(labels[plan.test_indices(f)] == cls)) for f in range(7)
            ]
            assert max(counts) - min(counts) <= 1

    def test_fold_plan_csv_round_trip(self, tmp_path):
        labels = np.array([1] * 10 + [0] * 10)
        plan = stratified_folds(labels, 4, seed=1)
        save_fold_plan(plan, tmp_path / "folds.csv")
        back = load_fold_plan(tmp_path / "folds.csv", k=4, seed=1)
        np.testing.assert_array_equal(plan.assignment, back.assignment)

    def test_fold_plan_csv_header_skipped(self, tmp_path):
        path = tmp_path / "folds.csv"
        _write_csv(path, [["fold"], [0], [1], [1], [0]])
        plan = load_fold_plan(path, k=2)
        np.testing.assert_array_equal(plan.assignment, [0, 1, 1, 0])

    def test_fold_plan_csv_rejects_non_integral_index(self, tmp_path):
        path = tmp_path / "folds.csv"
        _write_csv(path, [[0], [1], [1.7], [0]])
        with pytest.raises(DataError, match="non-integral fold index at row 3: '1.7'"):
            load_fold_plan(path, k=2)

    @pytest.mark.parametrize("bad", ["0,5", "1,x"])
    def test_fold_plan_csv_rejects_extra_cells(self, tmp_path, bad):
        path = tmp_path / "folds.csv"
        _write_csv(path, [[0], [bad], [1], [0]])
        with pytest.raises(DataError, match="fold row 2 must have exactly one value"):
            load_fold_plan(path, k=2)

    @pytest.mark.parametrize("big", ["1e300", "-1e300", "9223372036854775808"])
    def test_fold_plan_csv_rejects_index_beyond_int64(self, tmp_path, big):
        path = tmp_path / "folds.csv"
        _write_csv(path, [[0], [big], [1]])
        with pytest.raises(DataError, match=f"fold index at row 2 is out of range: '{big}'"):
            load_fold_plan(path, k=2)


class TestSynthMultimodal:
    def test_deterministic_per_seed(self):
        a = synth_multimodal(10, 10, 2, [3, 4], 2.0, seed=7)
        b = synth_multimodal(10, 10, 2, [3, 4], 2.0, seed=7)
        for ma, mb in zip(a.modalities, b.modalities):
            np.testing.assert_array_equal(ma.values, mb.values)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_separation_shifts_only_outliers(self):
        base = synth_multimodal(6, 6, 2, [3, 3], 0.0, seed=4)
        moved = synth_multimodal(6, 6, 2, [3, 3], 5.0, seed=4)
        for mb, mm in zip(base.modalities, moved.modalities):
            np.testing.assert_array_equal(mb.values[:, :6], mm.values[:, :6])
            delta = mm.values[:, 6:] - mb.values[:, 6:]
            # one constant shift vector of norm `separation` per modality
            np.testing.assert_allclose(delta - delta[:, :1], 0.0, atol=1e-12)
            assert np.linalg.norm(delta[:, 0]) == pytest.approx(5.0)

    def test_zero_separation_identical_distributions(self):
        data = synth_multimodal(6, 6, 1, [3], 0.0, seed=4)
        moved = synth_multimodal(6, 6, 1, [3], 0.0, seed=4)
        np.testing.assert_array_equal(
            data.modalities[0].values, moved.modalities[0].values
        )

    def test_single_modality(self):
        data = synth_multimodal(5, 5, 1, [3], 2.0, seed=0)
        assert data.n_modalities == 1
        assert data.modalities[0].dim == 3

    def test_labels_and_ids(self):
        data = synth_multimodal(3, 2, 1, [2], 1.0, seed=0)
        assert data.labels.tolist() == [1, 1, 1, 0, 0]
        assert data.sample_ids[0].startswith("t")
        assert data.sample_ids[-1].startswith("o")

    def test_bad_args(self):
        with pytest.raises(DataError):
            synth_multimodal(0, 5, 1, [2], 1.0, seed=0)
        with pytest.raises(DataError):
            synth_multimodal(5, 5, 2, [2], 1.0, seed=0)
        with pytest.raises(DataError):
            synth_multimodal(5, 5, 1, [2], -1.0, seed=0)


class TestFoldPlan:
    def test_every_fold_nonempty_enforced(self):
        with pytest.raises(DataError):
            FoldPlan(k=3, assignment=np.array([0, 0, 1, 1]), seed=0)

    def test_indices_split(self):
        plan = FoldPlan(k=2, assignment=np.array([0, 1, 0, 1]), seed=0)
        assert plan.test_indices(0).tolist() == [0, 2]
        assert plan.train_indices(0).tolist() == [1, 3]
