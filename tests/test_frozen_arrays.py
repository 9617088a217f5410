"""Array ownership: the library never freezes or shares a caller's array.

Every array an object holds is read-only. frozen_array keeps an array that
is already read-only and of the wanted dtype, and copies anything else, so
a caller's writable array stays writable and later writes to it, or to a
view of it, leave the object unchanged.
"""

import sys

import numpy as np
import pytest

from mssvdd import (
    FeatureMatrix,
    FoldPlan,
    KernelMap,
    KernelParams,
    KernelState,
    MultiModalDataset,
    ProjectionMatrix,
    TrainConfig,
    fit_model,
    npt_fit,
    ocsvm_solve,
    load_model,
    predict_model,
    save_model,
    svdd_solve,
    synth_multimodal,
)
from mssvdd import datamodel
from mssvdd.datamodel import frozen_array


def _rng():
    return np.random.default_rng(71)


def _feature_matrix(a):
    return FeatureMatrix(a).values


def _projection(a):
    return ProjectionMatrix(a).q


def _kernel_state(a):
    train = FeatureMatrix(_rng().standard_normal((3, a.size)))
    return KernelState(row_means=a, train_data=train, params=KernelParams()).row_means


def _kernel_map(a):
    train = FeatureMatrix(_rng().standard_normal((3, a.shape[1])))
    state = KernelState(np.zeros(a.shape[1]), train, KernelParams())
    return KernelMap(state, a).map


def _labels(a):
    return MultiModalDataset((FeatureMatrix(np.ones((2, a.size))),), labels=a).labels


def _fold_plan(a):
    return FoldPlan(k=2, assignment=a, seed=0).assignment


def _svdd(a):
    desc = svdd_solve(a, 0.3)
    return desc.train_points, desc.center, desc.alphas


def _ocsvm(a):
    desc = ocsvm_solve(a, 0.3)
    return desc.train_points, desc.weight, desc.alphas


def _keyword_rebuild(a):
    # The benchmark rebuilds a solved description by keyword with its own
    # uniform alphas.
    desc = svdd_solve(_rng().standard_normal((3, a.size)), 0.3)
    rebuilt = type(desc)(alphas=a, c_penalty=desc.c_penalty,
                         radius_sq=desc.radius_sq, train_points=desc.train_points)
    return rebuilt.alphas, rebuilt.center, rebuilt.train_points


CALLER_ARRAYS = {
    "FeatureMatrix": (_feature_matrix, lambda: _rng().standard_normal((3, 7))),
    "ProjectionMatrix": (
        _projection, lambda: np.linalg.qr(_rng().standard_normal((5, 2)))[0].T.copy()
    ),
    "KernelState": (_kernel_state, lambda: _rng().standard_normal(6)),
    "KernelMap": (_kernel_map, lambda: _rng().standard_normal((2, 6))),
    "labels": (_labels, lambda: np.array([1, 0, 1, 1, 0])),
    "FoldPlan": (_fold_plan, lambda: np.array([0, 1, 1, 0, 1])),
    "svdd_solve": (_svdd, lambda: _rng().standard_normal((3, 12))),
    "ocsvm_solve": (_ocsvm, lambda: _rng().standard_normal((3, 12))),
    "keyword rebuild": (_keyword_rebuild, lambda: np.full(10, 0.1)),
}


@pytest.mark.parametrize("name", CALLER_ARRAYS)
def test_caller_array_stays_writable_and_unshared(name):
    build, make = CALLER_ARRAYS[name]
    a = make()
    view = a[...]
    held = build(a)
    held = held if isinstance(held, tuple) else (held,)
    assert a.flags.writeable
    before = [h.tobytes() for h in held]
    for h in held:
        assert not h.flags.writeable
        assert not np.shares_memory(h, a)
    a += 1
    view += 100
    assert [h.tobytes() for h in held] == before
    if name in ("svdd_solve", "ocsvm_solve"):
        points, product, alphas = held
        assert product.tobytes() == (points @ alphas).tobytes()


@pytest.mark.parametrize("solve, arg", [(svdd_solve, 0.3), (ocsvm_solve, 0.3)])
def test_read_only_points_kept(solve, arg):
    p = _rng().standard_normal((3, 12))
    p.setflags(write=False)
    assert solve(p, arg).train_points is p


class TestFrozenArray:
    def test_read_only_of_dtype_kept(self):
        a = np.asfortranarray(_rng().standard_normal((3, 4)))
        a.setflags(write=False)
        assert frozen_array(a) is a

    @pytest.mark.parametrize(
        "dtype, writeable, want",
        [(np.float64, True, np.float64), (np.int64, True, np.int64),
         (np.int64, False, np.float64)],
    )
    def test_others_copied_to_c_order(self, dtype, writeable, want):
        a = np.asfortranarray(np.arange(12, dtype=dtype).reshape(3, 4))
        a.setflags(write=writeable)
        out = frozen_array(a, want)
        assert out.dtype == want and out.flags.c_contiguous
        assert not out.flags.writeable and not np.shares_memory(out, a)
        assert a.flags.writeable == writeable
        np.testing.assert_array_equal(out, a)

    def test_sequence_copied(self):
        assert frozen_array([[1, 2]]).tolist() == [[1.0, 2.0]]


def test_kernel_state_hashes_by_identity():
    f = FeatureMatrix(_rng().standard_normal((3, 6)))
    state = npt_fit(f, KernelParams(kappa=1.0)).kernel
    twin = KernelState(row_means=state.row_means, train_data=f, params=state.params)
    assert len({state, twin}) == 2
    assert state == state and state != twin


@pytest.mark.parametrize("kind", ["svdd", "ocsvm"])
def test_kernelized_baseline_copies_no_large_array(monkeypatch, kind):
    # Every array the size of the embedded training data (rank x N, within
    # one row of N x N) reaches the solver, the description and the kernel
    # map as the one made for it: the eigenvectors, the embedding and the
    # composed map are handed over frozen, so no frozen_array call copies
    # them.
    calls = []

    def counting(a, dtype=np.float64):
        out = frozen_array(a, dtype)
        calls.append((np.size(out), out is not a))
        return out

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("mssvdd") and hasattr(
            module, "frozen_array"
        ):
            monkeypatch.setattr(module, "frozen_array", counting)
    n = 60
    train = synth_multimodal(n, 10, 2, [4, 4], 3.0, seed=72)
    test = synth_multimodal(20, 20, 2, [4, 4], 3.0, seed=73)
    config = TrainConfig(
        model_kind=kind, kernelized=True, c_penalty=0.25, nu=0.1,
        kernel_params=KernelParams(sigma=3.0),
    )
    model = fit_model(train, config)
    predict_model(model, test)
    large = model.kernel_maps[0].map.size
    assert datamodel.frozen_array is counting
    assert any(size >= large and not copied for size, copied in calls)
    assert [size for size, copied in calls if copied and size >= large] == []


@pytest.mark.parametrize("kind", ["subspace", "svdd"])
def test_kernel_maps_read_only(tmp_path, kind):
    # A write to a map would silently change the model's predictions.
    train = synth_multimodal(20, 10, 2, [4, 4], 3.0, seed=74)
    config = TrainConfig(
        model_kind=kind, kernelized=True, d=2, max_iter=2, c_penalty=0.25,
        kernel_params=KernelParams(sigma=3.0),
    )
    model = fit_model(train, config)
    path = tmp_path / "model.json"
    save_model(model, path)
    for m in (model, load_model(path)):
        assert m.kernel_maps
        assert not any(km.map.flags.writeable for km in m.kernel_maps)
