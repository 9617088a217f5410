"""The names the benchmark (bench/) reaches into the library by.

bench/tracing.py rebinds module attributes by name, rebuilds solved
descriptions by keyword and reads their fields; the workloads read
BaselineModel.kind. A rename in the library breaks the benchmark without
breaking anything else, so these tests pin each of those names. The
benchmark's files are only read here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import mssvdd.baselines
import mssvdd.evaluation
import mssvdd.kernels
import mssvdd.subspace
from mssvdd import KernelParams, TrainConfig, fit_model, synth_multimodal
from mssvdd.svdd import DEFAULT_KKT_TOL, ocsvm_solve, svdd_solve

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    yield module
    del sys.modules[spec.name]


def test_every_traced_binding_resolves(tracing):
    assert tracing.BINDINGS
    for module_name, attr, _, _ in tracing.BINDINGS:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{module_name}.{attr}"


@pytest.mark.parametrize("kind", ["svdd", "ocsvm"])
def test_solves_pass_kkt_check_and_rebuild(tracing, kind):
    points = np.random.default_rng(0).standard_normal((3, 60))
    if kind == "svdd":
        desc = svdd_solve(points, 0.1)
        scalars = {"c_penalty": desc.c_penalty, "radius_sq": desc.radius_sq}
    else:
        desc = ocsvm_solve(points, 0.2)
        scalars = {"rho": desc.rho, "nu": desc.nu}
    violation = tracing.kkt_violation(kind, desc)
    assert violation <= DEFAULT_KKT_TOL * (1.0 + tracing.KKT_SLACK)
    assert tracing.kkt_problems([(kind, desc, DEFAULT_KKT_TOL)], 0) == (violation, [])

    # The selfcheck's keyword rebuild, with unsolved (uniform) alphas.
    uniform = np.full(desc.alphas.size, 1.0 / desc.alphas.size)
    worse = type(desc)(alphas=uniform, train_points=desc.train_points, **scalars)
    assert tracing.kkt_violation(kind, worse) > 1e-3


@pytest.mark.parametrize("kind", ["svdd", "ocsvm"])
def test_baseline_kind_is_model_kind(kind):
    data = synth_multimodal(12, 8, 2, [3, 3], 4.0, seed=1)
    model = fit_model(data, TrainConfig(model_kind=kind, c_penalty=0.5, nu=0.3))
    assert model.kind == kind == model.config.model_kind


def test_kernelized_predict_embeds_through_traced_name(tracing, monkeypatch):
    # The tracer times the test embedding by rebinding
    # mssvdd.subspace.npt_embed_test, so kernelized prediction must evaluate
    # every test kernel inside a call through that name.
    data = synth_multimodal(12, 8, 2, [3, 3], 4.0, seed=1)
    probe = synth_multimodal(9, 9, 2, [3, 3], 4.0, seed=2)
    config = TrainConfig(
        d=2, c_penalty=0.5, max_iter=2, kernelized=True,
        kernel_params=KernelParams(sigma=3.0),
    )
    model = mssvdd.subspace.train(data, config)
    depth = [0]
    inside = []
    real_embed = mssvdd.subspace.npt_embed_test
    real_cross = mssvdd.kernels.kernel_cross

    def embed(*args, **kwargs):
        depth[0] += 1
        try:
            return real_embed(*args, **kwargs)
        finally:
            depth[0] -= 1

    def cross(a, b, params):
        inside.append(depth[0] > 0)
        return real_cross(a, b, params)

    with monkeypatch.context() as patch:
        patch.setattr(mssvdd.subspace, "npt_embed_test", embed)
        patch.setattr(mssvdd.kernels, "kernel_cross", cross)
        mssvdd.subspace.predict(model, probe)
    assert inside == [True, True]

    tracer = tracing.Tracer()
    tracer.begin_op(0)
    try:
        mssvdd.subspace.predict(model, probe)
    finally:
        tracer.end_op()
    values, problems = tracer.finish_op(0)
    assert problems == []
    assert values["kernels.npt_embed_test.calls"] == 2
    # 12 training targets against 18 test samples, per modality.
    assert values["kernels.kernel_evals"] == 2 * 12 * 18
    spans = {s.name: s for s in tracer.spans}
    embeds = [s for s in tracer.spans if s.name == "kernels.npt_embed_test"]
    assert all(s.parent == spans["subspace.predict"].id for s in embeds)


@pytest.mark.parametrize("kind", ["svdd", "ocsvm"])
def test_kernelized_baseline_predict_embeds_through_traced_name(
    tracing, monkeypatch, kind
):
    # The tracer times a baseline's test embedding by rebinding
    # mssvdd.baselines.npt_embed_test, so kernelized baseline prediction must
    # evaluate its test kernel inside a call through that name.
    data = synth_multimodal(12, 8, 2, [3, 3], 4.0, seed=1)
    probe = synth_multimodal(9, 9, 2, [3, 3], 4.0, seed=2)
    config = TrainConfig(
        model_kind=kind, c_penalty=0.5, nu=0.3, kernelized=True,
        kernel_params=KernelParams(sigma=3.0),
    )
    model = fit_model(data, config)
    depth = [0]
    inside = []
    real_embed = mssvdd.baselines.npt_embed_test
    real_cross = mssvdd.kernels.kernel_cross

    def embed(*args, **kwargs):
        depth[0] += 1
        try:
            return real_embed(*args, **kwargs)
        finally:
            depth[0] -= 1

    def cross(a, b, params):
        inside.append(depth[0] > 0)
        return real_cross(a, b, params)

    with monkeypatch.context() as patch:
        patch.setattr(mssvdd.baselines, "npt_embed_test", embed)
        patch.setattr(mssvdd.kernels, "kernel_cross", cross)
        mssvdd.baselines.predict_baseline(model, probe)
    assert inside == [True]

    tracer = tracing.Tracer()
    tracer.begin_op(0)
    try:
        mssvdd.evaluation.predict_model(model, probe)
    finally:
        tracer.end_op()
    values, problems = tracer.finish_op(0)
    assert problems == []
    assert values["kernels.npt_embed_test.calls"] == 1
    # 12 training targets against 18 test samples, on the fused features.
    assert values["kernels.kernel_evals"] == 12 * 18
    spans = {s.name: s for s in tracer.spans}
    embeds = [s for s in tracer.spans if s.name == "kernels.npt_embed_test"]
    assert [s.parent for s in embeds] == [spans["baselines.predict_baseline"].id]
