"""Non-subspace one-class baselines.

The hypersphere and hyperplane baselines operate on a single feature
representation; multi-modal inputs are early-fused by stacking modality
features. The kernelized variants embed the fused features through the
kernel feature map first and describe the embedded points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .datamodel import FeatureMatrix, MultiModalDataset
from .errors import ConfigError
from .kernels import KernelParams, npt_embed_test, npt_fit
from .subspace import KernelMap, PredictionResult, TrainConfig, compose_kernel_maps, model_input
from .svdd import (
    DataDescription,
    HyperplaneDescription,
    ocsvm_score,
    ocsvm_solve,
    svdd_score,
    svdd_solve,
)


@dataclass
class BaselineModel:
    """Trained hypersphere or hyperplane baseline over fused features."""

    description: Union[DataDescription, HyperplaneDescription]
    config: TrainConfig
    kernel_maps: Optional[list[KernelMap]] = None
    scaler: Optional[list[tuple[np.ndarray, np.ndarray]]] = None
    n_modalities: int = 1
    warning: Optional[str] = None

    @property
    def kind(self) -> str:
        """The config's model kind, "svdd" or "ocsvm"."""
        return self.config.model_kind


def fuse_features(data: MultiModalDataset) -> np.ndarray:
    """Stack modality features into one (sum D_v) x N matrix."""
    return np.vstack([m.values for m in data.modalities])


def _resolve_baseline_kernel(config: TrainConfig, feature_dim: int) -> KernelParams:
    kp = config.kernel_params
    if kp.kappa is None:
        # No projected dimensionality here; fall back to 1/feature-dim.
        kp = replace(kp, kappa=1.0 / feature_dim)
    return kp


def fit_baseline(data: MultiModalDataset, config: TrainConfig) -> BaselineModel:
    """Fit an svdd or ocsvm baseline on the target samples of data."""
    if config.model_kind not in ("svdd", "ocsvm"):
        raise ConfigError(f"not a baseline model kind: {config.model_kind!r}")
    fused = fuse_features(data.target_subset())
    npt_states = None
    if config.kernelized:
        kp = _resolve_baseline_kernel(config, fused.shape[0])
        npt_states = [npt_fit(FeatureMatrix(fused), kp)]
        points = npt_states[0].embedded
    else:
        points = fused
    if config.model_kind == "svdd":
        description: Union[DataDescription, HyperplaneDescription] = svdd_solve(
            points, config.c_penalty, config.kkt_tol
        )
    else:
        description = ocsvm_solve(points, config.nu, config.kkt_tol)
    # Composed after the solve, so the solver's Gram is freed by then.
    return BaselineModel(
        description=description,
        config=config,
        kernel_maps=compose_kernel_maps(None, npt_states),
        n_modalities=data.n_modalities,
    )


def predict_baseline(model: BaselineModel, data: MultiModalDataset) -> PredictionResult:
    """Classify samples of data, passed through model_input; scores follow
    the "target iff score <= radius" convention. For the hyperplane baseline
    the score row holds rho minus the decision value and the radius is 0,
    so the same comparison applies.
    """
    points = fuse_features(model_input(model, data))
    if model.kernel_maps is not None:
        km = model.kernel_maps[0]
        points = km.map @ npt_embed_test(km.state, points)
    if model.kind == "svdd":
        scores, labels = svdd_score(model.description, points)
        radius_sq = model.description.radius_sq
    else:
        decision, labels = ocsvm_score(model.description, points)
        scores = -decision
        radius_sq = 0.0
    return PredictionResult(
        fused=labels,
        per_modality=labels[None, :].copy(),
        distances=scores[None, :].copy(),
        radius_sq=radius_sq,
    )
