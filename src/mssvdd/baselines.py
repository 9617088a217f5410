"""Non-subspace one-class baselines.

The hypersphere and hyperplane baselines operate on a single feature
representation; multi-modal inputs are early-fused by stacking modality
features, whose dims a model states (input_dims). The kernelized variants
embed the fused features through the kernel feature map first and describe
the embedded points, solving on the Gram the embedding gives
(kernels.npt_fit). The hypersphere embeds through the centered kernel. The
hyperplane separates the data from the origin of feature space (Schoelkopf
et al., 2001), which centering would move into the data, so it embeds
through the uncentered kernel; its weight w is folded into its kernel map,
so it scores beta'k(x) - rho with the N-vector beta' = w' Lambda^-1/2 U'.
Both maps come from the kernel's NptState (NptState.kernel_map), so this
module reads no eigenpair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .datamodel import FeatureMatrix, MultiModalDataset, frozen_array
from .errors import ConfigError
from .kernels import KernelMap, npt_embed_test, npt_fit
from .subspace import PredictionResult, TrainConfig, model_input
from .svdd import (
    DataDescription,
    HyperplaneDescription,
    ocsvm_score,
    ocsvm_solve,
    svdd_score,
    svdd_solve,
)


# The one weight, and the one-column points, of a hyperplane whose weight
# is folded into its kernel map.
_UNIT = frozen_array(np.ones((1, 1)))


@dataclass
class BaselineModel:
    """Trained hypersphere or hyperplane baseline over fused features.

    description is the solved one. A kernelized ocsvm folds its weight into
    its 1 x N kernel map and scores through scored_description.
    input_dims holds the feature dim of each modality the fused features
    stack, or None where a file before format 7 did not state it.
    """

    description: Union[DataDescription, HyperplaneDescription]
    config: TrainConfig
    input_dims: tuple[Optional[int], ...]
    kernel_maps: Optional[list[KernelMap]] = None
    scaler: Optional[list[tuple[np.ndarray, np.ndarray]]] = None
    warning: Optional[str] = None

    @property
    def n_modalities(self) -> int:
        return len(self.input_dims)

    @property
    def kind(self) -> str:
        """The config's model kind, "svdd" or "ocsvm"."""
        return self.config.model_kind

    @property
    def scored_description(self) -> Union[DataDescription, HyperplaneDescription]:
        """The description predict scores the kernel map's output with: the
        solved one, or for a kernelized ocsvm, whose map holds its weight,
        the hyperplane of weight [1] with the same rho and nu."""
        desc = self.description
        if self.kernel_maps is None or self.kind != "ocsvm":
            return desc
        return HyperplaneDescription(alphas=_UNIT[0], rho=desc.rho, nu=desc.nu, train_points=_UNIT)


def fuse_features(data: MultiModalDataset) -> np.ndarray:
    """Stack modality features into one (sum D_v) x N matrix."""
    return np.vstack([m.values for m in data.modalities])


def fit_baseline(data: MultiModalDataset, config: TrainConfig) -> BaselineModel:
    """Fit an svdd or ocsvm baseline on the target samples of data."""
    if config.model_kind not in ("svdd", "ocsvm"):
        raise ConfigError(f"not a baseline model kind: {config.model_kind!r}")
    fused = fuse_features(data.target_subset())
    state = gram = None
    if config.kernelized:
        kp = config.resolved_kernel_params(fused.shape[0])
        state, gram = npt_fit(
            FeatureMatrix(fused), kp, centered=config.centers_kernel, with_gram=True
        )
        points = state.embedded
    else:
        points = fused
    if config.model_kind == "svdd":
        description: Union[DataDescription, HyperplaneDescription] = svdd_solve(
            points, config.c_penalty, config.kkt_tol, gram=gram
        )
    else:
        description = ocsvm_solve(points, config.nu, config.kkt_tol, gram=gram)
    # The solver took the Gram over as its Hessian; freed here, before the
    # map is made.
    del gram
    kernel_maps = None
    if state is not None:
        rows = description.weight[None, :] if config.model_kind == "ocsvm" else None
        kernel_maps = [state.kernel_map(rows)]
    return BaselineModel(
        description=description,
        config=config,
        input_dims=tuple(m.dim for m in data.modalities),
        kernel_maps=kernel_maps,
    )


def predict_baseline(model: BaselineModel, data: MultiModalDataset) -> PredictionResult:
    """Classify samples of data, passed through model_input; scores follow
    the "target iff score <= radius" convention. For the hyperplane baseline
    the score row holds the negated decision value, rho - w'y, and the
    radius is 0, so the same comparison applies. A kernelized model scores its map's
    output with its scored_description.
    """
    points = fuse_features(model_input(model, data))
    if model.kernel_maps is not None:
        km = model.kernel_maps[0]
        points = km.map @ npt_embed_test(km.state, points)
    description = model.scored_description
    if model.kind == "svdd":
        scores, labels = svdd_score(description, points)
        radius_sq = description.radius_sq
    else:
        decision, labels = ocsvm_score(description, points)
        scores = -decision
        radius_sq = 0.0
    return PredictionResult(
        fused=labels,
        per_modality=labels[None, :].copy(),
        distances=scores[None, :].copy(),
        radius_sq=radius_sq,
    )
