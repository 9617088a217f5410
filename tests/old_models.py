"""Write the old-format model files in tests/data, and what the last
loader with per-version branches read from them.

Each model file was written by the writer of its format version, in a
checkout of the commit that introduced that version:

    format 1: dd5e1e2    format 2: 7304547
    format 3: 836085d    format 4: 2163ad0

    PYTHONPATH=<checkout>/src python3 tests/old_models.py write 3

writes model-v3-<name>.json for each model of MODELS. The expected loader
output was written with a checkout of 1acc370, whose load_model read
formats 1 to 4 through per-version branches:

    PYTHONPATH=<checkout>/src python3 tests/old_models.py expect

writes expected.json: for each model file, a SHA-256 of every kernel map
its loaded model holds and the predictions that model gives on probe().
Floats are stored as JSON numbers, whose shortest repr reads back bit for
bit.
"""

import hashlib
import json
import os
import sys

import numpy as np

from mssvdd import (
    FeatureMatrix,
    KernelParams,
    MultiModalDataset,
    TrainConfig,
    fit_model,
    load_model,
    predict_model,
    save_model,
    synth_multimodal,
)

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
VERSIONS = (1, 2, 3, 4)
_KERNEL = {"kernelized": True, "kernel_params": KernelParams(kind="composite", sigma=3.0)}
# name -> (config, normalize). The ocsvm is linear: on this data, moved
# off the origin, its hyperplane is well posed.
MODELS = {
    "linear": (TrainConfig(d=2, eta=0.01, c_penalty=0.5, max_iter=2), True),
    "kernelized": (TrainConfig(d=2, eta=0.001, c_penalty=0.5, max_iter=2, **_KERNEL), False),
    "svdd": (TrainConfig(model_kind="svdd", c_penalty=0.5, **_KERNEL), False),
    "ocsvm": (TrainConfig(model_kind="ocsvm", nu=0.3), False),
}


def _shifted(n_target, n_outlier, seed):
    data = synth_multimodal(n_target, n_outlier, 2, [3, 3], 4.0, seed)
    return MultiModalDataset(
        tuple(FeatureMatrix(m.values + 5.0) for m in data.modalities), data.labels
    )


def train_data():
    return _shifted(8, 4, 5)


def probe():
    return _shifted(6, 6, 99)


def model_path(version, name):
    return os.path.join(DATA, f"model-v{version}-{name}.json")


def map_digest(a):
    a = np.ascontiguousarray(a, dtype="<f8")
    return f"{list(a.shape)} {hashlib.sha256(a.tobytes()).hexdigest()}"


def write(version):
    data = train_data()
    for name, (config, normalize) in MODELS.items():
        save_model(fit_model(data, config, normalize=normalize), model_path(version, name))


def expect():
    out = {}
    for version in VERSIONS:
        for name in MODELS:
            path = model_path(version, name)
            model = load_model(path)
            result = predict_model(model, probe())
            maps = model.kernel_maps
            out[os.path.basename(path)] = {
                "maps": None if maps is None else [map_digest(km.map) for km in maps],
                "fused": result.fused.tolist(),
                "per_modality": result.per_modality.tolist(),
                "distances": result.distances.tolist(),
                "radius_sq": result.radius_sq,
            }
    with open(os.path.join(DATA, "expected.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1] == "write":
        write(int(sys.argv[2]))
    else:
        expect()
