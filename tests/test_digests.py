"""tools/digests.py: two runs of its corpus agree, and compare names what
differs."""

import importlib.util
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parent.parent / "tools" / "digests.py"
_SPEC = importlib.util.spec_from_file_location("digests", _PATH)
digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digests)


def test_two_runs_agree():
    # The tiny corpus runs every section, the CLI with MSSVDD_WORKERS
    # unset and set to 2, so this also checks determinism across workers.
    first = digests.collect(tiny=True)
    second = digests.collect(tiny=True)
    assert digests.differences(first, second) == []
    sections = {name.split("/")[0] for name in first}
    assert sections == {"w1", "select", "baseline", "cli"}
    assert any("workers-2-normalize/cv-global" in name for name in first)


def test_compare_names_what_differs():
    before, after = {}, {}
    values = np.array([1.0, -2.0, 0.0, 4.0])
    digests._array(before, "same", values)
    digests._array(after, "same", values.copy())
    digests._array(before, "moved", values)
    digests._array(after, "moved", values * np.array([1.0, 1.0, 1.0, 1.0 + 1e-12]))
    digests._array(before, "reshaped", values)
    digests._array(after, "reshaped", values[:3])
    digests._array(before, "labels", np.array([1, 0, 1]))
    digests._array(after, "labels", np.array([1, 1, 1]))
    digests._bytes(before, "file", b"abc")
    digests._bytes(after, "file", b"abd")
    digests._bytes(before, "gone", b"")
    digests._bytes(after, "new", b"")
    lines = digests.differences(before, after)
    assert lines == [
        "file: bytes differ (3 -> 3 B)",
        "gone: only in before",
        "labels: largest relative change 1.000e+00, 1 entries",
        "moved: largest relative change 1.000e-12, 1 entries",
        "new: only in after",
        "reshaped: shape [4] -> [3]",
    ]
