"""Importing mssvdd pins glibc's malloc thresholds, so freed N x N buffers
leave the resident set instead of staying in the heap."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from mssvdd import allocator

SRC = Path(__file__).resolve().parent.parent / "src"
needs_glibc = pytest.mark.skipif(not allocator.is_glibc(), reason="glibc malloc only")

# Frees a 16 MB buffer twice in a fresh process and prints how much of it
# stays resident. Under glibc's dynamic rule the first free raises the mmap
# threshold to 16 MB, so the second buffer comes from the heap, whose top
# (below the 32 MB trim threshold) is kept.
SCRIPT = """
import numpy as np
{setup}
def rss():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * 4096
base = rss()
for _ in range(2):
    buf = np.ones(2_000_000)
    del buf
print(rss() - base)
"""


def retained_bytes(setup: str) -> int:
    env = {k: v for k, v in os.environ.items()
           if k not in allocator._USER_SETTINGS and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(setup=setup)],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return int(done.stdout.strip().splitlines()[-1])


@needs_glibc
def test_freed_large_buffer_leaves_rss():
    assert retained_bytes("import mssvdd") < 4 << 20


@needs_glibc
def test_dynamic_threshold_keeps_freed_buffer_without_the_pin():
    # The case the pin exists for, shown without it.
    assert retained_bytes("") > 8 << 20


@needs_glibc
def test_pin_sets_thresholds(monkeypatch):
    for name in allocator._USER_SETTINGS + ("GLIBC_TUNABLES",):
        monkeypatch.delenv(name, raising=False)
    assert allocator.pin_thresholds() is True


@pytest.mark.parametrize(
    "name, value",
    [("MALLOC_MMAP_THRESHOLD_", "65536"), ("MALLOC_TRIM_THRESHOLD_", "65536"),
     ("GLIBC_TUNABLES", "glibc.malloc.mmap_threshold=65536")],
)
def test_user_setting_is_left_alone(monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    assert allocator.pin_thresholds() is False
