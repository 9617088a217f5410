"""Fixed glibc malloc thresholds, so freed kernel-sized buffers leave RSS.

glibc serves a request of at least its mmap threshold with its own
mapping, unmapped again on free. By default the threshold is dynamic:
freeing a mapped block raises it to that block's size (up to 32 MiB) and
the heap-trim threshold to twice that. After the first N x N buffer is
freed (18 MB at N = 1,500), later ones come from the brk heap, where a
live block above a freed one keeps the freed memory resident; a long
process's peak RSS then grows in N x N steps at op counts that depend on
allocation order and differs from one run of the same work to the next.

pin_thresholds() sets both thresholds once, which also turns the dynamic
rule off: blocks of 4 MiB or more are always mapped, so peak RSS follows
peak live memory, while test kernels of a few hundred samples
(1.6 MB at 200 x 1,000) stay in the heap and are reused without page
faults. A threshold set through glibc's own environment variables or
tunables is left alone, and so is any other C library.
"""

from __future__ import annotations

import ctypes
import os

# mallopt parameter numbers from glibc's malloc.h.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

_MMAP_THRESHOLD = 4 << 20
# Twice the mmap threshold, the ratio glibc's dynamic rule keeps.
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD

_USER_SETTINGS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")


def is_glibc() -> bool:
    """Whether this process runs on glibc."""
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


def pin_thresholds() -> bool:
    """Set glibc's mmap and trim thresholds; True if they were set."""
    if not is_glibc():
        return False
    if any(name in os.environ for name in _USER_SETTINGS) or (
        "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")
    ):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    )
