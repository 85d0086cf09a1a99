"""The CPU's current speed, from a fixed pure-Python block.

On a shared host the CPU's speed swings by tens of percent within seconds,
and library work and this block slow down together.  The benchmark times
this block next to each piece of work it times, in the same process, and
scales the work's time by the block's factor: the times it reports are at
one reference speed, so runs made at different moments compare.  The block
never calls groupforge, and it runs with the garbage collector off, so the
heap the library has left in the process is never scanned while it runs:
a library change that grows that heap leaves the factor alone.
"""

import gc
from time import perf_counter

ITERS = 20_000
REF_S = 0.005  # the block's time at the reference speed


def speed() -> float:
    """REF_S over the block's time: above 1 when the CPU runs faster than
    the reference, so a time times this factor is the reference time."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        counts = {}
        for i in range(ITERS):
            key = (i & 1023, i % 7)
            counts[key] = counts.get(key, 0) + 1
        took = perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
    return REF_S / took
