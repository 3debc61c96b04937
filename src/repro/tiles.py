"""Cache-sized image tiles, run over one process-wide thread pool.

Both heavy workloads of the package are per-image work over a batch:
training's diffraction hop (:func:`repro.autograd.ops.propagate`, forward
and adjoint) and the engine's compiled field chains
(:class:`repro.engine.plan.CompiledProgram`).  Run on whole-batch arrays,
every transform and multiply streams tens of megabytes through memory on
one thread.  Both instead run one tile of
``max(1, TILE_BYTES // image_bytes)`` images at a time, so a tile's
input, output and temporaries stay in one core's L2, and spread the
tiles over the usable cores.  This module holds that one tile rule and
the one pool both share.

The pool is created on the first multi-lane call, sized to the usable
cores, and forgotten in a forked child (which inherits the object but
none of its threads).  It imports only the standard library, so
:mod:`repro.autograd` can depend on it without an import cycle.
"""

from __future__ import annotations

import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional

__all__ = ["TILE_BYTES", "tile_images", "usable_lanes", "run_tiles"]

#: Bytes of images one tile may hold: one image for a 200x200 complex128
#: grid.
TILE_BYTES = 1 << 20

_pool: Optional[ThreadPoolExecutor] = None
_pool_lock = threading.Lock()


def tile_images(image_bytes: int) -> int:
    """Images per tile for images of ``image_bytes`` bytes (at least one)."""
    return max(1, TILE_BYTES // int(image_bytes))


def usable_lanes() -> int:
    """Threads one call may use by default: the usable cores."""
    # Imported here: repro.utils imports repro.autograd, which imports this.
    from repro.utils.cores import usable_cores

    return usable_cores()


def _tile_pool() -> ThreadPoolExecutor:
    """The process-wide tile pool, created on the first multi-lane call."""
    global _pool
    if _pool is None:
        with _pool_lock:
            if _pool is None:
                _pool = ThreadPoolExecutor(max_workers=usable_lanes(), thread_name_prefix="repro-tile")
    return _pool


def _forget_pool() -> None:
    # A forked child inherits the pool object but none of its threads.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def run_tiles(work: Callable[[int, int], None], count: int, tile: int, lanes: Optional[int] = None) -> None:
    """Call ``work(start, stop)`` once for every ``tile``-image slice of
    ``range(count)``, on up to ``lanes`` threads (``None``: the usable
    cores) -- the caller plus helpers from the shared pool.

    ``work`` writes its slice's result into an output the caller owns, so
    the tiles may finish in any order.  With one lane, or one tile, the
    pool is not touched.
    """
    tile_starts = range(0, count, tile)
    starts: queue.SimpleQueue = queue.SimpleQueue()
    for start in tile_starts:
        starts.put(start)

    def take_tiles() -> None:
        while True:
            try:
                start = starts.get_nowait()
            except queue.Empty:
                return
            work(start, min(start + tile, count))

    lanes = min(lanes or usable_lanes(), len(tile_starts))
    helpers = [_tile_pool().submit(take_tiles) for _ in range(lanes - 1)]
    try:
        take_tiles()
    finally:
        # The queue is empty once the caller's own take_tiles returns.
        # A helper still queued behind other calls' tiles has nothing
        # left to do, so it is cancelled, not awaited; only helpers
        # already running hold real tiles.
        for helper in helpers:
            if not helper.cancel():
                helper.result()
