"""The engine's cache-tiled executor (``CompiledProgram``'s tile schedule).

A compiled program runs a batch's field chain one cache-sized tile of
images at a time, spreading the tiles over a process-wide thread pool,
and reads the detector out once on the whole batch.  Every op of the
chain is point-wise or a per-image transform, so tiling must not move a
single bit.  Three things are pinned here:

* **Exactness** (Hypothesis): for all three model families and both
  dtypes, at batch sizes around the tile, the tiled output is bitwise
  equal to the untiled one, to ``workers=1``, and to the images run one
  at a time.  Classifier logits are compared against the read-out of the
  stacked one-image intensities: a one-row matmul takes BLAS's
  matrix-vector path, whose summation order differs from the
  matrix-matrix one, so the *logits* of ``run(x[i:i+1])`` are not
  bitwise those of ``run(x)[i]`` -- with or without tiling.
* **Thread safety**: concurrent ``run`` calls sharing the pool each get
  the serial answer.
* **The inline path**: collapsed plans, unbatched inputs, one-tile
  batches and ``compile()`` itself never touch the pool, so the batch-1
  serving path is today's.
"""

from __future__ import annotations

import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import DONN, DONNConfig, MultiChannelDONN, SegmentationDONN
from repro.engine import compile as engine_compile
from repro import tiles
from repro.utils import usable_cores

settings.register_profile(
    "repro-executor",
    max_examples=int(os.environ.get("HYPOTHESIS_MAX_EXAMPLES", "20")),
    deadline=None,
    derandomize=bool(os.environ.get("DERANDOMIZE_CI")),
)
settings.load_profile("repro-executor")

SYS_SIZE = 12
#: Large enough that the session hands every test batch to the program
#: in one piece, so the program's tiling is what is under test.
WHOLE_BATCH = 4096
_FAMILIES = ("donn-saturable", "donn-kerr", "multichannel", "segmentation-skip")

_models: dict = {}


def _config(num_layers: int = 3) -> DONNConfig:
    return DONNConfig(
        sys_size=SYS_SIZE,
        pixel_size=36e-6,
        distance=0.05,
        wavelength=532e-9,
        num_layers=num_layers,
        num_classes=4,
        det_size=3,
        seed=5,
    )


def _model(family: str):
    if family not in _models:
        if family == "donn-saturable":
            _models[family] = DONN(_config(), nonlinearity="saturable")
        elif family == "donn-kerr":
            _models[family] = DONN(_config(), nonlinearity="kerr")
        elif family == "multichannel":
            _models[family] = MultiChannelDONN(_config(), nonlinearity="saturable")
        else:
            _models[family] = SegmentationDONN(_config(5), use_skip=True, nonlinearity="kerr")
    return _models[family]


def _images(family: str, batch: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = (3, SYS_SIZE, SYS_SIZE) if family == "multichannel" else (SYS_SIZE, SYS_SIZE)
    return rng.uniform(0.0, 1.0, size=(batch,) + shape)


def _compile(model, tile=None, **options):
    """Compile with a tile of ``tile`` images (``None``: the module's own
    budget) -- the tile is fixed at emit time from ``TILE_BYTES``."""
    options.setdefault("batch_size", WHOLE_BATCH)
    if tile is None:
        return engine_compile(model, **options)
    itemsize = np.dtype(options.get("dtype", "complex128")).itemsize
    with mock.patch.object(tiles, "TILE_BYTES", tile * SYS_SIZE * SYS_SIZE * itemsize):
        session = engine_compile(model, **options)
    assert session._program.tile == tile
    return session


def _batch_size(relation: str, tile: int) -> int:
    return {
        "empty": 0,
        "one": 1,
        "below": max(tile - 1, 1),
        "at": tile,
        "above": tile + 1,
        "ragged": 2 * tile + 3,
    }[relation]


def _stacked(fn, images: np.ndarray) -> np.ndarray:
    return np.concatenate([fn(images[i : i + 1]) for i in range(len(images))])


class TestTiledExecutionIsExact:
    @given(
        family=st.sampled_from(_FAMILIES),
        dtype=st.sampled_from(("complex128", "complex64")),
        tile=st.sampled_from((1, 3, 7)),
        relation=st.sampled_from(("empty", "one", "below", "at", "above", "ragged")),
        seed=st.integers(0, 2**16),
    )
    def test_bitwise_equal_to_untiled_serial_and_per_image(self, family, dtype, tile, relation, seed):
        model = _model(family)
        images = _images(family, _batch_size(relation, tile), seed)
        tiled = _compile(model, tile, dtype=dtype)
        untiled = _compile(model, WHOLE_BATCH, dtype=dtype)
        serial = _compile(model, tile, dtype=dtype, workers=1)

        out = tiled.run(images)
        np.testing.assert_array_equal(out, untiled.run(images))
        np.testing.assert_array_equal(out, serial.run(images))

        patterns = tiled.intensity_patterns(images)
        np.testing.assert_array_equal(patterns, untiled.intensity_patterns(images))
        if len(images):
            np.testing.assert_array_equal(patterns, _stacked(tiled.intensity_patterns, images))
            if tiled.kind == "classifier":
                np.testing.assert_array_equal(out, tiled.read_detector(patterns))
            else:
                np.testing.assert_array_equal(out, _stacked(tiled.run, images))

    @pytest.mark.parametrize("family", _FAMILIES)
    @pytest.mark.parametrize("dtype", ["complex128", "complex64"])
    def test_default_tile_budget_is_exact(self, family, dtype):
        """At the real budget the untiled batch's temporaries are big
        enough for numpy's temporary elision and the last one-image tile's
        are not; the output must not notice."""
        session = _compile(_model(family), dtype=dtype)
        tile = session._program.tile
        assert tile == tiles.TILE_BYTES // (SYS_SIZE * SYS_SIZE * np.dtype(dtype).itemsize)
        images = _images(family, tile + 1, seed=3)
        out = session.run(images)
        np.testing.assert_array_equal(out, _compile(_model(family), tile + 1, dtype=dtype).run(images))
        np.testing.assert_array_equal(out, _compile(_model(family), dtype=dtype, workers=1).run(images))
        patterns = session.intensity_patterns(images)
        np.testing.assert_array_equal(patterns, _stacked(session.intensity_patterns, images))
        if session.kind == "segmentation":
            np.testing.assert_array_equal(out, patterns)

    @pytest.mark.parametrize("family", _FAMILIES)
    def test_empty_and_unbatched_shapes(self, family):
        session = _compile(_model(family), 2)
        outputs = 4 if session.kind == "classifier" else None
        empty = session.run(_images(family, 0, seed=0))
        single = session.run(_images(family, 1, seed=0)[0])
        if outputs is None:
            assert empty.shape == (0, SYS_SIZE, SYS_SIZE)
            assert single.shape == (SYS_SIZE, SYS_SIZE)
        else:
            assert empty.shape == (0, outputs)
            # MultiChannelDONN promotes one (C, N, N) sample to a batch of one.
            assert single.shape == ((1, outputs) if family == "multichannel" else (outputs,))

    def test_bad_channel_count_still_raises(self):
        session = _compile(_model("multichannel"), 2)
        with pytest.raises(ValueError, match="channels"):
            session.run(np.zeros((5, 2, SYS_SIZE, SYS_SIZE)))


class TestConcurrentCalls:
    def test_four_threads_share_the_pool_and_get_the_serial_answer(self):
        session = _compile(_model("donn-saturable"), 2, workers=2)
        # One batch size for all four, so a buffer shared between calls
        # would be overwritten under another thread's feet.
        inputs = [_images("donn-saturable", 9, seed=k) for k in range(4)]
        expected = [session.run(images) for images in inputs]
        mismatches, finished = [], []
        start = threading.Barrier(4)

        def call(k):
            start.wait()
            for _ in range(5):
                if not np.array_equal(session.run(inputs[k]), expected[k]):
                    mismatches.append(k)
            finished.append(k)

        threads = [threading.Thread(target=call, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(finished) == [0, 1, 2, 3]
        assert mismatches == []

    def test_short_call_does_not_wait_for_a_long_call_holding_the_pool(self, monkeypatch):
        """With every pool thread busy on another call's tiles, a call's
        own helper stays queued; once the caller has taken all its tiles
        itself it must return, not wait for that helper's turn."""
        monkeypatch.setattr(tiles, "_pool", ThreadPoolExecutor(max_workers=1))
        long = _compile(_model("donn-saturable"), 1, workers=2)
        short = _compile(_model("donn-saturable"), 2, workers=2)
        expected = short.run(_images("donn-saturable", 5, seed=1))
        long_fn = long._program._branch_intensity
        entered, release = threading.Semaphore(0), threading.Event()

        def held_tile(images):
            entered.release()
            release.wait()
            return long_fn(images)

        long._program._branch_intensity = held_tile
        results = {}
        long_call = threading.Thread(
            target=lambda: results.setdefault("long", long.run(_images("donn-saturable", 4, seed=0)))
        )
        short_call = threading.Thread(
            target=lambda: results.setdefault("short", short.run(_images("donn-saturable", 5, seed=1)))
        )
        try:
            long_call.start()
            # The long call's caller and its pool helper each hold a tile.
            assert entered.acquire(timeout=30) and entered.acquire(timeout=30)
            short_call.start()
            short_call.join(timeout=30)
            assert not short_call.is_alive(), "the short call waited for the long call's tiles"
            assert "long" not in results
            np.testing.assert_array_equal(results["short"], expected)
        finally:
            release.set()
            long_call.join(timeout=60)
            short_call.join(timeout=60)
            tiles._pool.shutdown()
        assert results["long"].shape == (4, 4)


class TestInlinePath:
    @pytest.fixture
    def no_pool(self, monkeypatch):
        def refuse():
            raise AssertionError("the tile pool was used")

        monkeypatch.setattr(tiles, "_tile_pool", refuse)

    def test_multi_tile_batch_uses_the_pool(self, no_pool):
        session = _compile(_model("donn-saturable"), 2, workers=2)
        with pytest.raises(AssertionError, match="tile pool"):
            session.run(_images("donn-saturable", 5, seed=0))

    def test_compile_and_inline_cases_never_touch_the_pool(self, no_pool):
        tiled = _compile(_model("donn-saturable"), 2)
        tiled.run(_images("donn-saturable", 2, seed=0))  # one tile
        tiled.run(_images("donn-saturable", 1, seed=0)[0])  # unbatched
        tiled.run(_images("donn-saturable", 0, seed=0))  # empty
        collapsed = _compile(DONN(_config()), 2)
        assert collapsed.plan_summary()["collapsed"]
        collapsed.run(_images("donn-saturable", 9, seed=0))
        collapsed.run(_images("donn-saturable", 1, seed=0))

    def test_one_worker_tiles_on_the_callers_thread(self, no_pool):
        serial = _compile(_model("donn-saturable"), 2, workers=1)
        reference = _compile(_model("donn-saturable"), WHOLE_BATCH)
        images = _images("donn-saturable", 7, seed=1)
        np.testing.assert_array_equal(serial.run(images), reference.run(images))

    def test_pool_is_created_lazily_and_sized_to_the_usable_cores(self, monkeypatch):
        monkeypatch.setattr(tiles, "_pool", None)
        session = _compile(_model("donn-saturable"), 2, workers=2)
        session.run(_images("donn-saturable", 2, seed=0))
        assert tiles._pool is None
        session.run(_images("donn-saturable", 5, seed=0))
        pool = tiles._pool
        assert pool is not None
        try:
            assert pool._max_workers == usable_cores()
        finally:
            pool.shutdown()

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            engine_compile(_model("donn-saturable"), workers=0)
