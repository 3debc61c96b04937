"""Figure 8: runtime speedup breakdown over the three DONN kernels.

The paper decomposes DONN emulation into FFT2, iFFT2 and complex
multiplication, and reports per-kernel speedups of the optimised tensor
implementation over LightPipes (11x / 10x / 4x on CPU, 6.4x overall).
Here the same decomposition is measured: the LightPipes-style baseline
times its DFT-matrix transforms and unfused multiplies, and the optimised
path times the kernels the library runs: the batched transforms of its FFT
dispatch (:mod:`repro.fft`, shared by training and the inference engine)
and the in-place complex multiplies of :func:`repro.autograd.ops.propagate`.
"""

from __future__ import annotations

import time

import numpy as np

from _bench_helpers import report, save_results
from repro.baselines import LightPipesEmulator
from repro.fft import get_fft_backend
from repro.optics import RayleighSommerfeldPropagator, SpatialGrid

SIZE = 256
LAYERS = 5
BATCH = 4
WAVELENGTH = 532e-9
DISTANCE = 0.1


def _optimised_kernel_times(grid: SpatialGrid, fields: np.ndarray, phases, transfer: np.ndarray):
    """Time the three tensor kernels over the same workload as the baseline.

    Each hop is the sequence ``ops.propagate`` runs: a transform into a
    fresh buffer, then the multiply and the inverse transform in place.
    """
    fft = get_fft_backend()
    times = {"fft2": 0.0, "ifft2": 0.0, "complex_multiply": 0.0}
    current = fields.copy()
    for phase in list(phases) + [None]:
        start = time.perf_counter()
        spectrum = fft.fft2(current)
        times["fft2"] += time.perf_counter() - start

        start = time.perf_counter()
        spectrum *= transfer
        times["complex_multiply"] += time.perf_counter() - start

        start = time.perf_counter()
        current = fft.ifft2(spectrum, overwrite_x=True)
        times["ifft2"] += time.perf_counter() - start

        if phase is not None:
            start = time.perf_counter()
            current *= np.exp(1j * phase)
            times["complex_multiply"] += time.perf_counter() - start
    return times


def test_fig08_kernel_breakdown(benchmark):
    rng = np.random.default_rng(0)
    grid = SpatialGrid(size=SIZE, pixel_size=36e-6)
    fields = rng.normal(size=(BATCH, SIZE, SIZE)) + 0j
    phases = [rng.uniform(0, 2 * np.pi, size=(SIZE, SIZE)) for _ in range(LAYERS)]
    propagator = RayleighSommerfeldPropagator(grid, WAVELENGTH, DISTANCE)
    transfer = propagator.transfer_function

    emulator = LightPipesEmulator(grid, WAVELENGTH, DISTANCE)
    emulator.run_donn(list(fields), phases)  # warm-up
    emulator.reset_timings()
    emulator.run_donn(list(fields), phases)
    baseline_times = emulator.timings.as_dict()

    optimised_times = benchmark.pedantic(
        lambda: _optimised_kernel_times(grid, fields, phases, transfer), rounds=1, iterations=1
    )

    rows = []
    for kernel in ("fft2", "ifft2", "complex_multiply"):
        rows.append(
            {
                "kernel": kernel,
                "baseline_seconds": baseline_times[kernel],
                "optimised_seconds": optimised_times[kernel],
                "speedup": baseline_times[kernel] / max(optimised_times[kernel], 1e-9),
            }
        )
    overall = sum(baseline_times.values()) / max(sum(optimised_times.values()), 1e-9)
    rows.append({"kernel": "overall", "speedup": overall})

    notes = (
        "Paper (CPU, 5-layer 500^2): FFT2 11x, iFFT2 10x, complex MM 4x, overall 6.4x.  "
        f"Reproduced at {SIZE}^2, batch {BATCH}: the transforms dominate and gain the most; the "
        "element-wise multiply gains less; overall speedup is several-fold."
    )
    report("Figure 8: kernel-level speedup breakdown", rows, notes)
    save_results("fig08_kernel_breakdown", rows, notes)

    by_kernel = {row["kernel"]: row for row in rows}
    assert by_kernel["fft2"]["speedup"] > 1.5
    assert by_kernel["ifft2"]["speedup"] > 1.5
    assert by_kernel["overall"]["speedup"] > 1.5
    # The transform kernels gain more than the element-wise multiply, as in the paper.
    assert by_kernel["fft2"]["speedup"] > by_kernel["complex_multiply"]["speedup"]
