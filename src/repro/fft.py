"""FFT backend dispatch shared by autograd and the inference engine.

Every 2-D transform in the package -- the differentiable kernels of
:mod:`repro.autograd.ops` used for training, and the emitted programs of
:mod:`repro.engine` used for emulation and serving -- goes through the
batched transforms over the trailing two axes defined here.  Two
backends are supported:

* **scipy** -- ``scipy.fft`` (pocketfft with a C++ kernel set that is
  measurably faster than numpy's).  Selected automatically when scipy is
  importable.
* **numpy** -- ``np.fft``, always available; the fallback when scipy is
  absent so neither training nor the engine has a hard dependency beyond
  numpy.

Both backends take numpy's ``norm`` argument ("backward" by default, the
unnormalised forward transform) so the engine's outputs match the
autograd kernels to ``1e-10`` by contract.  ``overwrite_x=True`` lets the
scipy backend write the result into its input's buffer when the caller
owns that buffer; numpy always allocates.

Every transform runs on the calling thread.  Parallelism lives one level
up: the engine's executor (:class:`repro.engine.plan.CompiledProgram`)
spreads cache-sized image tiles over a thread pool, and each tile's
transforms run single-threaded inside it.

Both backends also preserve ``complex64`` inputs for the engine's
reduced-precision mode: ``scipy.fft`` computes single-precision
transforms natively, while ``np.fft`` always promotes to ``complex128``,
so the numpy backend casts its results back to the input dtype.

This module imports only numpy, so :mod:`repro.autograd` can depend on it
without an import cycle.
"""

from __future__ import annotations

import numpy as np

_AXES = (-2, -1)


def _match_input_precision(out: np.ndarray, field: np.ndarray) -> np.ndarray:
    """Cast an np.fft result back to complex64 when the input was complex64."""
    if field.dtype == np.complex64:
        return out.astype(np.complex64, copy=False)
    return out


def _import_scipy_fft():
    """Return ``scipy.fft`` or ``None``; patchable seam for fallback tests."""
    try:
        import scipy.fft as scipy_fft
    except ImportError:  # pragma: no cover - exercised via monkeypatch
        return None
    return scipy_fft


class NumpyFFTBackend:
    """Plain ``np.fft`` transforms over the trailing two axes."""

    name = "numpy"

    def fft2(self, field: np.ndarray, norm: str = "backward", overwrite_x: bool = False) -> np.ndarray:
        return _match_input_precision(np.fft.fft2(field, axes=_AXES, norm=norm), field)

    def ifft2(self, spectrum: np.ndarray, norm: str = "backward", overwrite_x: bool = False) -> np.ndarray:
        return _match_input_precision(np.fft.ifft2(spectrum, axes=_AXES, norm=norm), spectrum)


class ScipyFFTBackend:
    """``scipy.fft`` transforms (single-threaded).

    With ``overwrite_x=True`` a C-contiguous complex input is transformed
    in place and returned; pass it only for buffers the caller owns.
    """

    name = "scipy"

    def __init__(self, module):
        self._fft = module

    def fft2(self, field: np.ndarray, norm: str = "backward", overwrite_x: bool = False) -> np.ndarray:
        return self._fft.fft2(field, axes=_AXES, norm=norm, overwrite_x=overwrite_x)

    def ifft2(self, spectrum: np.ndarray, norm: str = "backward", overwrite_x: bool = False) -> np.ndarray:
        return self._fft.ifft2(spectrum, axes=_AXES, norm=norm, overwrite_x=overwrite_x)


def available_backends() -> tuple:
    """Names of the FFT backends importable in this environment."""
    names = ["numpy"]
    if _import_scipy_fft() is not None:
        names.insert(0, "scipy")
    return tuple(names)


def get_fft_backend(name: str = "auto"):
    """Resolve a backend by name: ``"auto"`` (scipy when installed, else
    numpy), ``"scipy"`` or ``"numpy"``."""
    key = name.lower()
    if key == "auto":
        module = _import_scipy_fft()
        if module is not None:
            return ScipyFFTBackend(module)
        return NumpyFFTBackend()
    if key == "scipy":
        module = _import_scipy_fft()
        if module is None:
            raise RuntimeError("scipy backend requested but scipy is not installed")
        return ScipyFFTBackend(module)
    if key == "numpy":
        return NumpyFFTBackend()
    raise ValueError(f"unknown FFT backend {name!r}; choose from 'auto', 'scipy', 'numpy'")
