"""Array-level differentiable operators used by the optical kernels.

The heavy lifting of DONN emulation is three operators (Section 5.3 of the
paper): complex 2-D FFT, inverse 2-D FFT, and complex element-wise /
matrix multiplication.  The FFTs live here, on the FFT dispatch of
:mod:`repro.fft` that the inference engine also runs on, together with
:func:`propagate`, which fuses all three for free-space propagation;
other multiplications are on :class:`~repro.autograd.tensor.Tensor`
directly.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from repro import tiles
from repro.autograd.tensor import Tensor
from repro.fft import get_fft_backend


def fft2(x: Tensor) -> Tensor:
    """Differentiable 2-D FFT over the trailing two axes.

    Uses numpy's "backward" normalisation (unscaled forward transform).
    The adjoint of the unscaled DFT matrix ``F`` is ``N * ifft``, the
    inverse transform with ``norm="forward"``, so the backward pass is one
    transform.
    """
    x = Tensor._coerce(x)
    fft = get_fft_backend()
    data = fft.fft2(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(fft.ifft2(grad, norm="forward"), fresh=True)

    return Tensor._make(data, (x,), backward)


def ifft2(x: Tensor) -> Tensor:
    """Differentiable inverse 2-D FFT over the trailing two axes.

    Uses numpy's "backward" normalisation (``1/N`` on the inverse); its
    adjoint ``F / N`` is the forward transform with ``norm="forward"``.
    """
    x = Tensor._coerce(x)
    fft = get_fft_backend()
    data = fft.ifft2(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(fft.fft2(grad, norm="forward"), fresh=True)

    return Tensor._make(data, (x,), backward)


def _hop(fft, field: np.ndarray, transfer: np.ndarray) -> np.ndarray:
    """``ifft2(fft2(field) * transfer)`` over the trailing two axes.

    A batch of more than one tile (:mod:`repro.tiles`) runs one tile of
    images at a time, spread over the shared tile pool, each tile writing
    its slice of one preallocated output; unbatched fields and one-tile
    batches run inline.  Every step is per-image or point-wise, so the
    result is bitwise that of the whole-batch hop.
    """

    def hop(images: np.ndarray) -> np.ndarray:
        spectrum = fft.fft2(images)
        spectrum *= transfer
        return fft.ifft2(spectrum, overwrite_x=True)

    tile = tiles.tile_images(math.prod(field.shape[1:]) * field.itemsize) if field.ndim > 2 else None
    if tile is None or len(field) <= tile:
        return hop(field)
    # What either FFT backend returns for the field's dtype (complex128 for Tensor data).
    out = np.empty(field.shape, dtype=np.result_type(field.dtype, np.complex64))

    def work(start: int, stop: int) -> None:
        out[start:stop] = hop(field[start:stop])

    tiles.run_tiles(work, len(field), tile)
    return out


def propagate(field: Tensor, transfer: np.ndarray) -> Tensor:
    """Differentiable free-space propagation ``ifft2(fft2(field) * transfer)``.

    The three kernels of a diffraction hop as one tape op over the trailing
    two axes: the forward FFT allocates one buffer, and the multiply by the
    constant ``transfer`` and the inverse FFT run in place on it.  Only the
    output is recorded, not the spectrum or the product.  The operator is
    linear, so the backward pass applies its adjoint
    ``ifft2(fft2(grad) * conj(transfer))`` the same way.  Both directions
    run one cache-sized tile of images at a time over the usable cores
    (:func:`_hop`).
    """
    field = Tensor._coerce(field)
    fft = get_fft_backend()
    data = _hop(fft, field.data, transfer)

    def backward(grad: np.ndarray) -> None:
        if field.requires_grad:
            field._accumulate(_hop(fft, grad, np.conj(transfer)), fresh=True)

    return Tensor._make(data, (field,), backward)


def fftshift(x: Tensor, axes: Tuple[int, int] = (-2, -1)) -> Tensor:
    """Differentiable ``np.fft.fftshift`` (a pure permutation)."""
    x = Tensor._coerce(x)
    data = np.fft.fftshift(x.data, axes=axes)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.fft.ifftshift(grad, axes=axes), fresh=True)

    return Tensor._make(data, (x,), backward)


def ifftshift(x: Tensor, axes: Tuple[int, int] = (-2, -1)) -> Tensor:
    """Differentiable ``np.fft.ifftshift``."""
    x = Tensor._coerce(x)
    data = np.fft.ifftshift(x.data, axes=axes)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.fft.fftshift(grad, axes=axes), fresh=True)

    return Tensor._make(data, (x,), backward)


def pad2d(x: Tensor, pad: int, value: float = 0.0) -> Tensor:
    """Zero-pad the last two axes of ``x`` by ``pad`` pixels on every side."""
    x = Tensor._coerce(x)
    if pad == 0:
        return x
    widths = [(0, 0)] * (x.ndim - 2) + [(pad, pad), (pad, pad)]
    data = np.pad(x.data, widths, mode="constant", constant_values=value)
    slices = tuple([slice(None)] * (x.ndim - 2) + [slice(pad, -pad), slice(pad, -pad)])

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad[slices])

    return Tensor._make(data, (x,), backward)


def crop2d(x: Tensor, crop: int) -> Tensor:
    """Remove ``crop`` pixels from every side of the last two axes."""
    x = Tensor._coerce(x)
    if crop == 0:
        return x
    slices = tuple([slice(None)] * (x.ndim - 2) + [slice(crop, -crop), slice(crop, -crop)])
    data = x.data[slices]
    widths = [(0, 0)] * (x.ndim - 2) + [(crop, crop), (crop, crop)]

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.pad(grad, widths, mode="constant"), fresh=True)

    return Tensor._make(data, (x,), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable ``np.stack``."""
    tensors = [Tensor._coerce(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(data, tuple(tensors), backward)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable ``np.concatenate``."""
    tensors = [Tensor._coerce(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                t._accumulate(grad[tuple(index)])

    return Tensor._make(data, tuple(tensors), backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable ``np.where`` with a non-differentiable condition."""
    a = Tensor._coerce(a)
    b = Tensor._coerce(b)
    condition = np.asarray(condition, dtype=bool)
    data = np.where(condition, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(np.where(condition, grad, 0), fresh=True)
        if b.requires_grad:
            b._accumulate(np.where(condition, 0, grad), fresh=True)

    return Tensor._make(data, (a, b), backward)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise maximum of two real tensors."""
    a = Tensor._coerce(a)
    b = Tensor._coerce(b)
    return where(a.data >= b.data, a, b)


def roll(x: Tensor, shift, axis) -> Tensor:
    """Differentiable ``np.roll``."""
    x = Tensor._coerce(x)
    data = np.roll(x.data, shift, axis=axis)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            if isinstance(shift, (tuple, list)):
                inverse = tuple(-s for s in shift)
            else:
                inverse = -shift
            x._accumulate(np.roll(grad, inverse, axis=axis), fresh=True)

    return Tensor._make(data, (x,), backward)


def exp_i(phase: Tensor) -> Tensor:
    """Compute ``exp(1j * phase)`` for a real-valued phase tensor.

    This is the phase-modulation primitive of Eq. (9): the trainable phase
    of a diffractive layer enters the field as a unit-magnitude complex
    exponential.
    """
    phase = Tensor._coerce(phase)
    data = np.exp(1j * phase.data)

    def backward(grad: np.ndarray) -> None:
        if phase.requires_grad:
            # d/dphi exp(j phi) = j exp(j phi); for a real input the exact
            # derivative is Re(conj(grad) * j * exp(j phi)) under the
            # stored-gradient convention (see package docstring).
            phase._accumulate((np.conj(grad) * 1j * data).real, fresh=True)

    return Tensor._make(data, (phase,), backward)


def complex_from_amplitude_phase(amplitude: Tensor, phase: Tensor) -> Tensor:
    """Build the complex field ``A * exp(1j * theta)`` from real tensors."""
    return amplitude.to_complex() * exp_i(phase)
