"""Neural-network style differentiable operators.

These are the operators used by the digital baselines (Table 4's MLP/CNN),
by the training loss of DONNs (softmax + MSE, Section 2.1) and by the
advanced segmentation architecture (layer normalisation, Section 5.6.2).
All operate on real tensors unless stated otherwise.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor


# --------------------------------------------------------------------------- #
# Activations
# --------------------------------------------------------------------------- #
def relu(x: Tensor) -> Tensor:
    x = Tensor._coerce(x)
    mask = x.data > 0
    data = x.data * mask

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * mask, fresh=True)

    return Tensor._make(data, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    x = Tensor._coerce(x)
    data = 1.0 / (1.0 + np.exp(-x.data))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * data * (1.0 - data), fresh=True)

    return Tensor._make(data, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = Tensor._coerce(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            dot = (grad * data).sum(axis=axis, keepdims=True)
            x._accumulate(data * (grad - dot), fresh=True)

    return Tensor._make(data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = Tensor._coerce(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - log_sum

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            soft = np.exp(data)
            x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True), fresh=True)

    return Tensor._make(data, (x,), backward)


# --------------------------------------------------------------------------- #
# Losses
# --------------------------------------------------------------------------- #
def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error, the paper's training loss ``||Softmax(I) - t||^2``."""
    prediction = Tensor._coerce(prediction)
    target = Tensor._coerce(target)
    diff = prediction - target
    return (diff * diff).mean()


def softmax_mse_loss(intensity: Tensor, one_hot_target: Tensor) -> Tensor:
    """The DONN loss of Section 2.1: MSE between Softmax(I) and one-hot labels."""
    return mse_loss(softmax(intensity, axis=-1), one_hot_target)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Cross entropy with integer class labels (used by digital baselines)."""
    logits = Tensor._coerce(logits)
    labels = np.asarray(labels, dtype=int)
    logp = log_softmax(logits, axis=-1)
    batch = logits.shape[0]
    picked = logp[np.arange(batch), labels]
    return -picked.mean()


def binary_cross_entropy(prediction: Tensor, target: Tensor, eps: float = 1e-7) -> Tensor:
    """BCE on probabilities in [0, 1] (segmentation masks)."""
    prediction = Tensor._coerce(prediction).clip(eps, 1.0 - eps)
    target = Tensor._coerce(target)
    loss = -(target * prediction.log() + (1.0 - target) * (1.0 - prediction).log())
    return loss.mean()


# --------------------------------------------------------------------------- #
# Normalisation
# --------------------------------------------------------------------------- #
def layer_norm(
    x: Tensor,
    axes: Tuple[int, ...] = (-2, -1),
    gain: Optional[Tensor] = None,
    bias: Optional[Tensor] = None,
    eps: float = 1e-6,
) -> Tensor:
    """Layer normalisation over ``axes`` (used before the detector plane
    during segmentation-DONN training, Section 5.6.2)."""
    x = Tensor._coerce(x)
    mean = x.mean(axis=axes, keepdims=True)
    centred = x - mean
    variance = (centred * centred).mean(axis=axes, keepdims=True)
    normalised = centred * ((variance + eps) ** -0.5)
    if gain is not None:
        normalised = normalised * gain
    if bias is not None:
        normalised = normalised + bias
    return normalised


# --------------------------------------------------------------------------- #
# Linear / convolution blocks (digital baselines)
# --------------------------------------------------------------------------- #
def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias``."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def _im2col(data: np.ndarray, kernel: int, stride: int, padding: int) -> Tuple[np.ndarray, int, int]:
    batch, channels, height, width = data.shape
    if padding:
        data = np.pad(data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (data.shape[2] - kernel) // stride + 1
    out_w = (data.shape[3] - kernel) // stride + 1
    strides = data.strides
    shape = (batch, channels, out_h, out_w, kernel, kernel)
    view = np.lib.stride_tricks.as_strided(
        data,
        shape=shape,
        strides=(strides[0], strides[1], strides[2] * stride, strides[3] * stride, strides[2], strides[3]),
    )
    columns = view.reshape(batch, channels, out_h * out_w, kernel * kernel)
    columns = columns.transpose(0, 2, 1, 3).reshape(batch, out_h * out_w, channels * kernel * kernel)
    return np.ascontiguousarray(columns), out_h, out_w


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution for real tensors, NCHW layout, square kernels.

    Implemented with im2col + matmul so that only matmul needs a gradient,
    keeping the backward path simple and well-tested.
    """
    x = Tensor._coerce(x)
    weight = Tensor._coerce(weight)
    out_channels, in_channels, kernel, _ = weight.shape
    batch = x.shape[0]

    columns_np, out_h, out_w = _im2col(x.data, kernel, stride, padding)

    def col_backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_cols = grad.reshape(batch, out_h, out_w, in_channels, kernel, kernel)
        padded = np.zeros(
            (batch, in_channels, x.shape[2] + 2 * padding, x.shape[3] + 2 * padding), dtype=float
        )
        for i in range(kernel):
            for j in range(kernel):
                padded[:, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride] += (
                    grad_cols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
                )
        if padding:
            padded = padded[:, :, padding:-padding, padding:-padding]
        x._accumulate(padded, fresh=True)

    columns = Tensor._make(columns_np, (x,), col_backward)
    flat_weight = weight.reshape(out_channels, in_channels * kernel * kernel)
    out = columns @ flat_weight.T  # (batch, out_h*out_w, out_channels)
    if bias is not None:
        out = out + bias
    out = out.transpose(0, 2, 1).reshape(batch, out_channels, out_h, out_w)
    return out


def max_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling for real NCHW tensors."""
    x = Tensor._coerce(x)
    stride = stride or kernel
    batch, channels, height, width = x.shape
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1
    strides = x.data.strides
    view = np.lib.stride_tricks.as_strided(
        x.data,
        shape=(batch, channels, out_h, out_w, kernel, kernel),
        strides=(strides[0], strides[1], strides[2] * stride, strides[3] * stride, strides[2], strides[3]),
    )
    data = view.max(axis=(4, 5))

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        full = np.zeros_like(x.data)
        for i in range(kernel):
            for j in range(kernel):
                patch = view[:, :, :, :, i, j]
                mask = patch == data
                full[:, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride] += mask * grad
        x._accumulate(full, fresh=True)

    return Tensor._make(data, (x,), backward)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode integer labels to a ``(batch, num_classes)`` float array."""
    labels = np.asarray(labels, dtype=int)
    encoded = np.zeros((labels.size, num_classes), dtype=float)
    encoded[np.arange(labels.size), labels.ravel()] = 1.0
    return encoded.reshape(labels.shape + (num_classes,))
