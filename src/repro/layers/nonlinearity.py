"""Optical nonlinearities (the paper's Section 6 extension).

The conclusion of the paper lists all-optical nonlinearity -- realised with
nonlinear optical materials such as saturable absorbers or Kerr media -- as
the main missing ingredient for more expressive DONNs.  This module provides
differentiable models of the two standard thin-film nonlinearities so that
extended architectures can be explored in emulation today:

* :class:`SaturableAbsorber` -- intensity-dependent transmission
  ``T(I) = T_lin + (1 - T_lin) * I / (I + I_sat)``: weak light is absorbed,
  strong light passes, which acts like a smooth ReLU on the optical field.
* :class:`KerrPhaseLayer` -- intensity-dependent phase
  ``phi(I) = n2_coefficient * I``: self-phase modulation, the optical
  analogue of a multiplicative interaction.

Both act point-wise on the complex field and are therefore drop-in layers
for the :class:`~repro.models.donn.DONN` stack: every model family accepts
a ``nonlinearity=`` element that is inserted after each diffractive layer.

Each nonlinearity implements the shared :class:`NonlinearLayer` interface:
``forward`` is the differentiable autograd path used in training, and
``apply_numpy`` is the same point-wise map on a raw ndarray, which is what
the autograd-free inference engine (:mod:`repro.engine`) bakes into its
compiled programs.  The two paths are required to agree to ``1e-10``
(``tests/test_layers_nonlinearity.py``, ``tests/test_engine.py``).
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Module, Tensor, ops


class NonlinearLayer(Module):
    """Base class for point-wise all-optical nonlinearities.

    Subclasses model a thin nonlinear film: a map ``field -> field`` that
    acts element-wise on the complex wavefield and depends only on the
    local intensity.  They must provide both the differentiable
    :meth:`forward` (training) and the ndarray :meth:`apply_numpy`
    (inference-engine compilation) with identical numerics.
    """

    def forward(self, field: Tensor) -> Tensor:  # pragma: no cover - interface
        raise NotImplementedError

    def apply_numpy(self, field: np.ndarray) -> np.ndarray:
        """Apply the nonlinearity to a plain complex ndarray.

        Must preserve the input's complex dtype (``complex64`` stays
        ``complex64``) so the engine's reduced-precision mode works.
        """
        raise NotImplementedError  # pragma: no cover - interface


class SaturableAbsorber(NonlinearLayer):
    """Intensity-dependent transmission (a smooth all-optical activation).

    Parameters
    ----------
    saturation_intensity:
        Intensity scale ``I_sat`` at which the absorber bleaches; at
        ``I = I_sat`` the excess transmission reaches half its range.
    linear_transmission:
        Transmission for vanishing intensity (``0 < T_lin <= 1``).
    """

    def __init__(self, saturation_intensity: float = 1.0, linear_transmission: float = 0.1):
        super().__init__()
        if saturation_intensity <= 0:
            raise ValueError("saturation_intensity must be positive")
        if not 0.0 < linear_transmission <= 1.0:
            raise ValueError("linear_transmission must be in (0, 1]")
        self.saturation_intensity = float(saturation_intensity)
        self.linear_transmission = float(linear_transmission)

    def transmission(self, intensity: Tensor) -> Tensor:
        """Amplitude transmission factor as a function of local intensity."""
        saturating = intensity / (intensity + self.saturation_intensity)
        power_transmission = self.linear_transmission + (1.0 - self.linear_transmission) * saturating
        return power_transmission**0.5

    def forward(self, field: Tensor) -> Tensor:
        intensity = field.abs2()
        return field * self.transmission(intensity).to_complex()

    def apply_numpy(self, field: np.ndarray) -> np.ndarray:
        intensity = (field * np.conj(field)).real
        saturating = intensity / (intensity + self.saturation_intensity)
        power_transmission = self.linear_transmission + (1.0 - self.linear_transmission) * saturating
        attenuated = field * np.sqrt(power_transmission)
        # Python-float scalars may promote float32 intermediates on older
        # numpy; pin the field's own complex dtype for reduced precision.
        return attenuated.astype(field.dtype, copy=False)


class KerrPhaseLayer(NonlinearLayer):
    """Kerr-type self-phase modulation: phase shift proportional to intensity."""

    def __init__(self, nonlinear_coefficient: float = 1.0):
        super().__init__()
        self.nonlinear_coefficient = float(nonlinear_coefficient)

    def forward(self, field: Tensor) -> Tensor:
        phase_shift = field.abs2() * self.nonlinear_coefficient
        return field * ops.exp_i(phase_shift)

    def apply_numpy(self, field: np.ndarray) -> np.ndarray:
        phase_shift = (field * np.conj(field)).real * self.nonlinear_coefficient
        # Multiply into the fresh rotation with ``field`` as the first
        # operand.  Swapping a complex product's operands can move its last
        # bit, and numpy's temporary elision swaps them only for arrays over
        # 256 KiB, so ``field * np.exp(...)`` would depend on the batch size.
        modulated = np.exp(1j * phase_shift)
        np.multiply(field, modulated, out=modulated)
        # 1j * float32 promotes to complex128 on pre-NEP50 numpy; pin the
        # field's own complex dtype so reduced-precision serving stays put.
        return modulated.astype(field.dtype, copy=False)


def make_nonlinearity(kind, **kwargs) -> NonlinearLayer:
    """Resolve a nonlinearity spec: an instance, ``None``-like, or a name.

    Accepts a :class:`NonlinearLayer` (returned as-is) or one of the
    string names ``"saturable"`` / ``"kerr"`` with constructor kwargs.
    """
    if isinstance(kind, NonlinearLayer):
        return kind
    key = str(kind).lower()
    if key in ("saturable", "saturable_absorber", "sa"):
        return SaturableAbsorber(**kwargs)
    if key in ("kerr", "kerr_phase"):
        return KerrPhaseLayer(**kwargs)
    raise ValueError(f"unknown nonlinearity {kind!r}; choose 'saturable' or 'kerr'")
