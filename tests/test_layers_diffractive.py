"""Tests for diffractive layers (raw and codesign) and the skip/norm helpers."""

import io
import pickle

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients
from repro.codesign import ideal_profile
from repro.layers import CodesignDiffractiveLayer, DiffractiveLayer, OpticalSkipConnection, PlaneNorm
from repro.optics import SpatialGrid

WAVELENGTH = 532e-9


@pytest.fixture(scope="module")
def layer_grid():
    return SpatialGrid(size=16, pixel_size=36e-6)


@pytest.fixture
def input_field(layer_grid):
    rng = np.random.default_rng(5)
    return Tensor(rng.normal(size=(2,) + layer_grid.shape) + 1j * rng.normal(size=(2,) + layer_grid.shape))


class TestDiffractiveLayer:
    def test_forward_shape_and_dtype(self, layer_grid, input_field):
        layer = DiffractiveLayer(layer_grid, WAVELENGTH, 0.05)
        out = layer(input_field)
        assert out.shape == input_field.shape
        assert out.is_complex

    def test_phase_is_trainable_parameter(self, layer_grid):
        layer = DiffractiveLayer(layer_grid, WAVELENGTH, 0.05)
        assert len(layer.parameters()) == 1
        assert layer.parameters()[0] is layer.phase

    def test_phase_init_shape_checked(self, layer_grid):
        with pytest.raises(ValueError):
            DiffractiveLayer(layer_grid, WAVELENGTH, 0.05, phase_init=np.zeros((4, 4)))

    def test_explicit_phase_init_used(self, layer_grid):
        init = np.full(layer_grid.shape, 0.25)
        layer = DiffractiveLayer(layer_grid, WAVELENGTH, 0.05, phase_init=init)
        np.testing.assert_allclose(layer.phase.data, init)

    def test_modulation_unit_magnitude_without_gamma(self, layer_grid):
        layer = DiffractiveLayer(layer_grid, WAVELENGTH, 0.05, amplitude_factor=1.0)
        np.testing.assert_allclose(np.abs(layer.modulation().data), 1.0)

    def test_amplitude_factor_scales_modulation(self, layer_grid):
        layer = DiffractiveLayer(layer_grid, WAVELENGTH, 0.05, amplitude_factor=2.0)
        np.testing.assert_allclose(np.abs(layer.modulation().data), 2.0)

    def test_phase_values_wrapped(self, layer_grid):
        layer = DiffractiveLayer(layer_grid, WAVELENGTH, 0.05, phase_init=np.full(layer_grid.shape, 7.0))
        values = layer.phase_values()
        assert np.all((values >= 0) & (values < 2 * np.pi))

    def test_zero_phase_layer_only_diffracts(self, layer_grid, input_field):
        layer = DiffractiveLayer(layer_grid, WAVELENGTH, 0.05, phase_init=np.zeros(layer_grid.shape))
        out = layer(input_field)
        np.testing.assert_allclose(out.data, layer.propagator(input_field).data)

    def test_gradients_reach_phase(self, layer_grid, input_field):
        layer = DiffractiveLayer(layer_grid, WAVELENGTH, 0.05)
        layer(input_field).abs2().sum().backward()
        assert layer.phase.grad is not None
        assert np.any(layer.phase.grad != 0)

    def test_gradcheck_small_layer(self):
        grid = SpatialGrid(size=5, pixel_size=36e-6)
        layer = DiffractiveLayer(grid, WAVELENGTH, 0.01)
        rng = np.random.default_rng(0)
        field = Tensor(rng.normal(size=grid.shape).astype(complex))
        weights = rng.normal(size=grid.shape)
        assert check_gradients(lambda p: (layer(field).abs2() * weights).sum(), [layer.phase], atol=1e-6)

    @pytest.mark.parametrize("pad_factor", [1, 2])
    def test_pickle_carries_no_complex_array(self, layer_grid, input_field, pad_factor):
        """The propagator's transfer function is rebuilt on load, not shipped."""
        layer = DiffractiveLayer(layer_grid, WAVELENGTH, 0.05, pad_factor=pad_factor)
        pickled_dtypes = []

        class RecordingPickler(pickle.Pickler):
            def reducer_override(self, obj):
                if isinstance(obj, np.ndarray):
                    pickled_dtypes.append(obj.dtype)
                return NotImplemented

        buffer = io.BytesIO()
        RecordingPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(layer)
        assert np.dtype(float) in pickled_dtypes  # the phase parameter is shipped
        assert not any(np.issubdtype(dtype, np.complexfloating) for dtype in pickled_dtypes)
        restored = pickle.loads(buffer.getvalue())
        np.testing.assert_array_equal(restored(input_field).data, layer(input_field).data)

    def test_approx_selection_changes_result(self, layer_grid, input_field):
        rs = DiffractiveLayer(layer_grid, WAVELENGTH, 0.05, approx="rayleigh_sommerfeld", phase_init=np.zeros(layer_grid.shape))
        fresnel = DiffractiveLayer(layer_grid, WAVELENGTH, 0.05, approx="fresnel", phase_init=np.zeros(layer_grid.shape))
        assert not np.allclose(rs(input_field).data, fresnel(input_field).data)


class TestCodesignLayer:
    @pytest.fixture
    def profile(self):
        return ideal_profile(num_levels=8)

    def test_logits_shape(self, layer_grid, profile):
        layer = CodesignDiffractiveLayer(layer_grid, WAVELENGTH, 0.05, device_profile=profile)
        assert layer.logits.shape == layer_grid.shape + (8,)

    def test_forward_shape(self, layer_grid, profile, input_field):
        layer = CodesignDiffractiveLayer(layer_grid, WAVELENGTH, 0.05, device_profile=profile)
        assert layer(input_field).shape == input_field.shape

    def test_modulation_is_convex_combination_of_levels(self, layer_grid, profile):
        layer = CodesignDiffractiveLayer(layer_grid, WAVELENGTH, 0.05, device_profile=profile)
        layer.eval()
        modulation = layer.modulation().data
        # Magnitude of a convex combination of unit-modulus responses is <= 1.
        assert np.all(np.abs(modulation) <= 1.0 + 1e-9)

    def test_hard_phase_values_are_device_levels(self, layer_grid, profile):
        layer = CodesignDiffractiveLayer(layer_grid, WAVELENGTH, 0.05, device_profile=profile)
        deployed = layer.hard_phase_values()
        assert set(np.unique(deployed)).issubset(set(profile.phases))

    def test_hard_modulation_matches_level_responses(self, layer_grid, profile):
        layer = CodesignDiffractiveLayer(layer_grid, WAVELENGTH, 0.05, device_profile=profile)
        modulation = layer.hard_modulation()
        np.testing.assert_allclose(np.abs(modulation), 1.0)

    def test_eval_mode_is_deterministic(self, layer_grid, profile, input_field):
        layer = CodesignDiffractiveLayer(layer_grid, WAVELENGTH, 0.05, device_profile=profile)
        layer.eval()
        first = layer(input_field).data
        second = layer(input_field).data
        np.testing.assert_allclose(first, second)

    def test_train_mode_is_stochastic(self, layer_grid, profile, input_field):
        layer = CodesignDiffractiveLayer(layer_grid, WAVELENGTH, 0.05, device_profile=profile)
        layer.train()
        first = layer(input_field).data
        second = layer(input_field).data
        assert not np.allclose(first, second)

    def test_gradients_reach_logits(self, layer_grid, profile, input_field):
        layer = CodesignDiffractiveLayer(layer_grid, WAVELENGTH, 0.05, device_profile=profile)
        layer.eval()
        layer(input_field).abs2().sum().backward()
        assert layer.logits.grad is not None
        assert np.any(layer.logits.grad != 0)

    def test_phase_values_are_soft_expectation(self, layer_grid, profile):
        layer = CodesignDiffractiveLayer(layer_grid, WAVELENGTH, 0.05, device_profile=profile)
        values = layer.phase_values()
        assert values.shape == layer_grid.shape
        assert values.min() >= 0.0
        assert values.max() <= profile.phases.max() + 1e-9


class TestSkipAndNorm:
    def test_skip_connection_mixes_paths(self, layer_grid, input_field):
        identity_layers = [DiffractiveLayer(layer_grid, WAVELENGTH, 0.05, phase_init=np.zeros(layer_grid.shape))]
        skip = OpticalSkipConnection(identity_layers, skip_weight=0.5)
        out = skip(input_field)
        assert out.shape == input_field.shape

    def test_skip_weight_bounds(self, layer_grid):
        layers = [DiffractiveLayer(layer_grid, WAVELENGTH, 0.05)]
        with pytest.raises(ValueError):
            OpticalSkipConnection(layers, skip_weight=0.0)
        with pytest.raises(ValueError):
            OpticalSkipConnection(layers, skip_weight=1.0)

    def test_skip_registers_inner_parameters(self, layer_grid):
        layers = [DiffractiveLayer(layer_grid, WAVELENGTH, 0.05) for _ in range(3)]
        skip = OpticalSkipConnection(layers)
        assert len(skip.parameters()) == 3

    def test_full_skip_weight_dominates_bypass(self, layer_grid, input_field):
        scattering = [DiffractiveLayer(layer_grid, WAVELENGTH, 0.05)]
        almost_bypass = OpticalSkipConnection(scattering, skip_weight=0.99)(input_field)
        # With 99% of power bypassing, output stays close to the input field.
        relative = float((almost_bypass - input_field).abs2().sum().data / input_field.abs2().sum().data)
        assert relative < 0.3

    def test_plane_norm_identity_in_eval_mode(self, rng):
        norm = PlaneNorm(training_only=True)
        norm.eval()
        pattern = Tensor(rng.uniform(size=(2, 8, 8)))
        assert norm(pattern) is pattern

    def test_plane_norm_normalises_in_train_mode(self, rng):
        norm = PlaneNorm(training_only=True)
        norm.train()
        pattern = Tensor(rng.uniform(size=(2, 8, 8)) * 10 + 3)
        out = norm(pattern).data
        np.testing.assert_allclose(out.mean(axis=(-2, -1)), 0.0, atol=1e-7)

    def test_plane_norm_always_on_when_not_training_only(self, rng):
        norm = PlaneNorm(training_only=False)
        norm.eval()
        pattern = Tensor(rng.uniform(size=(4, 4)) + 5)
        assert abs(norm(pattern).data.mean()) < 1e-7
