"""Tests for the scalar-diffraction propagators (the physics IR of the framework)."""

import dataclasses
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import DONN, tiles
from repro import fft as fft_dispatch
from repro.autograd import Adam, Tensor, check_gradients, functional, ops
from repro.engine import compile as engine_compile
from repro.optics import (
    DirectIntegrationPropagator,
    FraunhoferPropagator,
    FresnelPropagator,
    RayleighSommerfeldPropagator,
    SpatialGrid,
    fresnel_number,
    make_propagator,
)
from repro.optics.elements import circular_aperture
from repro.optics.propagation import APPROXIMATIONS


@pytest.fixture(scope="module")
def optical_grid():
    # 64 x 10 um pixels = 0.64 mm aperture, visible light.
    return SpatialGrid(size=64, pixel_size=10e-6)


@pytest.fixture(scope="module")
def gaussian_field(optical_grid):
    x, y = optical_grid.coordinates
    waist = optical_grid.extent / 6
    field = np.exp(-(x**2 + y**2) / waist**2).astype(complex)
    return Tensor(field)


WAVELENGTH = 532e-9

#: ``TILE_BYTES`` budgets: every batch in one tile, and one image per tile.
WHOLE_BATCH_TILE, ONE_IMAGE_TILE = 1 << 40, 1


@pytest.fixture
def tile_budgets(monkeypatch):
    """Iterate the tile budgets, patching the shared ``TILE_BYTES`` to each."""

    def budgets():
        for budget in (WHOLE_BATCH_TILE, ONE_IMAGE_TILE):
            monkeypatch.setattr(tiles, "TILE_BYTES", budget)
            yield budget

    return budgets


@pytest.fixture
def no_pool(monkeypatch):
    def refuse():
        raise AssertionError("the tile pool was used")

    monkeypatch.setattr(tiles, "_tile_pool", refuse)


@pytest.fixture
def own_pool(monkeypatch):
    """A private tile pool for one test (its size may be patched), shut down after it."""
    monkeypatch.setattr(tiles, "_pool", None)
    yield
    if tiles._pool is not None:
        tiles._pool.shutdown()


class TestFactory:
    def test_all_registered_names_construct(self, optical_grid):
        for name in set(APPROXIMATIONS):
            propagator = make_propagator(name, optical_grid, WAVELENGTH, 0.01)
            assert propagator.grid is optical_grid

    def test_unknown_name_rejected(self, optical_grid):
        with pytest.raises(ValueError):
            make_propagator("fdtd", optical_grid, WAVELENGTH, 0.01)

    def test_invalid_parameters_rejected(self, optical_grid):
        with pytest.raises(ValueError):
            RayleighSommerfeldPropagator(optical_grid, wavelength=-1.0, distance=0.01)
        with pytest.raises(ValueError):
            RayleighSommerfeldPropagator(optical_grid, wavelength=WAVELENGTH, distance=0.0)
        with pytest.raises(ValueError):
            RayleighSommerfeldPropagator(optical_grid, WAVELENGTH, 0.01, pad_factor=0)

    def test_field_shape_mismatch_rejected(self, optical_grid):
        propagator = RayleighSommerfeldPropagator(optical_grid, WAVELENGTH, 0.01)
        with pytest.raises(ValueError):
            propagator(Tensor(np.zeros((16, 16), dtype=complex)))

    def test_fresnel_number_definition(self):
        assert fresnel_number(1e-3, 500e-9, 1.0) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            fresnel_number(1e-3, 500e-9, 0.0)


class TestRayleighSommerfeld:
    def test_energy_conserved_for_propagating_field(self, optical_grid, gaussian_field):
        """The angular-spectrum transfer function is unitary for propagating waves."""
        propagator = RayleighSommerfeldPropagator(optical_grid, WAVELENGTH, 0.005)
        output = propagator(gaussian_field)
        energy_in = float(gaussian_field.abs2().sum().data)
        energy_out = float(output.abs2().sum().data)
        assert energy_out == pytest.approx(energy_in, rel=1e-6)

    def test_zero_distance_limit_is_identity_like(self, optical_grid, gaussian_field):
        propagator = RayleighSommerfeldPropagator(optical_grid, WAVELENGTH, 1e-9)
        output = propagator(gaussian_field)
        np.testing.assert_allclose(np.abs(output.data), np.abs(gaussian_field.data), atol=1e-6)

    def test_beam_spreads_with_distance(self, optical_grid, gaussian_field):
        """Diffraction must widen a finite beam as it propagates."""

        def beam_width(field):
            intensity = np.abs(field) ** 2
            x, _ = optical_grid.coordinates
            return np.sqrt((intensity * x**2).sum() / intensity.sum())

        near = RayleighSommerfeldPropagator(optical_grid, WAVELENGTH, 0.002)(gaussian_field)
        far = RayleighSommerfeldPropagator(optical_grid, WAVELENGTH, 0.02)(gaussian_field)
        assert beam_width(far.data) > beam_width(near.data) > beam_width(gaussian_field.data) * 0.99

    def test_batched_propagation_matches_single(self, optical_grid, gaussian_field, rng):
        other = Tensor(rng.normal(size=optical_grid.shape) + 1j * rng.normal(size=optical_grid.shape))
        propagator = RayleighSommerfeldPropagator(optical_grid, WAVELENGTH, 0.01)
        import repro.autograd.ops as ops

        batch = ops.stack([gaussian_field, other])
        batched = propagator(batch)
        np.testing.assert_allclose(batched.data[0], propagator(gaussian_field).data, atol=1e-10)
        np.testing.assert_allclose(batched.data[1], propagator(other).data, atol=1e-10)

    def test_linearity(self, optical_grid, gaussian_field, rng):
        other = Tensor(rng.normal(size=optical_grid.shape) + 1j * rng.normal(size=optical_grid.shape))
        propagator = RayleighSommerfeldPropagator(optical_grid, WAVELENGTH, 0.01)
        combined = propagator(gaussian_field * 2.0 + other)
        separate = propagator(gaussian_field) * 2.0 + propagator(other)
        np.testing.assert_allclose(combined.data, separate.data, atol=1e-10)

    def test_padding_reduces_wraparound(self, optical_grid):
        """With a field that hits the window edge, padding changes (improves) the result."""
        x, y = optical_grid.coordinates
        field = Tensor((np.abs(x) < optical_grid.extent / 2.2).astype(complex))
        unpadded = RayleighSommerfeldPropagator(optical_grid, WAVELENGTH, 0.02, pad_factor=1)(field)
        padded = RayleighSommerfeldPropagator(optical_grid, WAVELENGTH, 0.02, pad_factor=2)(field)
        assert padded.shape == unpadded.shape
        difference = np.abs(padded.data - unpadded.data).max()
        assert difference > 1e-6  # wrap-around is present and padding suppressed it

    def test_gradcheck_through_propagator(self):
        grid = SpatialGrid(size=6, pixel_size=10e-6)
        propagator = RayleighSommerfeldPropagator(grid, WAVELENGTH, 0.001)
        field = Tensor(np.random.default_rng(0).normal(size=(6, 6)).astype(complex), requires_grad=True)
        weights = np.random.default_rng(1).normal(size=(6, 6))
        assert check_gradients(lambda f: (propagator(f).abs2() * weights).sum(), [field], atol=1e-6)


class TestFresnelAgainstRayleighSommerfeld:
    def test_paraxial_agreement(self, optical_grid, gaussian_field):
        """In the paraxial regime Fresnel and RS must produce nearly identical patterns."""
        distance = 0.05  # far enough that angles are tiny for a 0.64 mm aperture
        rs = RayleighSommerfeldPropagator(optical_grid, WAVELENGTH, distance)(gaussian_field)
        fresnel = FresnelPropagator(optical_grid, WAVELENGTH, distance)(gaussian_field)
        intensity_rs = rs.abs2().data
        intensity_fr = fresnel.abs2().data
        correlation = np.corrcoef(intensity_rs.ravel(), intensity_fr.ravel())[0, 1]
        assert correlation > 0.999

    def test_fresnel_energy_conserved(self, optical_grid, gaussian_field):
        fresnel = FresnelPropagator(optical_grid, WAVELENGTH, 0.05)(gaussian_field)
        assert float(fresnel.abs2().sum().data) == pytest.approx(float(gaussian_field.abs2().sum().data), rel=1e-6)

    def test_validity_condition_improves_with_distance(self, optical_grid):
        near = FresnelPropagator(optical_grid, WAVELENGTH, 1e-6)
        far = FresnelPropagator(optical_grid, WAVELENGTH, 0.5)
        assert far.validity_condition()
        assert not near.validity_condition()


class TestDirectIntegrationCrossCheck:
    def test_direct_matches_angular_spectrum(self, optical_grid, gaussian_field):
        """Eq. 1 evaluated by convolution must agree with the transfer-function kernel.

        This is the numerical-fidelity cross-check: two independent
        evaluations of the same physics.
        """
        distance = 0.01
        spectral = RayleighSommerfeldPropagator(optical_grid, WAVELENGTH, distance, pad_factor=2)(gaussian_field)
        direct = DirectIntegrationPropagator(optical_grid, WAVELENGTH, distance, pad_factor=2)(gaussian_field)
        intensity_a = spectral.abs2().data
        intensity_b = direct.abs2().data
        correlation = np.corrcoef(intensity_a.ravel(), intensity_b.ravel())[0, 1]
        assert correlation > 0.99
        # Total power should agree to within a few percent as well.
        assert intensity_b.sum() == pytest.approx(intensity_a.sum(), rel=0.05)


class TestFraunhofer:
    def test_far_field_of_gaussian_is_gaussian(self, optical_grid, gaussian_field):
        propagator = FraunhoferPropagator(optical_grid, WAVELENGTH, 10.0)
        output = propagator(gaussian_field).abs2().data
        centre = optical_grid.size // 2
        assert output[centre, centre] == pytest.approx(output.max())

    def test_output_pixel_size(self, optical_grid):
        propagator = FraunhoferPropagator(optical_grid, WAVELENGTH, 1.0)
        expected = WAVELENGTH * 1.0 / optical_grid.extent
        assert propagator.output_pixel_size == pytest.approx(expected)

    def test_far_field_of_aperture_has_airy_like_rings(self, optical_grid):
        aperture = Tensor(circular_aperture(optical_grid, radius_fraction=0.3).astype(complex))
        output = FraunhoferPropagator(optical_grid, WAVELENGTH, 10.0)(aperture).abs2().data
        centre = optical_grid.size // 2
        profile = output[centre, centre:]
        # Intensity must fall from the central lobe and then rise again (first ring).
        first_minimum = np.argmin(profile[: optical_grid.size // 4])
        assert first_minimum > 0
        assert profile[first_minimum:].max() > profile[first_minimum] * 2

    def test_validity_condition_far_field_only(self, optical_grid):
        assert not FraunhoferPropagator(optical_grid, WAVELENGTH, 0.01).validity_condition()
        assert FraunhoferPropagator(optical_grid, WAVELENGTH, 1e4).validity_condition()

    def test_shape_mismatch_rejected(self, optical_grid):
        propagator = FraunhoferPropagator(optical_grid, WAVELENGTH, 1.0)
        with pytest.raises(ValueError):
            propagator(Tensor(np.zeros((8, 8), dtype=complex)))


class TestFusedPropagate:
    """``ops.propagate``: the one autograd op behind every transfer-function hop."""

    @pytest.mark.parametrize("pad_factor", [1, 2])
    @pytest.mark.parametrize("approx", ["rayleigh_sommerfeld", "fresnel", "direct"])
    def test_gradcheck(self, approx, pad_factor, tile_budgets):
        grid = SpatialGrid(size=6, pixel_size=10e-6)
        propagator = make_propagator(approx, grid, WAVELENGTH, 0.001, pad_factor=pad_factor)
        rng = np.random.default_rng(0)
        field = Tensor(rng.normal(size=(2, 6, 6)) + 1j * rng.normal(size=(2, 6, 6)), requires_grad=True)
        weights = rng.normal(size=(2, 6, 6))
        for _ in tile_budgets():
            assert check_gradients(lambda f: (propagator(f).abs2() * weights).sum(), [field], atol=1e-6)

    @staticmethod
    def _donn_step(config, images, labels, optimizer_step=False):
        model = DONN(config)
        optimizer = Adam(model.parameters(), lr=0.1)
        logits = model(images)
        loss = functional.softmax_mse_loss(logits, Tensor(functional.one_hot(labels, config.num_classes)))
        loss.backward()
        grads = [p.grad.copy() for p in model.parameters()]
        if optimizer_step:
            optimizer.step()
        return float(loss.data), grads, [p.data.copy() for p in model.parameters()]

    def test_two_layer_donn_gradients_match_composed_path(self, monkeypatch, small_config, tile_budgets):
        images = np.random.default_rng(2).uniform(size=(3, 32, 32))
        labels = np.array([1, 4, 7])
        fused = [self._donn_step(small_config, images, labels)[:2] for _ in tile_budgets()]
        monkeypatch.setattr(
            ops, "propagate", lambda field, transfer: ops.ifft2(ops.fft2(field) * Tensor(transfer))
        )
        composed_loss, composed_grads, _ = self._donn_step(small_config, images, labels)
        for fused_loss, fused_grads in fused:
            assert fused_loss == pytest.approx(composed_loss, abs=1e-12)
            assert len(fused_grads) == small_config.num_layers
            for fused_grad, composed in zip(fused_grads, composed_grads):
                assert np.abs(composed).max() > 0
                np.testing.assert_allclose(fused_grad, composed, rtol=0, atol=1e-12)

    def test_numpy_fallback_training_step_matches_scipy(self, monkeypatch, small_config):
        if "scipy" not in fft_dispatch.available_backends():
            pytest.skip("scipy not installed")
        images = np.random.default_rng(3).uniform(size=(4, 32, 32))
        labels = np.array([0, 2, 5, 9])
        scipy_loss, scipy_grads, scipy_params = self._donn_step(small_config, images, labels, optimizer_step=True)
        monkeypatch.setattr(fft_dispatch, "_import_scipy_fft", lambda: None)
        numpy_calls = []
        numpy_fft2 = fft_dispatch.NumpyFFTBackend.fft2

        def counting_fft2(self, *args, **kwargs):
            numpy_calls.append(1)
            return numpy_fft2(self, *args, **kwargs)

        monkeypatch.setattr(fft_dispatch.NumpyFFTBackend, "fft2", counting_fft2)
        numpy_loss, numpy_grads, numpy_params = self._donn_step(small_config, images, labels, optimizer_step=True)
        assert numpy_calls  # the step really ran on the fallback
        assert numpy_loss == pytest.approx(scipy_loss, abs=1e-10)
        for expected, actual in zip(scipy_grads + scipy_params, numpy_grads + numpy_params):
            np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-10)


class TestTiledPropagate:
    """``ops.propagate`` runs forward and adjoint one tile of images at a
    time over the shared pool of :mod:`repro.tiles`.  Every step of the hop
    is per-image or point-wise, so no tiling, lane count or batch size may
    move a bit of the output, the gradient or a training trajectory."""

    SIZE = 8

    @classmethod
    def _hop(cls, field, pad_factor):
        """Forward output and input gradient of one hop."""
        grid = SpatialGrid(size=cls.SIZE, pixel_size=10e-6)
        propagator = make_propagator("rayleigh_sommerfeld", grid, WAVELENGTH, 0.001, pad_factor=pad_factor)
        x = Tensor(field, requires_grad=True)
        out = propagator(x)
        weights = np.random.default_rng(7).normal(size=field.shape)
        (out.abs2() * weights).sum().backward()
        return out.data, x.grad

    @pytest.mark.parametrize("pad_factor", [1, 2])
    @pytest.mark.parametrize("batch", [1, 2, 3, 7], ids=["below", "at", "above", "ragged"])
    def test_output_and_gradient_are_bitwise_equal_across_tiles_and_lanes(
        self, monkeypatch, own_pool, batch, pad_factor
    ):
        """Batches below, at, above and ragged around a two-image tile."""
        rng = np.random.default_rng(batch)
        shape = (batch, self.SIZE, self.SIZE)
        field = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        image_bytes = (self.SIZE * pad_factor) ** 2 * field.itemsize
        monkeypatch.setattr(tiles, "TILE_BYTES", WHOLE_BATCH_TILE)
        expected_out, expected_grad = self._hop(field, pad_factor)
        all_lanes = tiles.usable_lanes()
        for tile in (1, 2):
            monkeypatch.setattr(tiles, "TILE_BYTES", tile * image_bytes)
            for lanes in (1, all_lanes, 4):
                monkeypatch.setattr(tiles, "usable_lanes", lambda lanes=lanes: lanes)
                out, grad = self._hop(field, pad_factor)
                np.testing.assert_array_equal(out, expected_out)
                np.testing.assert_array_equal(grad, expected_grad)

    def test_two_adam_steps_give_bitwise_equal_parameters(self, monkeypatch, small_config):
        config = dataclasses.replace(small_config, pad_factor=2)
        rng = np.random.default_rng(4)
        images, labels = rng.uniform(size=(5, 32, 32)), np.array([0, 3, 5, 8, 9])
        target = Tensor(functional.one_hot(labels, config.num_classes))

        def train() -> list:
            model = DONN(config)
            optimizer = Adam(model.parameters(), lr=0.1)
            for _ in range(2):
                optimizer.zero_grad()
                functional.softmax_mse_loss(model(images), target).backward()
                optimizer.step()
            return [p.data.copy() for p in model.parameters()]

        monkeypatch.setattr(tiles, "TILE_BYTES", WHOLE_BATCH_TILE)
        untiled = train()
        monkeypatch.setattr(tiles, "TILE_BYTES", 2 * 64 * 64 * 16)  # two padded images
        tiled = train()
        for expected, actual in zip(untiled, tiled):
            np.testing.assert_array_equal(actual, expected)

    def test_multi_tile_batch_uses_the_pool(self, monkeypatch, own_pool, no_pool):
        monkeypatch.setattr(tiles, "TILE_BYTES", ONE_IMAGE_TILE)
        monkeypatch.setattr(tiles, "usable_lanes", lambda: 2)
        with pytest.raises(AssertionError, match="tile pool"):
            self._hop(np.ones((2, self.SIZE, self.SIZE), dtype=complex), 1)

    def test_inline_cases_never_touch_the_pool(self, monkeypatch, own_pool, no_pool, small_config):
        def refuse(*args):
            raise AssertionError("the hop was tiled")

        monkeypatch.setattr(tiles, "run_tiles", refuse)
        monkeypatch.setattr(tiles, "TILE_BYTES", ONE_IMAGE_TILE)
        monkeypatch.setattr(tiles, "usable_lanes", lambda: 2)
        self._hop(np.ones((self.SIZE, self.SIZE), dtype=complex), 2)  # unbatched
        self._hop(np.ones((1, self.SIZE, self.SIZE), dtype=complex), 2)  # one tile
        DONN(small_config)

    def test_training_and_the_engine_share_one_pool(self, monkeypatch, small_config):
        created = []

        class CountingPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(tiles, "ThreadPoolExecutor", CountingPool)
        monkeypatch.setattr(tiles, "_pool", None)
        monkeypatch.setattr(tiles, "TILE_BYTES", ONE_IMAGE_TILE)
        monkeypatch.setattr(tiles, "usable_lanes", lambda: 2)
        model = DONN(small_config, nonlinearity="saturable")
        images = np.random.default_rng(5).uniform(size=(3, 32, 32))
        try:
            functional.softmax_mse_loss(model(images), Tensor(np.zeros((3, 10)))).backward()
            assert len(created) == 1
            session = engine_compile(model, batch_size=8)
            assert not session.plan_summary()["collapsed"]
            session.run(images)
            assert created == [tiles._pool]
        finally:
            for pool in created:
                pool.shutdown()
