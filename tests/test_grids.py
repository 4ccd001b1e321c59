"""Grid construction, quadrature, and the sign of the dual frequencies."""

import numpy as np
import pytest
import scipy.fft as sfft

from semiphase import ConfigurationError, ShapeMismatchError, build_position_grid
from semiphase.grids import PhaseGrid, _fast_len, _real_fft, quadrature, time_steps


def test_fast_len_is_the_next_eleven_smooth_length():
    # scipy's rule for complex transforms: the least 2*3*5*7*11-smooth n
    assert all(_fast_len(n) == sfft.next_fast_len(n) for n in range(1, 2 ** 18 + 1))
    assert _fast_len(2 ** 31) == 2 ** 31


@pytest.mark.parametrize("n", [8, 9, 256, 1023, 1024])
def test_real_fft_is_the_full_transform(n):
    x = np.random.default_rng(n).standard_normal(n)
    spec = _real_fft(x)
    assert np.array_equal(spec, sfft.fft(x))
    assert np.max(np.abs(spec - np.fft.fft(x + 0j))) <= 1e-12 * np.sqrt(n)


def test_grid_basic_geometry():
    g = build_position_grid(256, -4.0, 4.0)
    assert g.n_points == 256
    assert g.dx == pytest.approx(8.0 / 256)
    assert g.nodes[0] == -4.0
    # periodic: right endpoint excluded
    assert g.nodes[-1] == pytest.approx(4.0 - g.dx)
    assert g.length == pytest.approx(8.0)
    assert len(g) == 256


def test_grid_dual_frequencies():
    g = build_position_grid(64, 0.0, 2.0 * np.pi)
    # on a 2*pi box the dual frequencies are integers
    assert np.allclose(np.sort(g.k), np.arange(-32, 32))


@pytest.mark.parametrize("n", [7, 9, 123, 0, -8, 12, 100, 210, 384, 1232])
def test_grid_length_contract(n):
    # any even length >= 8 is a grid; odd or shorter lengths are refused
    if n < 8 or n % 2:
        with pytest.raises(ConfigurationError, match="even integer >= 8"):
            build_position_grid(n, -1.0, 1.0)
        return
    g = build_position_grid(n, -1.0, 1.0)
    assert g.n_points == n and g.dx == 2.0 / n
    assert np.array_equal(g.k, 2.0 * np.pi * np.fft.fftfreq(n, g.dx))


def test_grid_rejects_degenerate_interval():
    with pytest.raises(ConfigurationError):
        build_position_grid(64, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        build_position_grid(64, 2.0, -2.0)


@pytest.mark.parametrize("span, dt, n", [
    (1.0, 1e-3, 1000), (-1.0, 1e-3, 1000), (0.25, 0.1, 2),
    (0.36, 0.1, 4), (1e-4, 0.1, 1), (0.0, 0.1, 1),
])
def test_time_steps_rule(span, dt, n):
    # n = max(1, round(|span| / dt)) steps of signed size span / n
    assert time_steps(span, dt) == (n, span / n)


def test_time_steps_rejects_non_finite():
    # the step is a size > 0: the span's sign alone gives the direction
    for span, dt in [(1.0, 0.0), (0.3, -0.1), (1.0, float("inf")), (1.0, -float("inf")),
                     (1.0, float("nan")), (float("inf"), 1e-3),
                     (-float("inf"), 1e-3), (float("nan"), 1e-3)]:
        with pytest.raises(ConfigurationError):
            time_steps(span, dt)


def test_quadrature_constant_and_bandlimited():
    g = build_position_grid(128, -3.0, 3.0)
    assert quadrature(np.ones(128), g) == pytest.approx(6.0, abs=1e-13)
    # rectangle rule is exact for resolved periodic modes
    f = 1.0 + np.cos(2.0 * np.pi * g.nodes / 6.0)
    assert quadrature(f, g) == pytest.approx(6.0, abs=1e-12)


def test_quadrature_shape_mismatch():
    g = build_position_grid(64, -1.0, 1.0)
    with pytest.raises(ShapeMismatchError):
        quadrature(np.ones(65), g)


def test_dft_translation_phase():
    # the sign of grid.k: a circular shift by m nodes multiplies the
    # forward FFT by exp(-i k m dx)
    g = build_position_grid(128, -4.0, 4.0)
    rng = np.random.default_rng(1)
    c = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    shifted = np.roll(c, 3)
    expect = sfft.fft(c) * np.exp(-1j * g.k * 3 * g.dx)
    assert np.max(np.abs(sfft.fft(shifted) - expect)) < 1e-11 * np.sqrt(128)


def test_phase_grid_accessors():
    gx = build_position_grid(64, -2.0, 2.0)
    gp = build_position_grid(32, -1.0, 1.0)
    pg = PhaseGrid(gx, gp)
    assert pg.shape == (64, 32)
    assert pg.cell_area == pytest.approx(gx.dx * gp.dx)
    assert np.array_equal(pg.x, gx.nodes)
    assert np.array_equal(pg.p, gp.nodes)
