"""Potential catalog: pointwise values, mollification, spectral diagnostics."""

import numpy as np
import pytest

from semiphase import ConfigurationError, build_position_grid
from semiphase.potentials import (
    check_fourier_conditions,
    custom_potential,
    evaluate,
    evaluate_at,
    gradient_at,
    harmonic_potential,
    mollify,
    rough_power_potential,
)


@pytest.fixture(scope="module")
def grid():
    return build_position_grid(1024, -8.0, 8.0)


# ---------------------------------------------------------------- evaluate


def test_harmonic_values():
    pot = harmonic_potential()
    assert evaluate_at(pot, 2.0) == pytest.approx(2.0)
    assert evaluate_at(pot, 0.0) == 0.0
    assert gradient_at(pot, 2.0) == pytest.approx(2.0)


def test_rough_power_core_values():
    pot = rough_power_potential(theta=0.5)
    assert evaluate_at(pot, 0.0) == 0.0
    assert evaluate_at(pot, 0.25) == pytest.approx(-0.125)
    assert evaluate_at(pot, -0.25) == pytest.approx(-0.125)
    # force is odd and vanishes at the kink point x = 0
    assert gradient_at(pot, 0.0) == 0.0
    assert gradient_at(pot, 0.25) == pytest.approx(-gradient_at(pot, -0.25))


def test_rough_power_tail_confines():
    # C^1 tail: V(r+s) = -r^{1+t} - (1+t) r^t s + q s^4
    pot = rough_power_potential(theta=0.5)
    s = 7.0
    assert evaluate_at(pot, 8.0) == pytest.approx(-1.0 - 1.5 * s + s**4)
    # gradient continuous across the core boundary
    left = gradient_at(pot, 1.0 - 1e-8)
    right = gradient_at(pot, 1.0 + 1e-8)
    assert abs(left - right) < 1e-6


def test_evaluate_matches_evaluate_at(grid):
    for pot in (harmonic_potential(), rough_power_potential(theta=0.3)):
        assert np.allclose(evaluate(pot, grid), evaluate_at(pot, grid.nodes))


def test_custom_potential_roundtrip(grid):
    v = np.cos(grid.nodes)
    pot = custom_potential(v)
    assert np.allclose(evaluate(pot, grid), v)


def test_custom_potential_wrong_length(grid):
    pot = custom_potential(np.zeros(32))
    with pytest.raises(Exception):
        evaluate(pot, grid)


# ---------------------------------------------------------------- mollify


def test_mollify_fixes_constants(grid):
    pot = custom_potential(np.full(grid.n_points, 3.5))
    assert np.max(np.abs(mollify(pot, 0.7, grid) - 3.5)) < 1e-12


def test_mollify_cosine_eigenfunction(grid):
    q = 2.0 * np.pi * 4 / grid.length  # resolved periodic mode
    pot = custom_potential(np.cos(q * grid.nodes))
    for eps in (0.01, 0.1, 1.0):
        expect = np.exp(-eps * q**2) * np.cos(q * grid.nodes)
        assert np.max(np.abs(mollify(pot, eps, grid) - expect)) < 1e-12


def test_mollify_semigroup(grid):
    pot = harmonic_potential()
    one_shot = mollify(pot, 0.3, grid)
    two_step = mollify(custom_potential(mollify(pot, 0.1, grid)), 0.2, grid)
    assert np.max(np.abs(one_shot - two_step)) < 1e-10


def test_mollify_sup_contraction(grid):
    rng = np.random.default_rng(3)
    v = rng.standard_normal(grid.n_points)
    pot = custom_potential(v)
    out = mollify(pot, 0.05, grid)
    # heat flow cannot create new extrema (up to spectral-truncation dust)
    assert out.min() >= v.min() - 1e-9
    assert out.max() <= v.max() + 1e-9


def test_mollify_first_order_in_eps(grid):
    # smooth V: ||mollified - V||_inf ~ eps * ||V''||_inf
    q = 2.0 * np.pi * 2 / grid.length
    pot = custom_potential(np.sin(q * grid.nodes))
    errs = []
    ladder = [4e-3, 2e-3, 1e-3]
    for eps in ladder:
        errs.append(np.max(np.abs(mollify(pot, eps, grid) - np.sin(q * grid.nodes))))
    slope = np.polyfit(np.log(ladder), np.log(errs), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)
    # prefactor ~ ||V''|| = q^2 (exact eigenvalue relation, small-eps expansion)
    assert errs[-1] / 1e-3 == pytest.approx(q**2, rel=0.01)


# ------------------------------------------------- Fourier shell conditions


@pytest.mark.parametrize("theta", [0.3, 0.5, 0.7])
def test_fourier_rough_passes_own_theta(grid, theta):
    rep = check_fourier_conditions(rough_power_potential(theta=theta), grid, theta)
    assert rep.ok
    assert rep.fitted_C > 0.0
    assert rep.theta_used == theta


def test_fourier_harmonic_passes(grid):
    rep = check_fourier_conditions(harmonic_potential(), grid, 0.5)
    assert rep.ok


def test_fourier_gaussian_passes(grid):
    pot = custom_potential(np.exp(-grid.nodes**2))
    rep = check_fourier_conditions(pot, grid, 0.5)
    assert rep.ok


def test_fourier_constant_passes_with_empty_shells(grid):
    # a constant has no spectrum off k = 0: every shell is negligible
    rep = check_fourier_conditions(custom_potential(np.full(grid.n_points, 0.7)), grid, 0.5)
    assert rep.ok
    assert rep.fitted_C == 0.0 and rep.integrability_value == 0.0


def test_fourier_white_noise_fails(grid):
    rng = np.random.default_rng(11)
    pot = custom_potential(rng.standard_normal(grid.n_points))
    rep = check_fourier_conditions(pot, grid, 0.5)
    assert not rep.ok


def test_fourier_translation_invariant(grid):
    # custom samples are not windowed, so a circular shift must not change
    # any shell integral beyond roundoff; needs real content in the shells
    rng = np.random.default_rng(4)
    phases = rng.uniform(0, 2 * np.pi, grid.n_points)
    k = np.abs(grid.k)
    spec = np.where(k > 0, (1.0 + k) ** -1.6, 0.0) * np.exp(1j * phases)
    spec = spec + np.conj(np.roll(spec[::-1], 1))  # hermitian -> real samples
    v = np.fft.ifft(spec).real * grid.n_points
    a = check_fourier_conditions(custom_potential(v), grid, 0.5)
    b = check_fourier_conditions(custom_potential(np.roll(v, 57)), grid, 0.5)
    assert a.passes == b.passes
    ref = np.max(np.abs(np.asarray(a.shell_integrals)))
    assert ref > 1e-3  # shells actually populated
    assert np.max(np.abs(np.asarray(a.shell_integrals) - np.asarray(b.shell_integrals))) < 1e-9 * ref


def test_fourier_shells_structure(grid):
    rep = check_fourier_conditions(rough_power_potential(theta=0.5), grid, 0.5)
    shells = np.asarray(rep.shells)
    assert shells.shape[0] >= 3
    # dyadic: upper edge doubles the lower edge
    assert np.allclose(shells[:, 1], 2.0 * shells[:, 0])
    assert np.asarray(rep.shell_integrals).shape == (shells.shape[0], 3)


# ------------------------------------------------------------- validation


def test_rough_power_theta_validation():
    with pytest.raises(ConfigurationError):
        rough_power_potential(theta=0.0)
    with pytest.raises(ConfigurationError):
        rough_power_potential(theta=1.0)
