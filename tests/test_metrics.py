"""Weak metric, characteristic functions, L2 distance, rate fitting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semiphase import (
    AtomicMeasure,
    ConfigurationError,
    GridDensity,
    RepresentationError,
    ShapeMismatchError,
    WeakMetricConfig,
    build_position_grid,
    coherent_state,
)
from semiphase.errors import NumericsError
from semiphase.metrics import char_function, fit_rate, l2_distance, weak_distance
from semiphase.phasespace import l2_norm, wigner
from semiphase.quantum import DensityEnsemble


@pytest.fixture(scope="module")
def grid():
    return build_position_grid(512, -8.0, 8.0)


@pytest.fixture(scope="module")
def mcfg():
    return WeakMetricConfig()


# -------------------------------------------------------- char_function


def _outer(xi, eta, fn):
    return fn(np.asarray(xi)[:, None], np.asarray(eta)[None, :])


def test_char_single_atom_analytic():
    mu = AtomicMeasure(((1.0, 0.7, -0.3),))
    xi = np.array([0.0, 1.0, 2.0])
    eta = np.array([0.5, -1.0, 0.0])
    chi = char_function(mu, xi, eta)
    expect = _outer(xi, eta, lambda a, b: np.exp(-1j * (a * 0.7 + b * (-0.3))))
    assert chi.shape == (3, 3)
    assert np.max(np.abs(chi - expect)) < 1e-14


def test_char_atom_heat_multiplier():
    mu = AtomicMeasure(((1.0, 0.2, 0.4),))
    xi = np.linspace(-3, 3, 11)
    eta = np.linspace(-2, 2, 11)
    bare = char_function(mu, xi, eta)
    heated = char_function(mu, xi, eta, heat_time=0.3)
    damp = _outer(xi, eta, lambda a, b: np.exp(-0.3 * (a**2 + b**2)))
    assert np.max(np.abs(heated - bare * damp)) < 1e-14


def test_char_wavefunction_matches_wigner_grid(grid, mcfg):
    psi = coherent_state(0.6, 0.4, 0.05, grid)
    a = char_function(psi, mcfg.xi, mcfg.eta)
    b = char_function(wigner(psi), mcfg.xi, mcfg.eta)
    assert np.max(np.abs(a - b)) < 1e-10


def test_char_coherent_analytic(grid, mcfg):
    eps, x0, p0 = 0.1, -0.4, 0.8
    psi = coherent_state(x0, p0, eps, grid)
    chi = char_function(psi, mcfg.xi, mcfg.eta)
    expect = _outer(mcfg.xi, mcfg.eta, lambda a, b: np.exp(
        -1j * (a * x0 + b * p0) - eps * (a**2 + b**2) / 4.0))
    assert np.max(np.abs(chi - expect)) < 1e-12


def test_char_mirror_conjugate(grid, mcfg):
    eps = 0.05
    psi = coherent_state(0.9, 0.5, eps, grid)
    mirror = coherent_state(-0.9, -0.5, eps, grid)
    a = char_function(psi, mcfg.xi, mcfg.eta)
    b = char_function(mirror, mcfg.xi, mcfg.eta)
    assert np.max(np.abs(b - np.conj(a))) < 1e-12


def test_char_ensemble_streams_members(grid, mcfg):
    # one summed integrand and one kernel matmul equal the weighted sum
    # of member characteristic functions
    eps = 0.05
    weights = (0.1, 0.2, 0.3, 0.4)
    members = tuple((w, coherent_state(x0, p0, eps, grid)) for w, (x0, p0)
                    in zip(weights, ((-0.5, 0.0), (0.5, 0.2), (1.2, -0.4),
                                     (-1.0, 0.6))))
    ens = DensityEnsemble(members=members, eps=eps)
    chi = char_function(ens, mcfg.xi, mcfg.eta)
    expect = sum(w * char_function(m, mcfg.xi, mcfg.eta) for w, m in members)
    assert np.max(np.abs(chi - expect)) < 1e-13


# -------------------------------------------------------- weak_distance


def test_weak_distance_identity(grid, mcfg):
    W = wigner(coherent_state(0.2, 0.1, 0.05, grid))
    assert weak_distance(W, W, mcfg) < 1e-12
    mu = AtomicMeasure(((0.5, 0.0, 0.0), (0.5, 1.0, 0.0)))
    assert weak_distance(mu, mu, mcfg) < 1e-12


def test_weak_distance_symmetry(grid, mcfg):
    a = wigner(coherent_state(-0.4, 0.0, 0.05, grid))
    b = AtomicMeasure(((1.0, 0.3, 0.2),))
    assert weak_distance(a, b, mcfg) == pytest.approx(weak_distance(b, a, mcfg), rel=1e-12)


def test_weak_distance_atom_separation_monotone(mcfg):
    origin = AtomicMeasure(((1.0, 0.0, 0.0),))
    ds = [weak_distance(origin, AtomicMeasure(((1.0, a, 0.0),)), mcfg)
          for a in (0.2, 0.5, 1.0, 2.0)]
    assert all(x < y for x, y in zip(ds, ds[1:]))
    # bounded by 2 * weight mass; plateaus near (4/pi) * weight mass for
    # separations incommensurate with the node spacing
    far = weak_distance(origin, AtomicMeasure(((1.0, 20.3, 0.0),)), mcfg)
    assert far <= 2.0 * mcfg.weight_mass() + 1e-9
    assert 6.0 < far < 9.0


def test_weak_distance_mass_normalization(grid, mcfg):
    W = wigner(coherent_state(0.0, 0.0, 0.05, grid))
    scaled = GridDensity(values=5.0 * W.values, grid=W.grid, tag=W.tag)
    assert weak_distance(W, scaled, mcfg) < 1e-12


def test_weak_distance_zero_mass_raises(grid, mcfg):
    W = wigner(coherent_state(0.0, 0.0, 0.05, grid))
    zero = GridDensity(values=np.zeros_like(W.values), grid=W.grid, tag=W.tag)
    with pytest.raises(NumericsError):
        weak_distance(W, zero, mcfg)


def test_weak_distance_translation_continuity(mcfg):
    # Gaussian atomic cloud vs shifted copy: distance monotone in the shift
    rng = np.random.default_rng(2)
    pts = rng.normal(0.0, 0.7, (60, 2))
    base = AtomicMeasure(tuple((1.0 / 60, x, p) for x, p in pts))
    ds = []
    for h in (0.8, 0.4, 0.2, 0.1, 0.05):
        moved = AtomicMeasure(tuple((1.0 / 60, x + h, p) for x, p in pts))
        ds.append(weak_distance(base, moved, mcfg))
    assert all(x > y for x, y in zip(ds, ds[1:]))
    assert ds[-1] < 0.35


def test_weak_distance_sampling_converges(grid, mcfg):
    # atomic discretization of a Gaussian density improves with sample count
    W = wigner(coherent_state(0.0, 0.0, 0.2, grid))
    rng = np.random.default_rng(9)
    ds = []
    for n in (100, 1000, 10000):
        pts = rng.normal(0.0, np.sqrt(0.1), (n, 2))  # matches Wigner variance eps/2
        atoms = AtomicMeasure(tuple((1.0 / n, x, p) for x, p in pts))
        ds.append(weak_distance(W, atoms, mcfg))
    assert ds[2] < ds[1] < ds[0]
    assert ds[2] < 0.1


def test_weak_distance_heat_both_sides_baseline(grid, mcfg):
    # heating both sides at the state's own eps leaves only the Gaussian
    # quarter-width mismatch: |chi_W - chi_atom| e^{-eps r^2} integrates to
    # pi (1/(s+eps) - 1/(s+5eps/4)) with s = 1/(2 sigma^2)
    eps = 0.1
    psi = coherent_state(0.3, -0.2, eps, grid)
    atom = AtomicMeasure(((1.0, 0.3, -0.2),))
    d = weak_distance(wigner(psi), atom, mcfg, heat_time_mu=eps, heat_time_nu=eps)
    s = 1.0 / (2 * mcfg.gaussian_weight_sigma**2)
    exact = np.pi * (1.0 / (s + eps) - 1.0 / (s + 1.25 * eps))
    assert d == pytest.approx(exact, rel=0.05)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(
    st.floats(-2, 2), st.floats(-2, 2)), min_size=1, max_size=4),
    st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2)), min_size=1, max_size=4),
    st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2)), min_size=1, max_size=4))
def test_weak_distance_triangle_inequality(pa, pb, pc):
    cfg = WeakMetricConfig(n_nodes=17)
    mk = lambda pts: AtomicMeasure(tuple((1.0 / len(pts), x, p) for x, p in pts))
    a, b, c = mk(pa), mk(pb), mk(pc)
    dab = weak_distance(a, b, cfg)
    dbc = weak_distance(b, c, cfg)
    dac = weak_distance(a, c, cfg)
    assert dac <= dab + dbc + 1e-9


# ---------------------------------------------------------- l2_distance


def test_l2_distance_basics(grid):
    W = wigner(coherent_state(0.0, 0.0, 0.05, grid))
    assert l2_distance(W, W) == 0.0
    zero = GridDensity(values=np.zeros_like(W.values), grid=W.grid, tag=W.tag)
    assert l2_distance(W, zero) == pytest.approx(l2_norm(W), rel=1e-12)


def test_l2_distance_disjoint_pythagoras(grid):
    eps = 0.02
    a = wigner(coherent_state(-3.0, 0.0, eps, grid))
    b = wigner(coherent_state(3.0, 0.0, eps, grid))
    expect = np.sqrt(l2_norm(a) ** 2 + l2_norm(b) ** 2)
    assert l2_distance(a, b) == pytest.approx(expect, rel=1e-6)


def test_l2_distance_errors(grid):
    W = wigner(coherent_state(0.0, 0.0, 0.05, grid))
    other_grid = build_position_grid(256, -8.0, 8.0)
    V = wigner(coherent_state(0.0, 0.0, 0.05, other_grid))
    with pytest.raises(ShapeMismatchError):
        l2_distance(W, V)
    with pytest.raises(RepresentationError):
        l2_distance(W, AtomicMeasure(((1.0, 0.0, 0.0),)))


def test_l2_triangle_random_triples(grid):
    rng = np.random.default_rng(4)
    pg = wigner(coherent_state(0.0, 0.0, 0.1, grid)).grid
    for _ in range(5):
        a, b, c = (GridDensity(values=rng.standard_normal(pg.shape), grid=pg, tag="w")
                   for _ in range(3))
        assert l2_distance(a, c) <= l2_distance(a, b) + l2_distance(b, c) + 1e-12


# -------------------------------------------------------------- fit_rate


def test_fit_rate_exact_linear():
    eps = np.array([0.1, 0.05, 0.025, 0.0125])
    fit = fit_rate(eps, 3.0 * eps)
    assert fit.fitted_slope == pytest.approx(1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_noisy_half_power():
    rng = np.random.default_rng(13)
    eps = np.array([0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625])
    d = 2.0 * eps**0.5 * (1.0 + 0.05 * rng.standard_normal(eps.size))
    fit = fit_rate(eps, d)
    assert fit.fitted_slope == pytest.approx(0.5, abs=0.05)


def test_fit_rate_constant():
    eps = np.array([0.1, 0.05, 0.025])
    fit = fit_rate(eps, np.full(3, 0.7))
    assert abs(fit.fitted_slope) < 1e-12


def test_fit_rate_drops_nonpositive():
    eps = np.array([0.1, 0.05, 0.025, 0.0125])
    fit = fit_rate(eps, np.array([0.3, 0.2, 0.0, 0.1]))
    assert fit.dropped == 1
    assert len(fit.distances) == 3


def test_fit_rate_too_few_points():
    from semiphase import NumericsError

    with pytest.raises(NumericsError):
        fit_rate(np.array([0.1, 0.05]), np.array([1.0, 0.5]))
    with pytest.raises(NumericsError):
        fit_rate(np.array([0.1, 0.05, 0.025]), np.array([1.0, 0.0, 0.0]))


def test_fit_rate_requires_decreasing_eps():
    with pytest.raises(ConfigurationError):
        fit_rate(np.array([0.025, 0.05, 0.1]), np.array([1.0, 2.0, 3.0]))
