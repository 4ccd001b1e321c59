"""Classical side: multivalued branches, symplectic integration, Liouville transport."""

import warnings

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings, strategies as st

from semiphase import (
    AtomicMeasure,
    ConfigurationError,
    GridDensity,
    NumericsError,
    build_position_grid,
)
from semiphase.classical import (
    _cubic_weights,
    _FootInterpolator,
    _force_function,
    _trace_feet,
    _verlet,
    branch_constants,
    branch_family,
    branch_ode_residual,
    integrate_hamiltonian,
    liouville_semi_lagrangian,
    transport_particles,
)
from semiphase.phasespace import PhaseGrid
from semiphase.potentials import (custom_potential, harmonic_potential, mollify,
                                  rough_power_potential)


# ----------------------------------------------------------------- branches


def test_branch_constants_theta_half():
    nu, c0 = branch_constants(0.5)
    assert nu == pytest.approx(4.0)
    assert c0 == pytest.approx(1.0 / 64.0)


def test_branch_constants_small_theta_limit():
    # theta -> 0 recovers the textbook -|x| escape: nu = 2, c0 = 1/2
    nu, c0 = branch_constants(1e-9)
    assert nu == pytest.approx(2.0, rel=1e-8)
    assert c0 == pytest.approx(0.5, rel=1e-6)


@pytest.mark.parametrize("theta", [0.0, 1.0, -0.3, 1.7])
def test_branch_constants_validation(theta):
    with pytest.raises(ConfigurationError):
        branch_constants(theta)


def test_branch_family_values_theta_half():
    plus, minus, rest = branch_family(0.5, [(1, 0.0), (-1, 0.0), (0, 0.0)])
    assert plus.X(1.0) == pytest.approx(1.0 / 64.0)
    assert plus.P(1.0) == pytest.approx(1.0 / 16.0)
    assert minus.X(1.0) == pytest.approx(-1.0 / 64.0)
    assert minus.P(1.0) == pytest.approx(-1.0 / 16.0)
    assert rest.X(5.0) == 0.0 and rest.P(5.0) == 0.0


def test_branch_delay_holds_at_origin():
    (b,) = branch_family(0.3, [(1, 0.7)])
    ts = np.linspace(0.0, 0.7, 15)
    assert np.all(b.X(ts) == 0.0)
    assert np.all(b.P(ts) == 0.0)
    assert b.X(0.8) > 0.0


@pytest.mark.parametrize("theta", [0.1, 0.3, 0.5, 0.7])
def test_branch_ode_residuals(theta):
    ts = np.linspace(0.05, 2.0, 40)
    for sign in (1, -1):
        (b,) = branch_family(theta, [(sign, 0.0)])
        r1, r2 = branch_ode_residual(b, ts)
        assert r1 < 1e-6 and r2 < 1e-6, (theta, sign)


def test_non_uniqueness_witness():
    # three distinct solutions sharing the initial datum (0,0)
    branches = branch_family(0.5, [(1, 0.0), (-1, 0.0), (0, 0.0)])
    for b in branches:
        assert b.X(0.0) == 0.0 and b.P(0.0) == 0.0
        r1, r2 = branch_ode_residual(b, np.linspace(0.1, 1.5, 20))
        assert r1 < 1e-6 and r2 < 1e-6
    xs = sorted(b.X(1.0) for b in branches)
    assert xs[0] < 0.0 < xs[2] and xs[1] == 0.0


def test_delayed_branch_residual_away_from_start():
    (b,) = branch_family(0.5, [(1, 0.4)])
    r1, r2 = branch_ode_residual(b, np.linspace(0.5, 2.0, 25))
    assert r1 < 1e-6 and r2 < 1e-6


# ------------------------------------------------------------- integrator


def test_integrate_harmonic_rotation():
    path = integrate_hamiltonian(1.0, 0.0, harmonic_potential(), 1e-3, 1.0)
    assert path.ts[-1] == pytest.approx(1.0)
    assert path.xs[-1] == pytest.approx(np.cos(1.0), abs=1e-5)
    assert path.ps[-1] == pytest.approx(-np.sin(1.0), abs=1e-5)


def test_integrate_energy_drift_quadratic_in_dt():
    def drift(dt):
        path = integrate_hamiltonian(1.2, 0.0, harmonic_potential(), dt, 10.0)
        e = 0.5 * path.ps**2 + 0.5 * path.xs**2
        return np.max(np.abs(e - e[0]))

    d1, d2 = drift(2e-3), drift(1e-3)
    assert d1 / d2 == pytest.approx(4.0, rel=0.2)


def test_integrate_shadow_tracks_branch():
    nu, c0 = branch_constants(0.5)
    t1 = 0.5
    x1, p1 = c0 * t1**nu, c0 * nu * t1 ** (nu - 1)
    path = integrate_hamiltonian(x1, p1, rough_power_potential(theta=0.5), 1e-4, 1.0)
    x_exact = c0 * 1.5**nu
    assert abs(path.xs[-1] - x_exact) / x_exact < 1e-3


def test_integrate_rest_point_is_fixed():
    path = integrate_hamiltonian(0.0, 0.0, rough_power_potential(theta=0.5), 1e-3, 1.0)
    assert np.max(np.abs(path.xs)) == 0.0
    assert np.max(np.abs(path.ps)) == 0.0


def test_integrate_nan_raises():
    with pytest.raises(NumericsError):
        integrate_hamiltonian(1e200, 0.0, rough_power_potential(theta=0.5), 0.1, 1.0)


_NON_FINITE = (float("inf"), float("nan"))


def test_integrate_rejects_bad_dt():
    with pytest.raises(ConfigurationError):
        integrate_hamiltonian(1.0, 0.0, harmonic_potential(), -1e-3, 1.0)
    # unchecked, an infinite dt would run one step and an infinite span
    # would overflow round()
    for bad in _NON_FINITE:
        with pytest.raises(ConfigurationError):
            integrate_hamiltonian(1.0, 0.0, harmonic_potential(), bad, 1.0)
        with pytest.raises(ConfigurationError):
            integrate_hamiltonian(1.0, 0.0, harmonic_potential(), 1e-3, bad)


def test_integrate_rejects_custom_potential():
    # sampled potentials have no closed-form force to integrate
    pot = custom_potential(np.zeros(64))
    with pytest.raises(ConfigurationError, match="no closed-form gradient"):
        integrate_hamiltonian(1.0, 0.0, pot, 1e-3, 1.0)


# ------------------------------------------------------- particle transport


def test_transport_single_matches_integrator():
    cloud = AtomicMeasure(((1.0, 0.7, -0.2),))
    out = transport_particles(cloud, harmonic_potential(), 0.0, 1e-3, 0.8)
    path = integrate_hamiltonian(0.7, -0.2, harmonic_potential(), 1e-3, 0.8)
    assert out.xs[0] == pytest.approx(path.xs[-1], abs=1e-12)
    assert out.ps[0] == pytest.approx(path.ps[-1], abs=1e-12)


def test_transport_antisymmetric_pair():
    cloud = AtomicMeasure(((0.3, 0.6, 0.0), (0.7, -0.6, 0.0)))
    out = transport_particles(cloud, rough_power_potential(theta=0.5), 0.0, 1e-3, 1.0)
    assert out.xs[0] == pytest.approx(-out.xs[1], abs=1e-13)
    assert out.ps[0] == pytest.approx(-out.ps[1], abs=1e-13)
    # the result is an atomic measure with the masses unchanged, in order
    assert isinstance(out, AtomicMeasure)
    assert np.array_equal(out.masses, cloud.masses)


def test_transport_free_cloud_drifts():
    rng = np.random.default_rng(5)
    n = 200
    grid = build_position_grid(512, -12.0, 12.0)
    pot = custom_potential(np.zeros(512))
    cloud = AtomicMeasure(np.column_stack([np.full(n, 1.0 / n),
                                           rng.normal(0.0, 0.5, n),
                                           rng.normal(0.3, 0.2, n)]))
    out = transport_particles(cloud, pot, 1e-3, 0.01, 2.0, field_grid=grid)
    drift = out.xs.mean() - cloud.xs.mean()
    assert drift == pytest.approx(cloud.ps.mean() * 2.0, abs=1e-9)
    assert np.max(np.abs(out.ps - cloud.ps)) < 1e-9


def test_transport_rejects_non_finite_steps():
    # unchecked, an infinite dt would run one step and a non-finite span
    # would make round() raise OverflowError or ValueError
    cloud = AtomicMeasure(((1.0, 0.4, 0.1),))
    for bad in _NON_FINITE:
        with pytest.raises(ConfigurationError):
            transport_particles(cloud, harmonic_potential(), 0.0, bad, 1.0)
        for span in (bad, -bad):
            with pytest.raises(ConfigurationError):
                transport_particles(cloud, harmonic_potential(), 0.0, 1e-3, span)


def test_transport_backward_inverts_forward():
    cloud = AtomicMeasure(((1.0, 0.4, 0.1),))
    pot = harmonic_potential()
    fwd = transport_particles(cloud, pot, 0.0, 1e-3, 1.0)
    back = transport_particles(fwd, pot, 0.0, 1e-3, -1.0)
    assert back.xs[0] == pytest.approx(0.4, abs=1e-10)
    assert back.ps[0] == pytest.approx(0.1, abs=1e-10)


# --------------------------------------------------------- mollified force

# the two field grids of the mollified force: the Liouville x-grid of the
# rate experiment and the default particle-transport grid (None)
_FIELD_GRIDS = [build_position_grid(1024, -8.0, 8.0), None]
_DEFAULT_FIELD_GRID = build_position_grid(8192, -12.0, 12.0)


def _mollified_derivative(eps, grid):
    vt = mollify(rough_power_potential(theta=0.5), eps, grid)
    return np.real(sfft.ifft(1j * grid.k * sfft.fft(vt)))


@pytest.mark.parametrize("field_grid", _FIELD_GRIDS, ids=["1024", "8192"])
@pytest.mark.parametrize("eps", [0.2, 0.05])
def test_mollified_force_matches_cubic_spline(field_grid, eps):
    # oracle: scipy's periodic CubicSpline through the same samples
    from scipy.interpolate import CubicSpline
    grid = field_grid or _DEFAULT_FIELD_GRID
    dvt = _mollified_derivative(eps, grid)
    ref = CubicSpline(np.append(grid.nodes, grid.x_max),
                      np.append(dvt, dvt[0]), bc_type="periodic")
    force = _force_function(rough_power_potential(theta=0.5), eps, field_grid)
    x = np.random.default_rng(11).uniform(grid.x_min, grid.x_max, 20_000)
    x = np.concatenate([x, grid.nodes[:7] + 0.5 * grid.dx, [grid.x_min]])
    scale = np.max(np.abs(dvt))
    assert np.max(np.abs(force(x) + ref(x))) <= 1e-13 * scale
    # exact at the nodes, where the cubic's offset is 0
    assert np.array_equal(force(grid.nodes), -dvt)


@pytest.mark.parametrize("field_grid", _FIELD_GRIDS, ids=["1024", "8192"])
def test_mollified_force_is_periodic(field_grid):
    grid = field_grid or _DEFAULT_FIELD_GRID
    force = _force_function(rough_power_potential(theta=0.5), 0.05, field_grid)
    x = np.random.default_rng(2).uniform(grid.x_min, grid.x_max, 5_000)
    # dyadic points, so x ± k * length is exact
    x = np.round(x * 1024) / 1024
    scale = np.max(np.abs(force(grid.nodes)))
    for k in (1, 2, 5):
        for shifted in (x + k * grid.length, x - k * grid.length):
            np.testing.assert_allclose(force(shifted), force(x), rtol=0,
                                       atol=1e-13 * scale)
            if grid.dx == 2.0 ** -6:  # power-of-two spacing: bit for bit
                assert np.array_equal(force(shifted), force(x))


def test_mollified_force_non_finite_positions():
    force = _force_function(rough_power_potential(theta=0.5), 0.05, None)
    bad = np.array([np.nan, np.inf, -np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = force(bad)
        assert not np.any(np.isfinite(out))
        assert np.isfinite(force(np.array([0.3, *bad]))[0])
    # so the cloud integrator still refuses the run
    for x0 in bad:
        with pytest.raises(NumericsError):
            _verlet(np.array([0.5, x0]), np.zeros(2), force, 1e-3, 3)


# ------------------------------------------------------------- Liouville SL


def _blob(pg, x0, p0, var):
    X = pg.x[:, None]
    P = pg.p[None, :]
    return np.exp(-((X - x0) ** 2 + (P - p0) ** 2) / (2 * var))


def test_liouville_free_transport_commensurate():
    gx = build_position_grid(128, -4.0, 4.0)
    gp = build_position_grid(64, -2.0, 2.0)
    pg = PhaseGrid(gx, gp)
    rho0 = GridDensity(values=_blob(pg, 0.0, 0.0, 0.16), grid=pg, tag="density")
    pot = custom_potential(np.zeros(128))
    # dt * dk / dx = 1: every row shifts an integer cell count per step
    out = liouville_semi_lagrangian(rho0, pot, 1e-6, 1.0, 1.0)
    expect = np.empty_like(rho0.values)
    for j, k in enumerate(gp.nodes):
        expect[:, j] = np.roll(rho0.values[:, j], round(k * 1.0 / gx.dx))
    assert np.max(np.abs(out.values - expect)) < 1e-9


def test_liouville_mass_positivity_linf():
    # resolved blob on 512^2: interpolation mass error sits below 1e-6/t
    gx = build_position_grid(512, -4.0, 4.0)
    gp = build_position_grid(512, -4.0, 4.0)
    pg = PhaseGrid(gx, gp)
    rho0 = GridDensity(values=_blob(pg, 0.8, 0.0, 0.2), grid=pg, tag="density")
    out = liouville_semi_lagrangian(rho0, harmonic_potential(), 1e-3, 0.05, 1.0)
    assert abs(out.total_mass - rho0.total_mass) < 1e-6 * rho0.total_mass
    assert out.values.min() >= -1e-9
    assert out.values.max() <= rho0.values.max() + 1e-6


def test_liouville_harmonic_rotation():
    gx = build_position_grid(512, -4.0, 4.0)
    gp = build_position_grid(512, -4.0, 4.0)
    pg = PhaseGrid(gx, gp)
    rho0 = GridDensity(values=_blob(pg, 1.0, 0.0, 0.25), grid=pg, tag="density")
    t = np.pi / 2
    out = liouville_semi_lagrangian(rho0, harmonic_potential(), 1e-4, t / 24, t)
    X = pg.x[:, None]
    P = pg.p[None, :]
    # clockwise flow: rho(t, x, p) = rho0(x cos t - p sin t, x sin t + p cos t)
    expect = np.exp(-(((X * np.cos(t) - P * np.sin(t)) - 1.0) ** 2
                      + (X * np.sin(t) + P * np.cos(t)) ** 2) / 0.5)
    num = np.sqrt(np.sum((out.values - expect) ** 2) * pg.cell_area)
    den = np.sqrt(np.sum(expect**2) * pg.cell_area)
    assert num / den < 1e-4


def test_liouville_mollified_cauchy_on_rough():
    gx = build_position_grid(128, -3.0, 3.0)
    gp = build_position_grid(128, -3.0, 3.0)
    pg = PhaseGrid(gx, gp)
    rho0 = GridDensity(values=_blob(pg, 0.5, 0.2, 0.2), grid=pg, tag="density")
    pot = rough_power_potential(theta=0.5)
    outs = [
        liouville_semi_lagrangian(rho0, pot, em, 0.02, 0.4).values
        for em in (4e-2, 2e-2, 1e-2, 5e-3)
    ]
    gaps = [np.sum(np.abs(b - a)) * pg.cell_area for a, b in zip(outs, outs[1:])]
    assert gaps[1] < gaps[0] and gaps[2] < gaps[1]


def test_liouville_validation():
    gx = build_position_grid(64, -2.0, 2.0)
    pg = PhaseGrid(gx, gx)
    rho0 = GridDensity(values=np.ones(pg.shape), grid=pg, tag="density")
    with pytest.raises(ConfigurationError):
        liouville_semi_lagrangian(rho0, harmonic_potential(), 1e-3, -0.1, 1.0)
    for bad in _NON_FINITE:
        with pytest.raises(ConfigurationError):
            liouville_semi_lagrangian(rho0, harmonic_potential(), 1e-3, bad, 1.0)
        with pytest.raises(ConfigurationError):
            liouville_semi_lagrangian(rho0, harmonic_potential(), 1e-3, 0.1, bad)
    with pytest.raises(Exception):
        liouville_semi_lagrangian("not a density", harmonic_potential(), 0.0, 0.1, 1.0)


def _dense_step(f, xf, pf, x_grid, p_grid):
    # the 16-gather step that _FootInterpolator's sparse matrix replaced,
    # kept as its reference: out-of-window stencil columns read two zero
    # sentinel columns, terms are summed in (a, b) order
    nx, npts = x_grid.n_points, p_grid.n_points
    gx = (xf - x_grid.x_min) / x_grid.dx
    gp = (pf - p_grid.x_min) / p_grid.dx
    ix = np.floor(gx).astype(np.int64)
    ip = np.floor(gp).astype(np.int64)
    sx = _cubic_weights(gx - ix)
    sp = _cubic_weights(gp - ip)
    fp = np.zeros((nx, npts + 2))
    fp[:, :-2] = f
    out = np.zeros_like(f)
    lo = np.full_like(f, np.inf)
    hi = np.full_like(f, -np.inf)
    for a in range(4):
        row = (ix + a - 1) % nx
        for b in range(4):
            val = fp[row, np.clip(ip + b - 1, -1, npts)]
            out += sx[a] * sp[b] * val
            np.minimum(lo, val, out=lo)
            np.maximum(hi, val, out=hi)
    return np.clip(out, lo, hi)


def _random_feet(rng, x_grid, p_grid):
    # x-feet up to two periods off the grid; p-feet up to half a window
    # past either edge, so some stencils are clipped and some lie outside
    shape = (x_grid.n_points, p_grid.n_points)
    xf = rng.uniform(x_grid.x_min - 2 * x_grid.length,
                     x_grid.x_max + 2 * x_grid.length, shape)
    pf = rng.uniform(p_grid.x_min - 0.5 * p_grid.length,
                     p_grid.x_max + 0.5 * p_grid.length, shape)
    return xf, pf


def _rough_feet(x_grid, p_grid):
    # production feet: one coarse RK4 step in a mollified rough field
    force = _force_function(rough_power_potential(theta=0.5), 0.05, x_grid)
    return _trace_feet(x_grid, p_grid, force, 0.5)


@pytest.mark.parametrize("feet", [
    lambda gx, gp: _random_feet(np.random.default_rng(7), gx, gp), _rough_feet])
def test_foot_interpolator_matches_dense_gather(feet):
    gx = build_position_grid(16, -2.0, 2.0)
    gp = build_position_grid(32, -1.0, 1.0)
    xf, pf = feet(gx, gp)
    npts = gp.n_points
    ip = np.floor((pf - gp.x_min) / gp.dx)
    assert np.any(xf < gx.x_min) and np.any(xf >= gx.x_max)
    assert np.any((ip >= -2) & (ip <= 0))  # partly past the lower edge
    assert np.any((ip >= npts - 2) & (ip <= npts))  # partly past the upper edge
    assert np.any((ip < -2) | (ip > npts))  # whole stencil outside
    interp = _FootInterpolator(xf, pf, gx, gp)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(xf.shape)
    ref = f.copy()
    for _ in range(5):
        before = f.copy()
        f_next = interp.apply(f)
        assert np.array_equal(f, before)
        ref = _dense_step(ref, xf, pf, gx, gp)
        assert np.array_equal(f_next, ref)
        f = f_next


@settings(max_examples=30, deadline=None)
@given(logn=st.integers(min_value=3, max_value=6),
       seed=st.integers(min_value=0, max_value=2**31 - 1),
       nonneg=st.booleans())
def test_foot_interpolator_clamp_bounds(logn, seed, nonneg):
    rng = np.random.default_rng(seed)
    gx = build_position_grid(2 ** logn, -1.0, 1.0)
    gp = build_position_grid(2 ** (9 - logn), -2.0, 2.0)
    xf, pf = _random_feet(rng, gx, gp)
    f = rng.standard_normal(xf.shape) * 10.0 ** rng.uniform(-3, 3)
    if nonneg:
        f = np.maximum(f, 0.0)
    out = _FootInterpolator(xf, pf, gx, gp).apply(f)
    assert out.min() >= min(0.0, f.min())
    assert out.max() <= max(0.0, f.max())
    if nonneg:
        assert out.min() >= 0.0


@pytest.mark.parametrize("pot", [harmonic_potential()] + [
    rough_power_potential(th) for th in (0.1, 0.3, 0.5, 0.7)])
def test_scalar_force_matches_gradient(pot):
    # the plain-float Verlet force is the array formula. Equal to rounding
    # only: numpy's vectorized power may differ from libm pow by an ulp
    # (it does on AVX-512 builds), so bitwise equality is platform-bound
    from semiphase.classical import _scalar_force
    from semiphase.potentials import gradient_at

    xs = np.concatenate([np.linspace(-3.0, 3.0, 20001), [0.0, 1.0, -1.0]])
    force = _scalar_force(pot)
    got = np.array([force(float(x)) for x in xs])
    want = -gradient_at(pot, xs)
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-15
    assert force(0.0) == 0.0 and force(1.0) == want[-2]
