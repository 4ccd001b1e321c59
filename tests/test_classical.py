"""Classical side: multivalued branches, RK4 characteristics, Liouville pullback."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.fft as sfft

from semiphase import (
    AtomicMeasure,
    ConfigurationError,
    GridDensity,
    NumericsError,
    build_position_grid,
)
from semiphase.classical import (
    _FEET_BLOCK,
    _force_function,
    branch_constants,
    branch_family,
    branch_ode_residual,
    characteristic_feet,
    transport_particles,
)
from semiphase.grids import time_steps
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


def _feet(x0, p0, pot, dt, t):
    x, p = characteristic_feet((np.array([x0]), np.array([p0])), pot, 0.0, dt, t)
    return x[0], p[0]


def test_integrate_harmonic_rotation():
    x, p = _feet(1.0, 0.0, harmonic_potential(), 1e-3, 1.0)
    assert x == pytest.approx(np.cos(1.0), abs=1e-12)
    assert p == pytest.approx(-np.sin(1.0), abs=1e-12)


def test_integrate_shadow_tracks_branch():
    nu, c0 = branch_constants(0.5)
    t1 = 0.5
    x1, p1 = c0 * t1**nu, c0 * nu * t1 ** (nu - 1)
    x, p = _feet(x1, p1, rough_power_potential(theta=0.5), 1e-3, 1.0)
    x_exact, p_exact = c0 * 1.5**nu, c0 * nu * 1.5 ** (nu - 1)
    assert abs(x - x_exact) / x_exact < 1e-9
    assert abs(p - p_exact) / p_exact < 1e-9


def test_integrate_rest_point_is_fixed():
    # V'(0) = 0 on the rough kind, so the origin never moves
    x, p = _feet(0.0, 0.0, rough_power_potential(theta=0.5), 1e-3, 1.0)
    assert x == 0.0 and p == 0.0


def test_integrate_nan_raises():
    # the quartic tail overflows to inf, then inf - inf is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericsError):
            _feet(1e200, 0.0, rough_power_potential(theta=0.5), 0.1, 1.0)


_NON_FINITE = (float("inf"), float("nan"))


def test_integrate_rejects_bad_dt():
    start = (np.zeros(3), np.ones(3))
    with pytest.raises(ConfigurationError):
        characteristic_feet(start, harmonic_potential(), 1e-3, -0.1, 1.0)
    with pytest.raises(ConfigurationError):
        characteristic_feet(start, harmonic_potential(), 1e-3, 0.0, 1.0)
    # unchecked, an infinite dt would run one step and a non-finite span
    # would overflow round()
    for bad in _NON_FINITE:
        with pytest.raises(ConfigurationError):
            characteristic_feet(start, harmonic_potential(), 1e-3, bad, 1.0)
        with pytest.raises(ConfigurationError):
            characteristic_feet(start, harmonic_potential(), 1e-3, 0.1, bad)


def test_integrate_rejects_custom_potential():
    # sampled potentials have no closed-form force for the raw field
    pot = custom_potential(np.zeros(64))
    with pytest.raises(ConfigurationError, match="no closed-form gradient"):
        _feet(1.0, 0.0, pot, 1e-3, 1.0)


# ------------------------------------------------------- particle transport


def test_transport_single_matches_integrator():
    # oracle: the exact harmonic rotation of (x0, p0) = (0.7, -0.2)
    cloud = AtomicMeasure(((1.0, 0.7, -0.2),))
    out = transport_particles(cloud, harmonic_potential(), 0.0, 1e-3, 0.8)
    c, s = np.cos(0.8), np.sin(0.8)
    assert out.xs[0] == pytest.approx(0.7 * c - 0.2 * s, abs=1e-12)
    assert out.ps[0] == pytest.approx(-0.2 * c - 0.7 * s, abs=1e-12)


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
    # so the integrator still refuses the run
    for x0 in bad:
        with pytest.raises(NumericsError):
            characteristic_feet((np.array([0.5, x0]), np.zeros(2)),
                                rough_power_potential(theta=0.5), 0.05, 1e-3, 3e-3)


# --------------------------------------------------- Liouville by pullback


def _blob(x0, p0, var):
    def datum(x, p):
        return np.exp(-((x - x0) ** 2 + (p - p0) ** 2) / (2 * var))
    return datum


def _pullback(datum, pg, pot, eps_mollify, dt, t, field_grid=None):
    # rho_t = rho_0 o Phi_{-t} on the nodes of pg
    feet = characteristic_feet((pg.x[:, None], pg.p[None, :]), pot, eps_mollify,
                               dt, -t, field_grid=field_grid)
    return GridDensity(values=datum(*feet), grid=pg, tag="density")


def test_liouville_free_transport_commensurate():
    gx = build_position_grid(128, -4.0, 4.0)
    gp = build_position_grid(64, -2.0, 2.0)
    pg = PhaseGrid(gx, gp)
    blob = _blob(0.0, 0.0, 0.16)
    rho0 = blob(pg.x[:, None], pg.p[None, :])
    pot = custom_potential(np.zeros(128))
    # dt * dk / dx = 1: every row shifts an integer cell count per step
    out = _pullback(blob, pg, pot, 1e-6, 1.0, 1.0, field_grid=gx)
    expect = np.empty_like(rho0)
    for j, k in enumerate(gp.nodes):
        expect[:, j] = np.roll(rho0[:, j], round(k * 1.0 / gx.dx))
    assert np.max(np.abs(out.values - expect)) < 1e-9


def test_liouville_mass_positivity_linf():
    # resolved blob on 512^2: quadrature mass error sits below 1e-6
    gx = build_position_grid(512, -4.0, 4.0)
    gp = build_position_grid(512, -4.0, 4.0)
    pg = PhaseGrid(gx, gp)
    blob = _blob(0.8, 0.0, 0.2)
    rho0 = GridDensity(values=blob(pg.x[:, None], pg.p[None, :]), grid=pg,
                       tag="density")
    out = _pullback(blob, pg, harmonic_potential(), 1e-3, 0.05, 1.0, field_grid=gx)
    assert abs(out.total_mass - rho0.total_mass) < 1e-6 * rho0.total_mass
    assert out.values.min() >= -1e-9
    assert out.values.max() <= rho0.values.max() + 1e-6


def _rotation_error(dt, t=np.pi / 2):
    gx = build_position_grid(512, -4.0, 4.0)
    gp = build_position_grid(512, -4.0, 4.0)
    pg = PhaseGrid(gx, gp)
    out = _pullback(_blob(1.0, 0.0, 0.25), pg, harmonic_potential(), 1e-4,
                    dt, t)
    X = pg.x[:, None]
    P = pg.p[None, :]
    # clockwise flow: rho(t, x, p) = rho0(x cos t - p sin t, x sin t + p cos t)
    expect = np.exp(-(((X * np.cos(t) - P * np.sin(t)) - 1.0) ** 2
                      + (X * np.sin(t) + P * np.cos(t)) ** 2) / 0.5)
    num = np.sqrt(np.sum((out.values - expect) ** 2) * pg.cell_area)
    den = np.sqrt(np.sum(expect**2) * pg.cell_area)
    return num / den


def test_liouville_harmonic_rotation():
    assert _rotation_error(np.pi / 2 / 24) < 1e-4


def test_liouville_rk4_order():
    # fourth order: halving the step divides the error by about 16
    t = np.pi / 2
    assert _rotation_error(t / 48) <= _rotation_error(t / 24) / 10.0


def test_liouville_mollified_cauchy_on_rough():
    gx = build_position_grid(128, -3.0, 3.0)
    gp = build_position_grid(128, -3.0, 3.0)
    pg = PhaseGrid(gx, gp)
    blob = _blob(0.5, 0.2, 0.2)
    pot = rough_power_potential(theta=0.5)
    outs = [
        _pullback(blob, pg, pot, em, 0.02, 0.4, field_grid=gx).values
        for em in (4e-2, 2e-2, 1e-2, 5e-3)
    ]
    gaps = [np.sum(np.abs(b - a)) * pg.cell_area for a, b in zip(outs, outs[1:])]
    assert gaps[1] < gaps[0] and gaps[2] < gaps[1]


def test_liouville_walk_matches_one_span():
    # the field is autonomous: two spans that are multiples of the step
    # take the same RK4 steps as one span
    gx = build_position_grid(64, -3.0, 3.0)
    pg = PhaseGrid(gx, gx)
    pot = rough_power_potential(theta=0.5)
    start = (pg.x[:, None], pg.p[None, :])
    once = characteristic_feet(start, pot, 0.05, 0.05, -0.4, field_grid=gx)
    mid = characteristic_feet(start, pot, 0.05, 0.05, -0.2, field_grid=gx)
    twice = characteristic_feet(mid, pot, 0.05, 0.05, -0.2, field_grid=gx)
    assert all(np.array_equal(a, b) for a, b in zip(once, twice))


def test_liouville_nonnegative_datum_bounded():
    # the pullback only evaluates the datum, so the values stay in
    # [0, sup f0] = [0, 1] by construction
    gx = build_position_grid(128, -3.0, 3.0)
    pg = PhaseGrid(gx, gx)
    out = _pullback(_blob(0.5, 0.2, 0.2), pg, rough_power_potential(theta=0.5),
                    0.02, 0.02, 0.8, field_grid=gx)
    assert out.values.min() >= 0.0
    assert out.values.max() <= 1.0


def _whole_array_feet(feet, pot, eps_mollify, dt, t_final, field_grid):
    # the reference: every RK4 stage on the whole broadcast array at once
    n_steps, h = time_steps(t_final, dt)
    x, p = feet
    force = _force_function(pot, eps_mollify, field_grid)
    for _ in range(n_steps):
        k1p = force(x)
        k2x, k2p = p + 0.5 * h * k1p, force(x + 0.5 * h * p)
        k3x, k3p = p + 0.5 * h * k2p, force(x + 0.5 * h * k2x)
        k4x, k4p = p + h * k3p, force(x + h * k3x)
        x = x + (h / 6.0) * (p + 2 * k2x + 2 * k3x + k4x)
        p = p + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
    return x, p


@pytest.mark.parametrize("pot, eps_mollify", [
    (rough_power_potential(theta=0.5), 0.05),
    (rough_power_potential(theta=0.5), 0.0),
    (harmonic_potential(), 0.0),
])
def test_feet_blocks_match_whole_array_steps(pot, eps_mollify):
    # (N, 1) x (1, M) nodes: 101 * 400 points are two full blocks and
    # a partial third
    gx = build_position_grid(128, -3.0, 3.0)
    x = np.linspace(-2.5, 2.5, 101)[:, None]
    p = np.linspace(-2.0, 2.0, 400)[None, :]
    assert 2 * _FEET_BLOCK < x.size * p.size < 3 * _FEET_BLOCK
    got = characteristic_feet((x, p), pot, eps_mollify, 0.05, -0.2, field_grid=gx)
    want = _whole_array_feet((x, p), pot, eps_mollify, 0.05, -0.2, gx)
    for g, w in zip(got, want):
        assert g.shape == (101, 400) and g.flags.c_contiguous
        assert np.array_equal(g, w)
    # the feet moved: block writes reach the outputs
    assert not np.array_equal(got[0], np.broadcast_to(x, got[0].shape))


def test_feet_memory_is_outputs_plus_one_block():
    # 1024 x 512 feet: no whole-array RK4 stages beside the outputs
    gx = build_position_grid(1024, -8.0, 8.0)
    x, p = gx.nodes[:, None], np.linspace(-2.5, 2.5, 512)[None, :]
    pot = rough_power_potential(theta=0.5)
    tracemalloc.start()
    try:
        feet = characteristic_feet((x, p), pot, 0.05, 0.05, -0.1, field_grid=gx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ratio = peak / sum(a.nbytes for a in feet)
    assert ratio <= 1.5, ratio


def test_liouville_validation():
    # step checks: test_integrate_rejects_bad_dt; a non-finite foot is refused
    with pytest.raises(NumericsError):
        characteristic_feet((np.array([0.5, np.nan]), np.zeros(2)),
                            harmonic_potential(), 1e-3, 0.1, 1.0)
