"""Weak metric, characteristic functions, L2 distance, rate fitting."""

import tracemalloc

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings, strategies as st

from semiphase import (
    AtomicMeasure,
    ConfigurationError,
    GridDensity,
    RepresentationError,
    ShapeMismatchError,
    build_position_grid,
    coherent_state,
)
from semiphase.errors import NumericsError
from semiphase.metrics import (NODES, _as_probability, _char_rows, _unit_powers,
                               char_distance, char_function, fit_rate,
                               l2_distance)
from semiphase.phasespace import wigner


@pytest.fixture(scope="module")
def grid():
    return build_position_grid(512, -8.0, 8.0)


# -------------------------------------------------------- char_function


XI, ETA = NODES[:, None], NODES[None, :]
DNODE = 0.5
WEIGHT = np.exp(-(XI**2 + ETA**2) / 2.0)


def test_nodes_fixed_and_read_only():
    assert NODES.shape == (33,) and NODES[0] == -8.0 and NODES[-1] == 8.0
    assert np.all(np.diff(NODES) == DNODE)
    assert not NODES.flags.writeable
    with pytest.raises(ValueError):
        NODES[0] = 0.0
    # _char_rows reads psi(x + eps eta/2) from the reversed shift rows
    assert np.array_equal(NODES, -NODES[::-1])


def test_char_single_atom_analytic():
    mu = AtomicMeasure(((1.0, 0.7, -0.3),))
    chi = char_function(mu)
    expect = np.exp(-1j * (XI * 0.7 + ETA * (-0.3)))
    assert chi.shape == (33, 33)
    assert np.max(np.abs(chi - expect)) < 1e-14


def test_char_atom_heat_multiplier():
    # |chi| = 1 for one atom, so the heated distance to zero is the
    # lattice sum of exp(-(t + 1/2)(xi^2 + eta^2)) dxi deta
    bare = char_function(AtomicMeasure(((1.0, 0.2, 0.4),)))
    d = char_distance(bare, np.zeros_like(bare), heat_time=0.3)
    expect = (np.sum(np.exp(-0.8 * NODES**2)) * DNODE) ** 2
    assert d == pytest.approx(expect, rel=1e-14)
    assert char_distance(bare, np.zeros_like(bare)) > d


def test_char_distance_heat_placement_oracle(grid):
    # the multiplier on the gap equals heating both characteristic
    # functions first: |a h - b h| = |a - b| h for h > 0
    a = char_function(coherent_state(0.6, 0.4, 0.05, grid))
    b = char_function(AtomicMeasure(((0.3, 0.5, 0.4), (0.7, -0.2, 0.1))))
    for t in (0.05, 0.3, 1.0):
        h = np.exp(-t * (XI**2 + ETA**2))
        expect = np.sum(np.abs(a * h - b * h) * WEIGHT) * DNODE**2
        assert char_distance(a, b, heat_time=t) == pytest.approx(expect, rel=1e-14)


def test_char_wavefunction_matches_wigner_grid(grid):
    psi = coherent_state(0.6, 0.4, 0.05, grid)
    a = char_function(psi)
    b = char_function(wigner(psi))
    assert np.max(np.abs(a - b)) < 1e-10


def test_char_coherent_analytic(grid):
    eps, x0, p0 = 0.1, -0.4, 0.8
    psi = coherent_state(x0, p0, eps, grid)
    chi = char_function(psi)
    expect = np.exp(-1j * (XI * x0 + ETA * p0) - eps * (XI**2 + ETA**2) / 4.0)
    assert np.max(np.abs(chi - expect)) < 1e-12


def test_char_mirror_conjugate(grid):
    eps = 0.05
    psi = coherent_state(0.9, 0.5, eps, grid)
    mirror = coherent_state(-0.9, -0.5, eps, grid)
    a = char_function(psi)
    b = char_function(mirror)
    assert np.max(np.abs(b - np.conj(a))) < 1e-12


def test_char_ensemble_streams_members(grid):
    # the block's chis reduced by the weights, as a probability, equal the
    # weighted sum of member characteristic functions
    eps = 0.05
    weights = (0.1, 0.2, 0.3, 0.4)
    members = tuple((w, coherent_state(x0, p0, eps, grid)) for w, (x0, p0)
                    in zip(weights, ((-0.5, 0.0), (0.5, 0.2), (1.2, -0.4),
                                     (-1.0, 0.6))))
    chi = _as_probability(_char_members(members))
    expect = sum(w * char_function(m) for w, m in members)
    assert np.max(np.abs(chi - expect)) < 1e-13


def _two_table_char_members(members):
    # reference: separate shift tables for psi(x - eps eta/2) and
    # psi(x + eps eta/2), one batch of inverse FFTs each
    eps, grid = members[0][1].eps, members[0][1].grid
    phases = _unit_powers(NODES * (eps / 2.0), grid.k)
    phases_conj = phases.conj()
    integrand = np.zeros((phases.shape[0], grid.n_points), dtype=np.complex128)
    for w, state in members:
        spec = sfft.fft(state.values)
        plus = sfft.ifft(spec * phases, axis=1)
        minus = sfft.ifft(spec * phases_conj, axis=1)
        integrand += w * plus * np.conj(minus)
    kernel = _unit_powers(NODES, grid.nodes)
    return (kernel @ integrand.T) * grid.dx


def _rel_dev(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _char_members(members):
    # the one weighted sum of _char_rows over (weight, WaveFunction) pairs
    chis = _char_rows(np.stack([s.values for _, s in members]),
                      members[0][1].eps, members[0][1].grid)
    return np.tensordot([w for w, _ in members], chis, 1)


def test_one_shift_table_matches_two_tables(corpus):
    for label, psi in corpus:
        members = ((1.0, psi),)
        assert _rel_dev(_char_members(members),
                        _two_table_char_members(members)) <= 1e-13, label


def test_one_shift_table_matches_two_tables_ensemble(grid):
    eps = 0.05
    members = tuple((w, coherent_state(x0, p0, eps, grid)) for w, (x0, p0)
                    in zip((0.1, 0.2, 0.3, 0.4),
                           ((-0.5, 0.0), (0.5, 0.2), (1.2, -0.4), (-1.0, 0.6))))
    assert _rel_dev(_char_members(members),
                    _two_table_char_members(members)) <= 1e-13


def _full_row_char_members(members):
    # reference: all 33 eta rows of the integrand, each times the kernel
    eps, grid = members[0][1].eps, members[0][1].grid
    phases = _unit_powers(NODES * (eps / 2.0), grid.k)
    integrand = np.zeros((phases.shape[0], grid.n_points), dtype=np.complex128)
    for w, state in members:
        shifted = sfft.ifft(sfft.fft(state.values) * phases, axis=1)
        integrand += w * np.conj(shifted[::-1]) * shifted
    kernel = _unit_powers(NODES, grid.nodes)
    return (kernel @ integrand.T) * grid.dx


def test_half_rows_match_full_rows(corpus):
    for label, psi in corpus:
        members = ((1.0, psi),)
        assert _rel_dev(_char_members(members),
                        _full_row_char_members(members)) <= 1e-13, label


def test_half_rows_match_full_rows_ensemble(grid):
    eps = 0.05
    members = tuple((w, coherent_state(x0, p0, eps, grid)) for w, (x0, p0)
                    in zip((0.1, 0.2, 0.3, 0.4),
                           ((-0.5, 0.0), (0.5, 0.2), (1.2, -0.4), (-1.0, 0.6))))
    assert _rel_dev(_char_members(members),
                    _full_row_char_members(members)) <= 1e-13


@pytest.mark.parametrize("n", [1232, 1680])
def test_char_rows_self_and_mirror_sums(n):
    # one chi per row, each the two-table reference's; reduced by two weight
    # rows, zero mirror weights included, as ConcentrationSplit does, they
    # give sum_j w_s chi_j + w_m conj(chi_j)
    eps = 1e-3
    g = build_position_grid(n, -2.0, 2.0)
    states = [coherent_state(x0, p0, eps, g) for x0, p0
              in ((-0.4, 0.1), (0.0, 0.0), (0.3, -0.2), (0.8, 0.3), (-0.9, -0.4))]
    w_self = np.array([0.1, 0.3, 0.2, 0.25, 0.15])
    w_mirror = np.array([0.1, 0.0, 0.2, 0.0, 0.15])
    rows = np.stack([s.values for s in states])
    per_row = _char_rows(rows, eps, g)
    chis = [_two_table_char_members(((1.0, s),)) for s in states]
    assert per_row.shape == (5, 33, 33)
    for got, want in zip(per_row, chis):
        assert _rel_dev(got, want) <= 1e-13
    chi_self, chi_mirror = np.tensordot(np.stack([w_self, w_mirror]), per_row, 1)
    got = chi_self + np.conj(chi_mirror)
    expect = sum(ws * c + wm * np.conj(c) for ws, wm, c in zip(w_self, w_mirror, chis))
    assert _rel_dev(got, expect) <= 1e-13
    # the sums are not normalized
    assert got[16, 16].real == pytest.approx(np.sum(w_self + w_mirror), rel=1e-12)


def test_char_rows_memory_is_tables_shift_and_integrands():
    # rows are shifted and reduced one at a time: the peak is the two
    # (33, N) tables, one row's (33, N) shift, its (17, N) pair and the
    # (M, 33, 33) output, never a shift or an integrand per row of the
    # block. Beside the output the bound does not grow with M, framed
    # (M = 145, a window grid's group) or not
    n, eps = 1232, 1e-2
    g = build_position_grid(n, -2.0, 2.0)
    table = 33 * n * np.dtype(complex).itemsize
    integrand = 17 * n * np.dtype(complex).itemsize
    for m, framed in ((16, False), (145, True)):
        rows = np.stack([coherent_state(x0, 0.1, eps, g).values
                         for x0 in np.linspace(-0.8, 0.8, m)])
        frames = (np.linspace(-0.1, 0.1, m), np.linspace(0.2, -0.2, m)) if framed else None
        tracemalloc.start()
        try:
            out = _char_rows(rows, eps, g, frames)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (m, 33, 33)
        assert peak <= 3 * table + 3 * integrand + out.nbytes, (m, peak / table)


def test_char_is_one_at_origin_for_every_representation(grid):
    origin = NODES.size // 2
    assert NODES[origin] == 0.0
    psi = coherent_state(0.6, 0.4, 0.05, grid)
    scaled = GridDensity(values=3.0 * wigner(psi).values, grid=wigner(psi).grid)
    for obj in (AtomicMeasure(((2.0, 0.7, -0.3), (1.5, -0.2, 0.4))), scaled, psi):
        assert abs(char_function(obj)[origin, origin] - 1.0) <= 1e-15, type(obj)


def test_char_ignores_atom_mass_scale():
    atoms = np.array([(0.2, 0.7, -0.3), (0.5, -0.2, 0.4), (0.3, 1.1, 0.0)])
    tripled = atoms * np.array([3.0, 1.0, 1.0])
    a = char_function(AtomicMeasure(atoms))
    b = char_function(AtomicMeasure(tripled))
    assert np.max(np.abs(a - b)) < 1e-15


# ------------------------------------ char_distance of two char_functions


def _distance(mu, nu, heat_time=0.0):
    """The weak distance of two measures: both as probabilities."""
    return char_distance(char_function(mu), char_function(nu), heat_time)


def test_weak_distance_identity(grid):
    W = wigner(coherent_state(0.2, 0.1, 0.05, grid))
    assert _distance(W, W) < 1e-12
    mu = AtomicMeasure(((0.5, 0.0, 0.0), (0.5, 1.0, 0.0)))
    assert _distance(mu, mu) < 1e-12


def test_weak_distance_symmetry(grid):
    a = wigner(coherent_state(-0.4, 0.0, 0.05, grid))
    b = AtomicMeasure(((1.0, 0.3, 0.2),))
    assert _distance(a, b) == pytest.approx(_distance(b, a), rel=1e-12)


def test_weak_distance_atom_separation_monotone():
    origin = AtomicMeasure(((1.0, 0.0, 0.0),))
    ds = [_distance(origin, AtomicMeasure(((1.0, a, 0.0),)))
          for a in (0.2, 0.5, 1.0, 2.0)]
    assert all(x < y for x, y in zip(ds, ds[1:]))
    # bounded by 2 * weight mass; plateaus near (4/pi) * weight mass for
    # separations incommensurate with the node spacing
    far = _distance(origin, AtomicMeasure(((1.0, 20.3, 0.0),)))
    assert far <= 2.0 * np.sum(WEIGHT) * DNODE**2 + 1e-9
    assert 6.0 < far < 9.0


def test_weak_distance_mass_normalization(grid):
    W = wigner(coherent_state(0.0, 0.0, 0.05, grid))
    scaled = GridDensity(values=5.0 * W.values, grid=W.grid)
    assert _distance(W, scaled) < 1e-12


def test_weak_distance_zero_mass_raises(grid):
    W = wigner(coherent_state(0.0, 0.0, 0.05, grid))
    zero = GridDensity(values=np.zeros_like(W.values), grid=W.grid)
    with pytest.raises(NumericsError):
        _distance(W, zero)
    with pytest.raises(NumericsError):
        char_function(zero)


def test_weak_distance_translation_continuity():
    # Gaussian atomic cloud vs shifted copy: distance monotone in the shift
    rng = np.random.default_rng(2)
    pts = rng.normal(0.0, 0.7, (60, 2))
    base = AtomicMeasure(tuple((1.0 / 60, x, p) for x, p in pts))
    ds = []
    for h in (0.8, 0.4, 0.2, 0.1, 0.05):
        moved = AtomicMeasure(tuple((1.0 / 60, x + h, p) for x, p in pts))
        ds.append(_distance(base, moved))
    assert all(x > y for x, y in zip(ds, ds[1:]))
    assert ds[-1] < 0.35


def test_weak_distance_sampling_converges(grid):
    # atomic discretization of a Gaussian density improves with sample count
    W = wigner(coherent_state(0.0, 0.0, 0.2, grid))
    rng = np.random.default_rng(9)
    ds = []
    for n in (100, 1000, 10000):
        pts = rng.normal(0.0, np.sqrt(0.1), (n, 2))  # matches Wigner variance eps/2
        atoms = AtomicMeasure(tuple((1.0 / n, x, p) for x, p in pts))
        ds.append(_distance(W, atoms))
    assert ds[2] < ds[1] < ds[0]
    assert ds[2] < 0.1


def test_weak_distance_heat_both_sides_baseline(grid):
    # heating both sides at the state's own eps leaves only the Gaussian
    # quarter-width mismatch: |chi_W - chi_atom| e^{-eps r^2} integrates to
    # pi (1/(s+eps) - 1/(s+5eps/4)) with s = 1/(2 sigma^2)
    eps = 0.1
    psi = coherent_state(0.3, -0.2, eps, grid)
    atom = AtomicMeasure(((1.0, 0.3, -0.2),))
    d = _distance(wigner(psi), atom, heat_time=eps)
    s = 0.5  # 1 / (2 sigma^2), sigma = 1
    exact = np.pi * (1.0 / (s + eps) - 1.0 / (s + 1.25 * eps))
    assert d == pytest.approx(exact, rel=0.05)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(
    st.floats(-2, 2), st.floats(-2, 2)), min_size=1, max_size=4),
    st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2)), min_size=1, max_size=4),
    st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2)), min_size=1, max_size=4))
def test_weak_distance_triangle_inequality(pa, pb, pc):
    mk = lambda pts: AtomicMeasure(tuple((1.0 / len(pts), x, p) for x, p in pts))
    a, b, c = mk(pa), mk(pb), mk(pc)
    dab = _distance(a, b)
    dbc = _distance(b, c)
    dac = _distance(a, c)
    assert dac <= dab + dbc + 1e-9


# ---------------------------------------------------------- l2_distance


def _l2_norm(density):
    return np.sqrt(density.grid.cell_area * np.sum(density.values ** 2))


def test_l2_distance_basics(grid):
    W = wigner(coherent_state(0.0, 0.0, 0.05, grid))
    assert l2_distance(W, W) == 0.0
    zero = GridDensity(values=np.zeros_like(W.values), grid=W.grid)
    assert l2_distance(W, zero) == pytest.approx(_l2_norm(W), rel=1e-12)


def test_l2_distance_disjoint_pythagoras(grid):
    eps = 0.02
    a = wigner(coherent_state(-3.0, 0.0, eps, grid))
    b = wigner(coherent_state(3.0, 0.0, eps, grid))
    expect = np.sqrt(_l2_norm(a) ** 2 + _l2_norm(b) ** 2)
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
        a, b, c = (GridDensity(values=rng.standard_normal(pg.shape), grid=pg)
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
