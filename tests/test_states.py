"""Initial-state families: coherent states, concentrating data, random families."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from semiphase import (
    AtomicMeasure,
    ConcentratingProfile,
    ConfigurationError,
    DensityEnsemble,
    NumericsError,
    ShapeMismatchError,
    build_position_grid,
    coherent_rows,
    coherent_state,
)
from semiphase import states
from semiphase.grids import PhaseGrid
from semiphase.phasespace import build_wigner_grid, wigner
from semiphase.states import (
    check_epsn_operator_bound,
    concentrating_wigner_data,
    concentration_lattice,
    random_family,
    scaling_exponents,
)


@pytest.fixture(scope="module")
def grid():
    return build_position_grid(512, -8.0, 8.0)


# ------------------------------------------------------------- exponents


def test_scaling_exponents_theta_half_exact():
    a_mass, a_x, a_k = scaling_exponents(Fraction(1, 2))
    assert a_mass == Fraction(17, 60)
    assert a_x == Fraction(1, 4)
    assert a_k == Fraction(1, 30)


def test_scaling_exponents_mass_identity_rational():
    # a_mass = a_x + a_k exactly on a 99-point rational theta grid
    for j in range(1, 100):
        theta = Fraction(j, 100)
        a_mass, a_x, a_k = scaling_exponents(theta)
        assert a_mass == a_x + a_k
        assert a_mass == (7 + 3 * theta) / 30
        assert a_x == (1 + theta) / 6
        assert a_k == (1 - theta) / 15


# -------------------------------------------------------- coherent states


def test_coherent_state_normalized(grid):
    for eps in (0.02, 0.05, 0.2):
        psi = coherent_state(0.5, -0.3, eps, grid)
        assert abs(grid.dx * np.sum(np.abs(psi.values) ** 2) - 1.0) < 1e-10


def test_coherent_state_even_real_at_origin(grid):
    psi = coherent_state(0.0, 0.0, 0.05, grid)
    assert np.max(np.abs(psi.values.imag)) < 1e-14
    mid = grid.n_points // 2
    # nodes are symmetric about 0 at index n/2; values even
    assert np.allclose(psi.values[mid - 100:mid], psi.values[mid + 100:mid:-1], atol=1e-12)


def test_coherent_state_wigner_positive(grid):
    W = wigner(coherent_state(0.4, 0.2, 0.05, grid))
    assert W.values.min() >= -1e-12


def test_coherent_state_boundary_rejects(grid):
    with pytest.raises(ConfigurationError):
        coherent_state(7.9, 0.0, 0.05, grid)
    # p-boundary: the eps-scaled momentum window ends at eps * pi / dx
    p_edge = 0.05 * np.pi / grid.dx
    with pytest.raises(ConfigurationError):
        coherent_state(0.0, p_edge * 0.999, 0.05, grid)


def test_coherent_rows_are_the_states_bit_for_bit(grid):
    eps = 0.05
    x0 = np.array([[-1.0, 0.5, 2.25], [0.0, -3.1, 6.0]])
    p0 = np.array([[0.3, -0.7, 0.0], [1.5, 0.2, -2.0]])
    rows = coherent_rows(x0, p0, eps, grid)
    assert rows.shape == (2, 3, grid.n_points)
    for i, j in np.ndindex(x0.shape):
        want = coherent_state(x0[i, j], p0[i, j], eps, grid).values
        assert np.array_equal(rows[i, j], want)
    assert np.array_equal(coherent_rows(0.5, -0.7, eps, grid),
                          coherent_state(0.5, -0.7, eps, grid).values)


@pytest.mark.parametrize("last", [(7.9, 0.0), (np.nan, 0.0), (0.0, np.nan),
                                  (0.0, 0.999 * 0.05 * np.pi / (16.0 / 512))])
def test_coherent_rows_check_every_centre(grid, last):
    # the position and momentum checks read every centre: a block whose last
    # centre is too near an edge of either window, or NaN, is refused
    x0, p0 = np.array([0.0, 1.0, last[0]]), np.array([0.0, -0.5, last[1]])
    with pytest.raises(ConfigurationError, match="center"):
        coherent_rows(x0, p0, 0.05, grid)


# -------------------------------------------------- concentrating profile


def test_profile_support_inside_bump_ellipse():
    prof = ConcentratingProfile(theta=0.5)
    lattice = concentration_lattice(prof, 1e-2)
    lam = prof.lam(1e-2)
    _, a_x, a_k = prof.exponents
    u = lattice.xs * lam**a_x  # undo the physical shrink
    v = lattice.ps * lam**a_k
    assert np.all((u / prof.radius_u) ** 2 + (v / prof.radius_v) ** 2 < 1.0)
    assert len(lattice) >= 200  # 21x21 lattice restricted to the bump
    assert lattice.total_mass == pytest.approx(1.0, abs=1e-12)
    assert np.all(lattice.masses > 0)


def test_lattice_mirror_symmetric_for_centered_profile():
    prof = ConcentratingProfile(theta=0.5)
    lattice = concentration_lattice(prof, 1e-2)
    pts = set(zip(lattice.xs.tolist(), lattice.ps.tolist()))
    for u, v in pts:
        assert (-u, -v) in pts  # exact floating-point negations


def test_profile_theta_validation():
    with pytest.raises(ConfigurationError):
        ConcentratingProfile(theta=0.0)
    with pytest.raises(ConfigurationError):
        ConcentratingProfile(theta=1.2)


def test_concentrating_data_mass_and_lambda():
    eps = 1e-2
    prof = ConcentratingProfile(theta=0.5)
    xg = build_position_grid(512, -2.0, 2.0)
    lattice = concentration_lattice(prof, eps)
    real = concentrating_wigner_data(prof, eps, build_wigner_grid(xg, eps), lattice)
    assert real.lam == pytest.approx(np.log(1.0 / eps))
    assert real.target_mass == pytest.approx(1.0, abs=1e-8)
    assert abs(lattice.total_mass - 1.0) < 1e-9
    assert real.l2_gap >= 0.0


def test_concentrating_data_even_weights_split():
    prof = ConcentratingProfile(theta=0.5)
    lattice = concentration_lattice(prof, 1e-2)
    xs, ws = lattice.xs, lattice.masses
    right = float(ws[xs > 0].sum()) + 0.5 * float(ws[xs == 0].sum())
    assert right == pytest.approx(0.5, abs=1e-9)


def test_concentrating_data_unresolved_grid_raises():
    prof = ConcentratingProfile(theta=0.5)
    xg = build_position_grid(16, -2.0, 2.0)
    with pytest.raises(ConfigurationError):
        concentrating_wigner_data(prof, 1e-4, build_wigner_grid(xg, 1e-4),
                                  concentration_lattice(prof, 1e-4))


def _split_phase_grid(n_points):
    # ConcentrationSplit's raster: its x-grid and a 512-node p-axis
    return PhaseGrid(build_position_grid(n_points, -2.0, 2.0),
                     build_position_grid(512, -1.0, 1.0))


@pytest.mark.parametrize("center", [(0.0, 0.0), (0.3, 0.05)])
def test_concentrating_target_mass_matches_one_shot_raster(center):
    eps = 1e-3
    prof = ConcentratingProfile(theta=0.5, center=center, radius_u=0.5,
                                radius_v=0.5)
    # 1000 rows: 15 full blocks of 64 and a partial one
    pg = _split_phase_grid(1000)
    real = concentrating_wigner_data(prof, eps, pg, concentration_lattice(prof, eps, 7))
    a_mass, a_x, a_k = prof.exponents
    lam = prof.lam(eps)
    raster = lam ** a_mass * prof.w(lam ** a_x * pg.x[:, None],
                                    lam ** a_k * pg.p[None, :])
    want = float(pg.cell_area * np.sum(raster))
    assert abs(real.target_mass - want) <= 1e-13 * abs(want)


def test_concentrating_data_never_builds_the_raster():
    # one (20480, 512) float64 raster alone is 80 MiB
    eps = 1e-4
    prof = ConcentratingProfile(theta=0.5, center=(0.3, 0.05), radius_u=0.5,
                                radius_v=0.5)
    pg = _split_phase_grid(20480)
    lattice = concentration_lattice(prof, eps, 7)
    tracemalloc.start()
    try:
        concentrating_wigner_data(prof, eps, pg, lattice)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


# ------------------------------------------------------- random families


def test_family_gaussian_clt_mean():
    # the family is drawn about the origin
    fam = random_family("gaussian", (0.4, 0.3), 1000, 21, 0.3)
    assert np.all(fam.masses == 1.0 / 1000)
    assert abs(fam.xs.mean()) < 5 * 0.4 / np.sqrt(1000)
    assert abs(fam.ps.mean()) < 5 * 0.3 / np.sqrt(1000)


def test_family_deterministic_under_seed():
    args = ("hardcore_gaussian", (1.2, 1.2), 16, 3, 0.3)
    assert np.array_equal(random_family(*args).atoms, random_family(*args).atoms)


def test_family_hardcore_separation():
    pts = random_family("hardcore_gaussian", (1.5, 1.5), 24, 5, 0.4).atoms[:, 1:]
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    d2[np.diag_indices(len(pts))] = np.inf
    assert np.sqrt(d2.min()) >= 0.4 - 1e-12


def test_family_law_validation(monkeypatch):
    for law in ("cauchy", "uniform_box", "point"):  # no experiment ran the last two
        with pytest.raises(ConfigurationError, match="sampling law"):
            random_family(law, (1.0, 1.0), 64, 0, 0.3)
    with pytest.raises(ConfigurationError, match="m_samples"):
        random_family("gaussian", (1.0, 1.0), 0, 0, 0.3)

    def no_draw(*args):
        raise AssertionError("a hard-core draw started")

    # a non-finite or non-positive law is refused by name before any draw
    monkeypatch.setattr(states, "_draw_hardcore", no_draw)
    inf, nan = float("inf"), float("nan")
    for field, scale, sep in [("scale", (0.0, 1.0), 0.3), ("scale", (nan, 1.0), 0.3),
                              ("scale", (1.0, inf), 0.3), ("min_separation", (1.0, 1.0), 0.0),
                              ("min_separation", (1.0, 1.0), nan),
                              ("min_separation", (1.0, 1.0), inf)]:
        with pytest.raises(ConfigurationError, match=field):
            random_family("hardcore_gaussian", scale, 64, 0, sep)
    with pytest.raises(ConfigurationError, match="scale"):
        random_family("gaussian", (nan, 1.0), 64, 0, 0.3)


# ------------------------------------------------- eps^n operator bound


def _grid_gram_ratio(atoms, eps, grid):
    # reference: the same reduction from the Gram matrix of the coherent
    # states sampled on grid
    states = np.stack([coherent_state(x, p, eps, grid).values
                       for x, p in zip(atoms.xs, atoms.ps)])
    gram = (np.conj(states) @ states.T) * grid.dx
    root_w = np.sqrt(atoms.masses)
    return float(np.linalg.eigvalsh(root_w[:, None] * gram * root_w[None, :])[-1]) / eps


def _bound(atoms, eps, grid):
    """The closed-form ratio, checked against the grid Gram's to 1e-12."""
    ratio = check_epsn_operator_bound(atoms, eps)
    assert ratio == pytest.approx(_grid_gram_ratio(atoms, eps, grid), rel=1e-12)
    return ratio


def test_epsn_bound_pure_state(grid):
    eps = 0.05
    ratio = _bound(AtomicMeasure(((1.0, 0.0, 0.0),)), eps, grid)
    assert ratio == pytest.approx(1.0 / eps, rel=1e-10)


def test_epsn_bound_orthogonal_pair(grid):
    # widely separated states: top eigenvalue = max weight
    eps = 0.02
    pair = AtomicMeasure(((0.7, -3.0, 0.0), (0.3, 3.0, 0.0)))
    ratio = _bound(pair, eps, grid)
    assert ratio == pytest.approx(0.7 / eps, rel=1e-8)


def test_epsn_bound_box_resolution_of_identity(grid):
    # M coherent states tiling a box of area A: top eigenvalue ~ 2 pi eps / A
    eps = 0.05
    area = 4.0 * np.pi
    side = np.sqrt(area)
    m = 12
    offs = side * (2.0 * np.arange(m) + 1.0 - m) / (2.0 * m)
    box = AtomicMeasure([(1.0 / m**2, x, p) for x in offs for p in offs])
    ratio = _bound(box, eps, grid)
    assert ratio == pytest.approx(2.0 * np.pi / area, rel=0.35)
    assert ratio <= 1.0


def test_epsn_bound_monotone_under_spreading(grid):
    # nested families: adding spread members with renormalized weights
    # never increases the ratio
    eps = 0.05
    centers = [(-1.5, 0.0), (1.5, 0.0), (0.0, 1.5), (0.0, -1.5), (0.0, 0.0)]
    ratios = []
    for n in (1, 3, 5):
        fam = AtomicMeasure([(1.0 / n, x, p) for x, p in centers[:n]])
        ratios.append(_bound(fam, eps, grid))
    assert ratios[1] <= ratios[0] + 1e-12
    assert ratios[2] <= ratios[1] + 1e-12


def test_epsn_bound_matches_grid_gram_on_the_default_family():
    # RandomFamily's default family at every default rung, against the
    # Gram matrix on its former grid_n grid
    from semiphase.experiments import defaults_for

    cfg = defaults_for("RandomFamily")
    family = random_family(cfg.law, cfg.law_scale, cfg.m_samples, cfg.seed,
                           cfg.min_separation)
    grid = build_position_grid(cfg.grid_n, cfg.x_min, cfg.x_max)
    assert len(cfg.eps_ladder) == 4
    for eps in cfg.eps_ladder:
        _bound(family, eps, grid)


def test_epsn_bound_weight_validation(grid):
    # the ensemble the bound reads refuses weights that are not a
    # probability vector
    eps = 0.05
    rows = coherent_state(0.0, 0.0, eps, grid).values[None]
    for weights in ((0.0,), (0.5,), (np.nan,), ()):
        with pytest.raises(ConfigurationError):
            DensityEnsemble(rows[:len(weights)], weights, eps, grid)


def test_ensemble_weight_sum_tolerance_scales_with_members():
    # equal weights 1/M summed left to right miss 1 by 1.9e-12 at
    # M = 100,000, inside the (M - 1) * 2**-53 rounding bound; the constant
    # rows of an 8-point grid keep the block at 12.8 MB
    grid = build_position_grid(8, -8.0, 8.0)
    m = 100_000
    rows = np.full((m, 8), 0.25, dtype=complex)  # 16 * 0.25^2 = 1
    ens = DensityEnsemble(rows, np.full(m, 1.0 / m), 0.05, grid)
    assert ens.values.shape == (m, 8) and ens.weights.shape == (m,)
    for m in (3, 100_000):
        weights = [1.0 / m] * m
        weights[0] += 1e-9
        with pytest.raises(ConfigurationError, match="weights sum"):
            DensityEnsemble(rows[:m], weights, 0.05, grid)


def test_ensemble_refuses_bad_rows(grid):
    eps = 0.05
    rows = coherent_rows(np.array([-1.0, 0.0, 1.0]), np.zeros(3), eps, grid)
    weights = np.full(3, 1.0 / 3.0)
    for bad in (rows[:, :-1], rows[:2], rows[0], rows[None]):
        with pytest.raises(ShapeMismatchError):
            DensityEnsemble(bad, weights, eps, grid)
    with pytest.raises(ConfigurationError):
        DensityEnsemble(rows, weights, 0.0, grid)
    for value, error in ((np.nan, NumericsError), (np.inf, NumericsError),
                         (10.0, ConfigurationError)):
        bad = rows.copy()
        bad[2, 100] = value
        with pytest.raises(error):
            DensityEnsemble(bad, weights, eps, grid)
    ens = DensityEnsemble(rows, weights, eps, grid)
    assert ens.grid == grid and ens.values.dtype == complex


# --------------------------------------------- atoms and coherent mixtures


def test_atomic_measure_accepts_triples_and_arrays():
    rows = [(0.25, -1.0, 0.5), (0.75, 2.0, -0.5)]
    a, b = AtomicMeasure(rows), AtomicMeasure(np.array(rows))
    for meas in (a, b):
        assert meas.atoms.shape == (2, 3) and len(meas) == 2
        assert meas.masses.tolist() == [0.25, 0.75]
        assert meas.xs.tolist() == [-1.0, 2.0]
        assert meas.ps.tolist() == [0.5, -0.5]
        assert meas.total_mass == 1.0
        # columns are contiguous views
        assert meas.masses.flags.c_contiguous and meas.ps.flags.c_contiguous


@pytest.mark.parametrize("atoms, error", [
    ((), ConfigurationError),
    (np.zeros((0, 3)), ConfigurationError),
    (((1.0, 0.0),), ShapeMismatchError),
    ((1.0, 0.0, 0.0), ShapeMismatchError),
    (((1.0, 0.0, 0.0, 0.0),), ShapeMismatchError),
    (((0.0, 0.0, 0.0),), ConfigurationError),
    (((0.5, 0.0, 0.0), (-0.5, 1.0, 0.0)), ConfigurationError),
    (((np.nan, 0.0, 0.0),), ConfigurationError),
    (((1.0, np.nan, 0.0),), ConfigurationError),
    (((1.0, 0.0, np.inf),), ConfigurationError),
])
def test_atomic_measure_rejects_bad_atoms(atoms, error):
    with pytest.raises(error):
        AtomicMeasure(atoms)
