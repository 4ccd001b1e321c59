"""Initial-state families: coherent states, concentrating data, random families."""

from fractions import Fraction

import numpy as np
import pytest

from semiphase import (
    AtomicMeasure,
    ConcentratingProfile,
    ConfigurationError,
    DensityEnsemble,
    RandomFamilySpec,
    ShapeMismatchError,
    build_position_grid,
    coherent_state,
)
from semiphase.phasespace import build_wigner_grid, wigner
from semiphase.states import (
    check_epsn_operator_bound,
    coherent_mixture,
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
        assert abs(psi.norm() - 1.0) < 1e-10


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


def test_coherent_husimi_sharpens_along_ladder(grid):
    # weak distance to the target atom decreases as eps shrinks
    from semiphase import AtomicMeasure, WeakMetricConfig
    from semiphase.metrics import weak_distance
    from semiphase.phasespace import husimi

    atom = AtomicMeasure(((1.0, 0.6, -0.4),))
    cfg = WeakMetricConfig()
    ds = []
    for eps in (0.2, 0.1, 0.05):
        H = husimi(wigner(coherent_state(0.6, -0.4, eps, grid)), eps)
        ds.append(weak_distance(H, atom, cfg))
    assert ds[2] < ds[1] < ds[0]


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


# ------------------------------------------------------- random families


def test_family_point_law(grid):
    spec = RandomFamilySpec(law="point", center=(1.0, 0.0), m_samples=1)
    fam = random_family(spec)
    assert fam.atoms.tolist() == [[1.0, 1.0, 0.0]]
    (_, psi), = coherent_mixture(fam, 0.05, grid).members
    ref = coherent_state(1.0, 0.0, 0.05, grid)
    assert np.max(np.abs(psi.values - ref.values)) < 1e-14


def test_family_gaussian_clt_mean():
    spec = RandomFamilySpec(law="gaussian", center=(0.5, -0.2),
                            scale=(0.4, 0.3), m_samples=1000, seed=21)
    fam = random_family(spec)
    assert np.all(fam.masses == 1.0 / 1000)
    assert abs(fam.xs.mean() - 0.5) < 5 * 0.4 / np.sqrt(1000)
    assert abs(fam.ps.mean() + 0.2) < 5 * 0.3 / np.sqrt(1000)


def test_family_deterministic_under_seed():
    spec = RandomFamilySpec(law="hardcore_gaussian", m_samples=16, seed=3,
                            scale=(1.2, 1.2), min_separation=0.3)
    assert np.array_equal(random_family(spec).atoms, random_family(spec).atoms)


def test_family_hardcore_separation():
    spec = RandomFamilySpec(law="hardcore_gaussian", m_samples=24, seed=5,
                            scale=(1.5, 1.5), min_separation=0.4)
    pts = random_family(spec).atoms[:, 1:]
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    d2[np.diag_indices(len(pts))] = np.inf
    assert np.sqrt(d2.min()) >= 0.4 - 1e-12


def test_family_law_validation():
    with pytest.raises(ConfigurationError):
        RandomFamilySpec(law="cauchy")
    with pytest.raises(ConfigurationError):
        RandomFamilySpec(m_samples=0)
    with pytest.raises(ConfigurationError):
        RandomFamilySpec(law="gaussian", scale=(0.0, 1.0))


# ------------------------------------------------- eps^n operator bound


def test_epsn_bound_pure_state(grid):
    eps = 0.05
    ens = coherent_mixture(AtomicMeasure(((1.0, 0.0, 0.0),)), eps, grid)
    ratio = check_epsn_operator_bound(ens)
    assert ratio == pytest.approx(1.0 / eps, rel=1e-10)


def test_epsn_bound_orthogonal_pair(grid):
    # widely separated states: top eigenvalue = max weight
    eps = 0.02
    pair = AtomicMeasure(((0.7, -3.0, 0.0), (0.3, 3.0, 0.0)))
    ratio = check_epsn_operator_bound(coherent_mixture(pair, eps, grid))
    assert ratio == pytest.approx(0.7 / eps, rel=1e-8)


def test_epsn_bound_box_resolution_of_identity(grid):
    # M coherent states tiling a box of area A: top eigenvalue ~ 2 pi eps / A
    eps = 0.05
    area = 4.0 * np.pi
    side = np.sqrt(area)
    m = 12
    offs = side * (2.0 * np.arange(m) + 1.0 - m) / (2.0 * m)
    box = AtomicMeasure([(1.0 / m**2, x, p) for x in offs for p in offs])
    ratio = check_epsn_operator_bound(coherent_mixture(box, eps, grid))
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
        ratios.append(check_epsn_operator_bound(coherent_mixture(fam, eps, grid)))
    assert ratios[1] <= ratios[0] + 1e-12
    assert ratios[2] <= ratios[1] + 1e-12


def test_epsn_bound_weight_validation(grid):
    # the ensemble the bound reads refuses weights that are not a
    # probability vector
    eps = 0.05
    psi = coherent_state(0.0, 0.0, eps, grid)
    with pytest.raises(ConfigurationError):
        DensityEnsemble(members=((0.0, psi),), eps=eps)
    with pytest.raises(ConfigurationError):
        DensityEnsemble(members=((0.5, psi),), eps=eps)


def test_ensemble_weight_sum_tolerance_scales_with_members(grid):
    # equal weights 1/M summed left to right miss 1 by 1.9e-12 at
    # M = 100,000, inside the (M - 1) * 2**-53 rounding bound
    eps = 0.05
    psi = coherent_state(0.0, 0.0, eps, grid)
    m = 100_000
    ens = DensityEnsemble(members=tuple((1.0 / m, psi) for _ in range(m)),
                          eps=eps)
    assert len(ens.members) == m
    for m in (3, 100_000):
        weights = [1.0 / m] * m
        weights[0] += 1e-9
        with pytest.raises(ConfigurationError, match="weights sum"):
            DensityEnsemble(members=tuple((w, psi) for w in weights), eps=eps)


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
])
def test_atomic_measure_rejects_bad_atoms(atoms, error):
    with pytest.raises(error):
        AtomicMeasure(atoms)


def test_coherent_mixture_members_follow_atoms(grid):
    eps = 0.05
    atoms = AtomicMeasure(((0.5, 1.0, -0.5), (0.2, -2.0, 0.0), (0.3, 0.0, 1.0)))
    ens = coherent_mixture(atoms, eps, grid)
    assert ens.eps == eps
    assert [w for w, _ in ens.members] == atoms.masses.tolist()
    for (_, state), (_, x, p) in zip(ens.members, atoms.atoms):
        assert np.array_equal(state.values, coherent_state(x, p, eps, grid).values)
