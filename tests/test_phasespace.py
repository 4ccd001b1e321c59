"""Wigner/Husimi transforms: closed-form Gaussians, symmetries, bounds."""

import tracemalloc

import numpy as np
import pytest
import scipy.fft as sfft

from semiphase import (
    ConfigurationError,
    DensityEnsemble,
    GridDensity,
    WaveFunction,
    build_position_grid,
    coherent_state,
)
from semiphase.phasespace import (
    _wigner_values,
    build_wigner_grid,
    husimi,
    l2_norm,
    restrict_p,
    sup_norm,
    upsample2,
    wigner,
)


@pytest.fixture(scope="module")
def grid():
    return build_position_grid(512, -8.0, 8.0)


def _gauss2(pg, x0, p0, var):
    X = pg.x[:, None]
    P = pg.p[None, :]
    return np.exp(-((X - x0) ** 2 + (P - p0) ** 2) / (2 * var)) / (2 * np.pi * var)


# ----------------------------------------------------------------- wigner


def test_wigner_coherent_closed_form(grid):
    eps, x0, p0 = 0.05, 0.7, -0.4
    W = wigner(coherent_state(x0, p0, eps, grid))
    expect = _gauss2(W.grid, x0, p0, eps / 2.0)  # (pi eps)^{-1} Gaussian
    assert np.max(np.abs(W.values - expect)) < 1e-10 / eps
    assert W.total_mass == pytest.approx(1.0, abs=1e-8)


def _full_correlation_wigner(psi, dx, eps):
    # the reference: the whole correlation over offsets m in [-N, N)
    n = psi.size
    pad = np.zeros(4 * n, dtype=np.complex128)
    pad[n:3 * n] = upsample2(psi)
    i = np.arange(n)[:, None]
    m = sfft.ifftshift(np.arange(-n, n))[None, :]
    corr = np.conj(pad[n + 2 * i + m]) * pad[n + 2 * i - m]
    corr[:, n] = 0.0
    w = sfft.ifft(corr, axis=1)
    w = sfft.fftshift(w, axes=1) * (dx * 2 * n / (2.0 * np.pi * eps))
    assert np.abs(w.imag).max() < 1e-9
    return w.real


# 1000: a partial last row block and a length that is not a power of two
@pytest.mark.parametrize("n", [256, 1000, 1024])
@pytest.mark.parametrize("kind", ["coherent", "cat", "off_centre"])
def test_hermitian_half_wigner_matches_full_correlation(n, kind):
    g = build_position_grid(n, -8.0, 8.0)
    eps = 0.1
    if kind == "coherent":
        psi = coherent_state(0.0, 0.0, eps, g)
    elif kind == "cat":
        psi = WaveFunction.normalized(coherent_state(-1.0, 0.3, eps, g).values
                                      + coherent_state(1.0, -0.3, eps, g).values,
                                      eps, g)
    else:
        psi = coherent_state(3.1, 0.9, eps, g)
    got = _wigner_values([(1.0, psi.values)], g.dx, eps)
    ref = _full_correlation_wigner(psi.values, g.dx, eps)
    if kind == "cat":
        assert ref.min() < -0.1 * ref.max()  # negative fringes
    assert got.dtype == np.float64
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_wigner_memory_is_output_plus_one_block():
    # row blocks: no (N, N+1) gathers or fftshift copy beside the output
    g = build_position_grid(1024, -8.0, 8.0)
    psi = coherent_state(0.5, 0.2, 0.05, g)
    tracemalloc.start()
    try:
        W = wigner(psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ratio = peak / W.values.nbytes
    assert ratio <= 1.25, ratio


def test_wigner_position_reflection(grid):
    eps = 0.05
    psi = coherent_state(0.9, 0.6, eps, grid)
    refl = WaveFunction(values=psi.values[::-1].copy(), eps=eps,
                        grid=grid)  # x -> -x up to one-cell offset
    W = wigner(psi)
    Wr = wigner(refl)
    # compare at mirrored centers: argmax positions negate
    ix, ip = np.unravel_index(np.argmax(W.values), W.values.shape)
    jx, jp = np.unravel_index(np.argmax(Wr.values), Wr.values.shape)
    assert abs(W.grid.x[ix] + Wr.grid.x[jx]) <= 2 * grid.dx
    assert abs(W.grid.p[ip] + Wr.grid.p[jp]) <= 2 * W.grid.p_grid.dx


def test_wigner_cat_interference(grid):
    eps, a = 0.05, 1.0
    plus = coherent_state(-a, 0.0, eps, grid)
    minus = coherent_state(a, 0.0, eps, grid)
    cat = WaveFunction.normalized(plus.values + minus.values, eps, grid)
    W = wigner(cat)
    mid = np.argmin(np.abs(W.grid.x))
    fringe = W.values[mid, :]
    assert fringe.min() < -0.1 * fringe.max()  # genuinely negative fringes
    # fringe oscillation in p has frequency 2a/eps: zeros spaced pi*eps/(2a)
    p = W.grid.p
    expect = np.cos(2.0 * a * p / eps)
    corr = np.corrcoef(fringe, expect * np.exp(-p**2 / eps))[0, 1]
    assert corr > 0.99


def test_wigner_mass_and_marginal_corpus(corpus):
    for label, psi in corpus:
        W = wigner(psi)
        assert W.total_mass == pytest.approx(1.0, abs=1e-8), label
        xm = W.values.sum(axis=1) * W.grid.p_grid.dx
        err = float(np.sum(np.abs(xm - psi.density())) * psi.grid.dx)
        assert err < 1e-8, label


def test_wigner_momentum_marginal_gaussian(grid):
    eps, p0 = 0.1, 0.5
    W = wigner(coherent_state(0.0, p0, eps, grid))
    pm = W.values.sum(axis=0) * W.grid.x_grid.dx
    p = W.grid.p
    expect = np.exp(-((p - p0) ** 2) / eps) / np.sqrt(np.pi * eps)
    assert float(np.sum(np.abs(pm - expect)) * W.grid.p_grid.dx) < 1e-8


def test_wigner_l2_norm_coherent(grid):
    for eps in (0.05, 0.1):
        W = wigner(coherent_state(0.3, 0.2, eps, grid))
        assert l2_norm(W) ** 2 == pytest.approx(1.0 / (2 * np.pi * eps), rel=1e-8)


@pytest.mark.parametrize("n", [256, 1000, 1024])
def test_one_member_ensemble_is_the_state(n):
    g = build_position_grid(n, -8.0, 8.0)
    psi = coherent_state(0.4, -0.3, 0.1, g)
    ens = DensityEnsemble(members=((1.0, psi),), eps=0.1)
    assert np.array_equal(wigner(ens).values, wigner(psi).values)


def _four_members(g, eps):
    cat = WaveFunction.normalized(coherent_state(-1.0, 0.3, eps, g).values
                                  + coherent_state(1.0, -0.3, eps, g).values,
                                  eps, g)
    return ((0.1, coherent_state(0.0, 0.0, eps, g)), (0.2, cat),
            (0.3, coherent_state(3.1, 0.9, eps, g)),
            (0.4, coherent_state(-2.0, -1.2, eps, g)))


# 1000: a partial last row block
@pytest.mark.parametrize("n", [1000, 1024])
def test_wigner_of_ensemble_is_convex(n):
    g = build_position_grid(n, -8.0, 8.0)
    eps = 0.1
    members = _four_members(g, eps)
    W = wigner(DensityEnsemble(members=members, eps=eps))
    expect = sum(w * wigner(m).values for w, m in members)
    assert expect.min() < 0  # the cat's fringes survive the mixture
    assert np.max(np.abs(W.values - expect)) <= 1e-14 * np.max(np.abs(expect))
    assert W.total_mass == pytest.approx(1.0, abs=1e-8)


def test_ensemble_wigner_memory_is_output_members_and_blocks():
    # the members share one output: no (N, 2N) transform per member
    g = build_position_grid(1024, -8.0, 8.0)
    ens = DensityEnsemble(members=_four_members(g, 0.1), eps=0.1)
    tracemalloc.start()
    try:
        W = wigner(ens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pads = len(ens.members) * 4 * 1024 * 16  # zero-padded half-step samples
    block = 64 * 1025 * 16  # one (64, N+1) complex correlation block
    # the block sum and one member's term, plus a block of slack
    assert peak <= W.values.nbytes + pads + 3 * block, peak


# ----------------------------------------------------------------- husimi


def test_husimi_coherent_sup(grid):
    # smoothing at time eps: variance eps/2 + 2 eps per axis, sup = 1/(5 pi eps)
    for eps in (0.05, 0.1, 0.2):
        W = wigner(coherent_state(0.5, 0.0, eps, grid))
        H = husimi(W, eps)
        assert sup_norm(H) * eps == pytest.approx(1.0 / (5.0 * np.pi), rel=1e-4)


def test_husimi_coherent_closed_form(grid):
    eps = 0.1
    W = wigner(coherent_state(-0.3, 0.4, eps, grid))
    H = husimi(W, eps)
    expect = _gauss2(W.grid, -0.3, 0.4, 2.5 * eps)
    assert np.max(np.abs(H.values - expect)) < 1e-8 / eps


def test_husimi_positivity_and_bound_corpus(corpus):
    for label, psi in corpus:
        H = husimi(wigner(psi), psi.eps)
        assert H.values.min() >= -1e-9, label
        assert sup_norm(H) < 1.0 / psi.eps, label  # strict


def test_husimi_cat_fringe_suppression(grid):
    eps, a = 0.05, 1.0
    plus = coherent_state(-a, 0.0, eps, grid)
    minus = coherent_state(a, 0.0, eps, grid)
    cat = WaveFunction.normalized(plus.values + minus.values, eps, grid)
    W = wigner(cat)
    mid = np.argmin(np.abs(W.grid.x))
    # strong fringes before smoothing, O(1/(pi eps)) in magnitude
    assert sup_norm(W) > 1.0 and W.values[mid, :].min() < -1.0
    # heat at time eps damps the eta = 2a/eps fringe by exp(-4a^2/eps);
    # the cat husimi then agrees with the incoherent mixture's husimi
    Hcat = husimi(W, eps)
    mix = DensityEnsemble(members=((0.5, plus), (0.5, minus)), eps=eps)
    Hmix = husimi(wigner(mix), eps)
    diff = float(np.max(np.abs(Hcat.values - Hmix.values)))
    assert diff < 1e-5 * float(Hcat.values.max())


def test_husimi_matches_the_complex_transform(grid):
    # the real transform pair against the full complex one
    eps = 0.1
    W = wigner(coherent_state(-0.3, 0.4, eps, grid))
    gx, gp = W.grid.x_grid, W.grid.p_grid
    mult = np.exp(-eps * gx.k ** 2)[:, None] * np.exp(-eps * gp.k ** 2)[None, :]
    want = sfft.ifft2(sfft.fft2(W.values) * mult).real
    assert np.max(np.abs(husimi(W, eps).values - want)) <= 1e-12 * np.max(np.abs(want))


def test_husimi_zero_density(grid):
    pg = build_wigner_grid(grid, 0.05)
    Z = GridDensity(values=np.zeros(pg.shape), grid=pg, tag="wigner")
    assert np.max(np.abs(husimi(Z, 0.05).values)) == 0.0


def test_husimi_mass_preserved(corpus):
    for label, psi in corpus[:6]:
        W = wigner(psi)
        assert husimi(W, psi.eps).total_mass == pytest.approx(W.total_mass, abs=1e-8), label


# ------------------------------------------------------------ grid duality


def test_build_wigner_grid_spacing():
    g = build_position_grid(256, -8.0, 8.0)  # x-extent 16
    pg = build_wigner_grid(g, 0.1)
    assert pg.p_grid.dx == pytest.approx(2.0 * np.pi * 0.1 / 32.0)
    assert pg.p_grid.n_points == 512
    # doubling eps doubles both the spacing and the window
    pg2 = build_wigner_grid(g, 0.2)
    assert pg2.p_grid.dx == pytest.approx(2 * pg.p_grid.dx)
    assert pg2.p_grid.x_max == pytest.approx(2 * pg.p_grid.x_max)


def test_build_wigner_grid_rejects_bad_eps():
    g = build_position_grid(64, -4.0, 4.0)
    with pytest.raises(ConfigurationError):
        build_wigner_grid(g, 0.0)


# --------------------------------------------------------------- utilities


def test_upsample2_interpolates(grid):
    psi = coherent_state(0.4, 0.3, 0.05, grid)
    fine = upsample2(psi.values)
    assert fine.size == 2 * grid.n_points
    assert np.max(np.abs(fine[::2] - psi.values)) < 1e-10
    # matches the analytic state sampled on the doubled grid
    g2 = build_position_grid(2 * grid.n_points, grid.x_min, grid.x_max)
    target = coherent_state(0.4, 0.3, 0.05, g2)
    assert np.max(np.abs(fine - target.values)) < 1e-9


def test_restrict_p_window(grid):
    eps = 0.05
    W = wigner(coherent_state(0.0, 0.0, eps, grid))
    R = restrict_p(W, 2.0)
    assert R.grid.p_grid.x_max <= W.grid.p_grid.x_max
    # all mass of this state lives well inside the window
    assert R.total_mass == pytest.approx(1.0, abs=1e-8)
    assert R.grid.p_grid.n_points & (R.grid.p_grid.n_points - 1) == 0


def test_restrict_p_owns_its_window(grid):
    # the window is a copy: a view would keep the whole complex transform alive
    W = wigner(coherent_state(0.0, 0.0, 0.05, grid))
    R = restrict_p(W, 2.0)
    assert R.values.base is None
    lo = (W.grid.p_grid.n_points - R.grid.p_grid.n_points) // 2
    assert np.array_equal(R.values,
                          W.values[:, lo:lo + R.grid.p_grid.n_points])


@pytest.mark.parametrize("p_max", [-1.0, 0.0, np.inf, np.nan])
def test_restrict_p_refuses_bad_window(grid, p_max):
    # a non-positive window used to be floored to 4 cells per side
    W = wigner(coherent_state(0.0, 0.0, 0.05, grid))
    with pytest.raises(ConfigurationError, match="p_max"):
        restrict_p(W, p_max)
