"""Wigner transform: closed-form Gaussians, symmetries, bounds."""

import tracemalloc

import numpy as np
import pytest
import scipy.fft as sfft
from conftest import unit_state

from semiphase import (
    ConfigurationError,
    SemiphaseWarning,
    WaveFunction,
    build_position_grid,
    coherent_state,
)
from semiphase.phasespace import _wigner_rows, build_wigner_grid, upsample2, wigner


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
        psi = unit_state(coherent_state(-1.0, 0.3, eps, g).values
                         + coherent_state(1.0, -0.3, eps, g).values, eps, g)
    else:
        psi = coherent_state(3.1, 0.9, eps, g)
    got = wigner(psi).values
    ref = _full_correlation_wigner(psi.values, g.dx, eps)
    if kind == "cat":
        assert ref.min() < -0.1 * ref.max()  # negative fringes
    assert got.dtype == np.float64
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("p_max", [None, 2.0])
def test_wigner_row_blocks_stack_to_the_transform(p_max):
    # 7 rows per block: 1000 rows end on a partial block; each yielded
    # block is scratch, so it is copied before the next one is drawn
    g = build_position_grid(1000, -8.0, 8.0)
    psi = coherent_state(0.4, -0.3, 0.05, g)
    want = wigner(psi, p_max)
    starts, blocks = [], []
    for lo, block in _wigner_rows(psi, want.grid, 7):
        starts.append(lo)
        blocks.append(block.copy())
    assert starts == list(range(0, 1000, 7)) and len(blocks[-1]) == 1000 % 7
    assert np.array_equal(np.concatenate(blocks), want.values)


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


def test_window_wigner_memory_is_window_plus_one_block():
    # no (N, 2N) array: the window output, one (64, 2N) irfft buffer, one
    # (64, N+1) correlation block and the zero-padded half-step samples,
    # plus 256 KiB for numpy's ufunc buffers and pocketfft's scratch
    # (up to 180 kB measured per call)
    n = 1024
    g = build_position_grid(n, -8.0, 8.0)
    psi = coherent_state(0.5, 0.2, 0.05, g)
    tracemalloc.start()
    try:
        W = wigner(psi, 2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert W.values.shape[1] <= n // 4  # a window much narrower than 2N
    bound = (W.values.nbytes + 64 * 2 * n * 8 + 64 * (n + 1) * 16 + 4 * n * 16
             + 256 * 1024)
    assert peak <= bound, (peak, bound)


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
    cat = unit_state(plus.values + minus.values, eps, grid)
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
        err = float(np.sum(np.abs(xm - np.abs(psi.values) ** 2)) * psi.grid.dx)
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
        norm2 = W.grid.cell_area * np.sum(W.values ** 2)
        assert norm2 == pytest.approx(1.0 / (2 * np.pi * eps), rel=1e-8)


def test_support_checks_warn_per_row_and_refuse_a_hot_row(grid):
    # each state with edge probability past 1e-10 warns once, a state well
    # inside not at all; a state with spectral mass near Nyquist is refused
    x, eps = grid.nodes, 0.1
    # smooth across the periodic seam at x = +-8, where both sit
    near_edge = [unit_state(np.exp(-a * (x - 8.0) ** 2) + np.exp(-a * (x + 8.0) ** 2),
                            eps, grid) for a in (1.0, 2.0)]
    inside = coherent_state(0.0, 0.0, eps, grid)
    with pytest.warns(SemiphaseWarning, match="boundary wrap") as caught:
        for state in (near_edge[0], inside, near_edge[1]):
            wigner(state)
    assert len(caught) == 2
    hot = unit_state(np.exp(-x ** 2 + 0.95j * np.pi * x / grid.dx), eps, grid)
    with pytest.raises(ConfigurationError, match="near Nyquist"):
        wigner(hot)


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


def test_upsample2_block_matches_its_rows(grid):
    # the windows double their k-growing rows as one (M, N) block
    rows = np.stack([coherent_state(x0, p0, 0.05, grid).values
                     for x0, p0 in [(-0.6, 0.2), (0.0, 0.0), (0.4, -0.3)]])
    fine = upsample2(rows)
    assert fine.shape == (3, 2 * grid.n_points)
    assert np.array_equal(fine, np.stack([upsample2(r) for r in rows]))


# -------------------------------- p window: wigner(state, p_max), build_wigner_grid


def test_restrict_p_window(grid):
    eps, p_max = 0.05, 2.0
    W = wigner(coherent_state(0.0, 0.0, eps, grid), p_max)
    assert W.grid == build_wigner_grid(grid, eps, p_max)
    half = W.grid.p_grid.n_points // 2
    assert half & (half - 1) == 0 and p_max / 2 < W.grid.p_grid.x_max <= p_max
    # all mass of this state lives well inside the window
    assert W.total_mass == pytest.approx(1.0, abs=1e-8)


def test_restrict_p_owns_its_window(grid):
    # the window is the full transform's centre columns, bit for bit, in an
    # array of its own; 6 is the whole axis
    eps = 0.05
    state = coherent_state(0.0, 0.0, eps, grid)
    full = wigner(state)
    for p_max, half in ((0.5, 32), (2.0, 128), (6.0, grid.n_points)):
        W = wigner(state, p_max)
        assert W.values.shape == (grid.n_points, 2 * half)
        assert W.values.base is None
        lo = grid.n_points - half
        assert np.array_equal(W.values, full.values[:, lo:lo + 2 * half])
        assert np.allclose(W.grid.p, full.grid.p[lo:lo + 2 * half], rtol=0, atol=1e-12)


@pytest.mark.parametrize("p_max", [-1.0, 0.0, np.inf, np.nan])
def test_wigner_window_refuses_bad_p_max(grid, p_max):
    # a non-positive window used to be floored to 4 cells per side
    with pytest.raises(ConfigurationError, match="p_max"):
        build_wigner_grid(grid, 0.05, p_max)
    with pytest.raises(ConfigurationError, match="p_max"):
        wigner(coherent_state(0.0, 0.0, 0.05, grid), p_max)


def test_wigner_window_refuses_a_window_wider_than_the_transform(grid):
    # eps = 0.05 on 512 points over 16: the full axis reaches |p| = 5.03
    with pytest.raises(ConfigurationError, match="exceeds the grid extent"):
        build_wigner_grid(grid, 0.05, 20.0)
