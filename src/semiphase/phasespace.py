"""Discrete Wigner transform, Husimi smoothing, and phase-space densities.

The Wigner transform of a state on an N-point grid is built on the
doubled "half-step" lattice: psi is upsampled 2x spectrally so that
x +- z/2 lands on grid nodes by pure index arithmetic for correlation
offsets z = m*dx, m in [-N, N). No interpolation enters the kernel,
which keeps the x-marginal identity   dp * sum_p W(x, p) = |psi(x)|^2
exact to rounding. The correlation is Hermitian in m, so only its half
m = 0 .. N is built and a real inverse FFT returns W: realness holds
by construction. A mixture sum_j w_j |psi_j><psi_j| sums its weighted
member correlations before that one FFT, so states and ensembles share
one transform. The momentum axis is the eps-scaled dual grid:

    p_l = l * dp,  dp = 2*pi*eps / (2*L),  l in [-N, N).

Two density representations coexist: grid functions (possibly signed,
for Wigner) and atomic measures (the weak-* limit objects). Atomic
measures are the one phase-space point-set type: initial data, their
coherent-mixture centers and classically transported clouds are all
atomic measures. The two representations only meet inside the weak
metric; atoms are never rasterized implicitly.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (ConfigurationError, NumericsError, RepresentationError,
                     SemiphaseWarning, ShapeMismatchError)
from .grids import PhaseGrid, PositionGrid, build_position_grid
from .quantum import DensityEnsemble, WaveFunction

__all__ = [
    "GridDensity",
    "AtomicMeasure",
    "build_wigner_grid",
    "wigner",
    "husimi",
    "sup_norm",
    "l2_norm",
    "restrict_p",
    "upsample2",
]


@dataclass(frozen=True)
class GridDensity:
    """Real function on a PhaseGrid; signed unless tagged 'husimi'."""

    values: np.ndarray = field(repr=False, compare=False)
    grid: PhaseGrid
    tag: str = "generic"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise ShapeMismatchError(
                f"density shape {v.shape} != grid shape {self.grid.shape}")
        if self.tag == "husimi" and float(v.min()) < -1e-9:
            raise NumericsError(
                f"husimi-tagged density has min {v.min():.3e} < -1e-9")
        object.__setattr__(self, "values", v)

    @property
    def total_mass(self) -> float:
        return float(self.grid.cell_area * self.values.sum())


@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """Finite positive combination of Dirac masses on phase space.

    atoms is a read-only float (M, 3) array of (mass, x, p) rows, built
    from any sequence of such triples or from an (M, 3) array. Equality
    is identity: compare the atoms arrays for values.
    """

    atoms: np.ndarray

    def __post_init__(self):
        # column-contiguous, so masses/xs/ps are contiguous views
        atoms = np.array(self.atoms, dtype=np.float64, order="F")
        if atoms.size == 0:
            raise ConfigurationError("atomic measure needs at least one atom")
        if atoms.ndim != 2 or atoms.shape[1] != 3:
            raise ShapeMismatchError(
                f"atoms must be (mass, x, p) rows, got shape {atoms.shape}")
        if not np.all(atoms[:, 0] > 0):
            raise ConfigurationError("atom masses must be positive")
        if not np.all(np.isfinite(atoms)):
            raise ConfigurationError("atoms must be finite")
        atoms.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)

    @property
    def masses(self) -> np.ndarray:
        return self.atoms[:, 0]

    @property
    def xs(self) -> np.ndarray:
        return self.atoms[:, 1]

    @property
    def ps(self) -> np.ndarray:
        return self.atoms[:, 2]

    @property
    def total_mass(self) -> float:
        # left to right: numpy's pairwise sum rounds differently
        return float(sum(self.masses.tolist()))

    def __len__(self) -> int:
        return len(self.atoms)


def build_wigner_grid(x_grid: PositionGrid, eps: float) -> PhaseGrid:
    """Phase grid whose p-axis is the eps-scaled dual of the doubled x-grid."""
    if eps <= 0:
        raise ConfigurationError(f"eps must be > 0, got {eps}")
    n = x_grid.n_points
    dp = 2.0 * np.pi * eps / (2.0 * x_grid.length)
    p_grid = build_position_grid(2 * n, -n * dp, n * dp)
    return PhaseGrid(x_grid=x_grid, p_grid=p_grid)


def upsample2(psi: np.ndarray) -> np.ndarray:
    """Trigonometric interpolation onto the half-step lattice (2N points).

    The Nyquist bin is split evenly between +-N/2 frequencies so real
    inputs stay real and the refined samples interpolate the originals.
    """
    n = psi.size
    spec = np.fft.fft(psi)
    h = n // 2
    fine = np.zeros(2 * n, dtype=np.complex128)
    fine[:h] = spec[:h]
    fine[h] = 0.5 * spec[h]
    fine[2 * n - h] = 0.5 * spec[h]
    fine[2 * n - h + 1:] = spec[h + 1:]
    return 2.0 * np.fft.ifft(fine)


def _support_checks(state: WaveFunction) -> None:
    grid = state.grid
    prob = state.density()
    edge = grid.dx * float(prob[:3].sum() + prob[-3:].sum())
    if edge > 1e-10:
        warnings.warn(f"boundary wrap: edge probability {edge:.2e}", SemiphaseWarning)
    spec = np.abs(np.fft.fft(state.values)) ** 2
    total = spec.sum()
    hot = spec[np.abs(grid.k) >= 0.875 * np.abs(grid.k).max()].sum()
    if total > 0 and hot / total > 1e-10:
        raise ConfigurationError(
            "momentum window fails to contain the state (spectral mass "
            f"{hot / total:.2e} near Nyquist); refine the grid or increase eps")


# x-rows per block of the Wigner kernel: one (64, N+1) correlation block
# and its irfft stay in cache
_WIGNER_ROWS = 64


def _wigner_values(members, dx: float, eps: float) -> np.ndarray:
    """sum_j w_j W_j on the (N, 2N) phase grid, in blocks of _WIGNER_ROWS x-rows.

    members are (w_j, samples) pairs; each member's zero-padded half-step
    samples carry sqrt(w_j). Row i correlates pad[n+2i+m] with
    pad[n+2i-m] for m = 0 .. N, read as strided windows: rows n+2i, and
    rows 2i reversed. A block sums the members' correlations in one
    reused (64, N+1) buffer and takes one irfft straight into its rows of
    the output. The sign row (-1)^m centres the p-axis in place of an
    fftshift, and zeroes the unpaired Nyquist offset.
    """
    n = members[0][1].size
    views = []
    for weight, psi in members:
        pad = np.zeros(4 * n, dtype=np.complex128)
        pad[n:3 * n] = upsample2(psi)
        pad *= np.sqrt(weight)  # exact for the weight 1 of a pure state
        win = sliding_window_view(pad, n + 1)
        # corr(i, -m) = conj(corr(i, m)): offsets m = 0 .. N carry it all
        views.append((win[n:3 * n:2], win[0:2 * n:2, ::-1]))
    sign = np.where(np.arange(n + 1) % 2 == 0, 1.0, -1.0)
    sign[n] = 0.0  # the Nyquist offset +-N has no pair; drop it
    scale = dx * 2 * n / (2.0 * np.pi * eps)
    out = np.empty((n, 2 * n))
    buf = np.empty((min(n, _WIGNER_ROWS), n + 1), dtype=np.complex128)
    term = np.empty_like(buf) if len(views) > 1 else None
    (first_ahead, first_behind), *rest = views
    for lo in range(0, n, _WIGNER_ROWS):
        hi = min(lo + _WIGNER_ROWS, n)
        corr = np.conj(first_ahead[lo:hi], out=buf[:hi - lo])
        corr *= first_behind[lo:hi]
        for ahead, behind in rest:
            t = np.conj(ahead[lo:hi], out=term[:hi - lo])
            t *= behind[lo:hi]
            corr += t
        corr *= sign
        # irfft writes straight into the output rows (out=)
        w = np.fft.irfft(corr, n=2 * n, axis=1, out=out[lo:hi])
        w *= scale
    return out


def wigner(state: WaveFunction | DensityEnsemble) -> GridDensity:
    """Wigner transform of a WaveFunction or a DensityEnsemble.

    A state is the one-member, weight-1 ensemble. Any ensemble costs one
    (N, 2N) output plus its padded members and at most two row blocks.
    """
    members = (state.members if isinstance(state, DensityEnsemble)
               else ((1.0, state),))
    for _, member in members:
        _support_checks(member)
    values = _wigner_values([(w, m.values) for w, m in members],
                            state.grid.dx, state.eps)
    return GridDensity(values, build_wigner_grid(state.grid, state.eps), tag="wigner")


def husimi(density: GridDensity, eps: float) -> GridDensity:
    """Heat semigroup at time eps on phase space (variance 2*eps per axis)."""
    if not isinstance(density, GridDensity):
        raise RepresentationError("husimi needs a grid density")
    if eps <= 0:
        raise ConfigurationError(f"eps must be > 0, got {eps}")
    gx, gp = density.grid.x_grid, density.grid.p_grid
    # the real transform's half spectrum: p-wavenumbers 0 .. Nyquist
    mult = (np.exp(-eps * gx.k ** 2)[:, None]
            * np.exp(-eps * gp.k[:gp.n_points // 2 + 1] ** 2)[None, :])
    smoothed = np.fft.irfft2(np.fft.rfft2(density.values) * mult, s=density.values.shape)
    return GridDensity(smoothed, density.grid, tag="husimi")


def _require_grid(density, op: str) -> GridDensity:
    if not isinstance(density, GridDensity):
        raise RepresentationError(
            f"{op} is undefined for atomic measures (no density)")
    return density


def sup_norm(density: GridDensity) -> float:
    density = _require_grid(density, "sup_norm")
    return float(np.abs(density.values).max())


def l2_norm(density: GridDensity) -> float:
    density = _require_grid(density, "l2_norm")
    return float(np.sqrt(density.grid.cell_area * np.sum(density.values ** 2)))


def restrict_p(density: GridDensity, p_max: float) -> GridDensity:
    """Symmetric momentum window of 2^k cells per side (for L2 comparisons).

    2^k is the largest power of two <= p_max/dp (at least 4), so the
    half-width lies in (p_max/2, p_max]: p_max = 4 keeps |p| <= 2.51 on
    the L2MollifiedRate grids. The full Wigner p-axis scales with eps,
    so fixed-window comparisons across an eps ladder need a common
    restriction. p_max must be finite and > 0.
    """
    density = _require_grid(density, "restrict_p")
    if not 0 < p_max < np.inf:
        raise ConfigurationError(f"p_max must be finite and > 0, got {p_max}")
    pg = density.grid.p_grid
    dp = pg.dx
    half = int(2 ** np.floor(np.log2(max(p_max / dp, 4.0))))
    n = pg.n_points
    izero = int(np.argmin(np.abs(pg.nodes)))
    lo, hi = izero - half, izero + half
    if lo < 0 or hi > n:
        raise ConfigurationError(
            f"p-window {p_max} exceeds the grid extent {pg.x_max}")
    sub = build_position_grid(2 * half, -half * dp, half * dp)
    # a copy: a slice would keep the whole transform alive
    return GridDensity(density.values[:, lo:hi].copy(),
                       PhaseGrid(density.grid.x_grid, sub),
                       tag=density.tag)
