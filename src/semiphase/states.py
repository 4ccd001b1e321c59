"""Initial-state families: coherent packets, slowly-concentrating Wigner
data at log(1/eps) rates, and seeded random families.

The concentrating family realizes the phase-space datum

    W0(x, k) = lam^{a_mass} w(lam^{a_x} x, lam^{a_k} k),  lam = log(1/eps),

with a_mass = (7+3 theta)/30, a_x = (1+theta)/6, a_k = (1-theta)/15
(a_mass = a_x + a_k exactly, so mass is scale-invariant). The bump w is
normalized to unit mass so the datum matches a trace-one ensemble. The
datum is realized as a deterministic coherent-state lattice mixture;
the lattice is mirror-symmetric by construction so even profiles give
exactly balanced left/right weights.

Every point-set datum (the lattice, random_family's seeded draw about
the origin) is an AtomicMeasure. coherent_rows makes the coherent states
of many centres as one (M, N) row block: the experiments' co-moving
windows take one per window grid, and coherent_mixture pairs one with the
atoms' masses as a DensityEnsemble. check_epsn_operator_bound needs no grid.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericsError
from .grids import PhaseGrid, PositionGrid, quadrature
from .phasespace import AtomicMeasure
from .quantum import DensityEnsemble, WaveFunction

__all__ = [
    "ConcentratingProfile",
    "RealizedConcentration",
    "scaling_exponents",
    "coherent_rows",
    "coherent_state",
    "coherent_mixture",
    "concentration_lattice",
    "concentrating_wigner_data",
    "random_family",
    "check_epsn_operator_bound",
]


def scaling_exponents(theta):
    """(a_mass, a_x, a_k); exact when called with Fraction arguments."""
    a_mass = (7 + 3 * theta) / 30
    a_x = (1 + theta) / 6
    a_k = (1 - theta) / 15
    return a_mass, a_x, a_k


def _coherent_margin(eps: float) -> float:
    return 6.0 * np.sqrt(eps / 2.0)  # 6 sigma, sigma = sqrt(eps/2)


def _window_points(p_max: float, eps: float, length: float) -> float:
    """Grid size N whose momentum window +- pi*eps/dx (dx = length/N)
    holds a coherent state centred at |p| = p_max, margin included."""
    return (p_max + _coherent_margin(eps)) * length / (np.pi * eps)


def coherent_rows(x0, p0, eps: float, grid: PositionGrid) -> np.ndarray:
    """Gaussian packets (pi eps)^{-1/4} exp(-(x-x0)^2/(2 eps) + i p0 x / eps),
    one per centre, each normalized by dx * sum |psi|^2: shape x0.shape + (N,).

    Every position and momentum centre must sit at least 6 sigma
    (sigma = sqrt(eps/2)) inside the respective windows, so a NaN centre is
    refused; the momentum window of the grid is +- pi*eps/dx (_window_points).
    """
    if eps <= 0:
        raise ConfigurationError(f"eps must be > 0, got {eps}")
    x0, p0 = np.asarray(x0, dtype=np.float64), np.asarray(p0, dtype=np.float64)
    margin = _coherent_margin(eps)
    if np.any(bad := ~((x0 - margin >= grid.x_min) & (x0 + margin <= grid.x_max))):
        raise ConfigurationError(
            f"center x0={x0[bad].flat[0]} within {margin:.3g} of the grid boundary")
    need = _window_points(np.abs(p0), eps, grid.length)
    if np.any(bad := ~(need <= grid.n_points)):
        raise ConfigurationError(f"momentum center p0={p0[bad].flat[0]} needs "
                                 f"{need[bad].flat[0]:.0f} grid points, have {grid.n_points}")
    x, x0, p0 = grid.nodes, x0[..., None], p0[..., None]
    psi = (np.pi * eps) ** -0.25 * np.exp(
        -(x - x0) ** 2 / (2.0 * eps) + 1j * p0 * x / eps)
    return psi / np.sqrt(quadrature(np.abs(psi) ** 2, grid))[..., None]


def coherent_state(x0: float, p0: float, eps: float, grid: PositionGrid) -> WaveFunction:
    """The coherent_rows packet at (x0, p0) as a WaveFunction."""
    return WaveFunction(coherent_rows(x0, p0, eps, grid), eps, grid)


def coherent_mixture(atoms: AtomicMeasure, eps: float, grid: PositionGrid) -> DensityEnsemble:
    """Coherent states at the atoms, weighted by their masses, in atom order.

    The masses must sum to 1 (DensityEnsemble checks it).
    """
    return DensityEnsemble(coherent_rows(atoms.xs, atoms.ps, eps, grid),
                           atoms.masses, eps, grid)


_N_QUAD = 384  # bump quadrature points per axis


@dataclass(frozen=True)
class ConcentratingProfile:
    """Smooth bump profile for the concentrating Wigner family.

    w lives in the scaled frame (u, v) and is supported on an ellipse of
    radii (radius_u, radius_v) about ``center``, strictly inside the unit
    disk. The closed form is exp(1 - 1/(1 - s)) with the elliptical
    radial coordinate s, normalized to unit mass by quadrature.
    """

    theta: float
    center: tuple = (0.0, 0.0)
    radius_u: float = 0.8
    radius_v: float = 0.8
    _norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.theta < 1.0):
            raise ConfigurationError(f"theta must be in (0,1), got {self.theta}")
        u0, v0 = self.center
        if np.hypot(u0, v0) + max(self.radius_u, self.radius_v) >= 1.0:
            raise ConfigurationError(
                "bump support must stay strictly inside the unit disk")
        object.__setattr__(self, "_norm", 1.0)
        uu, vv, du, dv = self._quad_lattice()
        raw = float(np.sum(self.w(uu, vv)) * du * dv)
        if raw <= 0:
            raise NumericsError("bump normalization quadrature came out zero")
        object.__setattr__(self, "_norm", 1.0 / raw)

    def _quad_lattice(self):
        n = _N_QUAD
        u0, v0 = self.center
        us = u0 + np.linspace(-self.radius_u, self.radius_u, n)
        vs = v0 + np.linspace(-self.radius_v, self.radius_v, n)
        return us[:, None], vs[None, :], us[1] - us[0], vs[1] - vs[0]

    def w(self, u, v) -> np.ndarray:
        """Bump values; C-infinity, zero outside the support ellipse."""
        u0, v0 = self.center
        s = ((np.asarray(u, dtype=np.float64) - u0) / self.radius_u) ** 2 \
            + ((np.asarray(v, dtype=np.float64) - v0) / self.radius_v) ** 2
        inside = s < 1.0 - 1e-12
        safe = np.where(inside, s, 0.0)
        return self._norm * np.where(inside, np.exp(1.0 - 1.0 / (1.0 - safe)), 0.0)

    def lam(self, eps: float) -> float:
        if not (0.0 < eps < 1.0):
            raise ConfigurationError(f"eps must be in (0,1), got {eps}")
        return float(np.log(1.0 / eps))

    @property
    def exponents(self) -> tuple[float, float, float]:
        return scaling_exponents(self.theta)

    def resolution(self, eps: float) -> tuple[float, float]:
        """The (dx, dp) to stay below: 16 nodes per concentrated width."""
        lam = self.lam(eps)
        _, a_x, a_k = self.exponents
        return lam ** (-a_x) / 16.0, lam ** (-a_k) / 16.0

    def half_masses(self) -> tuple[float, float]:
        """(c_plus, c_minus) = integral of w over u > 0 / u < 0."""
        uu, vv, du, dv = self._quad_lattice()
        w = self.w(uu, vv)
        cell = du * dv
        right = float(np.sum(w[uu[:, 0] > 0, :]) * cell)
        left = float(np.sum(w[uu[:, 0] < 0, :]) * cell)
        total = float(np.sum(w) * cell)
        # nodes exactly at u = 0 (symmetric profiles) split evenly
        rest = total - right - left
        return right + 0.5 * rest, left + 0.5 * rest


@dataclass(frozen=True)
class RealizedConcentration:
    """How well a coherent lattice realizes the concentrating datum.

    target_mass is the phase-grid quadrature of the target raster, l2_gap
    the L2 distance between the lattice mixture's Wigner function and the
    target, lam = log(1/eps).
    """

    target_mass: float
    l2_gap: float
    lam: float


def _lattice_points(radius: float, n_side: int) -> np.ndarray:
    # offsets symmetric to the bit: R * (-h..h) / h
    h = (n_side - 1) // 2
    return radius * np.arange(-h, h + 1, dtype=np.float64) / h


def concentration_lattice(profile: ConcentratingProfile, eps: float,
                          n_side: int = 21) -> AtomicMeasure:
    """Atoms of the realizing coherent lattice, masses summing to 1.

    Positions and momenta are in physical units; mirror-image lattice
    points come out as exact floating-point negations of each other.
    """
    lam = profile.lam(eps)
    a_mass, a_x, a_k = profile.exponents
    u0, v0 = profile.center
    us = u0 + _lattice_points(profile.radius_u, n_side)
    vs = v0 + _lattice_points(profile.radius_v, n_side)
    wgt = profile.w(us[:, None], vs[None, :])
    keep = wgt > 1e-12 * wgt.max()
    weights = wgt[keep]
    weights = weights / weights.sum()
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    return AtomicMeasure(np.stack([weights, uu[keep] * lam ** (-a_x),
                                   vv[keep] * lam ** (-a_k)], axis=1))


# x-grid rows per block of the target raster: a 64 x 512 block is 256 KiB
_TARGET_ROWS = 64


def concentrating_wigner_data(profile: ConcentratingProfile, eps: float,
                              phase_grid: PhaseGrid,
                              lattice: AtomicMeasure) -> RealizedConcentration:
    """Rasterize the scaled bump on phase_grid and measure its realization.

    lattice is concentration_lattice(profile, eps). The reported l2_gap
    is the exact L2 distance between the lattice's coherent mixture's
    Wigner function (a sum of width-sqrt(eps) Gaussians) and the target,
    computed in closed form; it is large by design at small eps, where
    the two agree weakly but not in L2.
    """
    lam = profile.lam(eps)
    a_mass, a_x, a_k = profile.exponents
    sx = lam ** a_x
    sk = lam ** a_k
    dx_need, dp_need = profile.resolution(eps)
    gx, gp = phase_grid.x_grid, phase_grid.p_grid
    if gx.dx >= dx_need or gp.dx >= dp_need:
        raise ConfigurationError(
            f"grid does not resolve the concentrated scales: need dx < "
            f"{dx_need:.3g} (have {gx.dx:.3g}) and dp < {dp_need:.3g} "
            f"(have {gp.dx:.3g})")

    # the raster lives only for its sum, so it is summed a block of rows
    # at a time and never built whole
    kp = sk * gp.nodes[None, :]
    raster_sum = 0.0
    for i in range(0, gx.n_points, _TARGET_ROWS):
        rows = sx * gx.nodes[i:i + _TARGET_ROWS, None]
        raster_sum += float(np.sum(profile.w(rows, kp)))
    target_mass = float(phase_grid.cell_area * lam ** a_mass * raster_sum)
    gap = _realization_gap(profile, lam, eps, lattice)
    return RealizedConcentration(target_mass=target_mass, l2_gap=gap, lam=lam)


def _realization_gap(profile: ConcentratingProfile, lam: float, eps: float,
                     lattice: AtomicMeasure) -> float:
    # ||W_ens - W_t||^2 = ||W_ens||^2 - 2 <W_ens, W_t> + ||W_t||^2, all closed
    # form / quadrature: coherent blobs are Gaussians of per-axis width eps/2,
    # <G_a, G_b> = exp(-|a-b|^2 / (2 eps)) / (2 pi eps).
    a_mass, a_x, a_k = profile.exponents
    weights, cx, cp = lattice.masses, lattice.xs, lattice.ps
    dz2 = (cx[:, None] - cx[None, :]) ** 2 + (cp[:, None] - cp[None, :]) ** 2
    norm_ens2 = float(weights @ (np.exp(-dz2 / (2 * eps)) / (2 * np.pi * eps)) @ weights)

    uu, vv, du, dv = profile._quad_lattice()
    wq = profile.w(uu, vv)
    xs = lam ** (-a_x) * uu[:, 0]
    ks = lam ** (-a_k) * vv[0, :]
    cross = 0.0
    for m in range(0, len(weights), 64):
        sl = slice(m, m + 64)
        ex = np.exp(-(cx[sl][:, None] - xs[None, :]) ** 2 / eps)
        ek = np.exp(-(cp[sl][:, None] - ks[None, :]) ** 2 / eps)
        blur = np.sum((ex @ wq) * ek, axis=1) * du * dv / (np.pi * eps)
        cross += float(weights[sl] @ blur)

    norm_t2 = float(lam ** a_mass * np.sum(wq ** 2) * du * dv)
    return float(np.sqrt(max(norm_ens2 - 2.0 * cross + norm_t2, 0.0)))


_LAWS = ("gaussian", "hardcore_gaussian")


def random_family(law: str, scale, m_samples: int, seed: int,
                  min_separation: float) -> AtomicMeasure:
    """m_samples seeded phase points about 0 as equal-mass atoms, in draw order.

    laws: 'gaussian' (per-axis sigmas scale) and 'hardcore_gaussian' (that
    gaussian thinned to pairwise separation >= min_separation, a hard-core
    point process; keeps small fixed-size families inside the eps^n
    operator-bound regime where iid clusters would break it). Candidates
    are drawn in the unscaled frame and scaled afterwards, and separation is
    measured in physical units. Refuses an unknown law, m_samples < 1, and
    a scale (or, for the hard core, min_separation) outside (0, inf),
    before any draw.
    """
    if law not in _LAWS:
        raise ConfigurationError(f"unknown sampling law {law!r}")
    if m_samples < 1:
        raise ConfigurationError(f"m_samples must be >= 1, got {m_samples}")
    sx, sp = scale
    if not (0 < sx < np.inf and 0 < sp < np.inf):
        raise ConfigurationError(f"scale must be finite and > 0, got {scale}")
    hard = law == "hardcore_gaussian"
    if hard and not 0 < min_separation < np.inf:
        raise ConfigurationError(
            f"min_separation must be finite and > 0, got {min_separation}")
    rng = np.random.default_rng(seed)
    pts = (_draw_hardcore(rng, m_samples, sx, sp, min_separation) if hard
           else rng.standard_normal((m_samples, 2)))
    return AtomicMeasure(np.column_stack([np.full(m_samples, 1.0 / m_samples),
                                          sx * pts[:, 0], sp * pts[:, 1]]))


def _draw_hardcore(rng: np.random.Generator, m_samples: int, sx: float, sp: float,
                   min_separation: float) -> np.ndarray:
    # sequential rejection in the unscaled frame; separation is
    # enforced in physical units
    kept: list = []
    for _ in range(10000 * m_samples):
        cand = rng.standard_normal(2)
        if all((sx * (cand[0] - q[0])) ** 2 + (sp * (cand[1] - q[1])) ** 2
               >= min_separation ** 2 for q in kept):
            kept.append(cand)
            if len(kept) == m_samples:
                return np.array(kept)
    raise ConfigurationError(
        f"could not place {m_samples} points with separation "
        f"{min_separation}; shrink min_separation or the family")


def check_epsn_operator_bound(atoms: AtomicMeasure, eps: float) -> float:
    """Top eigenvalue of sum_i w_i |psi_i><psi_i| divided by eps^n (n = 1),
    psi_i the coherent state at atom i and w_i its mass.

    The mixture satisfies the operator bound <= eps^n Id exactly when the
    returned ratio is <= 1. The rank-M operator is reduced exactly to the
    M x M matrix D^{1/2} G D^{1/2} (D the masses), whose spectrum it
    shares. G is the coherent states' Gram matrix in closed form, no grid:
    <psi_i|psi_j> = exp(-((x_i-x_j)^2 + (p_i-p_j)^2)/(4 eps) + i (p_j-p_i)(x_i+x_j)/(2 eps)).
    A dense hermitian eigensolve is robust to the near-degenerate top
    clusters that spread families produce.
    """
    x, p, root_w = atoms.xs, atoms.ps, np.sqrt(atoms.masses)
    dx, dp = x[None, :] - x[:, None], p[None, :] - p[:, None]
    gram = np.exp(-(dx ** 2 + dp ** 2) / (4.0 * eps) + 0.5j * dp * (x[:, None] + x) / eps)
    return float(np.linalg.eigvalsh(root_w[:, None] * gram * root_w)[-1]) / eps
