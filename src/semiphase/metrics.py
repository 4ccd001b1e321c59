"""Distances between phase-space measures and rate estimation.

The weak metric is a Fourier-weighted distance

    d(mu, nu) = sum |mu^hat - nu^hat| exp(-(xi^2+eta^2)/(2 sigma^2)) dxi deta

over a truncated uniform frequency grid. Any bounded metric inducing
the weak topology works for the limit statements; this one is cheap for
both grid densities (off-lattice DFT) and atomic measures (exponential
sums), and for quantum states it can bypass phase-space gridding
entirely via the ambiguity integral

    mu^hat(xi, eta) = int conj(psi(x + eps eta/2)) psi(x - eps eta/2) e^{-i xi x} dx,

which is the characteristic function of the Wigner measure. Heat-kernel
smoothing (the Husimi picture) is a pure multiplier in this dual
representation, so smoothed comparisons cost nothing extra.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft

from .errors import (ConfigurationError, NumericsError, RepresentationError,
                     ShapeMismatchError)
from .phasespace import AtomicMeasure, GridDensity
from .quantum import DensityEnsemble, WaveFunction

__all__ = [
    "WeakMetricConfig",
    "RateFit",
    "char_function",
    "char_distance",
    "weak_distance",
    "l2_distance",
    "fit_rate",
]


@dataclass(frozen=True)
class WeakMetricConfig:
    """Frequency truncation and Gaussian weight for the weak metric."""

    frequency_cutoff: float = 8.0
    gaussian_weight_sigma: float = 1.0
    n_nodes: int = 33
    xi: np.ndarray = field(init=False, repr=False, compare=False)
    eta: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.frequency_cutoff <= 0 or self.gaussian_weight_sigma <= 0:
            raise ConfigurationError("cutoff and sigma must be > 0")
        if self.n_nodes < 3 or self.n_nodes % 2 == 0:
            raise ConfigurationError("n_nodes must be odd and >= 3 (include 0)")
        nodes = np.linspace(-self.frequency_cutoff, self.frequency_cutoff,
                            self.n_nodes)
        object.__setattr__(self, "xi", nodes)
        object.__setattr__(self, "eta", nodes.copy())

    @property
    def dnode(self) -> float:
        return 2.0 * self.frequency_cutoff / (self.n_nodes - 1)

    def weight(self) -> np.ndarray:
        s2 = self.gaussian_weight_sigma ** 2
        return np.exp(-(self.xi[:, None] ** 2 + self.eta[None, :] ** 2) / (2 * s2))

    def weight_mass(self) -> float:
        return float(self.weight().sum() * self.dnode ** 2)


def _unit_powers(t, x) -> np.ndarray:
    """Rows exp(-1j * t_j * x), shape (len(t), len(x)).

    For uniformly spaced t the columns form a geometric sequence, so the
    matrix is built from two exp calls and repeated multiplication; this
    dominates the cost of characteristic functions on large grids.
    """
    t = np.asarray(t, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if t.size >= 3:
        d = np.diff(t)
        if np.allclose(d, d[0], rtol=1e-12, atol=0.0):
            out = np.empty((t.size, x.size), dtype=np.complex128)
            row = np.exp(-1j * t[0] * x)
            step = np.exp(-1j * float(d[0]) * x)
            for j in range(t.size):
                out[j] = row
                if j + 1 < t.size:
                    row = row * step
            return out
    return np.exp(-1j * np.outer(t, x))


def _char_atoms(meas: AtomicMeasure, xi, eta) -> np.ndarray:
    ex = _unit_powers(xi, meas.xs)
    ep = _unit_powers(eta, meas.ps)
    return ex @ (meas.masses[:, None] * ep.T)


def _char_grid(density: GridDensity, xi, eta) -> np.ndarray:
    gx, gp = density.grid.x_grid, density.grid.p_grid
    ex = _unit_powers(xi, gx.nodes)
    ep = _unit_powers(eta, gp.nodes)
    return (ex @ density.values @ ep.T) * density.grid.cell_area


def _char_wavefunction(state: WaveFunction, xi, eta) -> np.ndarray:
    grid = state.grid
    spec = sfft.fft(state.values)
    # spectral shifts psi(x +- eps*eta/2), all eta at once
    phases = _unit_powers(np.asarray(eta) * (state.eps / 2.0), grid.k)
    plus = sfft.ifft(spec[None, :] * phases, axis=1)
    minus = sfft.ifft(spec[None, :] * phases.conj(), axis=1)
    integrand = plus * minus.conj()
    kernel = _unit_powers(xi, grid.nodes)
    return (kernel @ integrand.T) * grid.dx


def char_function(obj, xi, eta, heat_time: float = 0.0) -> np.ndarray:
    """Characteristic function on the (xi, eta) tensor grid.

    Accepts atomic measures, grid densities, wavefunctions (Wigner
    measure, via the ambiguity integral) and density ensembles.
    heat_time > 0 multiplies by exp(-t(xi^2+eta^2)), i.e. compares the
    e^{t Laplacian}-smoothed measure; heat_time = eps is the Husimi.
    """
    xi = np.asarray(xi, dtype=np.float64)
    eta = np.asarray(eta, dtype=np.float64)
    if isinstance(obj, AtomicMeasure):
        chi = _char_atoms(obj, xi, eta)
    elif isinstance(obj, GridDensity):
        chi = _char_grid(obj, xi, eta)
    elif isinstance(obj, WaveFunction):
        chi = _char_wavefunction(obj, xi, eta)
    elif isinstance(obj, DensityEnsemble):
        chi = None
        for w, member in obj.members:
            c = _char_wavefunction(member, xi, eta)
            chi = w * c if chi is None else chi + w * c
    else:
        raise RepresentationError(f"no characteristic function for {type(obj)!r}")
    if heat_time > 0.0:
        chi = chi * _heat(xi, eta, heat_time)
    return chi


def _heat(xi, eta, heat_time: float) -> np.ndarray:
    # e^{t Laplacian} on phase space is this multiplier on the dual grid
    return np.exp(-heat_time * (xi[:, None] ** 2 + eta[None, :] ** 2))


def char_distance(chi_mu, chi_nu, cfg: WeakMetricConfig,
                  heat_time: float = 0.0) -> float:
    """Weighted sum |chi_mu - chi_nu| w dxi deta over cfg's frequency nodes.

    The one formula behind every weak distance. heat_time > 0 smooths
    both sides by e^{t Laplacian} first (heat_time = eps: Husimi).
    """
    gap = np.abs(chi_mu - chi_nu)
    if heat_time > 0.0:
        gap = gap * _heat(cfg.xi, cfg.eta, heat_time)
    return float(np.sum(gap * cfg.weight()) * cfg.dnode ** 2)


def _total_mass(obj) -> float:
    if isinstance(obj, (AtomicMeasure, GridDensity)):
        return obj.total_mass
    if isinstance(obj, WaveFunction):
        return obj.norm() ** 2
    if isinstance(obj, DensityEnsemble):
        return float(sum(w for w, _ in obj.members))
    raise RepresentationError(f"no mass for {type(obj)!r}")


def weak_distance(mu, nu, cfg: WeakMetricConfig | None = None, *,
                  heat_time_mu: float = 0.0, heat_time_nu: float = 0.0) -> float:
    """Bounded Fourier-weighted distance after normalizing both to mass 1.

    Bounded by 2 * weight_mass; zero iff the characteristic functions
    agree on the truncated grid.
    """
    cfg = cfg or WeakMetricConfig()
    m_mu, m_nu = _total_mass(mu), _total_mass(nu)
    if m_mu <= 0 or m_nu <= 0:
        raise NumericsError(f"weak_distance needs positive masses, got {m_mu}, {m_nu}")
    chi_mu = char_function(mu, cfg.xi, cfg.eta, heat_time_mu) / m_mu
    chi_nu = char_function(nu, cfg.xi, cfg.eta, heat_time_nu) / m_nu
    return char_distance(chi_mu, chi_nu, cfg)


def l2_distance(a: GridDensity, b: GridDensity) -> float:
    if not isinstance(a, GridDensity) or not isinstance(b, GridDensity):
        raise RepresentationError("l2_distance needs two grid densities")
    if a.grid.shape != b.grid.shape or a.grid.x_grid != b.grid.x_grid \
            or a.grid.p_grid != b.grid.p_grid:
        raise ShapeMismatchError("l2_distance: phase grids differ")
    return float(np.sqrt(a.grid.cell_area * np.sum((a.values - b.values) ** 2)))


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log(distance) against log(eps)."""

    eps_values: tuple
    distances: tuple
    fitted_slope: float
    r_squared: float
    dropped: int = 0

    def __post_init__(self):
        if len(self.eps_values) != len(self.distances) or len(self.eps_values) < 3:
            raise ConfigurationError("rate fit needs >= 3 matched points")
        if not _strictly_decreasing(self.eps_values):
            raise ConfigurationError("eps_values must be strictly decreasing")


def _strictly_decreasing(values) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


def fit_rate(eps_values, distances) -> RateFit:
    """Fit distance ~ C * eps^slope; nonpositive distances are dropped."""
    eps_values = [float(e) for e in eps_values]
    distances = [float(d) for d in distances]
    if len(eps_values) != len(distances):
        raise ShapeMismatchError("eps and distance lists differ in length")
    kept = [(e, d) for e, d in zip(eps_values, distances) if d > 0]
    dropped = len(distances) - len(kept)
    if len(kept) < 3:
        raise NumericsError(
            f"rate fit needs >= 3 positive distances, have {len(kept)}")
    le = np.log([e for e, _ in kept])
    ld = np.log([d for _, d in kept])
    slope, intercept = np.polyfit(le, ld, 1)
    pred = slope * le + intercept
    ss_res = float(np.sum((ld - pred) ** 2))
    ss_tot = float(np.sum((ld - ld.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(eps_values=tuple(e for e, _ in kept),
                   distances=tuple(d for _, d in kept),
                   fitted_slope=float(slope), r_squared=float(r2),
                   dropped=dropped)
