"""Distances between phase-space measures and rate estimation.

The weak metric is a Fourier-weighted distance

    d(mu, nu) = sum |mu^hat - nu^hat| exp(-(xi^2+eta^2)/2) dxi deta

over one fixed lattice, NODES x NODES (33 nodes on [-8, 8] per axis).
Any bounded metric inducing the weak topology serves the limit
statements, so the lattice is a fixed choice and not a parameter. This
one is cheap for grid densities (off-lattice DFT), atomic measures
(exponential sums) and quantum states, which bypass phase-space
gridding via the ambiguity integral

    mu^hat(xi, eta) = int conj(psi(x + eps eta/2)) psi(x - eps eta/2) e^{-i xi x} dx,

the characteristic function of the Wigner measure. Heat-kernel
smoothing (the Husimi picture) is a pure multiplier in this dual
representation; char_distance applies it to the gap, so smoothed
comparisons cost nothing extra.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .errors import (ConfigurationError, NumericsError, RepresentationError,
                     ShapeMismatchError)
from .phasespace import AtomicMeasure, GridDensity
from .quantum import DensityEnsemble, WaveFunction

__all__ = [
    "NODES",
    "RateFit",
    "char_function",
    "char_distance",
    "weak_distance",
    "l2_distance",
    "fit_rate",
]

# the (xi, eta) lattice: 33 nodes on [-8, 8] for both axes, Gaussian
# weight with sigma = 1
NODES = np.linspace(-8.0, 8.0, 33)
NODES.flags.writeable = False
_DNODE = 0.5
_R2 = NODES[:, None] ** 2 + NODES[None, :] ** 2
_WEIGHT = np.exp(-_R2 / 2.0)


def _unit_powers(t, x) -> np.ndarray:
    """Rows exp(-1j * t_j * x) for uniformly spaced t, shape (len(t), len(x)).

    The columns form a geometric sequence, so the matrix is built from
    two exp calls and repeated multiplication; this dominates the cost
    of characteristic functions on large grids.
    """
    out = np.empty((t.size, x.size), dtype=np.complex128)
    out[0] = np.exp(-1j * t[0] * x)
    step = np.exp(-1j * float(t[1] - t[0]) * x)
    for j in range(1, t.size):
        np.multiply(out[j - 1], step, out=out[j])
    return out


def _char_members(members) -> np.ndarray:
    """sum_i w_i * (ambiguity integral of member i), one kernel matmul.

    members are (weight, WaveFunction) pairs on one grid at one eps.
    """
    eps, grid = members[0][1].eps, members[0][1].grid
    # spectral shifts psi(x +- eps*eta/2), all eta at once
    phases = _unit_powers(NODES * (eps / 2.0), grid.k)
    phases_conj = phases.conj()
    integrand = np.zeros((phases.shape[0], grid.n_points), dtype=np.complex128)
    for w, state in members:
        spec = sfft.fft(state.values)
        plus = sfft.ifft(spec * phases, axis=1, overwrite_x=True)
        minus = sfft.ifft(spec * phases_conj, axis=1, overwrite_x=True)
        plus *= np.conj(minus, out=minus)
        plus *= w
        integrand += plus
    kernel = _unit_powers(NODES, grid.nodes)
    return (kernel @ integrand.T) * grid.dx


def char_function(obj) -> np.ndarray:
    """Characteristic function on the NODES x NODES lattice.

    Accepts atomic measures, grid densities, wavefunctions (Wigner
    measure, via the ambiguity integral) and density ensembles. An
    ensemble sums its weighted member integrands first and takes one
    kernel matmul; a wavefunction is the one-member case.
    """
    if isinstance(obj, AtomicMeasure):
        ex, ep = _unit_powers(NODES, obj.xs), _unit_powers(NODES, obj.ps)
        return ex @ (obj.masses[:, None] * ep.T)
    if isinstance(obj, GridDensity):
        ex, ep = _unit_powers(NODES, obj.grid.x), _unit_powers(NODES, obj.grid.p)
        return (ex @ obj.values @ ep.T) * obj.grid.cell_area
    if isinstance(obj, WaveFunction):
        return _char_members(((1.0, obj),))
    if isinstance(obj, DensityEnsemble):
        return _char_members(obj.members)
    raise RepresentationError(f"no characteristic function for {type(obj)!r}")


def char_distance(chi_mu, chi_nu, heat_time: float = 0.0) -> float:
    """Weighted sum |chi_mu - chi_nu| w dxi deta over the lattice.

    The one formula behind every weak distance. heat_time > 0 compares
    the e^{t Laplacian}-smoothed measures, whose characteristic functions
    carry the multiplier exp(-t(xi^2+eta^2)); heat_time = eps is the
    Husimi picture.
    """
    gap = np.abs(chi_mu - chi_nu)
    if heat_time > 0.0:
        gap = gap * np.exp(-heat_time * _R2)
    return float(np.sum(gap * _WEIGHT) * _DNODE ** 2)


def _total_mass(obj) -> float:
    if isinstance(obj, (AtomicMeasure, GridDensity)):
        return obj.total_mass
    if isinstance(obj, WaveFunction):
        return obj.norm() ** 2
    if isinstance(obj, DensityEnsemble):
        return float(sum(w for w, _ in obj.members))
    raise RepresentationError(f"no mass for {type(obj)!r}")


def weak_distance(mu, nu, heat_time: float = 0.0) -> float:
    """Bounded Fourier-weighted distance after normalizing both to mass 1.

    Bounded by 2 sum(w) dxi deta, zero iff the characteristic functions
    agree on the lattice; heat_time smooths both as in char_distance.
    """
    m_mu, m_nu = _total_mass(mu), _total_mass(nu)
    if m_mu <= 0 or m_nu <= 0:
        raise NumericsError(f"weak_distance needs positive masses, got {m_mu}, {m_nu}")
    chi_mu = char_function(mu) / m_mu
    chi_nu = char_function(nu) / m_nu
    return char_distance(chi_mu, chi_nu, heat_time)


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
