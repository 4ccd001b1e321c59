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

the characteristic function of the Wigner measure, which _char_rows
takes of each row of a block of states (a mixture sums them by its
weights). char_function divides every representation by its own mass,
the value at the lattice origin, so it returns the characteristic
function of a probability measure. Heat-kernel smoothing (the Husimi
picture) is a pure multiplier in this dual representation;
char_distance applies it to the gap, so smoothed comparisons cost
nothing extra.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, NumericsError, RepresentationError,
                     ShapeMismatchError)
from .phasespace import AtomicMeasure, GridDensity
from .quantum import WaveFunction

__all__ = [
    "NODES",
    "RateFit",
    "char_function",
    "char_distance",
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
# NODES[_ORIGIN] == 0, where a characteristic function is the total mass
_ORIGIN = NODES.size // 2


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


def _char_rows(rows, eps: float, grid, frames=None) -> np.ndarray:
    """The unnormalized ambiguity integral of each row, one (33, 33) chi per row.

    rows is an (M, N) block of states on grid at eps, and the result is
    (M, 33, 33); a mixture reduces it by its weights. Each row is shifted
    once and reduced by its own kernel matmul right after, so only the
    output grows with M. Row j of the shift table gives psi(x - eps*eta_j/2);
    NODES is symmetric, so row 32 - j is psi(x + eps*eta_j/2). Only eta <= 0
    is computed: chi(xi, -eta) = conj(chi(-xi, eta)) fills the rest.

    frames = (a, b) reads row j as phi_j of e^{i b_j (x - a_j)/eps} phi_j(x - a_j),
    whose integral is e^{-i(xi a_j + b_j eta)} times phi_j's.
    """
    phases, kernel = _unit_powers(NODES * (eps / 2.0), grid.k), _unit_powers(NODES, grid.nodes)
    half = _ORIGIN + 1
    chis = np.empty((len(rows), NODES.size, NODES.size), complex)
    for i, row in enumerate(rows):
        shifted = np.fft.fft(row) * phases
        np.fft.ifft(shifted, axis=1, out=shifted)
        pair = np.conj(shifted[:-half - 1:-1])
        pair *= shifted[:half]
        del shifted  # one (33, N) shift at a time beside the two tables
        lo = (kernel @ pair.T) * grid.dx
        if frames is not None:
            lo *= np.exp(-1j * (frames[0][i] * NODES[:, None] + frames[1][i] * NODES[:half]))
        chis[i, :, :half], chis[i, :, half:] = lo, np.conj(lo[::-1, -2::-1])
    return chis


def _as_probability(chi: np.ndarray) -> np.ndarray:
    """chi divided in place by its origin value, the mass, which must be > 0."""
    mass = chi[_ORIGIN, _ORIGIN].real
    if not mass > 0:
        raise NumericsError(f"char_function needs a positive mass, got {mass}")
    chi /= mass
    return chi


def char_function(obj) -> np.ndarray:
    """Characteristic function of obj, as a probability, on NODES x NODES.

    Accepts atomic measures, grid densities and wavefunctions (Wigner
    measure, via the ambiguity integral: _char_rows of its one row).
    The result is divided by its mass (_as_probability), so it is 1 at
    the origin.
    """
    if isinstance(obj, AtomicMeasure):
        ex, ep = _unit_powers(NODES, obj.xs), _unit_powers(NODES, obj.ps)
        chi = ex @ (obj.masses[:, None] * ep.T)
    elif isinstance(obj, GridDensity):
        ex, ep = _unit_powers(NODES, obj.grid.x), _unit_powers(NODES, obj.grid.p)
        chi = (ex @ obj.values @ ep.T) * obj.grid.cell_area
    elif isinstance(obj, WaveFunction):
        chi = _char_rows(obj.values[None], obj.eps, obj.grid)[0]
    else:
        raise RepresentationError(f"no characteristic function for {type(obj)!r}")
    return _as_probability(chi)


def char_distance(chi_mu, chi_nu, heat_time: float = 0.0) -> float:
    """Weighted sum |chi_mu - chi_nu| w dxi deta over the lattice.

    The one formula behind every weak distance; between two char_function
    results it is at most 2 sum(w) dxi deta. heat_time > 0 compares the
    e^{t Laplacian}-smoothed measures, whose characteristic functions
    carry the multiplier exp(-t(xi^2+eta^2)); heat_time = eps is the
    Husimi picture.
    """
    gap = np.abs(chi_mu - chi_nu)
    if heat_time > 0.0:
        gap = gap * np.exp(-heat_time * _R2)
    return float(np.sum(gap * _WEIGHT) * _DNODE ** 2)


def l2_distance(a: GridDensity, b: GridDensity) -> float:
    if not isinstance(a, GridDensity) or not isinstance(b, GridDensity):
        raise RepresentationError("l2_distance needs two grid densities")
    if a.grid != b.grid:
        raise ShapeMismatchError("l2_distance: phase grids differ")
    gap = a.values - b.values  # squared in place: one buffer
    return float(np.sqrt(a.grid.cell_area * np.sum(np.square(gap, out=gap))))


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log(distance) against log(eps)."""

    eps_values: tuple
    distances: tuple
    fitted_slope: float
    r_squared: float
    dropped: int = 0


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
    if not _strictly_decreasing([e for e, _ in kept]):
        raise ConfigurationError("eps_values must be strictly decreasing")
    le, ld = np.log(np.array(kept).T)
    slope, intercept = np.polyfit(le, ld, 1)
    pred = slope * le + intercept
    ss_res = float(np.sum((ld - pred) ** 2))
    ss_tot = float(np.sum((ld - ld.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(eps_values=tuple(e for e, _ in kept),
                   distances=tuple(d for _, d in kept),
                   fitted_slope=float(slope), r_squared=float(r2),
                   dropped=dropped)
