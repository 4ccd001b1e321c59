"""Scaled quantum propagation  i*eps dpsi/dt = (-(eps^2/2) Lap + V) psi.

Strang split-step spectral stepping. One loop, _strang, steps (N,) or
(M, N) arrays along the last axis, each row as if alone: propagate_rows
gives it fixed-grid factors (for one state, or a row block on the windows'
domain-grid fallback), and the co-moving windows of ConcentrationSplit,
WeakConvergence and RandomFamily (experiments._Window, one per window grid)
per-row factors in each row's frame. The kinetic factor 1/2
makes the classical symbol k^2/2 and the transport drift k, matching X' = P.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericsError, ShapeMismatchError
from .grids import PositionGrid, quadrature, time_steps
from .potentials import PotentialSpec, evaluate

__all__ = [
    "WaveFunction",
    "DensityEnsemble",
    "propagate_rows",
]


def _unit_rows(values, shape: tuple, eps: float, grid: PositionGrid) -> np.ndarray:
    """values as complex states of the given shape on grid at eps: refuses a
    wrong shape, eps <= 0, a non-finite value and ||psi||^2 more than 1e-6 off 1."""
    v = np.asarray(values, dtype=np.complex128)
    if v.shape != shape:
        raise ShapeMismatchError(f"state shape {v.shape} != {shape} on grid {grid.n_points}")
    if eps <= 0:
        raise ConfigurationError(f"eps must be > 0, got {eps}")
    if not np.all(np.isfinite(v)):
        raise NumericsError("non-finite wavefunction values")
    off = float(np.max(np.abs(quadrature(np.abs(v) ** 2, grid) - 1.0)))
    if off > 1e-6:
        raise ConfigurationError(f"state not normalized: ||psi||^2 off 1 by {off:.3e}")
    return v


@dataclass(frozen=True)
class WaveFunction:
    """Normalized complex state on a PositionGrid at a fixed eps."""

    values: np.ndarray = field(repr=False, compare=False)
    eps: float
    grid: PositionGrid

    def __post_init__(self):
        object.__setattr__(self, "values", _unit_rows(
            self.values, (self.grid.n_points,), self.eps, self.grid))


@dataclass(frozen=True)
class DensityEnsemble:
    """Mixture sum_j w_j |psi_j><psi_j| with Tr = sum w_j = 1: the rows of values
    (M, N) are the normalized psi_j on grid at eps, weights (M,) the w_j > 0."""

    values: np.ndarray = field(repr=False, compare=False)
    weights: np.ndarray = field(repr=False, compare=False)
    eps: float
    grid: PositionGrid

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or not w.size:
            raise ConfigurationError(f"need a non-empty weight vector, got shape {w.shape}")
        wsum = sum(w.tolist())
        # rounding bound of a left-to-right sum of M terms near 1
        if abs(wsum - 1.0) > max(1e-12, (w.size - 1) * 2.0 ** -53):
            raise ConfigurationError(f"weights sum to {wsum!r}, expected 1")
        if not np.all(w > 0):
            raise ConfigurationError("weights must be in (0, 1]")
        object.__setattr__(self, "values", _unit_rows(
            self.values, (w.size, self.grid.n_points), self.eps, self.grid))
        object.__setattr__(self, "weights", w)


def _strang_factors(v: np.ndarray, k: np.ndarray, eps: float, h: float):
    """_strang's half-step potential and full-step kinetic factors at step h."""
    return np.exp(-0.5j * v * h / eps), np.exp(-1j * 0.5 * eps * k ** 2 * h)


def _strang(rows: np.ndarray, half_v: np.ndarray, kin: np.ndarray,
            n_steps: int) -> np.ndarray:
    """n_steps Strang steps of rows (not written), the one quantum loop.

    Factors are (N,) or per row; half-step potentials fuse where steps meet.
    The FFTs run in place on the loop's one copy.
    """
    full_v = half_v * half_v
    psi = half_v * rows
    for step in range(n_steps):
        np.fft.fft(psi, axis=-1, out=psi)
        psi *= kin
        np.fft.ifft(psi, axis=-1, out=psi)
        psi *= full_v if step < n_steps - 1 else half_v
    return psi


def propagate_rows(rows: np.ndarray, eps: float, grid: PositionGrid,
                   pot: PotentialSpec, span: float, dt: float) -> np.ndarray:
    """Strang splitting e^{-iV h/2eps} e^{i eps h Lap/2} e^{-iV h/2eps}.

    rows, one state (N,) or a block (M, N) on grid at eps, is moved by the
    signed span in the time_steps(span, dt) steps h of _strang, each row
    bit for bit as if alone (pinned at the experiments' grid sizes); a
    negative span runs the dynamics backward. rows is never written, and a
    zero span returns rows itself.
    """
    if rows.shape[-1] != grid.n_points:
        raise ShapeMismatchError(
            f"rows of length {rows.shape[-1]} != grid {grid.n_points}")
    n_steps, h = time_steps(span, dt)
    if span == 0.0:
        return rows
    psi = _strang(rows, *_strang_factors(evaluate(pot, grid), grid.k, eps, h), n_steps)
    if not np.all(np.isfinite(psi.view(np.float64))):
        raise NumericsError("propagation produced non-finite values")
    return psi
