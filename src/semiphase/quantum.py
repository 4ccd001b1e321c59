"""Scaled quantum propagation  i*eps dpsi/dt = (-(eps^2/2) Lap + V) psi.

Strang split-step spectral stepping. One loop, _strang, steps (N,) or
(M, N) arrays along the last axis, each row as if alone: propagate_rows
gives it fixed-grid factors (propagate wraps that for a WaveFunction; the
windows' domain-grid fallback steps row blocks), and the co-moving windows
of ConcentrationSplit, WeakConvergence and RandomFamily (experiments._Window,
one per window grid) per-row factors in each row's frame. The kinetic factor 1/2
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
    "PropagatorConfig",
    "propagate",
    "propagate_rows",
]


@dataclass(frozen=True)
class WaveFunction:
    """Normalized complex state on a PositionGrid at a fixed eps."""

    values: np.ndarray = field(repr=False, compare=False)
    eps: float
    grid: PositionGrid

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.grid.n_points,):
            raise ShapeMismatchError(
                f"state length {v.shape} != grid {self.grid.n_points}")
        if self.eps <= 0:
            raise ConfigurationError(f"eps must be > 0, got {self.eps}")
        if not np.all(np.isfinite(v.view(np.float64))):
            raise NumericsError("non-finite wavefunction values")
        n2 = quadrature(np.abs(v) ** 2, self.grid)
        if abs(n2 - 1.0) > 1e-6:
            raise ConfigurationError(
                f"state not normalized: ||psi||^2 = {n2:.3e} (use WaveFunction.normalized)")
        object.__setattr__(self, "values", v)

    @classmethod
    def normalized(cls, values, eps: float, grid: PositionGrid) -> "WaveFunction":
        v = np.asarray(values, dtype=np.complex128)
        n2 = quadrature(np.abs(v) ** 2, grid)
        if n2 <= 0 or not np.isfinite(n2):
            raise NumericsError("cannot normalize a zero or non-finite state")
        return cls(v / np.sqrt(n2), eps, grid)

    def norm(self) -> float:
        return float(np.sqrt(quadrature(np.abs(self.values) ** 2, self.grid)))

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2


@dataclass(frozen=True)
class DensityEnsemble:
    """Finite mixture sum_i w_i |psi_i><psi_i| with Tr = sum w_i = 1."""

    members: tuple  # of (weight, WaveFunction)
    eps: float

    def __post_init__(self):
        members = tuple((float(w), s) for w, s in self.members)
        if not members:
            raise ConfigurationError("empty ensemble")
        wsum = sum(w for w, _ in members)
        # rounding bound of a left-to-right sum of M terms near 1
        if abs(wsum - 1.0) > max(1e-12, (len(members) - 1) * 2.0 ** -53):
            raise ConfigurationError(f"weights sum to {wsum!r}, expected 1")
        if not all(w > 0 for w, _ in members):
            raise ConfigurationError("weights must be in (0, 1]")
        g0 = members[0][1].grid
        for _, s in members:
            if s.grid != g0 or s.eps != self.eps:
                raise ConfigurationError("ensemble members must share grid and eps")
        object.__setattr__(self, "members", members)

    @property
    def grid(self) -> PositionGrid:
        return self.members[0][1].grid


@dataclass(frozen=True)
class PropagatorConfig:
    """Strang stepping parameters. dt < 0 runs the dynamics backward."""

    dt: float
    t_final: float

    def __post_init__(self):
        if not 0 < abs(self.dt) < np.inf:
            raise ConfigurationError(f"dt must be finite and nonzero, got {self.dt}")
        if not 0 <= self.t_final < np.inf:
            raise ConfigurationError(f"t_final must be finite and >= 0, got {self.t_final}")


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
                   pot: PotentialSpec, cfg: PropagatorConfig) -> np.ndarray:
    """Strang splitting e^{-iV dt/2eps} e^{i eps dt Lap/2} e^{-iV dt/2eps}.

    rows, one state (N,) or a block (M, N) on grid at eps, is stepped by
    _strang, each row bit for bit as if alone (pinned at the experiments'
    grid sizes), in round(t_final/|dt|) >= 1 steps that land on t_final.
    rows is never written, and a zero span returns rows itself.
    """
    if rows.shape[-1] != grid.n_points:
        raise ShapeMismatchError(
            f"rows of length {rows.shape[-1]} != grid {grid.n_points}")
    if cfg.t_final == 0.0:
        return rows
    v = evaluate(pot, grid)
    n_steps, h = time_steps(cfg.t_final if cfg.dt > 0 else -cfg.t_final, cfg.dt)

    psi = _strang(rows, *_strang_factors(v, grid.k, eps, h), n_steps)
    if not np.all(np.isfinite(psi.view(np.float64))):
        raise NumericsError("propagation produced non-finite values")
    return psi


def propagate(state: WaveFunction, pot: PotentialSpec,
              cfg: PropagatorConfig) -> WaveFunction:
    """One state through propagate_rows; a zero span returns state itself."""
    if cfg.t_final == 0.0:
        return state
    return WaveFunction(propagate_rows(state.values, state.eps, state.grid,
                                       pot, cfg), state.eps, state.grid)
