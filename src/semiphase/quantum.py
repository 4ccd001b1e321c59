"""Scaled quantum propagation  i*eps dpsi/dt = (-alpha eps^2 Lap + V) psi.

Strang split-step spectral stepping for pure states and finite mixtures.
The kinetic prefactor alpha defaults to 1/2 so the classical symbol is
alpha k^2 = k^2/2 and the transport drift is k (matching X' = P on the
classical side); the pure -eps^2 Lap convention is alpha = 1.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.fft as sfft

from .errors import (ConfigurationError, NumericsError, SemiphaseWarning,
                     ShapeMismatchError)
from .grids import PositionGrid, quadrature
from .potentials import PotentialSpec, evaluate

__all__ = [
    "WaveFunction",
    "DensityEnsemble",
    "PropagatorConfig",
    "propagate",
    "propagate_ensemble",
    "h2_energy",
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
        if abs(wsum - 1.0) > 1e-12:
            raise ConfigurationError(f"weights sum to {wsum!r}, expected 1")
        if any(w <= 0 for w, _ in members):
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
    alpha: float = 0.5

    def __post_init__(self):
        if self.dt == 0:
            raise ConfigurationError("dt must be nonzero")
        if self.t_final < 0:
            raise ConfigurationError("t_final must be >= 0")


def _check_resolution(v: np.ndarray, grid: PositionGrid, eps: float,
                      dt: float, alpha: float) -> None:
    kmax = float(np.max(np.abs(grid.k)))
    pot_phase = float(np.max(np.abs(v))) * abs(dt) / eps
    kin_phase = alpha * eps * kmax ** 2 * abs(dt)
    if pot_phase > np.pi / 4:
        warnings.warn(f"potential phase {pot_phase:.2f} rad/step exceeds pi/4",
                      SemiphaseWarning)
    if kin_phase > np.pi / 4:
        warnings.warn(f"kinetic phase {kin_phase:.2f} rad/step at Nyquist exceeds pi/4",
                      SemiphaseWarning)


def propagate(state: WaveFunction, pot: PotentialSpec,
              cfg: PropagatorConfig) -> WaveFunction:
    """Strang splitting e^{-iV dt/2eps} e^{i alpha eps dt Lap} e^{-iV dt/2eps}.

    The number of steps is t_final/|dt| rounded to the nearest integer
    (at least 1), with the step resized to land on t_final exactly.
    """
    if cfg.t_final == 0.0:
        return state
    v = evaluate(pot, state.grid)
    n_steps = max(1, round(cfg.t_final / abs(cfg.dt)))
    h = (cfg.t_final if cfg.dt > 0 else -cfg.t_final) / n_steps

    eps = state.eps
    k2 = state.grid.k ** 2
    half_v = np.exp(-0.5j * v * h / eps)
    kin = np.exp(-1j * cfg.alpha * eps * k2 * h)

    psi = state.values
    for _ in range(n_steps):
        psi = half_v * psi
        psi = sfft.ifft(kin * sfft.fft(psi))
        psi = half_v * psi
    if not np.all(np.isfinite(psi.view(np.float64))):
        raise NumericsError("propagation produced non-finite values")
    _check_resolution(v, state.grid, eps, h, cfg.alpha)
    return WaveFunction(psi, eps, state.grid)


def propagate_ensemble(ens: DensityEnsemble, pot: PotentialSpec,
                       cfg: PropagatorConfig) -> DensityEnsemble:
    """Propagate each member independently; weights are untouched."""
    new = tuple((w, propagate(s, pot, cfg)) for w, s in ens.members)
    return replace(ens, members=new)


def h2_energy(state: WaveFunction, pot: PotentialSpec, alpha: float = 0.5) -> float:
    """||H_eps psi||_2^2 with H_eps = -alpha eps^2 Lap + V, computed spectrally."""
    v = evaluate(pot, state.grid)
    kin_mult = alpha * state.eps ** 2 * state.grid.k ** 2
    h_psi = sfft.ifft(kin_mult * sfft.fft(state.values)) + v * state.values
    return float(quadrature(np.abs(h_psi) ** 2, state.grid))

