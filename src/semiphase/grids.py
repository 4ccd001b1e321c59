"""Uniform periodic grids.

Everything downstream (propagation, phase-space transforms, transport)
lives on these grids, so the conventions are pinned here once:

* nodes x_i = x_min + i*dx, i = 0..n-1, periodic wrap at x_max;
* dual frequencies in standard DFT ordering, k_j = 2*pi*fftfreq(n, dx),
  for the FFTs' default scaling (forward unnormalized, inverse by 1/n).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ShapeMismatchError

__all__ = [
    "PositionGrid",
    "PhaseGrid",
    "build_position_grid",
    "time_steps",
    "quadrature",
]


@dataclass(frozen=True)
class PositionGrid:
    """Uniform periodic grid on [x_min, x_max) with an even number of nodes.

    Any even length >= 8 is accepted; the FFTs are mixed-radix, so a
    2*3*5*7*11-smooth length (_fast_len) costs about the same per point as
    a power of two. Evenness keeps the Nyquist mode unpaired, which
    upsampling and the Wigner lattice rely on.

    Also used for the momentum axis of a PhaseGrid, in which case the
    "positions" are momenta; the arithmetic is identical.
    """

    n_points: int
    x_min: float
    x_max: float
    dx: float = field(init=False)
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    k: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.n_points, (int, np.integer)):
            raise ConfigurationError(f"n_points must be an integer, got {self.n_points!r}")
        if self.n_points < 8 or self.n_points % 2:
            raise ConfigurationError(
                f"n_points must be an even integer >= 8, got {self.n_points}")
        if not (self.x_max > self.x_min):
            raise ConfigurationError(
                f"degenerate interval [{self.x_min}, {self.x_max}]")
        n = int(self.n_points)
        dx = (self.x_max - self.x_min) / n
        object.__setattr__(self, "n_points", n)
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "nodes", self.x_min + dx * np.arange(n))
        object.__setattr__(self, "k", 2.0 * np.pi * np.fft.fftfreq(n, d=dx))

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    def __len__(self) -> int:
        return self.n_points


@dataclass(frozen=True)
class PhaseGrid:
    """Tensor grid on (x, p): a position axis and a momentum axis."""

    x_grid: PositionGrid
    p_grid: PositionGrid

    @property
    def cell_area(self) -> float:
        return self.x_grid.dx * self.p_grid.dx

    @property
    def shape(self) -> tuple[int, int]:
        return (self.x_grid.n_points, self.p_grid.n_points)

    @property
    def x(self) -> np.ndarray:
        return self.x_grid.nodes

    @property
    def p(self) -> np.ndarray:
        return self.p_grid.nodes


def build_position_grid(n_points: int, x_min: float, x_max: float) -> PositionGrid:
    """Validated constructor for PositionGrid."""
    return PositionGrid(n_points, float(x_min), float(x_max))


def time_steps(span: float, dt: float) -> tuple[int, float]:
    """The step rule of every time stepper: n = max(1, round(|span|/dt))
    steps of signed size span/n. The step dt is a finite size > 0, and the
    sign of the finite span is the direction of time."""
    if not (0 < dt < np.inf and abs(span) < np.inf):
        raise ConfigurationError(
            f"need a finite step dt > 0 and a finite span, got {dt}, {span}")
    n = max(1, round(abs(span) / dt))
    return n, span / n


_SMOOTH = np.array([1])  # every 2*3*5*7*11-smooth integer up to 2**31, ascending
for _p in (2, 3, 5, 7, 11):
    _SMOOTH = np.concatenate([_SMOOTH * _p ** e for e in range(32) if _p ** e <= 2 ** 31])
    _SMOOTH = np.sort(_SMOOTH[_SMOOTH <= 2 ** 31])


def _fast_len(n: int) -> int:
    """The least 2*3*5*7*11-smooth integer >= n, for 1 <= n <= 2**31."""
    return int(_SMOOTH[np.searchsorted(_SMOOTH, n)])


def _real_fft(x: np.ndarray) -> np.ndarray:
    """The DFT of real samples: rfft and its conjugate mirror, exactly Hermitian."""
    half = np.fft.rfft(x)
    return np.concatenate([half, np.conj(half[(len(x) - 1) // 2:0:-1])])


def quadrature(f, grid: PositionGrid):
    """Periodic rectangle rule dx * sum(f) over the last axis. Exact for band-limited f."""
    f = np.asarray(f)
    if f.shape[-1] != grid.n_points:
        raise ShapeMismatchError(
            f"quadrature: array length {f.shape[-1]} != grid size {grid.n_points}")
    return grid.dx * np.sum(f, axis=-1)

