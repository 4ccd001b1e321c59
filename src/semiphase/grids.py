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
import scipy.fft as sfft

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
    2*3*5*7*11-smooth length (scipy.fft.next_fast_len) costs about the
    same per point as a power of two. Evenness keeps the Nyquist mode
    unpaired, which upsampling and the Wigner lattice rely on.

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
        object.__setattr__(self, "k", 2.0 * np.pi * sfft.fftfreq(n, d=dx))

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
    """The step rule of every time stepper: n = max(1, round(|span|/|dt|))
    steps of signed size span/n; dt must be finite and nonzero, span finite."""
    if not (0 < abs(dt) < np.inf and abs(span) < np.inf):
        raise ConfigurationError(
            f"need a finite nonzero dt and a finite span, got {dt}, {span}")
    n = max(1, round(abs(span) / abs(dt)))
    return n, span / n


def quadrature(f, grid: PositionGrid) -> float:
    """Periodic rectangle rule, dx * sum(f). Exact for band-limited f."""
    f = np.asarray(f)
    if f.shape[-1] != grid.n_points:
        raise ShapeMismatchError(
            f"quadrature: array length {f.shape[-1]} != grid size {grid.n_points}")
    return float(grid.dx * np.sum(f, axis=-1))

