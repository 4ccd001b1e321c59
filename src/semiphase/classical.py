"""Classical transport: bicharacteristic branches, the characteristic
feet of the flow x' = p, p' = -V'(x), and the pushforward of atomic
measures along them (transported clouds are phasespace.AtomicMeasure,
masses kept). characteristic_feet is the one integrator: it moves
clouds, the Liouville feet of the pullback solution and the shadows of
the closed-form branches.

Transport in the mollified field V~ = e^{eps Lap} V uses the force
-V~' sampled spectrally on a periodic grid and interpolated by a
periodic cubic spline solved with one real FFT (_periodic_spline).

The rough potential -|x|^{1+theta} admits multiple trajectories out of
the unstable origin: for each sign there is a closed-form escape

    X(t) = +- c0 (t - t0)^nu,   P(t) = +- c0 nu (t - t0)^{nu-1}

with nu = 2/(1-theta), c0 = ((1-theta)^2/2)^{1/(1-theta)}, for every
delay t0 >= 0, plus the branch that rests at the origin forever. All of
them share the initial datum (0, 0); the delayed family is the failure
of uniqueness that the transport experiments probe.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericsError
from .grids import PositionGrid, _real_fft, build_position_grid, time_steps
from .phasespace import AtomicMeasure
from .potentials import PotentialSpec, gradient_at, mollify

__all__ = [
    "TrajectoryBranch",
    "branch_family",
    "branch_constants",
    "branch_ode_residual",
    "characteristic_feet",
    "transport_particles",
]


def branch_constants(theta: float) -> tuple[float, float]:
    """(nu, c0) for the escape branches of -|x|^{1+theta}."""
    if not (0.0 < theta < 1.0):
        raise ConfigurationError(f"theta must be in (0,1), got {theta}")
    nu = 2.0 / (1.0 - theta)
    c0 = ((1.0 - theta) ** 2 / 2.0) ** (1.0 / (1.0 - theta))
    return nu, c0


@dataclass(frozen=True)
class TrajectoryBranch:
    """One closed-form bicharacteristic out of (0, 0).

    sign is +1, -1 or 0; sign 0 is the branch that never leaves the
    origin (t0 is irrelevant for it but kept for uniformity).
    """

    sign: int
    t0: float
    theta: float
    nu: float = field(init=False)
    c0: float = field(init=False)

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ConfigurationError(f"sign must be -1, 0 or +1, got {self.sign}")
        if self.t0 < 0:
            raise ConfigurationError(f"t0 must be >= 0, got {self.t0}")
        nu, c0 = branch_constants(self.theta)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "c0", c0)

    def X(self, t):
        t = np.asarray(t, dtype=np.float64)
        s = np.maximum(t - self.t0, 0.0)
        return self.sign * self.c0 * s ** self.nu

    def P(self, t):
        t = np.asarray(t, dtype=np.float64)
        s = np.maximum(t - self.t0, 0.0)
        return self.sign * self.c0 * self.nu * s ** (self.nu - 1.0)


def branch_family(theta: float, signs_and_delays) -> list[TrajectoryBranch]:
    """Branches for each (sign, t0) pair, sign +1, -1 or 0."""
    return [TrajectoryBranch(sign=sign, t0=float(t0), theta=theta)
            for sign, t0 in signs_and_delays]


def branch_ode_residual(branch: TrajectoryBranch, t, h: float = 1e-6) -> tuple[float, float]:
    """Max residuals of (X' - P, P' + V'(X)) by central differences.

    V'(X) is the untruncated power law -(1+theta)|X|^theta sgn(X) that
    the closed forms solve, not the catalog potential, whose quartic
    tail takes over at |X| > CORE_RADIUS. Scaled by max(1, |X|, |P|) so
    the number reads as a relative error on escape branches while
    staying meaningful on the rest branch.
    """
    t = np.asarray(t, dtype=np.float64)
    xdot = (branch.X(t + h) - branch.X(t - h)) / (2.0 * h)
    pdot = (branch.P(t + h) - branch.P(t - h)) / (2.0 * h)
    x = branch.X(t)
    force = (1.0 + branch.theta) * np.abs(x) ** branch.theta * np.sign(x)
    scale = np.maximum(1.0, np.maximum(np.abs(x), np.abs(branch.P(t))))
    r1 = float(np.max(np.abs(xdot - branch.P(t)) / scale))
    r2 = float(np.max(np.abs(pdot - force) / scale))
    return r1, r2


def _periodic_spline(y: np.ndarray, grid: PositionGrid):
    """Periodic cubic spline through (grid.nodes, y), vectorized.

    On a uniform periodic grid the spline's second derivatives solve the
    circulant system  M[j-1] + 4 M[j] + M[j+1] = 6 (y[j+1] - 2 y[j] +
    y[j-1]) / h^2,  so one real FFT divide by 4 + 2 cos(2 pi k / N)
    solves it exactly. Each interval keeps the cubic in its offset
    s = (x - x_j) / h in [0, 1). Evaluation takes the interval index as
    floor((x - x_min) / h) mod N, so any x wraps into the period, and
    runs Horner. Non-finite x gives NaN, never an exception.
    """
    n, h, lo = grid.n_points, grid.dx, grid.x_min
    lam = 2.0 * np.cos(2.0 * np.pi * np.arange(n // 2 + 1) / n)
    m = np.fft.irfft(np.fft.rfft(y) * ((6.0 / h ** 2) * (lam - 2.0) / (4.0 + lam)), n)
    y1, m1 = np.roll(y, -1), np.roll(m, -1)
    coef = (y, (y1 - y) - h * h * (2.0 * m + m1) / 6.0,
            (0.5 * h * h) * m, h * h * (m1 - m) / 6.0)

    def spline(x):
        s = np.asarray(x, dtype=np.float64) - lo
        s /= h
        i = np.floor(s)
        with np.errstate(invalid="ignore"):  # inf - inf and int(nan) stay NaN
            s -= i
            j = i.astype(np.intp)
        del i
        # wrap only when needed; negative indices read as huge unsigned ones
        if j.view(np.uintp).max(initial=0) >= n:
            j %= n
        # Horner in place: two full-size temporaries besides s and j
        out = coef[3].take(j)
        for c in coef[2::-1]:
            out *= s
            out += c.take(j)
        return out

    return spline


def _force_function(pot: PotentialSpec, eps_mollify: float,
                    field_grid: PositionGrid | None):
    """-V'(x) as a vectorized callable, mollified spectrally when asked.

    Mollified forces differentiate V~ = e^{eps Lap} V spectrally on
    field_grid (default [-12, 12) with 8192 nodes) and interpolate -V~'
    by the periodic cubic spline of _periodic_spline, so x wraps into
    the grid's period; raw forces use the closed forms, with V'(0) = 0
    on the rough kind.
    """
    if eps_mollify < 0:
        raise ConfigurationError(f"eps_mollify must be >= 0, got {eps_mollify}")
    if eps_mollify == 0.0:
        return lambda x: -gradient_at(pot, x)
    if field_grid is None:
        field_grid = build_position_grid(8192, -12.0, 12.0)
    vt = mollify(pot, eps_mollify, field_grid)
    dvt = np.real(np.fft.ifft(1j * field_grid.k * _real_fft(vt)))
    return _periodic_spline(-dvt, field_grid)


# points per RK4 block of characteristic_feet: the stages of one block
# stay in cache through every step
_FEET_BLOCK = 16384


def _rk4(x: np.ndarray, p: np.ndarray, force, n_steps: int, h: float) -> None:
    """n_steps RK4 steps of size h along x' = p, p' = force(x), in place; raises if not finite."""
    xb, pb = x, p
    for _ in range(n_steps):
        k1p = force(xb)
        k2x, k2p = pb + 0.5 * h * k1p, force(xb + 0.5 * h * pb)
        k3x, k3p = pb + 0.5 * h * k2p, force(xb + 0.5 * h * k2x)
        k4x, k4p = pb + h * k3p, force(xb + h * k3x)
        xb = xb + (h / 6.0) * (pb + 2 * k2x + 2 * k3x + k4x)
        pb = pb + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
    if not (np.all(np.isfinite(xb)) and np.all(np.isfinite(pb))):
        raise NumericsError("characteristic feet are not finite")
    x[...], p[...] = xb, pb


def characteristic_feet(feet, pot: PotentialSpec, eps_mollify: float, dt: float,
                        t_final: float, field_grid: PositionGrid | None = None):
    """Move the points feet = (x, p) by t_final along x' = p, p' = -V~'(x).

    Classical RK4 in the (possibly mollified) field, on a pair of
    broadcastable arrays. With t_final = -t the feet are Phi_{-t}(x, p),
    so rho_0 at them is the Liouville solution rho_t = rho_0 o Phi_{-t}
    on those nodes, without interpolation. t_final may be negative (the
    sign of the steps); dt is a positive step magnitude.

    The pair is broadcast once into C-ordered copies, the outputs, which
    _rk4 steps in place one block of _FEET_BLOCK points at a time: memory
    is the outputs plus one block's stages, and each point sees the same
    arithmetic as in a whole-array step.
    """
    n_steps, h = time_steps(t_final, dt)
    x, p = (np.asarray(a, dtype=np.float64) for a in feet)
    if t_final == 0:
        return x, p
    force = _force_function(pot, eps_mollify, field_grid)
    # order="C": a copy in the broadcast view's stride order may not
    # reshape to a view, and the block writes would be lost
    x, p = (np.array(a, order="C") for a in np.broadcast_arrays(x, p))
    flat_x, flat_p = x.reshape(-1), p.reshape(-1)
    for lo in range(0, flat_x.size, _FEET_BLOCK):
        _rk4(flat_x[lo:lo + _FEET_BLOCK], flat_p[lo:lo + _FEET_BLOCK], force, n_steps, h)
    return x, p


def transport_particles(cloud: AtomicMeasure, pot: PotentialSpec,
                        eps_mollify: float, dt: float, t_final: float,
                        field_grid: PositionGrid | None = None) -> AtomicMeasure:
    """The pushforward of cloud by the flow over t_final.

    characteristic_feet on the atoms' (x, p); the masses stay the same,
    in the same order.
    """
    x, p = characteristic_feet((cloud.xs, cloud.ps), pot, eps_mollify, dt,
                               t_final, field_grid=field_grid)
    return AtomicMeasure(np.stack([cloud.masses, x, p], axis=1))
