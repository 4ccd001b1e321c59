"""Classical transport: bicharacteristic branches, symplectic integration,
semi-Lagrangian Liouville stepping, and the pushforward of atomic
measures (transported clouds are phasespace.AtomicMeasure, masses kept).

Transport in the mollified field V~ = e^{eps Lap} V uses the force
-V~' sampled spectrally on a periodic grid and interpolated by a
periodic cubic spline solved with one real FFT (_periodic_spline), so
the module needs no scipy.interpolate.

The rough potential -|x|^{1+theta} admits multiple trajectories out of
the unstable origin: for each sign there is a closed-form escape

    X(t) = +- c0 (t - t0)^nu,   P(t) = +- c0 nu (t - t0)^{nu-1}

with nu = 2/(1-theta), c0 = ((1-theta)^2/2)^{1/(1-theta)}, for every
delay t0 >= 0, plus the branch that rests at the origin forever. All of
them share the initial datum (0, 0); the delayed family is the failure
of uniqueness that the transport experiments probe.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft
from scipy.sparse import csr_matrix

from .errors import (ConfigurationError, NumericsError, RepresentationError,
                     SemiphaseWarning)
from .grids import PositionGrid, build_position_grid, time_steps
from .phasespace import AtomicMeasure, GridDensity
from .potentials import (CORE_RADIUS, TAIL_COEFF, PotentialSpec, gradient_at,
                         mollify)

__all__ = [
    "TrajectoryBranch",
    "SampledPath",
    "branch_family",
    "branch_constants",
    "branch_ode_residual",
    "integrate_hamiltonian",
    "liouville_semi_lagrangian",
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


@dataclass(frozen=True)
class SampledPath:
    """Störmer-Verlet trajectory samples."""

    ts: np.ndarray = field(repr=False, compare=False)
    xs: np.ndarray = field(repr=False, compare=False)
    ps: np.ndarray = field(repr=False, compare=False)


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
    m = sfft.irfft(sfft.rfft(y) * ((6.0 / h ** 2) * (lam - 2.0) / (4.0 + lam)), n)
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
    dvt = np.real(sfft.ifft(1j * field_grid.k * sfft.fft(vt)))
    return _periodic_spline(-dvt, field_grid)


def _verlet(xs, ps, force, dt: float, n_steps: int):
    x = np.array(xs, dtype=np.float64, copy=True)
    p = np.array(ps, dtype=np.float64, copy=True)
    f = force(x)
    for _ in range(n_steps):
        p_half = p + 0.5 * dt * f
        x = x + dt * p_half
        f = force(x)
        p = p_half + 0.5 * dt * f
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(p))):
        raise NumericsError("trajectory integration produced non-finite values")
    return x, p


def _scalar_force(pot: PotentialSpec):
    # plain-float force for single-trajectory integration; the numpy
    # route costs ~10x per step at size 1
    if pot.kind == "harmonic":
        return lambda x: -x
    if pot.kind == "rough_power":
        th, r, q = pot.theta, CORE_RADIUS, TAIL_COEFF
        cr = (1.0 + th) * r ** th

        def force(x):
            ax = abs(x)
            if ax == 0.0:
                return 0.0
            sg = 1.0 if x > 0 else -1.0
            if ax <= r:
                return (1.0 + th) * ax ** th * sg
            return (cr - 4.0 * q * (ax - r) ** 3) * sg

        return force
    raise ConfigurationError("custom potentials have no closed-form gradient")


def integrate_hamiltonian(x0: float, p0: float, pot: PotentialSpec,
                          dt: float, t_final: float) -> SampledPath:
    """Störmer-Verlet path from (x0, p0) under the raw field, all steps kept."""
    if not (dt > 0 and t_final > 0):
        raise ConfigurationError("dt and t_final must be > 0")
    n_steps, h = time_steps(t_final, dt)
    ts = h * np.arange(n_steps + 1)
    xs = np.empty(n_steps + 1)
    ps = np.empty(n_steps + 1)
    xs[0], ps[0] = x0, p0
    force = _scalar_force(pot)
    x, p = float(x0), float(p0)
    try:
        f = force(x)
        for j in range(n_steps):
            p_half = p + 0.5 * h * f
            x = x + h * p_half
            f = force(x)
            p = p_half + 0.5 * h * f
            xs[j + 1], ps[j + 1] = x, p
    except OverflowError as exc:
        # plain-float powers raise instead of returning inf
        raise NumericsError(
            "trajectory integration produced non-finite values") from exc
    if not (np.isfinite(x) and np.isfinite(p)):
        raise NumericsError("trajectory integration produced non-finite values")
    return SampledPath(ts=ts, xs=xs, ps=ps)


def transport_particles(cloud: AtomicMeasure, pot: PotentialSpec,
                        eps_mollify: float, dt: float, t_final: float,
                        field_grid: PositionGrid | None = None) -> AtomicMeasure:
    """Push every atom through the (possibly mollified) field.

    Returns the transported atomic measure: the same masses, in the same
    order, at the Verlet endpoints. t_final may be negative (backward
    transport); dt is a positive step magnitude.
    """
    if not dt > 0:
        raise ConfigurationError("dt must be > 0")
    n_steps, h = time_steps(t_final, dt)
    if t_final == 0:
        return cloud
    force = _force_function(pot, eps_mollify, field_grid)
    x, p = _verlet(cloud.xs, cloud.ps, force, h, n_steps)
    return AtomicMeasure(np.stack([cloud.masses, x, p], axis=1))


# ---------------------------------------------------------------------------
# semi-Lagrangian Liouville solver


def _cubic_weights(s: np.ndarray) -> tuple[np.ndarray, ...]:
    # Catmull-Rom weights for fractional offset s in [0, 1)
    s2 = s * s
    s3 = s2 * s
    w0 = -0.5 * s3 + s2 - 0.5 * s
    w1 = 1.5 * s3 - 2.5 * s2 + 1.0
    w2 = -1.5 * s3 + 2.0 * s2 + 0.5 * s
    w3 = 0.5 * s3 - 0.5 * s2
    return w0, w1, w2, w3


class _FootInterpolator:
    """Clamped-bicubic step at fixed foot points, as one sparse matrix.

    The advecting field is autonomous, so the backward feet, and with
    them every cell's 4x4 Catmull-Rom stencil, are the same every step:
    the step is a fixed linear map, built once as a CSR matrix over the
    flattened grid. Each row holds the products sx[a] * sp[b] in (a, b)
    order, so the matvec sums in the order of a dense 16-term loop and
    rounds the same way. x is periodic; p is zero-padded, so stencil
    columns outside the p-window are left out of the matrix (they would
    multiply zero). Mass that leaves the p-window is lost, and nothing
    reports the loss.

    Each value is then clamped to the min and max of its 16 stencil
    values, zeros of out-of-window columns included: the step never
    expands the sup/inf bounds and keeps nonnegative data nonnegative.
    """

    _CHUNK = 8192  # cells per build block: bounds the (16, chunk) temporaries

    def __init__(self, xf, pf, x_grid: PositionGrid, p_grid: PositionGrid):
        nx, npts = x_grid.n_points, p_grid.n_points
        ip = np.floor((pf - p_grid.x_min) / p_grid.dx)
        # stencil columns ip-1 .. ip+2 that fall inside [0, npts)
        width = np.minimum(ip + 2, npts - 1) - np.maximum(ip - 1, 0) + 1
        indptr = np.zeros(nx * npts + 1, dtype=np.int64)
        np.cumsum(4 * np.clip(width, 0, 4).ravel(), out=indptr[1:])
        del ip, width
        data = np.empty(indptr[-1])
        indices = np.empty(indptr[-1], dtype=np.int32)
        # flat index of each stencil's origin in the (nx, npts + 5) window
        # arrays of _stencil_range
        self.origin = np.empty((nx, npts), dtype=np.int32)
        rows = max(1, self._CHUNK // npts)
        for r0 in range(0, nx, rows):
            blk = slice(r0, r0 + rows)
            gx = (xf[blk] - x_grid.x_min) / x_grid.dx
            gp = (pf[blk] - p_grid.x_min) / p_grid.dx
            ix = np.floor(gx).astype(np.int64)
            ip = np.floor(gp).astype(np.int64)
            sx = _cubic_weights(gx - ix)
            sp = _cubic_weights(gp - ip)
            w = np.empty((4, 4) + gx.shape)
            col = np.empty((4, 4) + gx.shape, dtype=np.int32)
            for a in range(4):
                row = ((ix + a - 1) % nx) * npts
                for b in range(4):
                    np.multiply(sx[a], sp[b], out=w[a, b])
                    # int32 holds every kept column (< nx * npts); the
                    # dropped ones may wrap
                    np.add(row, ip + b - 1, out=col[a, b], casting="unsafe")
            inside = [(ip >= 1 - b) & (ip < npts + 1 - b) for b in range(4)]
            keep = np.stack(4 * inside)
            # cell by cell, (a, b) order within a cell
            w, col, keep = (v.reshape(16, -1).T for v in (w, col, keep))
            start, stop = indptr[r0 * npts], indptr[min(r0 + rows, nx) * npts]
            data[start:stop] = w[keep]
            indices[start:stop] = col[keep]
            self.origin[blk] = (((ix - 1) % nx) * (npts + 5)
                                + np.clip(ip - 1, -4, npts) + 4)
        self.matrix = csr_matrix((data, indices, indptr),
                                 shape=(nx * npts, nx * npts))

    def _stencil_range(self, f: np.ndarray, op) -> np.ndarray:
        # op (np.minimum or np.maximum) over each cell's 4x4 stencil:
        # 4 rows periodically along x, then 4 columns along p over 4 zero
        # columns per side (so a clipped stencil reads zeros), read at the
        # stencil origins
        g = np.pad(f, ((0, 3), (0, 0)), mode="wrap")
        g = op(g[:-1], g[1:])
        g = op(g[:-2], g[2:])
        g = np.pad(g, ((0, 0), (4, 4)))
        g = op(g[:, :-1], g[:, 1:])
        g = op(g[:, :-2], g[:, 2:])
        return g.take(self.origin)

    def apply(self, f: np.ndarray) -> np.ndarray:
        out = (self.matrix @ f.ravel()).reshape(f.shape)
        # clamp to the stencil range: exact L-infinity non-expansion. One
        # bound at a time keeps one window array alive; lo <= hi, so this
        # is np.clip(out, lo, hi)
        np.maximum(out, self._stencil_range(f, np.minimum), out=out)
        np.minimum(out, self._stencil_range(f, np.maximum), out=out)
        return out


def _trace_feet(x_grid: PositionGrid, p_grid: PositionGrid, force, dt: float):
    # one backward RK4 step of (x' = p, p' = -V'(x)) from every node; the
    # first stage broadcasts, so its force is evaluated on the x-nodes only
    X = x_grid.nodes[:, None]
    P = p_grid.nodes[None, :]
    h = -dt

    def rhs(x, p):
        return p, force(x)

    k1x, k1p = rhs(X, P)
    k2x, k2p = rhs(X + 0.5 * h * k1x, P + 0.5 * h * k1p)
    k3x, k3p = rhs(X + 0.5 * h * k2x, P + 0.5 * h * k2p)
    k4x, k4p = rhs(X + h * k3x, P + h * k3p)
    xf = X + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
    pf = P + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
    return xf, pf


def liouville_semi_lagrangian(rho0: GridDensity, pot: PotentialSpec,
                              eps_mollify: float, dt: float,
                              t_final: float) -> GridDensity:
    """Solve  d rho/dt + p dx rho - V~'(x) dp rho = 0  by backward tracing.

    Foot points come from one RK4 step of the reversed characteristic
    flow. They are the same every step, so the clamped-bicubic gather is
    built once per call as a sparse matrix (see _FootInterpolator) and
    each step is one sparse matvec plus the clamp to the stencil range:
    sup/inf bounds never expand and nonnegative data stays nonnegative.
    x is periodic; mass that leaves the p-window is lost, and nothing
    reports the loss.
    """
    if not isinstance(rho0, GridDensity):
        raise RepresentationError("liouville_semi_lagrangian needs a grid density")
    if not (dt > 0 and t_final >= 0):
        raise ConfigurationError("dt must be > 0 and t_final >= 0")
    n_steps, h = time_steps(t_final, dt)
    if t_final == 0:
        return rho0
    x_grid, p_grid = rho0.grid.x_grid, rho0.grid.p_grid

    force = _force_function(pot, eps_mollify, x_grid)
    pmax = float(np.max(np.abs(p_grid.nodes)))
    fmax = float(np.max(np.abs(force(x_grid.nodes))))
    if pmax * h / x_grid.dx > 1.0 or fmax * h / p_grid.dx > 1.0:
        warnings.warn(
            f"semi-Lagrangian feet cross more than one cell per step "
            f"(x: {pmax * h / x_grid.dx:.2f}, p: {fmax * h / p_grid.dx:.2f} cells)",
            SemiphaseWarning)

    # the feet die with the constructor call, before the first step
    interp = _FootInterpolator(*_trace_feet(x_grid, p_grid, force, h),
                               x_grid, p_grid)

    f = rho0.values.copy()
    for _ in range(n_steps):
        f = interp.apply(f)
    return GridDensity(f, rho0.grid, tag=rho0.tag)
