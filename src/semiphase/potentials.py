"""Potential catalog, heat-kernel mollification, and assumption checks.

The catalog covers three kinds:

* ``harmonic``     v(x) = x^2/2, the exactly-solvable reference;
* ``rough_power``  v(x) = -|x|^{1+theta} on the core interval [-1, 1],
  continued C^1 by a confining quartic tail outside (the unstable-origin
  example driving the branch-splitting experiments);
* ``custom``       raw samples on the working grid; no experiment builds
  one, but the tests feed their oracles arbitrary sampled fields with it.

Mollification is the heat semigroup at time eps applied spectrally;
the Fourier-condition checker tests the dyadic-shell decay of |V^hat|
that the L^2 transport estimate requires.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft

from .errors import ConfigurationError, ShapeMismatchError
from .grids import PositionGrid

__all__ = [
    "PotentialSpec",
    "FourierConditionReport",
    "harmonic_potential",
    "rough_power_potential",
    "custom_potential",
    "evaluate",
    "evaluate_at",
    "gradient_at",
    "mollify",
    "check_fourier_conditions",
]

# rough_power tail past the core r: v(r) + v'(r)(|x|-r) + q(|x|-r)^4
CORE_RADIUS = 1.0  # r
TAIL_COEFF = 1.0  # q
_FOURIER_SLACK = 3.0  # allowed growth of a shell's ratio to the envelope
_SHELL_MIN = 16.0  # lowest shell edge: box-scale features dominate below


@dataclass(frozen=True)
class PotentialSpec:
    """Immutable description of a potential on the line.

    ``theta`` is only read for ``rough_power``. ``samples`` is only set
    for ``custom`` and is tied to the grid it was sampled on
    (length-checked at use sites).
    """

    kind: str
    theta: float = 0.0
    samples: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("harmonic", "rough_power", "custom"):
            raise ConfigurationError(f"unknown potential kind {self.kind!r}")
        if self.kind == "rough_power":
            if not (0.0 < self.theta < 1.0):
                raise ConfigurationError(
                    f"rough_power needs theta in (0,1), got {self.theta}")
        if self.kind == "custom" and self.samples is None:
            raise ConfigurationError("custom potential needs samples")


def harmonic_potential() -> PotentialSpec:
    return PotentialSpec(kind="harmonic")


def rough_power_potential(theta: float) -> PotentialSpec:
    return PotentialSpec(kind="rough_power", theta=theta)


def custom_potential(samples) -> PotentialSpec:
    return PotentialSpec(kind="custom",
                         samples=np.asarray(samples, dtype=np.float64))


def evaluate_at(pot: PotentialSpec, x) -> np.ndarray:
    """Pointwise v(x) for analytic kinds; works on arbitrary arrays."""
    x = np.asarray(x, dtype=np.float64)
    if pot.kind == "harmonic":
        return 0.5 * x ** 2
    if pot.kind == "rough_power":
        th, r, q = pot.theta, CORE_RADIUS, TAIL_COEFF
        ax = np.abs(x)
        core = -ax ** (1.0 + th)
        s = ax - r
        tail = -r ** (1.0 + th) - (1.0 + th) * r ** th * s + q * s ** 4
        return np.where(ax <= r, core, tail)
    raise ConfigurationError("custom potentials have no closed form; use evaluate()")


def gradient_at(pot: PotentialSpec, x) -> np.ndarray:
    """Pointwise v'(x); v'(0) = 0 for the rough kind (symmetric value)."""
    x = np.asarray(x, dtype=np.float64)
    if pot.kind == "harmonic":
        return x.copy()
    if pot.kind == "rough_power":
        th, r, q = pot.theta, CORE_RADIUS, TAIL_COEFF
        ax = np.abs(x)
        sg = np.sign(x)
        core = -(1.0 + th) * ax ** th * sg
        tail = (-(1.0 + th) * r ** th + 4.0 * q * (ax - r) ** 3) * sg
        return np.where(ax <= r, core, tail)
    raise ConfigurationError("custom potentials have no closed-form gradient")


def evaluate(pot: PotentialSpec, grid: PositionGrid) -> np.ndarray:
    """Samples of v on the grid nodes."""
    if pot.kind == "custom":
        if pot.samples.shape[0] != grid.n_points:
            raise ShapeMismatchError(
                f"custom samples length {pot.samples.shape[0]} != grid {grid.n_points}")
        return pot.samples.copy()
    if pot.kind == "rough_power":
        r = CORE_RADIUS
        if grid.x_min > -r or grid.x_max < r:
            raise ConfigurationError(
                f"grid [{grid.x_min}, {grid.x_max}] does not contain core [-{r}, {r}]")
    return evaluate_at(pot, grid.nodes)


def mollify(pot: PotentialSpec, eps: float, grid: PositionGrid) -> np.ndarray:
    """V~ = e^{eps * Laplacian} V on the grid (Gaussian blur, variance 2*eps)."""
    values = evaluate(pot, grid)
    if eps < 0:
        raise ConfigurationError(f"mollification time must be >= 0, got {eps}")
    mult = np.exp(-eps * grid.k ** 2)
    return np.real(sfft.ifft(mult * sfft.fft(values)))


def _core_window(grid: PositionGrid) -> np.ndarray:
    # C-infinity plateau around the origin: 1 on the core region, smooth
    # bump rolloff to 0 well inside the domain. The decay exponents under
    # test describe the singular structure at 0; the confining tail and
    # the periodization kink at the domain edge are smooth/artificial
    # features whose spectrum would otherwise swamp the shell sums. The
    # window's own spectrum falls faster than any power, so it does not
    # alter polynomial decay rates.
    r0 = CORE_RADIUS
    r1 = min(3.0 * r0, 0.45 * grid.length)
    if r1 <= r0:
        raise ConfigurationError(
            f"domain [{grid.x_min}, {grid.x_max}] too small around the "
            f"core radius {r0} for a spectral window")
    a = np.abs(grid.nodes)
    ramp = np.clip((r1 - a) / (r1 - r0), 0.0, 1.0)

    def f(t):
        out = np.zeros_like(t)
        pos = t > 0
        out[pos] = np.exp(-1.0 / t[pos])
        return out

    fr, fc = f(ramp), f(1.0 - ramp)
    return fr / (fr + fc + 1e-300)


@dataclass(frozen=True)
class FourierConditionReport:
    """Dyadic-shell decay check of |V^hat|.

    shell_integrals[j, m] holds sum |V^hat| |S|^m dS over shell j for
    m = 0, 1, 2; the reference envelope is C * |b^{m-1-theta} - a^{m-1-theta}|
    with a single fitted C and a declared slack factor.
    """

    shells: list
    shell_integrals: np.ndarray
    fitted_C: float
    theta_used: float
    slack: float
    passes: dict
    integrability_value: float

    @property
    def ok(self) -> bool:
        return all(self.passes.values())

    def to_json(self) -> str:
        return json.dumps({
            "shells": [[float(a), float(b)] for a, b in self.shells],
            "shell_integrals": np.asarray(self.shell_integrals).tolist(),
            "fitted_C": self.fitted_C,
            "theta_used": self.theta_used,
            "slack": self.slack,
            "passes": self.passes,
            "integrability_value": self.integrability_value,
            "ok": self.ok,
        }, sort_keys=True, indent=2)


def check_fourier_conditions(pot: PotentialSpec, grid: PositionGrid,
                             theta: float) -> FourierConditionReport:
    """Test |V^hat| against the shell bounds C|b^{m-1-theta} - a^{m-1-theta}|.

    Analytic potentials are windowed to their core region before
    transforming (see _core_window): the envelope describes the spectrum
    of the singular structure, and both the confining tail and the
    box-scale features otherwise dominate the low shells. For the same
    reason shells start at _SHELL_MIN rather than 1. Custom samples are
    transformed as given, which keeps |V^hat| exactly invariant under
    circular translation. The check targets the decay exponents, with a
    fitted constant and a multiplicative slack, since exact constants
    are not grid-attainable.
    """
    if pot.kind == "custom":
        v = evaluate(pot, grid)
    else:
        v = evaluate(pot, grid) * _core_window(grid)
    # continuous-normalization transform: V^hat(S_j) ~ dx * DFT
    vhat = np.abs(sfft.fft(v)) * grid.dx / np.sqrt(2 * np.pi)
    absS = np.abs(grid.k)
    dS = 2.0 * np.pi / grid.length

    kmax = absS.max()
    shells = []
    a = _SHELL_MIN
    while 2.0 * a <= 0.75 * kmax:
        shells.append((a, 2.0 * a))
        a *= 2.0
    if len(shells) < 3:
        raise ConfigurationError("grid too coarse for a shell analysis (need >= 3 dyadic shells)")

    integrals = np.zeros((len(shells), 3))
    for j, (lo, hi) in enumerate(shells):
        mask = (absS > lo) & (absS <= hi)
        for m in range(3):
            integrals[j, m] = np.sum(vhat[mask] * absS[mask] ** m) * dS

    # negligibility floor: cells carrying < 1e-8 of the full-spectrum mass
    # at their order are below any meaningful resolution (smooth spectra
    # bottom out at float noise); they pass without an envelope test and
    # do not influence the fit.
    totals = np.array([float(np.sum(vhat * absS ** m) * dS) for m in range(3)])
    negligible = integrals <= 1e-8 * totals[None, :]

    # envelope: exact shell integral of the critical spectrum |S|^{m-2-theta},
    # i.e. |b^e - a^e| / |e| with e = m-1-theta (for m <= 1 the printed
    # difference is negative, the magnitude is meant). Homogeneous-critical
    # data then sits at a shell-independent ratio to the envelope.
    envelope = np.zeros_like(integrals)
    for j, (lo, hi) in enumerate(shells):
        for m in range(3):
            e = m - 1.0 - theta
            envelope[j, m] = abs(hi ** e - lo ** e) / abs(e)

    live = ~negligible
    denom = float(np.sum((envelope * live) ** 2))
    fitted_C = float(np.sum(integrals * envelope * live) / denom) if denom > 0 else 0.0

    passes = {}
    # the substantive condition is the exponent: one constant must cover
    # every shell, so the ratio to the envelope may not grow along the
    # ladder beyond the slack factor. Spectra decaying faster than
    # critical (falling ratios) pass; flat-or-slower spectra fail.
    for m in range(3):
        ratios = integrals[:, m] / envelope[:, m]
        anchor = ratios[int(np.argmax(live[:, m]))]  # first live shell
        ok_col = negligible[:, m] | (ratios <= _FOURIER_SLACK * anchor + 1e-300)
        passes[f"shell_m{m}"] = bool(np.all(ok_col))

    # integrability of |V^hat| S^2/(1+S^2): finite on any grid, so report
    # the value and require the m=0 shell sums to be tailing off, which is
    # what convergence of the full integral rests on.
    integrability_value = float(np.sum(vhat * absS ** 2 / (1.0 + absS ** 2)) * dS)
    tail = integrals[-3:, 0]
    passes["integrability"] = bool(np.all(np.diff(tail) <= 0.0)
                                   or np.all(negligible[-3:, 0]))

    return FourierConditionReport(shells, integrals, fitted_C, theta,
                                  _FOURIER_SLACK, passes, integrability_value)

