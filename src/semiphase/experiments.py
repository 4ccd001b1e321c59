"""Named experiments over eps ladders, with manifests and CSV emission.

Each run_* function takes an ExperimentConfig, executes one scenario end
to end, optionally writes CSV tables plus a JSON manifest into the
output directory, and returns a RunManifest whose ``passed`` flag feeds
the CLI exit code. Acceptance is trend-based: the limit statements being
probed are asymptotic, so the harness asserts directions (monotone
decrease, positive fitted rates) and the closed-form oracles, never the
asymptotic constants themselves.

Each such assertion is a named gate, checked through _Emitter.gate: a
failed gate warns once, in the gate's own words, and a run passes iff
none of its gates failed. A driver without gates always passes.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._version import __version__
from .classical import (TrajectoryBranch, branch_family, branch_ode_residual,
                        characteristic_feet, transport_particles)
from .errors import ConfigurationError, NumericsError, SemiphaseWarning
from .grids import PhaseGrid, PositionGrid, _fast_len, build_position_grid, time_steps
from .gridio import write_csv
from .metrics import (_as_probability, _char_rows, _strictly_decreasing,
                      char_distance, char_function, fit_rate, l2_distance,
                      weak_distance)
from .phasespace import (AtomicMeasure, GridDensity, build_wigner_grid, husimi,
                         l2_norm, restrict_p, sup_norm, upsample2, wigner)
from .potentials import (PotentialSpec, check_fourier_conditions, evaluate_at,
                         harmonic_potential, rough_power_potential)
from .quantum import (PropagatorConfig, WaveFunction, _check_resolution, _strang,
                      _strang_factors, propagate, propagate_rows)
from .states import (ConcentratingProfile, RandomFamilySpec, _coherent_margin,
                     _window_points, check_epsn_operator_bound,
                     coherent_mixture, coherent_state, concentration_lattice,
                     concentrating_wigner_data, random_family)

__all__ = [
    "ExperimentConfig",
    "RunManifest",
    "EXPERIMENTS",
    "defaults_for",
    "resolve_experiment",
    "run_experiment",
    "run_harmonic_exact",
    "run_weak_convergence",
    "run_l2_mollified_rate",
    "run_concentration_split",
    "run_random_family",
    "run_conjecture_probe",
    "run_branch_atlas",
]

def _as_number(value, kind: str):
    """value read as a "float", an integral "int" or a "tuple" of floats."""
    if kind == "tuple":
        return tuple(_as_number(v, "float") for v in value)
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("a bool is not a number")
    if kind == "int" and isinstance(value, (int, np.integer)):
        return int(value)
    number = float(value)
    if kind == "int" and not number.is_integer():
        raise ValueError("not an integer")
    return int(number) if kind == "int" else number


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared configuration surface for all experiments.

    Not every field is meaningful for every experiment; defaults_for()
    returns a tuned instance per experiment name. delta_growth is the
    reported transport-regularity growth exponent (reporting only, never
    asserted).
    """

    experiment: str
    eps_ladder: tuple = (0.2, 0.1, 0.05, 0.025)
    theta: float = 0.5
    potential: str = "rough_power"
    grid_n: int = 1024
    x_min: float = -8.0
    x_max: float = 8.0
    dt: float = 1e-3
    dt_classical: float = 5e-3
    sample_times: tuple = (0.25, 0.5, 0.75, 1.0)
    delta_growth: float = 0.1
    seed: int = 0
    out_dir: str | None = None
    # weak-convergence / random-family datum
    datum_center: tuple = (1.5, 0.0)
    datum_sigma: float = 0.3
    datum_k: int = 7
    law: str = "gaussian"
    law_scale: tuple = (1.0, 1.0)
    m_samples: int = 64
    min_separation: float = 0.35
    # concentration-split profiles: a symmetric bump plus a shifted one
    even_radius: float = 0.8
    profile_center: tuple = (0.3, 0.0)
    profile_radius_u: float = 0.6
    profile_radius_v: float = 0.3
    n_side: int = 21
    # rate experiment momentum window
    p_window: float = 4.0
    # conjecture probe
    probe_family: str = "pure"
    box_area: float = 4.0 * np.pi
    # branch atlas
    theta_list: tuple = (0.1, 0.3, 0.5, 0.7)
    t0_list: tuple = (0.0, 0.5, 1.0)
    shadow_t1: float = 0.5
    shadow_t_final: float = 1.5
    shadow_dt: float = 1e-3

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigurationError(
                f"unknown experiment {self.experiment!r}; "
                f"choose from {', '.join(EXPERIMENTS)}")
        # JSON configs may quote numbers: read each numeric field by its
        # annotation, or refuse it by name
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in ("float", "int", "tuple"):
                try:
                    object.__setattr__(self, f.name, _as_number(value, f.type))
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ConfigurationError(
                        f"{f.name}: cannot read {value!r} as {f.type} ({exc})") from None
        if not self.eps_ladder or not all(0.0 < e < 1.0 for e in self.eps_ladder):
            raise ConfigurationError("eps_ladder entries must lie in (0, 1)")
        if not _strictly_decreasing(self.eps_ladder):
            raise ConfigurationError("eps_ladder must be strictly decreasing")
        for name in ("dt", "dt_classical", "shadow_dt", "p_window", "box_area"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigurationError(
                    f"{name} must be finite and > 0, got {getattr(self, name)}")
        # a pair of the wrong length fails deep inside a run otherwise
        for name in ("datum_center", "law_scale", "profile_center"):
            if len(getattr(self, name)) != 2:
                raise ConfigurationError(
                    f"{name} must be a pair, got {getattr(self, name)}")
        if not np.all(np.isfinite((self.shadow_t1, self.shadow_t_final))):
            raise ConfigurationError("shadow_t1 and shadow_t_final must be finite")
        if not self.sample_times or not np.all(np.isfinite(self.sample_times)):
            raise ConfigurationError(
                f"sample_times must be non-empty and finite, got {self.sample_times}")
        # the drivers key their per-time sums by sample time
        if len(set(self.sample_times)) != len(self.sample_times):
            raise ConfigurationError(
                f"sample_times must not repeat, got {self.sample_times}")
        # the lattices take (k - 1) // 2 points per side: an even size
        # would silently run the next smaller odd one
        if self.datum_k < 1 or self.datum_k % 2 == 0:
            raise ConfigurationError(f"datum_k must be odd and >= 1, got {self.datum_k}")
        if self.n_side < 3 or self.n_side % 2 == 0:
            raise ConfigurationError(f"n_side must be odd and >= 3, got {self.n_side}")


@dataclass(frozen=True)
class RunManifest:
    """Audit record of one experiment run."""

    experiment: str
    config: dict
    config_hash: str
    code_version: str
    records: dict
    outputs: tuple
    warnings: tuple
    wall_clock: float
    passed: bool

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2, default=_jsonable)


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)


def _config_hash(cfg: ExperimentConfig) -> str:
    # output plumbing is excluded: the hash identifies the science, so
    # identical hashes promise byte-identical CSV contents
    science = {k: v for k, v in asdict(cfg).items() if k != "out_dir"}
    payload = json.dumps(science, sort_keys=True, default=_jsonable)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _potential(cfg: ExperimentConfig) -> PotentialSpec:
    if cfg.potential == "harmonic":
        return harmonic_potential()
    if cfg.potential == "rough_power":
        return rough_power_potential(cfg.theta)
    raise ConfigurationError(f"unknown potential {cfg.potential!r}")


class _Emitter:
    """Collects CSV tables, gates, warnings and the manifest for one run.

    Used as a context manager: every SemiphaseWarning raised inside the
    block, by the driver or by library code, reaches the manifest once,
    in first-seen order. Warnings of other categories are shown again on
    exit, and the warning filters are restored even when the run raises.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.t0 = time.perf_counter()
        self.records: dict = {}
        self.outputs: list = []
        self.passed = True  # until a gate fails
        self.out_dir = Path(cfg.out_dir) if cfg.out_dir else None
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        self._catcher = warnings.catch_warnings(record=True)

    def __enter__(self) -> "_Emitter":
        self._caught = self._catcher.__enter__()
        warnings.simplefilter("always", SemiphaseWarning)
        return self

    def __exit__(self, *exc_info) -> None:
        self._catcher.__exit__(*exc_info)
        for w in self._caught:
            if not issubclass(w.category, SemiphaseWarning):
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)

    @staticmethod
    def warn(message: str) -> None:
        warnings.warn(message, SemiphaseWarning, stacklevel=2)

    def csv(self, name: str, header, rows):
        if self.out_dir is None:
            return
        path = self.out_dir / name
        write_csv(path, header, rows)
        self.outputs.append(name)

    def gate(self, name: str, ok: bool, value, bound: str) -> None:
        """One named acceptance check; ok says whether value meets bound.

        A failed gate warns once, naming value and bound, and fails the run.
        """
        if not ok:
            self.passed = False
            self.warn(f"gate failed: {name} = {value}, needs {bound}")

    def rate(self, eps_values, distances):
        """fit_rate over a ladder, recorded as fitted_slope and r_squared.

        Returns the RateFit, or None (with a warning) when too few
        positive distances leave no fit; dropped rungs warn with their
        count.
        """
        try:
            fit = fit_rate(eps_values, distances)
        except NumericsError as exc:
            self.warn(f"rate fit skipped: {exc}")
            return None
        if fit.dropped:
            self.warn(f"rate fit dropped {fit.dropped} non-positive distance(s)")
        self.records.update(fitted_slope=fit.fitted_slope, r_squared=fit.r_squared)
        return fit

    def finish(self) -> RunManifest:
        manifest = RunManifest(
            experiment=self.cfg.experiment,
            config=asdict(self.cfg),
            config_hash=_config_hash(self.cfg),
            code_version=__version__,
            records=self.records,
            outputs=tuple(self.outputs),
            warnings=tuple(dict.fromkeys(str(w.message) for w in self._caught
                                         if issubclass(w.category, SemiphaseWarning))),
            wall_clock=time.perf_counter() - self.t0,
            passed=self.passed,
        )
        if self.out_dir is not None:
            (self.out_dir / "manifest.json").write_text(manifest.to_json() + "\n")
        return manifest


def _sample_walks(cfg: ExperimentConfig, signs=(1,)) -> list:
    """One walk per sign: the sample times of that sign, away from t = 0.

    Refuses a config with no sample time of any of the signs.
    """
    walks = [sorted((t for t in cfg.sample_times if s * t > 0), key=abs)
             for s in signs]
    if not any(walks):
        raise ConfigurationError(
            f"{cfg.experiment} needs {'nonzero' if len(signs) > 1 else 'positive'} "
            "sample times")
    return walks


def _evolve_at(state, times, advance):
    """Yield (t, state) at each sample time in the given order, from t = 0.

    The one "propagate to the next sample time" loop, for quantum states
    and classical clouds alike. advance(state, span) moves a state by
    the signed gap from the previous sample time, so negative spans
    evolve backward.
    """
    t_prev = 0.0
    for t in times:
        state = advance(state, t - t_prev)
        t_prev = t
        yield t, state


def _schrodinger(pot: PotentialSpec, dt: float):
    """advance() for _evolve_at: Strang steps of |dt|, with dt < 0 on negative spans."""
    return lambda state, span: propagate(state, pot, PropagatorConfig(
        dt=dt if span >= 0 else -dt, t_final=abs(span)))


# rows per block; windows: steps per check, frame lag in cells, edge/tail
# bound, ring RK4 step, cells per sigma
_ROWS = 16
_CHECK, _DRIFT, _GUARD, _RING_DT, _SIGMA_CELLS = 8, 4, 1e-6, 0.05, 8


def _roll_rows(rows: np.ndarray, shifts) -> np.ndarray:
    """Row j read from index m + shifts[j] (periodic): exact, values only move.
    Each is a window of its row written twice; no shift returns rows itself."""
    if not np.any(shifts):
        return rows
    n = rows.shape[-1]
    windows = sliding_window_view(np.concatenate([rows, rows], axis=-1), n, axis=-1)
    return windows[np.arange(len(rows)), np.mod(shifts, n)]


class _Window:
    """Members on one periodic grid; row j is phi_j of the lab state
    e^{i b_j (x - a_j)/eps} phi_j(x - a_j), cells[j] = (a_j, b_j) / (dx, eps*2pi/L).

    Given rows: a fixed block, zero frames, stepped by propagate_rows.
    Given trace = (stops, centres[stop, j]), the classical centres at the
    ring's stops: a window on [-L/2, L/2) from their coherent states in
    the nearest frames, _CHECK Strang steps per check on its own clock t.
    A check doubles the block by exact padding while the edge mass (outer
    5% per side: in x) or the top eighth of |k|'s spectral share (in k)
    passes _GUARD, then rolls each frame _DRIFT cells off the centres
    interpolated at the check's time onto them in x and k (exact).
    Either kind moves in place through advance.
    """

    def __init__(self, grid: PositionGrid, eps: float, rows=None, trace=None):
        self.grid, self.eps, self.rows, self.trace = grid, eps, rows, trace
        self.t, self.recentres, self.edge, self.tail, self.h = 0.0, 0, 0.0, 0.0, 0.0
        self.peaks, self._tables = np.zeros(2), None  # largest |V| and |k| stepped
        self.cells = np.zeros((len(rows), 2), np.intp) if trace is None else (
            np.rint(trace[1][0] / self.unit).astype(np.intp))
        if trace is not None:
            self.rows = np.stack([coherent_state(x - a, p - b, eps, grid).values
                                  for (x, p), a, b in zip(trace[1][0], *self.frames)])
            self._guard()

    @property
    def unit(self) -> np.ndarray:
        return np.array([self.grid.dx, self.eps * 2.0 * np.pi / self.grid.length])

    @property
    def frames(self):  # (a, b), or None in the zero frame
        return None if self.trace is None else (self.cells * self.unit).T

    def _guard(self) -> None:
        n, w = self.grid.n_points, -(-self.grid.n_points // 20)
        dens = np.abs(self.rows) ** 2
        edge = float(np.max(dens[:, :w].sum(1) + dens[:, -w:].sum(1))) * self.grid.dx
        self._spec = np.fft.fft(self.rows, axis=-1)
        power = np.abs(self._spec) ** 2
        top = np.abs(self.grid.k) * self.grid.dx > 7.0 * np.pi / 8.0
        tail = float(np.max(power[:, top].sum(1) / power.sum(1)))
        if max(edge, tail) <= _GUARD:
            self.edge, self.tail = max(self.edge, edge), max(self.tail, tail)
            return
        if 2 * n > 2 ** 17 or not np.isfinite(edge + tail):
            raise NumericsError(f"window guard fails at n={n}: edge {edge:.1e}, tail {tail:.1e}")
        # in x: zero cells on both sides, L doubles; in k: zero modes, dx halves
        grow_x = edge > _GUARD
        self.rows = (np.pad(self.rows, ((0, 0), (n // 2, n // 2))) if grow_x
                     else np.stack([upsample2(r) for r in self.rows]))
        self.cells[:, int(grow_x)] *= 2
        self.grid, self._tables = build_position_grid(
            2 * n, (1 + grow_x) * self.grid.x_min, (1 + grow_x) * self.grid.x_max), None
        self._guard()

    def _reframe(self, t: float) -> None:
        """Roll each frame that lags the centres at time t by _DRIFT cells onto them."""
        stops, centres = self.trace
        i = np.clip(np.searchsorted(stops, t), 1, len(stops) - 1)
        w = (t - stops[i - 1]) / (stops[i] - stops[i - 1])
        target = (1.0 - w) * centres[i - 1] + w * centres[i]
        move = np.rint(target / self.unit).astype(np.intp) - self.cells
        move[np.abs(move) < _DRIFT] = 0
        if move[:, 1].any():
            self.rows = np.fft.ifft(_roll_rows(self._spec, move[:, 1]), axis=-1)
        self.rows = _roll_rows(self.rows, move[:, 0])
        self.cells += move
        self.recentres += int(np.count_nonzero(move))

    def _step_factors(self, pot: PotentialSpec, h: float):
        """Per-row V(a + y) and eps*k + b factors, sliced from lab tables over the trace."""
        n = self.grid.n_points
        if self._tables is None or self._tables[0] != h:
            cells = np.rint(self.trace[1] / self.unit)
            lo = cells.min(axis=(0, 1)).astype(np.intp) - n // 2 - 2
            hi = cells.max(axis=(0, 1)).astype(np.intp) + n // 2 + 2
            v = evaluate_at(pot, self.grid.dx * np.arange(lo[0], hi[0]))
            k = self.unit[1] / self.eps * np.arange(lo[1], hi[1])
            self.peaks = np.maximum(self.peaks, [np.max(np.abs(v)), np.max(np.abs(k))])
            self._tables = (h, lo, *_strang_factors(v, k, self.eps, h))
        _, lo, half_v, kin = self._tables
        q = np.rint(self.grid.k * self.eps / self.unit[1]).astype(np.intp)
        return (half_v[self.cells[:, :1] + (np.arange(n) - n // 2 - lo[0])],
                kin[self.cells[:, 1:] + (q - lo[1])])

    def advance(self, span: float, pot: PotentialSpec, dt: float) -> "_Window":
        """This block moved on by span, in place, and returned."""
        if self.trace is None:
            cfg = PropagatorConfig(dt=np.copysign(dt, span), t_final=abs(span))
            self.rows = propagate_rows(self.rows, self.eps, self.grid, pot, cfg)
            return self
        n, self.h = time_steps(span, dt)
        for i in range(0, n, _CHECK):
            self.rows = _strang(self.rows, *self._step_factors(pot, self.h), min(_CHECK, n - i))
            self._guard()
            self._reframe(self.t + self.h * min(i + _CHECK, n))
        self.t += span
        return self


def _walk_members(blocks, times, pot: PotentialSpec, dt: float):
    """Yield (t, j0, block): members j0, j0 + 1, ... as the _Window block at t.

    Each block, standing at t = 0, moves in place through the times by
    _evolve_at; a row whose ||psi||^2 is more than 1e-6 off 1 raises NumericsError.
    """
    j0 = 0
    for block in blocks:
        for t, moved in _evolve_at(block, times,
                                   lambda b, span: b.advance(span, pot, dt)):
            n2 = np.sum(np.abs(moved.rows) ** 2, axis=1) * moved.grid.dx
            if not np.all(np.abs(n2 - 1.0) <= 1e-6):
                raise NumericsError(f"t={t:g}: a member lost its norm, "
                                    f"||psi||^2 = {n2.tolist()}")
            yield t, j0, moved
        j0 += len(block.rows)


def _transport(pot: PotentialSpec, eps_mollify: float, dt: float,
               field_grid: PositionGrid | None = None):
    """advance() for _evolve_at: a cloud pushed along the flow by the signed span."""
    return lambda cloud, span: transport_particles(cloud, pot, eps_mollify, dt,
                                                   span, field_grid=field_grid)


def _coherent_wigner(x, p, x0: float, p0: float, eps: float):
    """Wigner function of the coherent state at (x0, p0), at the points (x, p)."""
    return (np.pi * eps) ** -1 * np.exp(-((x - x0) ** 2 + (p - p0) ** 2) / eps)


# ---------------------------------------------------------------------------
# HarmonicExact


def run_harmonic_exact(cfg: ExperimentConfig) -> RunManifest:
    """Quantum Wigner evolution against the rigidly rotated Gaussian.

    For quadratic symbols the quantum phase-space flow is exactly the
    classical rotation, so the only error is numerical; the run asserts
    L2 error < 1e-4 at every sampled time.
    """
    if cfg.potential != "harmonic":
        raise ConfigurationError("HarmonicExact requires the harmonic potential")
    if len(cfg.eps_ladder) != 1:
        raise ConfigurationError("HarmonicExact runs one eps; sweep a ladder instead")
    (eps,) = cfg.eps_ladder
    with _Emitter(cfg) as em:
        pot = _potential(cfg)
        grid = build_position_grid(cfg.grid_n, cfg.x_min, cfg.x_max)
        x0, p0 = cfg.datum_center
        psi = coherent_state(x0, p0, eps, grid)

        pgrid = build_wigner_grid(grid, eps)
        xs, ps = pgrid.x[:, None], pgrid.p[None, :]
        rows = []
        for t, state in _evolve_at(psi, sorted(cfg.sample_times),
                                   _schrodinger(pot, cfg.dt)):
            w_num = wigner(state)
            # classical rotation of the initial center (X' = P, P' = -X)
            xc = x0 * np.cos(t) + p0 * np.sin(t)
            pc = p0 * np.cos(t) - x0 * np.sin(t)
            w_exact = GridDensity(_coherent_wigner(xs, ps, xc, pc, eps), pgrid,
                                  tag="wigner")
            rows.append((t, l2_distance(w_num, w_exact)))
        em.csv("harmonic_exact.csv", ["t", "l2_error"], rows)
        max_err = float(np.max([err for _, err in rows]))
        em.records.update(eps=eps, max_l2_error=max_err, tolerance=1e-4)
        em.gate("max L2 error", max_err < 1e-4, f"{max_err:.3e}", "< 1e-4")
        return em.finish()


# ---------------------------------------------------------------------------
# shared datum helpers


def _mixture_datum(cfg: ExperimentConfig) -> AtomicMeasure:
    """Atoms of the fixed-width (eps-independent) coherent mixture.

    A datum_k x datum_k lattice over +-2 datum_sigma about datum_center
    with Gaussian masses; its coherent mixture is the quantum datum and
    the atoms themselves are its classical limit.
    """
    x0, p0 = cfg.datum_center
    sigma = cfg.datum_sigma
    h = (cfg.datum_k - 1) // 2
    offs = 2.0 * sigma * np.arange(-h, h + 1, dtype=np.float64) / max(h, 1)
    uu, vv = np.meshgrid(offs, offs, indexing="ij")
    wgt = np.exp(-(uu ** 2 + vv ** 2) / (2.0 * sigma ** 2))
    wgt = wgt / wgt.sum()
    return AtomicMeasure(np.stack([wgt.ravel(), x0 + uu.ravel(),
                                   p0 + vv.ravel()], axis=1))


# ---------------------------------------------------------------------------
# WeakConvergence


def run_weak_convergence(cfg: ExperimentConfig) -> RunManifest:
    """Husimi evolution against classically transported atoms, over eps.

    The datum is a fixed-width coherent mixture away from the rough
    core; the classical side is its atomic limit pushed through the raw
    field (plus a matched-mollification column for reporting). Asserts
    the sup-over-times distance decreases strictly along the ladder.
    """
    (times,) = _sample_walks(cfg)
    with _Emitter(cfg) as em:
        pot = _potential(cfg)
        datum = _mixture_datum(cfg)
        rows = []
        for eps in cfg.eps_ladder:
            grid = build_position_grid(cfg.grid_n, cfg.x_min, cfg.x_max)
            # the mixture's members as one row block, stepped together
            block = _Window(grid, eps, np.stack([coherent_state(x, p, eps, grid).values
                                                 for x, p in zip(datum.xs, datum.ps)]))
            quantum = _walk_members([block], times, pot, cfg.dt)
            raw = _evolve_at(datum, times, _transport(pot, 0.0, cfg.dt_classical))
            moll = _evolve_at(datum, times, _transport(pot, eps, cfg.dt_classical,
                                                       field_grid=grid))
            for (t, _, blk), (_, cloud_raw), (_, cloud_moll) in zip(quantum, raw, moll):
                # one characteristic function of the mixture per sample time
                (chi_q,) = _char_rows(blk.rows, datum.masses[None], eps, grid)
                _as_probability(chi_q)
                d_raw = char_distance(chi_q, char_function(cloud_raw), heat_time=eps)
                d_moll = char_distance(chi_q, char_function(cloud_moll), heat_time=eps)
                rows.append((eps, t, d_raw, d_moll))
        sups_raw, sups_moll = ([float(np.max([r[col] for r in rows if r[0] == eps]))
                                for eps in cfg.eps_ladder] for col in (2, 3))
        em.csv("weak_convergence_times.csv",
               ["eps", "t", "distance_raw_flow", "distance_mollified_flow"], rows)
        em.csv("weak_convergence_sup.csv",
               ["eps", "sup_distance_raw_flow", "sup_distance_mollified_flow"],
               list(zip(cfg.eps_ladder, sups_raw, sups_moll)))
        monotone = _strictly_decreasing(sups_raw)
        em.records.update(sup_distances=list(sups_raw),
                          sup_distances_mollified=list(sups_moll),
                          monotone_decreasing=monotone)
        em.rate(cfg.eps_ladder, sups_raw)
        em.gate("sup-distance ladder", monotone, sups_raw, "strictly decreasing")
        return em.finish()


# ---------------------------------------------------------------------------
# L2MollifiedRate


def _h2_norm(density: GridDensity) -> float:
    gx, gp = density.grid.x_grid, density.grid.p_grid
    mult = 1.0 + gx.k[:, None] ** 2 + gp.k[None, :gp.n_points // 2 + 1] ** 2
    power = np.abs(np.fft.rfft2(density.values) * mult) ** 2
    # the real transform's half spectrum: columns other than 0 and the
    # (even-length) Nyquist stand for a +-p pair
    total = 2.0 * power.sum() - power[:, 0].sum() - power[:, -1].sum()
    return float(np.sqrt(total / (gx.n_points * gp.n_points) * density.grid.cell_area))


def run_l2_mollified_rate(cfg: ExperimentConfig) -> RunManifest:
    """L2 gap between quantum Wigner and matched-mollification transport.

    For each eps: evolve a coherent datum quantum-mechanically, solve
    the Liouville equation in the field of V~ = e^{eps Lap} V (matched
    mollification) by pullback, as W0 at the backward characteristic
    feet, compare on a fixed momentum window, normalize by ||W0||.
    Asserts fitted log-log slope > 0 with r^2 > 0.9; the transport H^2
    growth is recorded, not enforced.
    """
    (times,) = _sample_walks(cfg)
    with _Emitter(cfg) as em:
        pot = _potential(cfg)
        grid = build_position_grid(cfg.grid_n, cfg.x_min, cfg.x_max)
        report = check_fourier_conditions(pot, grid, cfg.theta)
        if not report.ok:
            raise ConfigurationError(
                "potential fails the Fourier decay conditions; refusing the rate "
                "experiment:\n" + report.to_json())
        em.records["fourier_conditions"] = json.loads(report.to_json())

        x0, p0 = cfg.datum_center
        rows, sup_dists = [], []
        for eps in cfg.eps_ladder:
            psi = coherent_state(x0, p0, eps, grid)
            w0 = restrict_p(wigner(psi), cfg.p_window)
            norm0 = l2_norm(w0)
            state = rho = feet = None  # frees the last rung's arrays first: peak RSS
            sup_d = 0.0
            # two zipped walks: one walk over (state, feet) pairs raised peak RSS
            quantum = _evolve_at(psi, times, _schrodinger(pot, cfg.dt))
            classical = _evolve_at(
                (w0.grid.x[:, None], w0.grid.p[None, :]), times,
                lambda f, span: characteristic_feet(f, pot, eps, cfg.dt_classical,
                                                    -span, field_grid=grid))
            for (t, state), (_, feet) in zip(quantum, classical):
                rho = GridDensity(_coherent_wigner(*feet, x0, p0, eps), w0.grid,
                                  tag="wigner")
                w_t = restrict_p(wigner(state), cfg.p_window)
                d = l2_distance(w_t, rho) / norm0
                h2 = _h2_norm(rho)
                rows.append((eps, t, d, h2, h2 / (eps ** -cfg.delta_growth * norm0)))
                sup_d = float(np.maximum(sup_d, d))
            sup_dists.append(sup_d)
        em.csv("l2_rate_times.csv",
               ["eps", "t", "normalized_l2", "h2_transport", "h2_growth_ratio"],
               rows)
        em.csv("l2_rate_sup.csv", ["eps", "sup_normalized_l2"],
               list(zip(cfg.eps_ladder, sup_dists)))
        em.records.update(sup_distances=list(sup_dists),
                          delta_growth=cfg.delta_growth)
        fit = em.rate(cfg.eps_ladder, sup_dists)
        if len(cfg.eps_ladder) < 3:
            # a short ladder (a sweep point) has no rate: pass on finite distances
            em.gate("sup distances", bool(np.all(np.isfinite(sup_dists))),
                    sup_dists, "finite")
        else:
            slope, r2 = (fit.fitted_slope, fit.r_squared) if fit else (np.nan, np.nan)
            em.gate("rate fit (slope, r2)", slope > 0.0 and r2 > 0.9,
                    f"({slope:.3f}, {r2:.3f})", "(> 0, > 0.9)")
        return em.finish()


# ---------------------------------------------------------------------------
# ConcentrationSplit


def _split_profiles(cfg: ExperimentConfig) -> dict:
    return {
        "even": ConcentratingProfile(cfg.theta, (0.0, 0.0),
                                     cfg.even_radius, cfg.even_radius),
        "shifted": ConcentratingProfile(cfg.theta, tuple(cfg.profile_center),
                                        cfg.profile_radius_u,
                                        cfg.profile_radius_v),
    }


def _split_windows(cfg: ExperimentConfig, eps: float, pot: PotentialSpec, times,
                   jobs: list):
    """The mirror jobs as _walk_members blocks, their masses, and max |x|, |p|.

    A ring of 64 points at 4 sigma about each centre, all traced as one
    cloud, gives each window its trace (the centres at the ring's stops)
    and size: 1.5 times the ring's reach plus one check's move, in x and in
    p = pi*eps/dx, _DRIFT cells spare and sigma in _SIGMA_CELLS cells. A
    window as long as the domain or its grid (the finest dx, holding
    coherent_state's momentum window) runs there in a fixed block, last.
    """
    x0, p0 = np.array([job[:2] for job in jobs]).T
    z = 4.0 * np.sqrt(eps / 2.0) * np.r_[0.0, np.exp(2j * np.pi * np.arange(64) / 64)]
    ring = (x0[:, None] + z.real, p0[:, None] + z.imag)  # the centre, then the ring
    stops = np.linspace(0.0, times[-1], int(np.ceil(times[-1] / _RING_DT)) + 1)
    rk4 = lambda f, span: characteristic_feet(f, pot, 0.0, _RING_DT, span)
    trace = np.array([[(c[:, 0], np.max(np.abs(c - c[:, :1]), axis=1)) for c in f] for f in
                      itertools.chain([ring], (f for _, f in _evolve_at(ring, stops[1:], rk4)))])
    centres, reach = trace[:, :, 0], trace[:, :, 1].max(axis=0)  # (stop, x/p, job), (x/p, job)
    max_x, max_p = np.max(np.abs(centres), axis=(0, 2))
    length = cfg.x_max - cfg.x_min
    if (x_need := 1.05 * max_x + _coherent_margin(eps)) > length / 2.0:
        raise ConfigurationError(
            f"classical excursion {x_need:.3f} exceeds the half-domain "
            f"{length / 2:.3f}; widen [x_min, x_max]")
    # one check's move: the fastest speed between stops, over _CHECK steps
    move = np.max(np.abs(np.diff(centres, axis=0)), axis=0) * (_CHECK * cfg.dt / stops[1])
    half_x, half_p = 1.5 * reach + move
    dx = np.minimum(np.pi * eps / (half_p + _DRIFT * np.pi * eps / half_x),
                    np.sqrt(eps / 2.0) / _SIGMA_CELLS)
    dx = dx.min() * 2.0 ** np.floor(np.log2(dx / dx.min()))  # rung's finest * 2^i
    need = 2.0 * half_x / dx + 2 * _DRIFT  # n: 2^j or 3 * 2^j
    n = np.maximum(8, np.minimum(2 ** np.ceil(np.log2(need)),
                                 3 * 2 ** np.ceil(np.log2(need / 3)))).astype(int)
    n_domain = 2 * _fast_len(
        int(max(_window_points(1.05 * max_p, eps, length), length / dx.min()) / 2) + 1)
    domain = (2.0 * half_x >= length) | (n >= n_domain)  # one fixed grid for all of these
    keys = list(zip(domain, np.where(domain, 0.0, dx), np.where(domain, n_domain, n)))
    order = sorted(range(len(jobs)), key=keys.__getitem__)

    def blocks():
        for (on_domain, d, m), group in itertools.groupby(order, keys.__getitem__):
            group = list(group)
            for part in (group[lo:lo + _ROWS] for lo in range(0, len(group), _ROWS)):
                if not on_domain:
                    grid = build_position_grid(m, -0.5 * m * d, 0.5 * m * d)
                    yield _Window(grid, eps,
                                  trace=(stops, centres[:, :, part].transpose(0, 2, 1)))
                    continue
                grid = build_position_grid(m, cfg.x_min, cfg.x_max)
                yield _Window(grid, eps, np.stack([coherent_state(x0[j], p0[j], eps, grid)
                                                   .values for j in part]))

    return blocks(), np.array([jobs[j][2:] for j in order]).T, float(max_x), float(max_p)


def _mirror_jobs(lattice: AtomicMeasure) -> list:
    """Pair lattice atoms with their exact phase-space negations.

    Returns (x, p, mass, mirror mass) per job, the mirror mass 0 for an
    unpaired atom. The parity flip of a coherent state is the coherent
    state at the negated center, and evolution under an even potential
    commutes with parity, so a mirror member's characteristic function
    is the complex conjugate of its partner's; each pair costs one
    propagation.
    """
    atoms = lattice.atoms.tolist()
    index = {(x, p): i for i, (_, x, p) in enumerate(atoms)}
    jobs, seen = [], set()
    for i, (m, x, p) in enumerate(atoms):
        if i in seen:
            continue
        j = index.get((-x, -p))
        paired = j is not None and j != i and j not in seen
        jobs.append((x, p, m, atoms[j][0] if paired else 0.0))
        seen.update((i, j) if paired else (i,))
    return jobs


def _halfplane_weights(nodes: np.ndarray, eps: float, xsep: float) -> np.ndarray:
    """Weights (mass above +xsep, below -xsep) at lab nodes, (2, *nodes.shape):
    the Husimi x-marginal is |psi|^2 blurred by a variance-2eps Gaussian."""
    z = np.array([xsep - nodes, nodes + xsep]) / (2.0 * np.sqrt(eps))
    return 0.5 * np.array([math.erfc(v) for v in z.ravel().tolist()]).reshape(z.shape)


def run_concentration_split(cfg: ExperimentConfig) -> RunManifest:
    """Concentrating data on the unstable hilltop: mass splits two ways.

    For each profile (symmetric and shifted bump) and each eps, the
    realizing coherent lattice, each mirror job on its co-moving window
    (_split_windows), is compared against the two-atom measure on the
    outgoing branches, with masses c+/c- the bump's half-plane masses.
    Asserts the Husimi-side distance ladder decreases at every sampled
    time and that empirical half-plane masses match c+/c- at the
    smallest eps.
    """
    if cfg.potential != "rough_power":
        raise ConfigurationError("ConcentrationSplit requires rough_power")
    (times,) = _sample_walks(cfg)
    with _Emitter(cfg) as em:
        pot = _potential(cfg)
        branch = TrajectoryBranch(sign=1, t0=0.0, theta=cfg.theta)
        length = cfg.x_max - cfg.x_min
        dist_rows, mass_rows, real_rows = [], [], []
        em.records["profiles"] = {}
        eps_smallest = cfg.eps_ladder[-1]
        for pname, profile in _split_profiles(cfg).items():
            c_plus, c_minus = profile.half_masses()
            prec: dict = {"c_plus": c_plus, "c_minus": c_minus, "per_eps": []}
            husimi_dists = {t: [] for t in times}
            for eps in cfg.eps_ladder:
                jobs = _mirror_jobs(lattice := concentration_lattice(profile, eps, cfg.n_side))
                # (self, mirror) masses in the order of the blocks
                blocks, masses, max_x, max_p = _split_windows(cfg, eps, pot, times, jobs)
                # the raster is only summed: the resolution rule alone sizes it
                n_grid = 2 * (int(length / profile.resolution(eps)[0]) // 2 + 1)
                rc = concentrating_wigner_data(profile, eps, PhaseGrid(build_position_grid(
                    n_grid, cfg.x_min, cfg.x_max), build_position_grid(512, -1.0, 1.0)), lattice)
                chi_acc, right_left = dict.fromkeys(times, 0.0), dict.fromkeys(times, 0.0)
                xseps = {t: branch.X(t) / 2.0 for t in times}
                wins = {}  # j0: the block at the last sample time
                for t, j0, blk in _walk_members(blocks, times, pot, cfg.dt):
                    w_self, w_mirror = masses[:, j0:j0 + len(blk.rows)]
                    chi_self, chi_mirror = _char_rows(blk.rows, (w_self, w_mirror),
                                                      eps, blk.grid, blk.frames)
                    chi_acc[t] += chi_self + np.conj(chi_mirror)
                    # (above, below) at each member's lab nodes, tabulated once
                    # per lab node that the block spans; a mirror swaps them
                    n, lo = blk.grid.n_points, blk.cells[:, 0].min()
                    lab = blk.grid.x_min + blk.grid.dx * np.arange(lo, blk.cells[:, 0].max() + n)
                    weights = _halfplane_weights(lab, eps, xseps[t])[
                        :, blk.cells[:, :1] - lo + np.arange(n)]
                    half = np.sum(weights * np.abs(blk.rows) ** 2, axis=-1) * blk.grid.dx
                    right_left[t] += half @ w_self + half[::-1] @ w_mirror
                    wins[j0] = blk
                if framed := [b for b in wins.values() if b.trace is not None]:
                    # once per rung, at the largest |V(a + y)| and |k + b/eps| stepped
                    _check_resolution(*np.array([b.peaks for b in framed]).T, eps, framed[0].h)
                rows_n = sorted(b.grid.n_points for b in wins.values() for _ in b.rows)
                mid = (rows_n[(len(rows_n) - 1) // 2] + rows_n[len(rows_n) // 2]) / 2
                window = {"window_n": [rows_n[0], mid, rows_n[-1]],
                          "recentres": sum(b.recentres for b in wins.values()),
                          "max_edge_mass": max(b.edge for b in wins.values()),
                          "max_spectral_tail": max(b.tail for b in wins.values())}
                per_eps = {"eps": eps, "n_grid": n_grid, "lam": rc.lam,
                           "l2_gap": rc.l2_gap, "target_mass": rc.target_mass,
                           "max_classical_p": max_p, "max_classical_x": max_x,
                           "n_members": len(lattice), **window, "times": []}
                for t in times:
                    right, left = right_left[t].tolist()
                    _as_probability(chi_acc[t])
                    chi_at = char_function(AtomicMeasure(
                        ((c_plus, branch.X(t), branch.P(t)),
                         (c_minus, -branch.X(t), -branch.P(t)))))
                    d_hus = char_distance(chi_acc[t], chi_at, heat_time=eps)
                    d_wig = char_distance(chi_acc[t], chi_at)
                    husimi_dists[t].append(d_hus)
                    dist_rows.append((pname, eps, t, d_hus, d_wig))
                    mass_rows.append((pname, eps, t, right, left,
                                      c_plus, c_minus, xseps[t]))
                    per_eps["times"].append({"t": t, "d_husimi": d_hus,
                                             "d_wigner": d_wig,
                                             "right_mass": right,
                                             "left_mass": left})
                    if eps == eps_smallest and pname == "even":
                        em.gate(f"even masses at t={t}",
                                np.maximum(abs(right - 0.5), abs(left - 0.5)) <= 0.05,
                                f"({right:.3f}, {left:.3f})", "0.5 +- 0.05")
                    elif eps == eps_smallest:
                        em.gate(f"{pname} right mass at t={t}",
                                abs(right - c_plus) <= 0.07,
                                f"{right:.3f}", f"c+={c_plus:.3f} +- 0.07")
                real_rows.append((pname, eps, rc.lam, len(lattice), n_grid,
                                  rc.l2_gap, rc.target_mass, max_p, max_x,
                                  *window["window_n"], window["recentres"],
                                  window["max_edge_mass"], window["max_spectral_tail"]))
                prec["per_eps"].append(per_eps)
            for t, ds in husimi_dists.items():
                em.gate(f"{pname} husimi distance ladder at t={t}",
                        _strictly_decreasing(ds), ds, "strictly decreasing")
            prec["husimi_distances"] = {str(t): husimi_dists[t] for t in times}
            em.records["profiles"][pname] = prec
        em.csv("split_distances.csv",
               ["profile", "eps", "t", "d_husimi", "d_wigner"], dist_rows)
        em.csv("split_masses.csv",
               ["profile", "eps", "t", "right_mass", "left_mass", "c_plus",
                "c_minus", "x_sep"], mass_rows)
        em.csv("split_realization.csv",
               ["profile", "eps", "lam", "n_members", "grid_n", "l2_gap", "target_mass",
                "max_classical_p", "max_classical_x", "window_n_min", "window_n_median",
                "window_n_max", "recentres", "max_edge_mass", "max_spectral_tail"], real_rows)
        return em.finish()


# ---------------------------------------------------------------------------
# RandomFamily


def _family_spec(cfg: ExperimentConfig) -> RandomFamilySpec:
    return RandomFamilySpec(law=cfg.law, center=(0.0, 0.0),
                            scale=tuple(cfg.law_scale),
                            m_samples=cfg.m_samples, seed=cfg.seed,
                            min_separation=cfg.min_separation)


def run_random_family(cfg: ExperimentConfig) -> RunManifest:
    """Averaged sup-distance between sampled quantum and classical paths.

    A seeded family of phase points (same points at every eps) is mapped
    to coherent states; each sample's Husimi evolution is compared to
    the Dirac path of its own classical trajectory under the matched
    mollified field, over a symmetric time window. Asserts the sample
    average of sup-over-time distances decreases along the ladder; the
    operator-bound ratio is reported, with a warning stamp when > 1.
    """
    walks = _sample_walks(cfg, (1, -1))
    with _Emitter(cfg) as em:
        pot = _potential(cfg)
        grid = build_position_grid(cfg.grid_n, cfg.x_min, cfg.x_max)
        family = random_family(_family_spec(cfg))

        avg_rows, sample_rows = [], []
        averages, ratios = [], []
        for eps in cfg.eps_ladder:
            ens = coherent_mixture(family, eps, grid)
            ratio = check_epsn_operator_bound(ens)
            ratios.append(ratio)
            if ratio > 1.0:
                em.warn(f"eps={eps:g}: operator-bound ratio {ratio:.3f} > 1; "
                        "outside the slow-concentration assumption regime")
            # classical endpoints for all samples, one walk each way
            transport = _transport(pot, eps, cfg.dt_classical, field_grid=grid)
            moved = {t: cloud for times in walks
                     for t, cloud in _evolve_at(family, times, transport)}

            sups = [0.0] * len(ens.members)
            rows = np.stack([s.values for _, s in ens.members])
            for times in walks:  # each walk from t = 0, on blocks of its own
                blocks = (_Window(grid, eps, rows[i:i + _ROWS])
                          for i in range(0, len(rows), _ROWS))
                for t, j0, blk in _walk_members(blocks, times, pot, cfg.dt):
                    for idx, row in enumerate(blk.rows, j0):
                        # one atom of the moved family: char_function drops its mass
                        atom = AtomicMeasure(moved[t].atoms[idx:idx + 1])
                        d = weak_distance(WaveFunction(row, eps, grid), atom,
                                          heat_time=eps)
                        sups[idx] = float(np.maximum(sups[idx], d))
            sample_rows.extend((eps, idx, family.xs[idx], family.ps[idx], sup_d)
                               for idx, sup_d in enumerate(sups))
            avg = float(np.mean(sups))
            averages.append(avg)
            avg_rows.append((eps, avg, ratio))
        em.csv("random_family.csv",
               ["eps", "avg_sup_distance", "operator_bound_ratio"], avg_rows)
        em.csv("random_family_samples.csv",
               ["eps", "sample", "x0", "p0", "sup_distance"], sample_rows)
        monotone = _strictly_decreasing(averages)
        em.records.update(averages=averages, operator_bound_ratios=ratios,
                          monotone_decreasing=monotone,
                          m_samples=cfg.m_samples, law=cfg.law)
        em.gate("averaged sup-distances", monotone, averages, "strictly decreasing")
        return em.finish()


# ---------------------------------------------------------------------------
# ConjectureProbe


def _probe_atoms(cfg: ExperimentConfig, eps: float) -> AtomicMeasure:
    if cfg.probe_family == "pure":
        x0, p0 = cfg.datum_center
        return AtomicMeasure(((1.0, x0, p0),))
    if cfg.probe_family == "box":
        half = np.sqrt(cfg.box_area) / 2.0
        m_side = max(2, round(np.sqrt(cfg.box_area / (2.0 * np.pi * eps))))
        offs = half * (2.0 * np.arange(m_side) + 1.0 - m_side) / m_side
        w = 1.0 / m_side ** 2
        return AtomicMeasure([(w, x0, p0) for x0 in offs for p0 in offs])
    if cfg.probe_family == "density":
        return random_family(_family_spec(cfg))
    raise ConfigurationError(f"unknown probe family {cfg.probe_family!r}")


def run_conjecture_probe(cfg: ExperimentConfig) -> RunManifest:
    """Husimi sup-norm growth of eps-dependent families; no pass/fail.

    Emits sup, sup*eps and sup*2*pi*eps per ladder point next to the
    1/eps bound line. Pure coherent families grow like 1/eps; box
    mixtures with about area/(2 pi eps) members stay bounded.
    """
    with _Emitter(cfg) as em:
        grid = build_position_grid(cfg.grid_n, cfg.x_min, cfg.x_max)
        rows, sups = [], []
        for eps in cfg.eps_ladder:
            ens = coherent_mixture(_probe_atoms(cfg, eps), eps, grid)
            sup = sup_norm(husimi(wigner(ens), eps))
            sups.append(sup)
            rows.append((eps, len(ens.members), sup, sup * eps,
                         sup * 2.0 * np.pi * eps, 1.0 / eps))
        em.csv("conjecture_probe.csv",
               ["eps", "n_members", "husimi_sup", "sup_times_eps",
                "sup_times_2pi_eps", "bound_inv_eps"], rows)
        em.records.update(family=cfg.probe_family, sups=sups,
                          sup_times_eps=[s * e for s, e in zip(sups, cfg.eps_ladder)])
        return em.finish()


# ---------------------------------------------------------------------------
# BranchAtlas


def run_branch_atlas(cfg: ExperimentConfig) -> RunManifest:
    """Closed-form trajectory branches, ODE residuals, integrated shadows.

    For every theta in the list: the rest branch plus +-branches with
    each configured delay; residuals of the closed forms against the
    Hamiltonian ODE must stay below 1e-6, and the characteristics
    started on both undelayed branches at shadow_t1 must track them to
    relative error 1e-5 at shadow_t_final. Eleven evenly spaced shadow
    samples per branch are written.
    """
    for theta in cfg.theta_list:
        if theta >= 0.95:
            raise ConfigurationError(
                f"theta={theta} too close to 1: branch exponent 2/(1-theta) "
                "diverges; restrict to theta < 0.95")
    if not cfg.shadow_t_final > cfg.shadow_t1:
        raise ConfigurationError(
            f"shadow_t_final={cfg.shadow_t_final} must exceed "
            f"shadow_t1={cfg.shadow_t1}")
    with _Emitter(cfg) as em:
        branch_rows, resid_rows, shadow_rows = [], [], []
        max_resid = max_shadow_rel = 0.0
        ts = np.linspace(0.0, cfg.shadow_t_final, 61)
        t_abs = np.linspace(cfg.shadow_t1, cfg.shadow_t_final, 11)
        for theta in cfg.theta_list:
            pot = rough_power_potential(theta)
            spec_list = [(0, 0.0)] + [(s, t0) for s in (1, -1) for t0 in cfg.t0_list]
            for br in branch_family(theta, spec_list):
                branch_rows.append((theta, br.sign, br.t0, br.nu, br.c0))
                for t in ts:
                    if abs(t - br.t0) < 0.02:
                        continue
                    r1, r2 = branch_ode_residual(br, t)
                    max_resid = float(np.max([max_resid, abs(r1), abs(r2)]))
                    resid_rows.append((theta, br.sign, br.t0, t, r1, r2))
            # both signs walk as one pair of arrays
            branches = branch_family(theta, [(1, 0.0), (-1, 0.0)])
            start = (np.array([br.X(cfg.shadow_t1) for br in branches]),
                     np.array([br.P(cfg.shadow_t1) for br in branches]))
            walk = _evolve_at(start, t_abs - cfg.shadow_t1,
                              lambda f, span: characteristic_feet(
                                  f, pot, 0.0, cfg.shadow_dt, span))
            shadows = [feet for _, feet in walk]
            for i, br in enumerate(branches):
                for t, (xs, ps) in zip(t_abs, shadows):
                    shadow_rows.append((theta, br.sign, t, br.X(t), br.P(t),
                                        xs[i], ps[i]))
                xb, pb = br.X(t_abs[-1]), br.P(t_abs[-1])
                xs, ps = shadows[-1]
                rel = float(np.hypot(xs[i] - xb, ps[i] - pb) / np.hypot(xb, pb))
                max_shadow_rel = float(np.maximum(max_shadow_rel, rel))
        em.csv("atlas_branches.csv", ["theta", "sign", "t0", "nu", "c0"],
               branch_rows)
        em.csv("atlas_residuals.csv", ["theta", "sign", "t0", "t", "r1", "r2"],
               resid_rows)
        em.csv("atlas_shadows.csv",
               ["theta", "sign", "t", "x_branch", "p_branch", "x_shadow",
                "p_shadow"], shadow_rows)
        em.records.update(max_residual=max_resid, max_shadow_rel_error=max_shadow_rel,
                          n_branches=len(branch_rows))
        em.gate("max ODE residual", max_resid < 1e-6, f"{max_resid:.3e}", "< 1e-6")
        em.gate("max shadow rel error", max_shadow_rel < 1e-5,
                f"{max_shadow_rel:.3e}", "< 1e-5")
        return em.finish()


# ---------------------------------------------------------------------------
# registry


EXPERIMENTS = {
    "HarmonicExact": run_harmonic_exact,
    "WeakConvergence": run_weak_convergence,
    "L2MollifiedRate": run_l2_mollified_rate,
    "ConcentrationSplit": run_concentration_split,
    "RandomFamily": run_random_family,
    "ConjectureProbe": run_conjecture_probe,
    "BranchAtlas": run_branch_atlas,
}

_ALIASES = {name.lower(): name for name in EXPERIMENTS}


def resolve_experiment(name: str) -> str:
    """Canonical experiment name from CamelCase or kebab-case input."""
    key = name.strip().lower().replace("-", "")
    if key in _ALIASES:
        return _ALIASES[key]
    raise ConfigurationError(
        f"unknown experiment {name!r}; choose from "
        f"{', '.join(sorted(EXPERIMENTS))}")


# each experiment's departures from the ExperimentConfig field defaults
_DEFAULTS = {
    "HarmonicExact": dict(potential="harmonic", eps_ladder=(0.05,),
                          sample_times=tuple(float(np.pi / 2) * s
                                             for s in (0.25, 0.5, 0.75, 1.0)),
                          datum_center=(0.8, -0.6)),
    "L2MollifiedRate": dict(dt_classical=5e-2),
    "ConcentrationSplit": dict(eps_ladder=(1e-2, 1e-3, 1e-4), dt=2e-3,
                               x_min=-2.0, x_max=2.0, sample_times=(0.5, 1.0)),
    "RandomFamily": dict(potential="harmonic", law="hardcore_gaussian",
                         law_scale=(1.5, 1.5),
                         sample_times=(-1.0, -0.5, 0.5, 1.0)),
    "ConjectureProbe": dict(potential="harmonic", datum_center=(0.0, 0.0)),
}


def defaults_for(experiment: str, **overrides) -> ExperimentConfig:
    """Tuned default config for a named experiment (aliases accepted)."""
    name = resolve_experiment(experiment)
    return ExperimentConfig(name, **{**_DEFAULTS.get(name, {}), **overrides})


def run_experiment(cfg: ExperimentConfig) -> RunManifest:
    """Dispatch a config to its experiment driver."""
    return EXPERIMENTS[cfg.experiment](cfg)
