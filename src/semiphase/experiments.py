"""Named experiments over eps ladders, with manifests and CSV emission.

Each run_* function takes an ExperimentConfig, executes one scenario end
to end, optionally writes CSV tables plus a JSON manifest into the
output directory, and returns a RunManifest whose ``passed`` flag feeds
the CLI exit code. Acceptance is trend-based: the limit statements being
probed are asymptotic, so the harness asserts directions (monotone
decrease, positive fitted rates) and the closed-form oracles, never the
asymptotic constants themselves.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import time
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
import scipy.fft as sfft
from scipy.special import erfc

from ._version import __version__
from .classical import (TrajectoryBranch, branch_family, branch_ode_residual,
                        characteristic_feet, transport_particles)
from .errors import ConfigurationError, NumericsError, SemiphaseWarning
from .grids import PhaseGrid, PositionGrid, build_position_grid
from .gridio import write_csv, write_grid
from .metrics import (NODES, _strictly_decreasing, char_distance,
                      char_function, fit_rate, l2_distance, weak_distance)
from .phasespace import (AtomicMeasure, GridDensity, build_wigner_grid, husimi,
                         l2_norm, restrict_p, sup_norm, wigner)
from .potentials import (PotentialSpec, check_fourier_conditions,
                         harmonic_potential, rough_power_potential)
from .quantum import (PropagatorConfig, WaveFunction, propagate,
                      propagate_ensemble, propagate_rows)
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
    dump_grids: bool = False
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
    science = {k: v for k, v in asdict(cfg).items()
               if k not in ("out_dir", "dump_grids")}
    payload = json.dumps(science, sort_keys=True, default=_jsonable)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _potential(cfg: ExperimentConfig) -> PotentialSpec:
    if cfg.potential == "harmonic":
        return harmonic_potential()
    if cfg.potential == "rough_power":
        return rough_power_potential(cfg.theta)
    raise ConfigurationError(f"unknown potential {cfg.potential!r}")


class _Emitter:
    """Collects CSV tables, warnings and the manifest for one run.

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

    def grid(self, name: str, values):
        if self.out_dir is None or not self.cfg.dump_grids:
            return
        write_grid(self.out_dir / name, values)
        self.outputs.append(name)

    def finish(self, passed: bool) -> RunManifest:
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
            passed=passed,
        )
        if self.out_dir is not None:
            (self.out_dir / "manifest.json").write_text(manifest.to_json() + "\n")
        return manifest


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


def _schrodinger(propagator, pot: PotentialSpec, dt: float):
    """advance() for _evolve_at: Strang steps of |dt|, with dt < 0 on negative spans."""
    return lambda state, span: propagator(state, pot, PropagatorConfig(
        dt=dt if span >= 0 else -dt, t_final=abs(span)))


# members stacked into one (rows, n) block for propagate_rows
_ROWS = 16


def _walk_members(starts, walks, pot: PotentialSpec, dt: float):
    """Yield (t, j, psi): member j at each sample time of each walk.

    starts are WaveFunctions on one grid and eps. They are stacked _ROWS
    at a time, and each walk (a list of sample times) runs from the
    block's start rows through _evolve_at, so one propagate_rows call
    steps the whole block. Blocks come in member order and each sample
    time lists its members in order, so a per-t sum over the yields adds
    in member order.
    """
    starts = iter(starts)
    j0 = 0
    while block := list(itertools.islice(starts, _ROWS)):
        eps, grid = block[0].eps, block[0].grid
        advance = _schrodinger(
            lambda rows, pot, cfg: propagate_rows(rows, eps, grid, pot, cfg),
            pot, dt)
        rows = np.stack([s.values for s in block])
        for times in walks:
            for t, moved in _evolve_at(rows, times, advance):
                for j, row in enumerate(moved, j0):
                    yield t, j, WaveFunction(row, eps, grid)
        j0 += len(block)


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
        xs = pgrid.x[:, None]
        ps = pgrid.p[None, :]
        rows = []
        for t, state in _evolve_at(psi, sorted(cfg.sample_times),
                                   _schrodinger(propagate, pot, cfg.dt)):
            w_num = wigner(state)
            # classical rotation of the initial center (X' = P, P' = -X)
            xc = x0 * np.cos(t) + p0 * np.sin(t)
            pc = p0 * np.cos(t) - x0 * np.sin(t)
            w_exact = GridDensity(_coherent_wigner(xs, ps, xc, pc, eps), pgrid,
                                  tag="wigner")
            err = l2_distance(w_num, w_exact)
            rows.append((t, err))
            em.grid(f"wigner_t{t:.4f}.grid", w_num.values)
        em.csv("harmonic_exact.csv", ["t", "l2_error"], rows)
        max_err = float(max(err for _, err in rows))
        em.records.update(eps=eps, max_l2_error=max_err, tolerance=1e-4)
        passed = max_err < 1e-4
        if not passed:
            em.warn(f"max L2 error {max_err:.3e} exceeds the 1e-4 bound")
        return em.finish(passed=passed)


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
    times = sorted(t for t in cfg.sample_times if t > 0)
    if not times:
        raise ConfigurationError("WeakConvergence needs positive sample times")
    with _Emitter(cfg) as em:
        pot = _potential(cfg)
        datum = _mixture_datum(cfg)
        rows = []
        for eps in cfg.eps_ladder:
            grid = build_position_grid(cfg.grid_n, cfg.x_min, cfg.x_max)
            ens = coherent_mixture(datum, eps, grid)
            quantum = _evolve_at(ens, times,
                                 _schrodinger(propagate_ensemble, pot, cfg.dt))
            raw = _evolve_at(datum, times, _transport(pot, 0.0, cfg.dt_classical))
            moll = _evolve_at(datum, times, _transport(pot, eps, cfg.dt_classical,
                                                       field_grid=grid))
            for (t, ens), (_, cloud_raw), (_, cloud_moll) in zip(quantum, raw, moll):
                # one characteristic function of the ensemble per sample time
                chi_q = char_function(ens)
                d_raw = char_distance(chi_q, char_function(cloud_raw), heat_time=eps)
                d_moll = char_distance(chi_q, char_function(cloud_moll), heat_time=eps)
                rows.append((eps, t, d_raw, d_moll))
        sups_raw = [max(r[2] for r in rows if r[0] == eps) for eps in cfg.eps_ladder]
        sups_moll = [max(r[3] for r in rows if r[0] == eps) for eps in cfg.eps_ladder]
        em.csv("weak_convergence_times.csv",
               ["eps", "t", "distance_raw_flow", "distance_mollified_flow"], rows)
        em.csv("weak_convergence_sup.csv",
               ["eps", "sup_distance_raw_flow", "sup_distance_mollified_flow"],
               list(zip(cfg.eps_ladder, sups_raw, sups_moll)))
        monotone = _strictly_decreasing(sups_raw)
        em.records.update(sup_distances=list(sups_raw),
                          sup_distances_mollified=list(sups_moll),
                          monotone_decreasing=monotone)
        if len(cfg.eps_ladder) >= 3:
            try:
                fit = fit_rate(cfg.eps_ladder, sups_raw)
                em.records.update(fitted_slope=fit.fitted_slope,
                                  r_squared=fit.r_squared)
            except NumericsError as exc:
                em.warn(f"rate fit skipped: {exc}")
        if not monotone:
            em.warn("sup-distance ladder is not strictly decreasing")
        return em.finish(passed=monotone)


# ---------------------------------------------------------------------------
# L2MollifiedRate


def _h2_norm(density: GridDensity) -> float:
    gx, gp = density.grid.x_grid, density.grid.p_grid
    mult = 1.0 + gx.k[:, None] ** 2 + gp.k[None, :] ** 2
    spec = sfft.fft2(density.values) * mult
    return float(np.sqrt(np.sum(np.abs(spec) ** 2)
                         / (gx.n_points * gp.n_points)
                         * density.grid.cell_area))


def run_l2_mollified_rate(cfg: ExperimentConfig) -> RunManifest:
    """L2 gap between quantum Wigner and matched-mollification transport.

    For each eps: evolve a coherent datum quantum-mechanically, solve
    the Liouville equation in the field of V~ = e^{eps Lap} V (matched
    mollification) by pullback, as W0 at the backward characteristic
    feet, compare on a fixed momentum window, normalize by ||W0||.
    Asserts fitted log-log slope > 0 with r^2 > 0.9; the transport H^2
    growth is recorded, not enforced.
    """
    times = sorted(t for t in cfg.sample_times if t > 0)
    if not times:
        raise ConfigurationError("L2MollifiedRate needs positive sample times")
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
        rows = []
        sup_dists = []
        for eps in cfg.eps_ladder:
            psi = coherent_state(x0, p0, eps, grid)
            w0 = restrict_p(wigner(psi), cfg.p_window)
            norm0 = l2_norm(w0)
            state = rho = feet = None  # frees the last rung's arrays first: peak RSS
            sup_d = 0.0
            # two zipped walks: one walk over (state, feet) pairs raised peak RSS
            quantum = _evolve_at(psi, times, _schrodinger(propagate, pot, cfg.dt))
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
                sup_d = max(sup_d, d)
            sup_dists.append(sup_d)
            em.grid(f"rho_eps{eps:g}.grid", rho.values)
        em.csv("l2_rate_times.csv",
               ["eps", "t", "normalized_l2", "h2_transport", "h2_growth_ratio"],
               rows)
        em.csv("l2_rate_sup.csv", ["eps", "sup_normalized_l2"],
               list(zip(cfg.eps_ladder, sup_dists)))
        em.records.update(sup_distances=list(sup_dists),
                          delta_growth=cfg.delta_growth)
        if len(cfg.eps_ladder) < 3:
            # a short ladder (a sweep point) has no rate: pass on finite distances
            em.warn(f"rate fit skipped: {len(cfg.eps_ladder)} eps rung(s), needs >= 3")
            return em.finish(passed=bool(np.all(np.isfinite(sup_dists))))
        fit = fit_rate(cfg.eps_ladder, sup_dists)
        em.records.update(fitted_slope=fit.fitted_slope, r_squared=fit.r_squared)
        passed = fit.fitted_slope > 0.0 and fit.r_squared > 0.9
        if not passed:
            em.warn(f"rate fit slope={fit.fitted_slope:.3f} r2={fit.r_squared:.3f} "
                    "fails the positive-rate gate")
        return em.finish(passed=passed)


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


def _split_grid_size(cfg: ExperimentConfig, profile: ConcentratingProfile,
                     eps: float, pot: PotentialSpec, times,
                     lattice: AtomicMeasure) -> tuple[int, float, float]:
    """Pick the position-grid size from a classical pre-flight.

    Each lattice state, moved along its classical excursion, must fit
    coherent_state's x- and momentum windows, and dx must stay below the
    profile's resolution, as concentrating_wigner_data requires.
    """
    max_p = float(np.max(np.abs(lattice.ps)))
    max_x = float(np.max(np.abs(lattice.xs)))
    for _, moved in _evolve_at(lattice, times, _transport(pot, 0.0, cfg.dt_classical)):
        max_p = max(max_p, float(np.max(np.abs(moved.ps))))
        max_x = max(max_x, float(np.max(np.abs(moved.xs))))
    x_need = 1.05 * max_x + _coherent_margin(eps)
    length = cfg.x_max - cfg.x_min
    if x_need > length / 2.0:
        raise ConfigurationError(
            f"classical excursion {x_need:.3f} exceeds the half-domain "
            f"{length / 2:.3f}; widen [x_min, x_max]")
    n_window = _window_points(1.05 * max_p, eps, length)
    n_resolve = length / profile.resolution(eps)[0]
    # the smallest even FFT-fast length strictly above both needs; strictly,
    # so dx stays below the resolution's dx
    n = sfft.next_fast_len(max(8, int(max(n_window, n_resolve)) + 1))
    while n % 2:
        n = sfft.next_fast_len(n + 1)
    if n > 2 ** 17:
        raise ConfigurationError(
            f"eps={eps:g} needs a position grid beyond 2^17 points "
            f"(window {n_window:.0f}, resolution {n_resolve:.0f})")
    return n, max_p, max_x


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
    jobs = []
    seen = set()
    for i, (m, x, p) in enumerate(atoms):
        if i in seen:
            continue
        j = index.get((-x, -p))
        if j is None or j == i or j in seen:
            jobs.append((x, p, m, 0.0))
            seen.add(i)
        else:
            jobs.append((x, p, m, atoms[j][0]))
            seen.update((i, j))
    return jobs


def _halfplane_weights(grid: PositionGrid, eps: float,
                       xsep: float) -> tuple[np.ndarray, np.ndarray]:
    """Weights for (mass above +xsep, mass below -xsep) of the Husimi x-marginal.

    The Husimi x-marginal is |psi|^2 convolved with a variance-2eps
    Gaussian, so a half-plane mass is the quadrature of the position
    density against an erfc weight, which depends on the state only
    through its grid and eps.
    """
    x = grid.nodes
    return (0.5 * erfc((xsep - x) / (2.0 * np.sqrt(eps))),
            0.5 * erfc((x + xsep) / (2.0 * np.sqrt(eps))))


def run_concentration_split(cfg: ExperimentConfig) -> RunManifest:
    """Concentrating data on the unstable hilltop: mass splits two ways.

    For each profile (symmetric and shifted bump) and each eps, the
    realizing coherent lattice is propagated and compared against the
    two-atom measure on the outgoing trajectory branches, with masses
    c+/c- given by half-plane quadrature of the bump. Asserts the
    Husimi-side distance ladder decreases at every sampled time and that
    empirical half-plane masses match c+/c- at the smallest eps.
    """
    if cfg.potential != "rough_power":
        raise ConfigurationError("ConcentrationSplit requires rough_power")
    times = sorted(t for t in cfg.sample_times if t > 0)
    if not times:
        raise ConfigurationError("ConcentrationSplit needs positive sample times")
    with _Emitter(cfg) as em:
        pot = _potential(cfg)
        branch = TrajectoryBranch(sign=1, t0=0.0, theta=cfg.theta)

        dist_rows, mass_rows, real_rows = [], [], []
        em.records["profiles"] = {}
        passed = True
        eps_smallest = cfg.eps_ladder[-1]
        for pname, profile in _split_profiles(cfg).items():
            c_plus, c_minus = profile.half_masses()
            prec: dict = {"c_plus": c_plus, "c_minus": c_minus, "per_eps": []}
            husimi_dists = {t: [] for t in times}
            for eps in cfg.eps_ladder:
                lattice = concentration_lattice(profile, eps, cfg.n_side)
                n_grid, max_p, max_x = _split_grid_size(cfg, profile, eps, pot,
                                                        times, lattice)
                x_grid = build_position_grid(n_grid, cfg.x_min, cfg.x_max)
                p_raster = build_position_grid(512, -1.0, 1.0)
                rc = concentrating_wigner_data(profile, eps,
                                               PhaseGrid(x_grid, p_raster), lattice)
                chi_acc = {t: np.zeros((NODES.size, NODES.size), complex)
                           for t in times}
                right = dict.fromkeys(times, 0.0)
                left = dict.fromkeys(times, 0.0)
                xseps = {t: branch.X(t) / 2.0 for t in times}
                weights = {t: _halfplane_weights(x_grid, eps, xseps[t])
                           for t in times}
                jobs = _mirror_jobs(lattice)
                starts = (coherent_state(x, p, eps, x_grid) for x, p, _, _ in jobs)
                for t, j, psi in _walk_members(starts, (times,), pot, cfg.dt):
                    w_self, w_mirror = jobs[j][2:]
                    chi = char_function(psi)
                    chi_acc[t] += w_self * chi
                    if w_mirror:
                        chi_acc[t] += w_mirror * np.conj(chi)
                    dens = psi.density()
                    above, below = (float(np.sum(dens * w) * x_grid.dx)
                                    for w in weights[t])
                    right[t] += w_self * above + w_mirror * below
                    left[t] += w_self * below + w_mirror * above
                per_eps = {"eps": eps, "n_grid": n_grid, "lam": rc.lam,
                           "l2_gap": rc.l2_gap, "target_mass": rc.target_mass,
                           "max_classical_p": max_p, "max_classical_x": max_x,
                           "n_members": len(lattice), "times": []}
                for t in times:
                    chi_at = char_function(AtomicMeasure(
                        ((c_plus, branch.X(t), branch.P(t)),
                         (c_minus, -branch.X(t), -branch.P(t)))))
                    d_hus = char_distance(chi_acc[t], chi_at, heat_time=eps)
                    d_wig = char_distance(chi_acc[t], chi_at)
                    husimi_dists[t].append(d_hus)
                    dist_rows.append((pname, eps, t, d_hus, d_wig))
                    mass_rows.append((pname, eps, t, right[t], left[t],
                                      c_plus, c_minus, xseps[t]))
                    per_eps["times"].append({"t": t, "d_husimi": d_hus,
                                             "d_wigner": d_wig,
                                             "right_mass": right[t],
                                             "left_mass": left[t]})
                    if eps == eps_smallest:
                        if pname == "even" and max(abs(right[t] - 0.5),
                                                   abs(left[t] - 0.5)) > 0.05:
                            passed = False
                            em.warn(f"even masses ({right[t]:.3f}, {left[t]:.3f}) "
                                    f"at t={t} miss 0.5 +- 0.05")
                        elif pname != "even" and abs(right[t] - c_plus) > 0.07:
                            passed = False
                            em.warn(f"shifted right mass {right[t]:.3f} at t={t} "
                                    f"misses c+={c_plus:.3f} +- 0.07")
                real_rows.append((pname, eps, rc.lam, len(lattice), n_grid,
                                  rc.l2_gap, rc.target_mass, max_p, max_x))
                prec["per_eps"].append(per_eps)
            for t in times:
                ds = husimi_dists[t]
                if not _strictly_decreasing(ds):
                    passed = False
                    em.warn(f"{pname}: husimi distance ladder at t={t} not "
                            f"strictly decreasing: {ds}")
            prec["husimi_distances"] = {str(t): husimi_dists[t] for t in times}
            em.records["profiles"][pname] = prec
        em.csv("split_distances.csv",
               ["profile", "eps", "t", "d_husimi", "d_wigner"], dist_rows)
        em.csv("split_masses.csv",
               ["profile", "eps", "t", "right_mass", "left_mass", "c_plus",
                "c_minus", "x_sep"], mass_rows)
        em.csv("split_realization.csv",
               ["profile", "eps", "lam", "n_members", "grid_n", "l2_gap",
                "target_mass", "max_classical_p", "max_classical_x"], real_rows)
        return em.finish(passed=passed)


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
    fwd = sorted(t for t in cfg.sample_times if t > 0)
    back = sorted((t for t in cfg.sample_times if t < 0), reverse=True)
    if not fwd and not back:
        raise ConfigurationError("RandomFamily needs nonzero sample times")
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
            moved = {t: cloud for times in (fwd, back)
                     for t, cloud in _evolve_at(family, times, transport)}

            sups = [0.0] * len(ens.members)
            for t, idx, psi in _walk_members((s for _, s in ens.members),
                                             (fwd, back), pot, cfg.dt):
                # one atom of the moved family: char_function drops its mass
                atom = AtomicMeasure(moved[t].atoms[idx:idx + 1])
                sups[idx] = max(sups[idx], weak_distance(psi, atom, heat_time=eps))
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
        if not monotone:
            em.warn(f"averaged sup-distances not strictly decreasing: {averages}")
        return em.finish(passed=monotone)


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
        rows = []
        sups = []
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
        return em.finish(passed=True)


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
        max_resid = 0.0
        max_shadow_rel = 0.0
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
                    max_resid = max(max_resid, abs(r1), abs(r2))
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
                max_shadow_rel = max(max_shadow_rel, rel)
        em.csv("atlas_branches.csv", ["theta", "sign", "t0", "nu", "c0"],
               branch_rows)
        em.csv("atlas_residuals.csv", ["theta", "sign", "t0", "t", "r1", "r2"],
               resid_rows)
        em.csv("atlas_shadows.csv",
               ["theta", "sign", "t", "x_branch", "p_branch", "x_shadow",
                "p_shadow"], shadow_rows)
        em.records.update(max_residual=max_resid, max_shadow_rel_error=max_shadow_rel,
                          n_branches=len(branch_rows))
        passed = max_resid < 1e-6 and max_shadow_rel < 1e-5
        if not passed:
            em.warn(f"atlas gates failed: residual {max_resid:.3e} (< 1e-6), "
                    f"shadow rel {max_shadow_rel:.3e} (< 1e-5)")
        return em.finish(passed=passed)


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
