"""Scaled Schroedinger propagation: unitarity, reversibility, order, oracles."""

import numpy as np
import pytest
import scipy.fft as sfft

from semiphase import quantum
from semiphase import (
    ConfigurationError,
    DensityEnsemble,
    PropagatorConfig,
    SemiphaseWarning,
    coherent_state,
    build_position_grid,
    propagate,
    propagate_ensemble,
)
from semiphase.potentials import custom_potential, evaluate, harmonic_potential


@pytest.fixture(scope="module")
def grid():
    return build_position_grid(512, -8.0, 8.0)


def _mean_x(psi):
    rho = np.abs(psi.values) ** 2
    return float(np.sum(psi.grid.nodes * rho) * psi.grid.dx)


def _mean_p(psi):
    # <p> = eps * <k> over the momentum density
    spec = np.fft.fft(psi.values)
    w = np.abs(spec) ** 2
    return float(psi.eps * np.sum(psi.grid.k * w) / np.sum(w))


def test_unitarity_per_unit_time(grid):
    psi = coherent_state(0.3, 0.4, 0.05, grid)
    out = propagate(psi, harmonic_potential(), PropagatorConfig(dt=1e-3, t_final=1.0))
    assert abs(out.norm() - 1.0) < 1e-10


def test_time_reversal(grid):
    psi = coherent_state(-0.5, 0.6, 0.05, grid)
    pot = harmonic_potential()
    fwd = propagate(psi, pot, PropagatorConfig(dt=1e-3, t_final=1.0))
    back = propagate(fwd, pot, PropagatorConfig(dt=-1e-3, t_final=1.0))
    assert np.max(np.abs(back.values - psi.values)) < 1e-8


def test_free_packet_group_velocity(grid):
    # V = 0: center moves at 2*alpha*p0 = p0; Strang is exact (pure kinetic)
    eps = 0.05
    psi = coherent_state(0.0, 0.5, eps, grid)
    pot = custom_potential(np.zeros(grid.n_points))
    out = propagate(psi, pot, PropagatorConfig(dt=0.01, t_final=2.0))
    assert out.norm() == pytest.approx(1.0, abs=1e-12)
    assert _mean_x(out) == pytest.approx(0.5 * 2.0, abs=1e-9)
    assert _mean_p(out) == pytest.approx(0.5, abs=1e-9)


def test_harmonic_center_rotation(grid):
    eps = 0.05
    x0, p0, t = 0.8, 0.3, np.pi / 3
    psi = coherent_state(x0, p0, eps, grid)
    out = propagate(psi, harmonic_potential(), PropagatorConfig(dt=1e-3, t_final=t))
    assert _mean_x(out) == pytest.approx(x0 * np.cos(t) + p0 * np.sin(t), abs=1e-5)
    assert _mean_p(out) == pytest.approx(-x0 * np.sin(t) + p0 * np.cos(t), abs=1e-5)


def test_strang_self_convergence_order(grid):
    psi = coherent_state(0.5, 0.3, 0.05, grid)
    pot = harmonic_potential()
    ref = propagate(psi, pot, PropagatorConfig(dt=1e-4, t_final=0.5)).values
    errs = [
        np.max(np.abs(propagate(psi, pot, PropagatorConfig(dt=dt, t_final=0.5)).values - ref))
        for dt in (4e-3, 2e-3, 1e-3)
    ]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 2.0) < 0.2)


def _unfused_strang(state, pot, cfg):
    # the reference loop: both half-potential steps inside every step
    v = evaluate(pot, state.grid)
    n_steps = max(1, round(cfg.t_final / abs(cfg.dt)))
    h = (cfg.t_final if cfg.dt > 0 else -cfg.t_final) / n_steps
    half_v = np.exp(-0.5j * v * h / state.eps)
    kin = np.exp(-1j * 0.5 * state.eps * state.grid.k ** 2 * h)
    psi = state.values
    for _ in range(n_steps):
        psi = half_v * psi
        psi = sfft.ifft(kin * sfft.fft(psi))
        psi = half_v * psi
    return psi


@pytest.mark.filterwarnings("ignore::semiphase.SemiphaseWarning")
@pytest.mark.parametrize("dt, t_final", [
    (1e-3, 0.3),    # forward
    (-1e-3, 0.3),   # backward
    (0.4, 0.3),     # n_steps == 1: both ends are half steps
    (0.03, 0.1),    # t_final/dt = 3.33: the step is resized
])
def test_fused_strang_matches_unfused_loop(grid, dt, t_final):
    psi = coherent_state(0.5, -0.3, 0.05, grid)
    before = psi.values.copy()
    cfg = PropagatorConfig(dt=dt, t_final=t_final)
    out = propagate(psi, harmonic_potential(), cfg).values
    ref = _unfused_strang(psi, harmonic_potential(), cfg)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
    # the in-place loop and overwrite_x FFTs never write the input
    assert np.array_equal(psi.values, before)


@pytest.mark.filterwarnings("ignore::semiphase.SemiphaseWarning")
def test_ensemble_propagates_each_member_once(grid, monkeypatch):
    calls = []
    real = quantum.propagate

    def counting(state, pot, cfg):
        calls.append(state)
        return real(state, pot, cfg)

    monkeypatch.setattr(quantum, "propagate", counting)
    eps = 0.05
    members = tuple((0.25, coherent_state(x0, 0.0, eps, grid))
                    for x0 in (-1.0, -0.3, 0.3, 1.0))
    ens = DensityEnsemble(members=members, eps=eps)
    propagate_ensemble(ens, harmonic_potential(),
                       PropagatorConfig(dt=1e-2, t_final=0.05))
    assert [id(s) for s in calls] == [id(s) for _, s in members]


def test_ensemble_single_member_matches_pure(grid):
    psi = coherent_state(0.2, -0.4, 0.05, grid)
    pot = harmonic_potential()
    cfg = PropagatorConfig(dt=1e-3, t_final=0.3)
    ens = DensityEnsemble(members=((1.0, psi),), eps=0.05)
    out_ens = propagate_ensemble(ens, pot, cfg)
    out_pure = propagate(psi, pot, cfg)
    [(w, member)] = out_ens.members
    assert w == 1.0
    assert np.max(np.abs(member.values - out_pure.values)) < 1e-14


def test_ensemble_trace_preserved(grid):
    eps = 0.05
    a = coherent_state(-1.0, 0.0, eps, grid)
    b = coherent_state(1.0, 0.0, eps, grid)
    ens = DensityEnsemble(members=((0.5, a), (0.5, b)), eps=eps)
    out = propagate_ensemble(ens, custom_potential(np.zeros(grid.n_points)),
                             PropagatorConfig(dt=0.01, t_final=1.0))
    trace = sum(w * m.norm() ** 2 for w, m in out.members)
    assert trace == pytest.approx(1.0, abs=1e-10)


def test_propagator_config_validation():
    with pytest.raises(ConfigurationError):
        PropagatorConfig(dt=0.0, t_final=1.0)
    with pytest.raises(ConfigurationError):
        PropagatorConfig(dt=1e-3, t_final=-1.0)
    with pytest.raises(ConfigurationError):
        PropagatorConfig(dt=float("nan"), t_final=1.0)
    with pytest.raises(ConfigurationError):
        PropagatorConfig(dt=1e-3, t_final=float("nan"))
    for dt in (float("inf"), -float("inf")):
        with pytest.raises(ConfigurationError):
            PropagatorConfig(dt=dt, t_final=1.0)
    with pytest.raises(ConfigurationError):
        PropagatorConfig(dt=1e-3, t_final=float("inf"))


def test_coarse_step_warns_outside_a_run(grid):
    psi = coherent_state(0.3, 0.4, 0.05, grid)
    with pytest.warns(SemiphaseWarning, match="potential phase"):
        propagate(psi, harmonic_potential(), PropagatorConfig(dt=0.1, t_final=0.2))
