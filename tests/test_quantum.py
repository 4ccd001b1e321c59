"""Scaled Schroedinger propagation: unitarity, reversibility, order, oracles."""

import tracemalloc

import numpy as np
import pytest
import scipy.fft as sfft

from semiphase import quantum
from semiphase import (
    ConfigurationError,
    NumericsError,
    ShapeMismatchError,
    WaveFunction,
    coherent_state,
    build_position_grid,
    propagate_rows,
)
from semiphase.potentials import (custom_potential, evaluate, harmonic_potential,
                                  rough_power_potential)


@pytest.fixture(scope="module")
def grid():
    return build_position_grid(512, -8.0, 8.0)


def _norm(psi):
    return float(np.sqrt(psi.grid.dx * np.sum(np.abs(psi.values) ** 2)))


def _mean_x(psi):
    rho = np.abs(psi.values) ** 2
    return float(np.sum(psi.grid.nodes * rho) * psi.grid.dx)


def _mean_p(psi):
    # <p> = eps * <k> over the momentum density
    spec = np.fft.fft(psi.values)
    w = np.abs(spec) ** 2
    return float(psi.eps * np.sum(psi.grid.k * w) / np.sum(w))


def _moved(psi, pot, span, dt):
    # psi moved by the signed span in steps of dt
    return WaveFunction(propagate_rows(psi.values, psi.eps, psi.grid, pot, span, dt),
                        psi.eps, psi.grid)


def test_unitarity_per_unit_time(grid):
    psi = coherent_state(0.3, 0.4, 0.05, grid)
    out = _moved(psi, harmonic_potential(), 1.0, 1e-3)
    assert abs(_norm(out) - 1.0) < 1e-10


def test_time_reversal(grid):
    psi = coherent_state(-0.5, 0.6, 0.05, grid)
    pot = harmonic_potential()
    fwd = _moved(psi, pot, 1.0, 1e-3)
    back = _moved(fwd, pot, -1.0, 1e-3)
    assert np.max(np.abs(back.values - psi.values)) < 1e-8


def test_free_packet_group_velocity(grid):
    # V = 0: center moves at 2*alpha*p0 = p0; Strang is exact (pure kinetic)
    eps = 0.05
    psi = coherent_state(0.0, 0.5, eps, grid)
    pot = custom_potential(np.zeros(grid.n_points))
    out = _moved(psi, pot, 2.0, 0.01)
    assert _norm(out) == pytest.approx(1.0, abs=1e-12)
    assert _mean_x(out) == pytest.approx(0.5 * 2.0, abs=1e-9)
    assert _mean_p(out) == pytest.approx(0.5, abs=1e-9)


def test_harmonic_center_rotation(grid):
    eps = 0.05
    x0, p0, t = 0.8, 0.3, np.pi / 3
    psi = coherent_state(x0, p0, eps, grid)
    out = _moved(psi, harmonic_potential(), t, 1e-3)
    assert _mean_x(out) == pytest.approx(x0 * np.cos(t) + p0 * np.sin(t), abs=1e-5)
    assert _mean_p(out) == pytest.approx(-x0 * np.sin(t) + p0 * np.cos(t), abs=1e-5)


def test_strang_self_convergence_order(grid):
    psi = coherent_state(0.5, 0.3, 0.05, grid)
    pot = harmonic_potential()
    ref = _moved(psi, pot, 0.5, 1e-4).values
    errs = [np.max(np.abs(_moved(psi, pot, 0.5, dt).values - ref))
            for dt in (4e-3, 2e-3, 1e-3)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 2.0) < 0.2)


def _unfused_strang(state, pot, span, dt):
    # the reference loop: both half-potential steps inside every step
    v = evaluate(pot, state.grid)
    n_steps = max(1, round(abs(span) / dt))
    h = span / n_steps
    half_v = np.exp(-0.5j * v * h / state.eps)
    kin = np.exp(-1j * 0.5 * state.eps * state.grid.k ** 2 * h)
    psi = state.values
    for _ in range(n_steps):
        psi = half_v * psi
        psi = sfft.ifft(kin * sfft.fft(psi))
        psi = half_v * psi
    return psi


@pytest.mark.parametrize("dt, t_final", [
    (1e-3, 0.3),    # forward
    (-1e-3, 0.3),   # backward: the span is -0.3
    (0.4, 0.3),     # n_steps == 1: both ends are half steps
    (0.03, 0.1),    # t_final/dt = 3.33: the step is resized
])
def test_fused_strang_matches_unfused_loop(grid, dt, t_final):
    psi = coherent_state(0.5, -0.3, 0.05, grid)
    before = psi.values.copy()
    span = np.copysign(t_final, dt)
    out = propagate_rows(psi.values, psi.eps, grid, harmonic_potential(), span, abs(dt))
    ref = _unfused_strang(psi, harmonic_potential(), span, abs(dt))
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
    # the in-place loop and overwrite_x FFTs never write the input
    assert np.array_equal(psi.values, before)


def test_ensemble_propagates_each_member_once(grid, monkeypatch):
    # a mixture's members step as one row block: one Strang loop over all
    # of them, each row as if alone
    calls = []
    real = quantum._strang

    def counting(rows, *args):
        calls.append(rows.shape)
        return real(rows, *args)

    monkeypatch.setattr(quantum, "_strang", counting)
    eps, pot = 0.05, harmonic_potential()
    states = [coherent_state(x0, 0.0, eps, grid) for x0 in (-1.0, -0.3, 0.3, 1.0)]
    out = propagate_rows(np.stack([s.values for s in states]), eps, grid, pot, 0.05, 1e-2)
    assert calls == [(4, grid.n_points)]
    for row, state in zip(out, states):
        assert np.array_equal(row, propagate_rows(state.values, eps, grid, pot, 0.05, 1e-2))


def _row_block(grid, eps, centers):
    states = [coherent_state(x0, p0, eps, grid) for x0, p0 in centers]
    return states, np.stack([s.values for s in states])


_CENTERS = ((-0.6, 0.2), (-0.3, -0.1), (0.0, 0.0), (0.25, 0.3), (0.5, -0.2))


@pytest.mark.parametrize("dt", [1e-3, -1e-3])
@pytest.mark.parametrize("n", [168, 210, 1232])
def test_row_block_matches_one_state_at_a_time(n, dt):
    # ConcentrationSplit's grid sizes on its [-2, 2] domain and potential;
    # dt < 0 walks the span -0.05
    eps, g, pot = 1e-2, build_position_grid(n, -2.0, 2.0), rough_power_potential(0.5)
    span = np.copysign(0.05, dt)
    states, rows = _row_block(g, eps, _CENTERS)
    before = rows.copy()
    out = propagate_rows(rows, eps, g, pot, span, abs(dt))
    assert out.shape == rows.shape
    for row, state in zip(out, states):
        assert np.array_equal(row, propagate_rows(state.values, eps, g, pot, span, abs(dt)))
    assert np.array_equal(rows, before)


def test_row_block_edges(grid):
    eps, pot = 0.05, harmonic_potential()
    _, rows = _row_block(grid, eps, _CENTERS)
    assert propagate_rows(rows, eps, grid, pot, 0.0, 1e-2) is rows
    with pytest.raises(ShapeMismatchError):
        propagate_rows(rows[:, :-1], eps, grid, pot, 0.05, 1e-2)
    rows[3, 100] = np.nan
    with pytest.raises(NumericsError):
        propagate_rows(rows, eps, grid, pot, 0.05, 1e-2)


def test_row_block_memory_is_block_plus_factor_rows():
    # the FFTs run in place on the loop's one copy: the peak is that copy,
    # the finite check's mask and a few O(N) potential and kinetic rows
    n, eps = 1232, 1e-2
    g = build_position_grid(n, -2.0, 2.0)
    _, rows = _row_block(g, eps, [(x0, 0.1) for x0 in np.linspace(-0.8, 0.8, 16)])
    tracemalloc.start()
    try:
        propagate_rows(rows, eps, g, rough_power_potential(0.5), 0.02, 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    factor_rows = 8 * n * np.dtype(complex).itemsize
    assert peak <= 1.5 * rows.nbytes + factor_rows, peak / rows.nbytes


def test_ensemble_single_member_matches_pure(grid):
    psi = coherent_state(0.2, -0.4, 0.05, grid)
    pot = harmonic_potential()
    (row,) = propagate_rows(psi.values[None], 0.05, grid, pot, 0.3, 1e-3)
    assert np.max(np.abs(row - propagate_rows(psi.values, 0.05, grid, pot, 0.3, 1e-3))) < 1e-14


def test_ensemble_trace_preserved(grid):
    eps = 0.05
    rows = np.stack([coherent_state(x0, 0.0, eps, grid).values for x0 in (-1.0, 1.0)])
    out = propagate_rows(rows, eps, grid, custom_potential(np.zeros(grid.n_points)), 1.0, 0.01)
    trace = np.array([0.5, 0.5]) @ np.sum(np.abs(out) ** 2, axis=1) * grid.dx
    assert trace == pytest.approx(1.0, abs=1e-10)


def test_propagator_config_validation(grid):
    # the step is a finite size > 0 and the span finite, refused by
    # time_steps before any step; a negative span walks backward
    # (test_time_reversal), and even a zero span refuses a bad step
    rows, pot = coherent_state(0.0, 0.0, 0.05, grid).values, harmonic_potential()
    inf, nan = float("inf"), float("nan")
    for span, dt in [(1.0, 0.0), (1.0, -1e-3), (1.0, inf), (1.0, -inf), (1.0, nan),
                     (0.0, 0.0), (nan, 1e-3), (inf, 1e-3), (-inf, 1e-3)]:
        with pytest.raises(ConfigurationError):
            propagate_rows(rows, 0.05, grid, pot, span, dt)
