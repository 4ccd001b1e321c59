"""Shared fixtures: grids and a 20-state corpus spanning the representation zoo."""

import numpy as np
import pytest

from semiphase import WaveFunction, build_position_grid, coherent_state


@pytest.fixture(scope="session")
def grid512():
    return build_position_grid(512, -8.0, 8.0)


@pytest.fixture(scope="session")
def grid256():
    return build_position_grid(256, -8.0, 8.0)


def unit_state(values, eps, grid):
    """values divided by their norm sqrt(dx * sum |psi|^2), as a WaveFunction."""
    values = np.asarray(values, dtype=complex)
    return WaveFunction(values / np.sqrt(grid.dx * np.sum(np.abs(values) ** 2)), eps, grid)


def build_corpus(grid):
    """20 unit-norm states: coherent, cats, modulated, squeezed, excited, random."""
    x = grid.nodes
    states = []

    for label, (x0, p0, eps) in [
        ("coh_origin_e05", (0.0, 0.0, 0.05)),
        ("coh_x1_p05_e05", (1.0, 0.5, 0.05)),
        ("coh_neg_e10", (-0.7, 0.3, 0.1)),
        ("coh_pneg_e10", (0.4, -1.2, 0.1)),
        ("coh_origin_e20", (0.0, 0.0, 0.2)),
        ("coh_far_e02", (1.5, 0.0, 0.02)),
        ("coh_diag_e05", (-0.5, -0.5, 0.05)),
        ("coh_up_e08", (0.8, 1.0, 0.08)),
    ]:
        states.append((label, coherent_state(x0, p0, eps, grid)))

    def packet(x0, p0, eps, width2=None):
        w2 = eps / 2.0 if width2 is None else width2
        return np.exp(-((x - x0) ** 2) / (4.0 * w2) + 1j * p0 * x / eps)

    states.append(("cat_sym_e05", unit_state(packet(-1.0, 0.0, 0.05) + packet(1.0, 0.0, 0.05), 0.05, grid)))
    states.append(("cat_mom_e10", unit_state(packet(-0.8, 0.5, 0.1) + packet(0.8, -0.5, 0.1), 0.1, grid)))
    states.append(("cat_asym_e05", unit_state(0.8 * packet(-1.0, 0.0, 0.05) + 0.6 * packet(1.2, 0.3, 0.05), 0.05, grid)))
    states.append(("comb3_e10", unit_state(packet(-1.6, 0.0, 0.1) + packet(0.0, 0.0, 0.1) + packet(1.6, 0.0, 0.1), 0.1, grid)))

    states.append(("mod_cos_e05", unit_state(np.exp(-x**2 / 2.0) * np.cos(10.0 * x), 0.05, grid)))
    states.append(("mod_sin_e10", unit_state(np.exp(-x**2 / 2.0) * np.sin(5.0 * x), 0.1, grid)))
    states.append(("chirp_e05", unit_state(np.exp(-x**2 / 2.0 + 1j * 0.3 * x**2 / (2.0 * 0.05)), 0.05, grid)))

    states.append(("squeezed_wide_e05", unit_state(packet(0.0, 0.0, 0.05, width2=0.1), 0.05, grid)))
    states.append(("squeezed_narrow_e05", unit_state(packet(0.3, 0.0, 0.05, width2=0.05 / 8.0), 0.05, grid)))

    states.append(("hermite1_e05", unit_state(x * np.exp(-x**2 / (2 * 0.05)), 0.05, grid)))
    states.append(("hermite2_e10", unit_state((2 * x**2 / 0.1 - 1.0) * np.exp(-x**2 / (2 * 0.1)), 0.1, grid)))

    # envelope keeps the random field boundary-compatible for phase-space maps
    rng = np.random.default_rng(7)
    spec = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    spec *= np.exp(-(grid.k / 20.0) ** 2)
    states.append(("random_band_e10", unit_state(np.fft.ifft(spec) * np.exp(-x**2 / 4.0), 0.1, grid)))

    assert len(states) == 20
    return states


@pytest.fixture(scope="session")
def corpus(grid512):
    return build_corpus(grid512)
