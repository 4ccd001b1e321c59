"""The benchmark's workloads: one experiment config per name and seed.

Each workload is one `semiphase` experiment at a size that fits several
runs into one benchmark window. The seed picks one of four input
variants (the datum or profile centre); every variant does the same
amount of work, passes its experiment's gate and has its own reference
records under ``reference/``.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    experiment: str
    overrides: dict
    variant_field: str
    variants: tuple


WORKLOADS = {
    "weak-ensemble": Workload(
        experiment="WeakConvergence",
        # many members on small FFTs: quantum and char_function, no
        # Liouville or Wigner work. Three rungs, so that the rate fit and
        # the monotone gate both run; 49-member mixtures at N=1024, 1000
        # Strang steps per member
        overrides={"eps_ladder": (0.2, 0.1, 0.05),
                   "sample_times": (0.25, 0.5, 0.75, 1.0)},
        variant_field="datum_center",
        variants=((1.5, 0.0), (1.4, 0.2), (1.6, -0.2), (1.3, -0.1)),
    ),
    "liouville-rate": Workload(
        experiment="L2MollifiedRate",
        # the Liouville solver and the Wigner transform, one pure state per
        # rung; grid_n stays at 1024: check_fourier_conditions refuses 512
        overrides={"eps_ladder": (0.2, 0.1, 0.05),
                   "sample_times": (0.0625, 0.125)},
        variant_field="datum_center",
        variants=((1.5, 0.0), (1.4, 0.2), (1.6, -0.2), (1.3, -0.1)),
    ),
    "split-lattice": Workload(
        experiment="ConcentrationSplit",
        # few members per call on large FFTs, with the classical grid
        # sizing, the lattice build and the half-plane masses. At eps=1e-3
        # the lattice needs about 1,100-1,700 points and the power-of-two
        # rule gives 2048; the default 1e-4 rung takes minutes and stays out
        overrides={"eps_ladder": (1e-2, 1e-3), "sample_times": (0.5,),
                   "n_side": 15},
        variant_field="profile_center",
        # centres off the p=0 axis: every variant makes 73 + 145
        # propagations per rung (mirror pairs only in the even profile)
        variants=((0.3, 0.05), (0.25, 0.05), (0.35, -0.05), (0.3, -0.05)),
    ),
}


def variant_index(name: str, seed: int) -> int:
    return seed % len(WORKLOADS[name].variants)


def build_config(name: str, seed: int, out_dir: str | None = None,
                 **overrides):
    """The experiment config of workload `name` for `seed`.

    Extra keyword overrides replace workload fields; the benchmark's own
    tests use them to shrink a run.
    """
    from semiphase import defaults_for

    wl = WORKLOADS[name]
    fields = dict(wl.overrides)
    fields[wl.variant_field] = wl.variants[variant_index(name, seed)]
    fields.update(overrides)
    return defaults_for(wl.experiment, out_dir=out_dir, **fields)
