"""Phase-space numerics for semiclassical Schrodinger dynamics.

Spectral grids, split-step quantum propagation, Wigner/Husimi
transforms, classical transport (trajectories, atomic measures,
Liouville by pullback along characteristics), the Fourier-decay check
of rough potentials, weak and L2 convergence metrics, and a
reproducible experiment harness over eps ladders.
"""
from ._version import __version__
from .classical import (TrajectoryBranch, branch_constants, branch_family,
                        branch_ode_residual, characteristic_feet,
                        transport_particles)
from .errors import (ConfigurationError, NumericsError, RepresentationError,
                     SemiphaseError, SemiphaseWarning, ShapeMismatchError)
from .experiments import (EXPERIMENTS, ExperimentConfig, RunManifest,
                          defaults_for, resolve_experiment, run_experiment)
from .grids import PhaseGrid, PositionGrid, build_position_grid, quadrature
from .gridio import write_csv
from .metrics import (RateFit, char_distance, char_function, fit_rate,
                      l2_distance, weak_distance)
from .phasespace import (AtomicMeasure, GridDensity, build_wigner_grid, husimi,
                         l2_norm, restrict_p, sup_norm, upsample2, wigner)
from .potentials import (FourierConditionReport, PotentialSpec,
                         check_fourier_conditions, custom_potential, evaluate,
                         evaluate_at, gradient_at, harmonic_potential,
                         mollify, rough_power_potential)
from .quantum import (DensityEnsemble, PropagatorConfig, WaveFunction,
                      propagate, propagate_rows)
from .states import (ConcentratingProfile, RandomFamilySpec,
                     RealizedConcentration, check_epsn_operator_bound,
                     coherent_mixture, coherent_state,
                     concentrating_wigner_data, concentration_lattice,
                     random_family, scaling_exponents)

__all__ = [name for name in dir() if not name.startswith("_")]
