"""Desk-scale simulator of a diamond microdisk chain quantum register:
whispering-gallery disk modes, photon hopping along a disk chain, and a
photon-mediated controlled-Z gate between two NV spins."""

__version__ = "0.1.0"

from .core import CONSTANTS, PhysicalConstants, wavelength_to_freq
from .specfun import bessel_j, bessel_y, hankel1
from .wgm import (DiskGeometry, NoSolutionError, WgmMode, radial_residual,
                  solve_disk, solve_mode, thickness_for_index)
from .chain import (OverlapIntegrals, QuadratureError, coupling_kappa,
                    dispersion, fit_loglinear, overlap_integrals)
from .dynamics import (CzResult, DetuningPulse, GateFailure, GateParams,
                       PulseSchedule, RegisterState, Trajectory, aux_leakage,
                       build_hamiltonian, evolve, extract_phases,
                       logical_populations, make_cz_schedule, run_cz)
from .config import ConfigError, SimConfig, load_config
