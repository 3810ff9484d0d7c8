"""Implicit FEM elastodynamics with smoothed frictional contact.

Desk-scale simulator and library: neo-Hookean tetrahedral elasticity with
Rayleigh damping, cubic-penalty contact against analytic obstacles with
adaptive stiffening, smoothed Coulomb/Stribeck friction (fully implicit and
lagged), physically-based volume-change penalties, first- and second-order
implicit integrators, and one damped-Newton solver whose ``solver.kind``
picks an exact LU (LAPACK's banded LU in reverse Cuthill-McKee order) or a
BiCGSTAB direction on assembled Jacobians that match dual-number JVPs.
"""

from .dual import Dual, jvp
from .mesh import MaterialParams, SystemState, TetMeshModel, lumped_mass
from .contact import (ContactSet, HalfSpace, PenaltyParams, RigidMotion, Sphere,
                      adaptive_stiffen, gaps, penalty_b)
from .friction import (FrictionParams, friction_magnitude_c, smooth_s,
                       stribeck_g)
from .volume import (VolumePenaltyParams, enclosed_volume, volume_energy,
                     volume_force)
from .elasticity import damping_force, elastic_energy, elastic_force
from .forces import ForceModel
from .integrators import StageProblem, make_scheme
from .solvers import (SolveReport, SolverConfig, bicgstab, damped_newton,
                      should_stop)
from .scene import SceneConfig, SceneError, load_scene, load_scene_file
from .simulate import Simulation, StepFailure, run_simulation
from .export import export

__version__ = "0.1.0"

__all__ = [
    "Dual", "jvp",
    "MaterialParams", "SystemState", "TetMeshModel", "lumped_mass",
    "ContactSet", "HalfSpace", "PenaltyParams", "RigidMotion", "Sphere",
    "adaptive_stiffen", "gaps", "penalty_b",
    "FrictionParams", "friction_magnitude_c", "smooth_s", "stribeck_g",
    "VolumePenaltyParams", "enclosed_volume", "volume_energy", "volume_force",
    "damping_force", "elastic_energy", "elastic_force",
    "ForceModel", "StageProblem", "make_scheme",
    "SolveReport", "SolverConfig", "bicgstab", "damped_newton",
    "should_stop",
    "SceneConfig", "SceneError", "load_scene", "load_scene_file",
    "Simulation", "StepFailure", "run_simulation", "export",
    "__version__",
]
