"""Spectral solver and verification harness for the 3D hydrostatic
primitive equations on a horizontally periodic box."""

from .errors import ConfigurationError, DomainError, NanAbort, SingularResolventError
from .grid import Grid
from .fields import (
    AveragedField,
    PhysicalField,
    SpectralField,
    to_physical,
)
from .projection import SurfacePressure, constrain, project, solve_surface_poisson
from .stokes import StokesOperator, eigenmode
from .nonlinear import F, advect
from .evolution import (
    ForcingSpec,
    ImexConfig,
    PicardConfig,
    TrajectoryLedger,
    imex_run,
    picard_solve,
)
from .config import InitialConditionSpec, RunConfig, make_initial, parse_config

__version__ = "0.1.0"

__all__ = [
    "AveragedField",
    "ConfigurationError",
    "DomainError",
    "F",
    "ForcingSpec",
    "Grid",
    "ImexConfig",
    "InitialConditionSpec",
    "NanAbort",
    "PhysicalField",
    "PicardConfig",
    "RunConfig",
    "SingularResolventError",
    "SpectralField",
    "StokesOperator",
    "SurfacePressure",
    "TrajectoryLedger",
    "advect",
    "constrain",
    "eigenmode",
    "imex_run",
    "make_initial",
    "parse_config",
    "picard_solve",
    "project",
    "solve_surface_poisson",
    "to_physical",
]
