"""Run configuration: line-oriented `key = value` files and the initial
condition library.

The keys and their types are the fields of RunConfig (except ic) and, under
the names of _IC_KEYS, those of InitialConditionSpec.  Unknown or repeated
keys, malformed values, out-of-range values and non-finite numbers (except
cfl_limit = inf, which switches the CFL check off) are rejected with the
offending line number.
"""

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigurationError
from .fields import SpectralField, random_spectral
from .grid import Grid
from .projection import constrain
from .stokes import eigenmode


@dataclass(frozen=True)
class InitialConditionSpec:
    kind: str = "eigenmode"  # eigenmode | random-band | shear | manufactured
    amplitude: float = 1e-3
    kx: int = 1
    ky: int = 0
    m: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("eigenmode", "random-band", "shear", "manufactured"):
            raise ConfigurationError(f"unknown initial condition kind {self.kind!r}")
        if not (math.isfinite(self.amplitude) and self.amplitude > 0):
            raise ConfigurationError(
                f"initial amplitude must be finite and > 0, got {self.amplitude}")
        for f in fields(self):  # nan, inf and 1.5 alike
            if f.type is int and not isinstance(getattr(self, f.name), numbers.Integral):
                raise ConfigurationError(
                    f"initial condition {f.name} must be an integer, got {getattr(self, f.name)}")
        if self.seed < 0:
            raise ConfigurationError(f"initial condition seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class RunConfig:
    nx: int = 32
    ny: int = 32
    nz: int = 16
    h: float = 1.0
    dealias: float = 2.0 / 3.0
    dt: float = 1e-3
    t_end: float = 1.0
    scheme: str = "imex2"       # imex1 | imex2 | picard
    sample_every: int = 10
    cfl_limit: float = 50.0
    ic: InitialConditionSpec = field(default_factory=InitialConditionSpec)
    forcing: str = "zero"       # zero | single-mode | mms
    forcing_amplitude: float = 0.0
    forcing_kx: int = 1
    forcing_ky: int = 0
    forcing_m: int = 0
    forcing_rate: float = 1.0
    picard_nodes: int = 33
    picard_max_iterations: int = 12
    picard_tolerance: float = 1e-12
    out_ledger: str = "run.csv"
    out_report: str = "report.json"
    out_checkpoint: str = ""

    def __post_init__(self):
        if self.scheme not in ("imex1", "imex2", "picard"):
            raise ConfigurationError(f"unknown scheme {self.scheme!r}")
        if self.forcing not in ("zero", "single-mode", "mms"):
            raise ConfigurationError(f"unknown forcing {self.forcing!r}")
        for f in fields(self):  # cfl_limit = inf switches the CFL check off
            v = getattr(self, f.name)
            if f.type in (int, float) and not (math.isfinite(v) or f.name == "cfl_limit" and v > 0):
                raise ConfigurationError(f"{f.name} must be finite, got {v}")
        self.grid()  # validates grid parameters

    def grid(self) -> Grid:
        return Grid(self.nx, self.ny, self.nz, self.h, self.dealias)


# config key -> InitialConditionSpec field
_IC_KEYS = {"ic": "kind", "amplitude": "amplitude", "ic_kx": "kx", "ic_ky": "ky",
            "ic_m": "m", "seed": "seed"}
_IC_TYPES = {f.name: f.type for f in fields(InitialConditionSpec)}
_KEYS = {**{f.name: f.type for f in fields(RunConfig) if f.name != "ic"},
         **{key: _IC_TYPES[name] for key, name in _IC_KEYS.items()}}
_NEEDS = {int: "an integer", float: "a number"}
_POSITIVE = {"h", "dt", "t_end", "cfl_limit", "amplitude", "picard_tolerance",
             "sample_every", "picard_max_iterations"}


def parse_config(text: str) -> RunConfig:
    values, set_on = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        kind = _KEYS.get(key)
        if kind is None:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if key in set_on:
            raise ConfigurationError(f"line {lineno}: {key} is already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            value = kind(val)
        except ValueError:
            raise ConfigurationError(f"line {lineno}: {key} needs {_NEEDS[kind]}, got {val!r}")
        # cfl_limit = inf switches the CFL check off; no other key has a
        # use for inf, and nan compares false with every bound
        if kind is float and not math.isfinite(value) and not (key == "cfl_limit" and value > 0):
            raise ConfigurationError(f"line {lineno}: {key} must be finite, got {val}")
        if key in _POSITIVE and not value > 0:
            raise ConfigurationError(f"line {lineno}: {key} must be > 0, got {val}")
        if key == "seed" and value < 0:
            raise ConfigurationError(f"line {lineno}: seed must be >= 0, got {val}")
        values[key] = value

    ic = InitialConditionSpec(**{_IC_KEYS[key]: values.pop(key)
                                 for key in _IC_KEYS if key in values})
    return RunConfig(ic=ic, **values)


def make_initial(spec: InitialConditionSpec, grid: Grid) -> SpectralField:
    """Deterministic initial velocity on the constraint manifold."""
    if spec.kind == "eigenmode":
        return keyed_eigenmode(grid, "ic", spec.kx, spec.ky, spec.m, spec.amplitude)
    if spec.kind == "random-band":
        rng = np.random.default_rng(spec.seed)
        return constrain(random_spectral(grid, rng, amplitude=spec.amplitude))
    if spec.kind == "shear":
        # (0, u(x) phi_m(z)): y-independent, x-velocity zero, so the
        # averaged divergence vanishes without projection
        m, ix, jx = (grid.index(*a) for a in (("ic_m", spec.m, 2), ("ic_kx", spec.kx, 0),
                                               ("ic_kx", -spec.kx, 0)))
        # the sine needs both +kx and -kx on the grid; at kx = 0 and at the
        # Nyquist wavenumber -nx/2, which Grid.index refuses, it vanishes at every grid point
        if spec.kx == 0:
            raise ConfigurationError(f"ic_kx = 0: a shear needs 0 < |ic_kx| < {grid.nx // 2}")
        c = np.zeros((2, grid.nx, grid.ny, grid.nz), complex)
        c[1, ix, 0, m] = -0.5j * spec.amplitude
        c[1, jx, 0, m] = 0.5j * spec.amplitude
        return SpectralField(grid, c)
    return manufactured_profile(grid, spec)  # InitialConditionSpec admits no other kind


def keyed_eigenmode(grid: Grid, prefix, kx, ky, m, amplitude) -> SpectralField:
    """eigenmode(grid, (kx, ky), m), rejecting a mode outside the grid or on its
    Nyquist lines by the config key that sets it: prefix_kx, prefix_ky or prefix_m."""
    for axis, (key, val) in enumerate((("kx", kx), ("ky", ky), ("m", m))):
        grid.index(f"{prefix}_{key}", val, axis)
    return eigenmode(grid, (kx, ky), m, amplitude=amplitude)


def manufactured_profile(grid: Grid, spec: InitialConditionSpec) -> SpectralField:
    """Band-limited constrained profile used as the manufactured target shape."""
    rng = np.random.default_rng(spec.seed)
    kmax = min(2, grid.nx // 4)
    mmax = min(2, grid.nz)
    return constrain(random_spectral(grid, rng, kmax=kmax, mmax=mmax,
                                     amplitude=spec.amplitude))
