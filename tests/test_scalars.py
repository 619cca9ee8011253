"""Non-finite scalars and empty inputs are refused, naming what is wrong.

One table holds every scalar parameter of the public functions and configs,
float and integer: the names in hydropde.__all__, the StokesOperator solves
and probes, the fields norms, eigenmode, random_spectral and ForcingSpec.
Each gets nan, +inf and -inf in turn and must raise DomainError or
ConfigurationError with a message that names it; the table marks the
infinities that are documented values (cfl_limit = inf switches the CFL
check off, lp_norm's p = inf is the max norm).  An integer parameter takes
nan and inf only from a caller that passes floats, which the configs and
the grid refuse as they refuse a non-finite float.
"""

import dataclasses
import inspect
import math
import re

import numpy as np
import pytest

import hydropde
from hydropde.config import InitialConditionSpec, RunConfig
from hydropde.errors import ConfigurationError, DomainError
from hydropde.evolution import ForcingSpec, ImexConfig, PicardConfig, imex_run, picard_solve
from hydropde.fields import SpectralField, lp_norm, random_spectral, sobolev_norm, to_physical
from hydropde.grid import Grid
from hydropde.nonlinear import bilinear_estimate_probe
from hydropde.projection import constrain
from hydropde.stokes import StokesOperator, eigenmode

G = Grid(8, 8, 4)
OP = StokesOperator(G)
F0 = constrain(random_spectral(G, np.random.default_rng(0)))
MODE = eigenmode(G, (1, 0), 0, amplitude=1e-3)

# name -> (call with the scalar x, pattern by which the message names it,
#          the documented infinities)
SCALARS = {
    "Grid.nx": (lambda x: Grid(x, 8, 4), r"\bnx\b", ()),
    "Grid.ny": (lambda x: Grid(8, x, 4), r"\bny\b", ()),
    "Grid.nz": (lambda x: Grid(8, 8, x), r"\bnz\b", ()),
    "Grid.h": (lambda x: Grid(8, 8, 4, h=x), r"\bh\b", ()),
    "Grid.dealias_fraction": (lambda x: Grid(8, 8, 4, dealias_fraction=x),
                              "dealias_fraction", ()),
    "ImexConfig.dt": (lambda x: ImexConfig(dt=x, t_end=1.0), "step size", ()),
    "ImexConfig.t_end": (lambda x: ImexConfig(dt=1e-3, t_end=x), "end time", ()),
    "ImexConfig.cfl_limit": (lambda x: ImexConfig(dt=1e-3, t_end=1.0, cfl_limit=x),
                             "cfl_limit", (math.inf,)),
    "ImexConfig.order": (lambda x: ImexConfig(dt=1e-3, t_end=1.0, order=x), "order", ()),
    "ImexConfig.sample_every": (lambda x: ImexConfig(dt=1e-3, t_end=1.0, sample_every=x),
                                "sample_every", ()),
    "PicardConfig.horizon": (lambda x: PicardConfig(horizon=x), "horizon", ()),
    "PicardConfig.tolerance": (lambda x: PicardConfig(horizon=1.0, tolerance=x),
                               "tolerance", ()),
    "PicardConfig.nodes": (lambda x: PicardConfig(horizon=1.0, nodes=x), r"\bnodes\b", ()),
    "PicardConfig.max_iterations": (lambda x: PicardConfig(horizon=1.0, max_iterations=x),
                                    "max_iterations", ()),
    "InitialConditionSpec.amplitude": (lambda x: InitialConditionSpec(amplitude=x),
                                       "amplitude", ()),
    **{f"InitialConditionSpec.{name}": (
        lambda x, name=name: InitialConditionSpec(**{name: x}), rf"\b{name}\b", ())
       for name in ("kx", "ky", "m", "seed")},
    **{f"RunConfig.{f.name}": (lambda x, name=f.name: RunConfig(**{name: x}), rf"\b{f.name}\b",
                               (math.inf,) if f.name == "cfl_limit" else ())
       for f in dataclasses.fields(RunConfig) if f.type in (int, float)},
    "ForcingSpec.rate": (lambda x: ForcingSpec(MODE, rate=x), "rate", ()),
    "eigenmode.m": (lambda x: eigenmode(G, (1, 0), x), r"\bm\b", ()),
    "eigenmode.amplitude": (lambda x: eigenmode(G, (1, 0), 0, amplitude=x), "amplitude", ()),
    "random_spectral.amplitude": (
        lambda x: random_spectral(G, np.random.default_rng(0), amplitude=x), "amplitude", ()),
    "StokesOperator.semigroup_apply.t": (lambda x: OP.semigroup_apply(x, F0), r"\bt\b", ()),
    "StokesOperator.solve_shifted.c": (lambda x: OP.solve_shifted(x, F0), r"\bc\b", ()),
    "StokesOperator.resolvent_solve.lam": (lambda x: OP.resolvent_solve(x, F0), r"\blam\b", ()),
    "StokesOperator.sector_sweep.eps": (lambda x: OP.sector_sweep(x), r"\beps\b", ()),
    "StokesOperator.sector_sweep.lambdas": (lambda x: OP.sector_sweep(0.3, [1.0, x]),
                                            "lambda", ()),
    "StokesOperator.smoothing_probe.theta1": (
        lambda x: OP.smoothing_probe(x, 0.0, [0.1], F0), "theta1", ()),
    "StokesOperator.smoothing_probe.theta2": (
        lambda x: OP.smoothing_probe(0.0, x, [0.1], F0), "theta2", ()),
    "StokesOperator.smoothing_probe.t_samples": (
        lambda x: OP.smoothing_probe(0.5, 0.0, [0.1, x], F0), "t_samples", ()),
    "lp_norm.p": (lambda x: lp_norm(to_physical(F0), x), r"\bp\b", (math.inf,)),
    "sobolev_norm.s": (lambda x: sobolev_norm(F0, x), r"\bs\b", ()),
    "bilinear_estimate_probe.samples": (lambda x: bilinear_estimate_probe(G, samples=x),
                                        "samples", ()),
}
CASES = [(name, x) for name in SCALARS for x in (math.nan, math.inf, -math.inf)]


@pytest.mark.parametrize("name, x", CASES, ids=[f"{n}-{x}" for n, x in CASES])
def test_non_finite_scalar_is_refused_by_name(name, x):
    call, names, documented = SCALARS[name]
    if x in documented:
        call(x)
        return
    with pytest.raises((DomainError, ConfigurationError)) as err:
        call(x)
    assert re.search(names, str(err.value)), str(err.value)


def _parameters(obj, kind):
    """Names of obj's kind-typed dataclass fields, or of its parameters with a kind default."""
    if dataclasses.is_dataclass(obj):
        return [f.name for f in dataclasses.fields(obj) if f.type is kind]
    if inspect.isfunction(obj):
        return [p.name for p in inspect.signature(obj).parameters.values()
                if isinstance(p.default, kind) and not isinstance(p.default, bool)]
    return []


def _declared(kind):
    return {f"{name}.{p}" for name in hydropde.__all__
            for p in _parameters(getattr(hydropde, name), kind)}


def test_table_holds_every_float_parameter_of_the_public_names():
    declared = _declared(float)
    assert declared and declared <= set(SCALARS), sorted(declared - set(SCALARS))


def test_table_holds_every_int_parameter_of_the_public_names():
    declared = _declared(int)
    assert declared and declared <= set(SCALARS), sorted(declared - set(SCALARS))


class TestEmptyInput:
    def test_sector_sweep_without_lambdas(self):
        with pytest.raises(DomainError, match="lambdas"):
            OP.sector_sweep(0.3, [])

    def test_smoothing_probe_without_times(self):
        with pytest.raises(DomainError, match="t_samples"):
            OP.smoothing_probe(0.5, 0.0, [], F0)

    def test_smoothing_probe_of_a_field_with_no_constrained_part(self):
        # its H^s norm, the ratio's denominator, is 0
        zero = SpectralField(G, np.zeros((2, G.nx, G.ny, G.nz), complex))
        with pytest.raises(DomainError, match="nonzero constrained part"):
            OP.smoothing_probe(0.5, 0.0, [0.1], zero)

    @pytest.mark.parametrize("samples", [0, 1])
    def test_bilinear_probe_needs_a_pair(self, samples):
        with pytest.raises(DomainError, match="samples >= 2"):
            bilinear_estimate_probe(G, samples=samples)


def _nan_field():
    return SpectralField(G, np.full((2, G.nx, G.ny, G.nz), np.nan, complex))


@pytest.mark.parametrize("integrate", [
    lambda a, f: imex_run(a, f, ImexConfig(dt=1e-3, t_end=2e-3), OP),
    lambda a, f: picard_solve(a, f, PicardConfig(horizon=2e-3, nodes=4), OP),
], ids=["imex", "picard"])
class TestIntegratorsNameNonFiniteInput:
    def test_initial_data(self, integrate):
        with pytest.raises(ConfigurationError, match="initial data is not finite"):
            integrate(_nan_field(), None)

    def test_forcing(self, integrate):
        with pytest.raises(ConfigurationError, match="forcing is not finite"):
            integrate(MODE, ForcingSpec(_nan_field()))
