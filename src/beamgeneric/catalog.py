"""The model registry: damped Timoshenko and Bresse beams as metriplectic systems.

Each entry bundles the state layout, the energy functional, the Poisson
blocks, the factored dissipative rows and an independently hand-coded
transcription of the underlying PDE system (``direct_rhs``).  Each beam
family's conservative core is transcribed once (:func:`_timoshenko_core`,
:func:`_bresse_core`); a damped model's transcription adds only its own
friction, heat or flux terms and reservoir rate.  The undamped, frictional
and type-I heat models are written once for both families, over a
:class:`_Family` record of the family's fields, energy, canonical blocks,
core and friction constants.  The entropy and the reference state follow
the layout: ``alpha * e`` and the zero state with a reservoir, the log
entropy and ``theta = 1`` without one.  The generic
assembly L dE + M dS and the direct transcription must agree to roundoff;
that equivalence is the central consistency check of the package.

Naming: ``chi`` is the longitudinal displacement of the Bresse arch (kept
distinct from the transverse displacement ``phi``); ``p``, ``q``, ``w`` are the
velocities of ``phi``, ``psi`` and of ``chi`` (Bresse) or of ``theta`` (heat
type III); ``e`` is the scalar reservoir absorbing whatever energy the damped
mechanical subsystem loses.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional

import numpy as np

from .engine import SETUP_BYTES_PER_SLOT, _check_budget, _is_count, _sparse_form
from .functionals import LinearTerm, LogThetaEntropy, ModelParams, ReservoirEntropy, SquareTerm
from .grid import Grid
from .operators import Block, DissipativeRow
from .state import State, StateLayout


class ModelId(str, enum.Enum):
    TIMOSHENKO_UNDAMPED = "TimoshenkoUndamped"
    TIMOSHENKO_FRICTIONAL = "TimoshenkoFrictional"
    TIMOSHENKO_HEAT_I = "TimoshenkoHeatI"
    TIMOSHENKO_HEAT_II = "TimoshenkoHeatII"
    TIMOSHENKO_HEAT_III = "TimoshenkoHeatIII"
    TIMOSHENKO_NEW = "TimoshenkoNew"
    BRESSE_UNDAMPED = "BresseUndamped"
    BRESSE_FRICTIONAL = "BresseFrictional"
    BRESSE_HEAT_I = "BresseHeatI"
    BRESSE_HEAT_II = "BresseHeatII"

    def __str__(self):
        return self.value


#: catalog order, used by the CLI and the verification suite
ALL_MODEL_IDS = tuple(ModelId)

_TIMOSHENKO = ("k", "b")
_BRESSE = ("k", "b", "k0", "l")

#: the ``ModelParams`` fields each model reads; ``alpha`` scales the
#: reservoir entropy, so the nonlinear model, which has no reservoir, does
#: not read it
MODEL_CONSTANTS = {
    ModelId.TIMOSHENKO_UNDAMPED: _TIMOSHENKO + ("alpha",),
    ModelId.TIMOSHENKO_FRICTIONAL: _TIMOSHENKO + ("delta1", "delta2", "alpha"),
    ModelId.TIMOSHENKO_HEAT_I: _TIMOSHENKO + ("gamma", "kappa", "alpha"),
    ModelId.TIMOSHENKO_HEAT_II: _TIMOSHENKO + ("gamma", "beta", "alpha"),
    ModelId.TIMOSHENKO_HEAT_III: _TIMOSHENKO + ("gamma", "delta", "K", "alpha"),
    ModelId.TIMOSHENKO_NEW: _TIMOSHENKO + ("gamma", "delta"),
    ModelId.BRESSE_UNDAMPED: _BRESSE + ("alpha",),
    ModelId.BRESSE_FRICTIONAL: _BRESSE + ("gamma1", "gamma2", "gamma3", "alpha"),
    ModelId.BRESSE_HEAT_I: _BRESSE + ("gamma", "kappa", "alpha"),
    ModelId.BRESSE_HEAT_II: _BRESSE + ("gamma", "delta", "kappa1", "kappa2", "alpha"),
}


@dataclass(eq=False)
class ModelSpec:
    """Everything needed to evaluate and integrate one model.

    ``direct_rhs`` is the family's conservative core plus the model's own
    terms; ``entropy`` and ``reference_state`` follow ``layout.has_reservoir``
    (see :func:`build_model`).  Instances are immutable by convention once
    built.  The one private slot caches what the engine derives from the
    building blocks in one pass: the sparse form, the compiled right-hand side
    and the stable step bound (see :func:`beamgeneric.engine.compile_rhs`).
    """

    id: ModelId
    layout: StateLayout
    params: ModelParams
    energy_terms: tuple
    entropy: object
    l_blocks: tuple
    m_rows: tuple
    direct_rhs: Callable[[State], State]
    reference_state: State
    _sparse: Optional[object] = dataclass_field(default=None, init=False, repr=False)

    @property
    def grid(self) -> Grid:
        return self.layout.grid

    @property
    def damped(self) -> bool:
        return bool(self.m_rows)

    @property
    def dt_bound(self) -> float:
        """Largest time step :func:`beamgeneric.engine.integrate` accepts.

        0.9 times the RK4 linear stability limit of the right-hand side,
        linearized exactly at the uniform equilibrium reference state.  The
        spectrum of the linearization's field block is read off the Fourier
        symbols of its node-0 columns, one small eigenproblem per wavenumber,
        and the limit is one bisection from its spectral radius down to
        adjacent floats (:func:`beamgeneric.engine._rk4_stability_limit`),
        exact at any constants.  It is the ``dt_bound`` of the model's cached
        derivation (:func:`beamgeneric.engine.compile_rhs` reads the same
        one), which raises :class:`ValueError` for a model that is not
        translation-invariant.
        """
        return _sparse_form(self).dt_bound


# --------------------------------------------------------------------------
# parameter validation


#: the constants that must be > 0; every other constant a model reads must
#: be >= 0.  alpha < 0 would flip the sign of the dissipative quadratic form
#: and break positive semidefiniteness, so it is rejected along with
#: alpha == 0.
_POSITIVE = ("k", "b", "k0", "l", "alpha")


def _validate_params(mid: ModelId, params: ModelParams):
    # Only the constants the model reads are checked; it ignores the rest.
    # NaN passes the sign checks below, so finiteness is checked on its own.
    values = {name: getattr(params, name) for name in MODEL_CONSTANTS[mid]}
    problems = [
        f"{name} must be finite, got {value}"
        for name, value in values.items()
        if not math.isfinite(value)
    ]
    for name, value in values.items():
        if name in _POSITIVE and not value > 0.0:
            problems.append(f"{name} must be > 0, got {value}")
        elif name not in _POSITIVE and value < 0.0:
            problems.append(f"{name} must be >= 0, got {value}")
    if problems:
        raise ValueError(f"invalid parameters for {mid.value}: " + "; ".join(problems))


# --------------------------------------------------------------------------
# shared pieces

_CANONICAL_TIMOSHENKO = (
    ("phi", "p", Block("identity", 1.0)),
    ("p", "phi", Block("identity", -1.0)),
    ("psi", "q", Block("identity", 1.0)),
    ("q", "psi", Block("identity", -1.0)),
)

_CANONICAL_BRESSE = _CANONICAL_TIMOSHENKO + (
    ("chi", "w", Block("identity", 1.0)),
    ("w", "chi", Block("identity", -1.0)),
)


def _timoshenko_energy(params: ModelParams) -> tuple:
    return (
        SquareTerm(1.0, (("p", False, 1.0),)),
        SquareTerm(1.0, (("q", False, 1.0),)),
        SquareTerm(params.k, (("phi", True, 1.0), ("psi", False, 1.0))),
        SquareTerm(params.b, (("psi", True, 1.0),)),
    )


def _bresse_energy(params: ModelParams) -> tuple:
    k, b, k0, l = params.k, params.b, params.k0, params.l
    return (
        SquareTerm(1.0, (("p", False, 1.0),)),
        SquareTerm(1.0, (("q", False, 1.0),)),
        SquareTerm(1.0, (("w", False, 1.0),)),
        SquareTerm(k, (("phi", True, 1.0), ("psi", False, 1.0), ("chi", False, l))),
        SquareTerm(b, (("psi", True, 1.0),)),
        SquareTerm(k0, (("chi", True, 1.0), ("phi", False, -l))),
    )


def _sq(field_name: str, coeff: float = 1.0) -> SquareTerm:
    return SquareTerm(coeff, ((field_name, False, 1.0),))


# --------------------------------------------------------------------------
# conservative cores of the direct transcriptions


def _timoshenko_core(params: ModelParams, z: State) -> State:
    """The undamped Timoshenko beam, written out by hand: rows phi, psi, p
    and q of the right-hand side, every other slot zero.  Like each model's
    own terms it never reads the building blocks, so ``direct_rhs`` stays an
    oracle independent of L, M, E and S."""
    grid = z.layout.grid
    out = State.zeros(z.layout)
    g = grid.d1(z.field("phi")) + z.field("psi")
    out.field("phi")[:] = z.field("p")
    out.field("psi")[:] = z.field("q")
    out.field("p")[:] = params.k * grid.d1(g)
    out.field("q")[:] = params.b * grid.d1(grid.d1(z.field("psi"))) - params.k * g
    return out


def _bresse_core(params: ModelParams, z: State) -> State:
    """The undamped Bresse arch, written out by hand: rows phi, psi, chi, p,
    q and w of the right-hand side, every other slot zero."""
    grid = z.layout.grid
    k, b, k0, l = params.k, params.b, params.k0, params.l
    out = State.zeros(z.layout)
    g = grid.d1(z.field("phi")) + z.field("psi") + l * z.field("chi")
    h = grid.d1(z.field("chi")) - l * z.field("phi")
    out.field("phi")[:] = z.field("p")
    out.field("psi")[:] = z.field("q")
    out.field("chi")[:] = z.field("w")
    out.field("p")[:] = k * grid.d1(g) + k0 * l * h
    out.field("q")[:] = b * grid.d1(grid.d1(z.field("psi"))) - k * g
    out.field("w")[:] = k0 * grid.d1(h) - k * l * g
    return out


@dataclass(frozen=True)
class _Family:
    """What the undamped, frictional and type-I heat models of one beam
    family take from it: its fields, energy terms, canonical Poisson blocks
    and conservative core, and its frictions as (velocity, constant name)
    pairs."""

    fields: tuple
    energy: Callable[[ModelParams], tuple]
    canonical: tuple
    core: Callable[[ModelParams, State], State]
    friction: tuple


_TIMOSHENKO_FAMILY = _Family(
    ("phi", "psi", "p", "q"), _timoshenko_energy, _CANONICAL_TIMOSHENKO, _timoshenko_core,
    (("p", "delta1"), ("q", "delta2")),
)

_BRESSE_FAMILY = _Family(
    ("phi", "psi", "chi", "p", "q", "w"), _bresse_energy, _CANONICAL_BRESSE, _bresse_core,
    (("p", "gamma1"), ("q", "gamma2"), ("w", "gamma3")),
)


# --------------------------------------------------------------------------
# model builders: the building blocks, and a direct transcription that adds
# the model's own friction, heat or flux terms and reservoir rate to its core


def _build_undamped(family: _Family, params: ModelParams, grid: Grid):
    layout = StateLayout(grid, family.fields, has_reservoir=True)
    direct = functools.partial(family.core, params)
    return layout, family.energy(params), family.canonical, (), direct


def _build_frictional(family: _Family, params: ModelParams, grid: Grid):
    layout = StateLayout(grid, family.fields, has_reservoir=True)
    friction = tuple((v, getattr(params, name)) for v, name in family.friction)
    rows = tuple(DissipativeRow(v, weight=c / params.alpha) for v, c in friction)

    def direct(z: State) -> State:
        out = family.core(params, z)
        for v, c in friction:
            out.field(v)[:] -= c * z.field(v)
        # summed left to right from the first velocity: the order fixes the rounding
        rates = (c * grid.inner(z.field(v), z.field(v)) for v, c in friction)
        out.reservoir = functools.reduce(operator.add, rates)
        return out

    return layout, family.energy(params), family.canonical, rows, direct


def _build_heat_i(family: _Family, params: ModelParams, grid: Grid):
    layout = StateLayout(grid, family.fields + ("theta",), has_reservoir=True)
    gam, kap, alpha = params.gamma, params.kappa, params.alpha
    terms = family.energy(params) + (_sq("theta"),)
    l_blocks = family.canonical + (
        ("q", "theta", Block("d1", -gam)),
        ("theta", "q", Block("d1", -gam)),
    )
    rows = (DissipativeRow("theta", differentiate=True, weight=kap / alpha),)

    def direct(z: State) -> State:
        out = family.core(params, z)
        q, theta = z.field("q"), z.field("theta")
        dth = grid.d1(theta)
        out.field("q")[:] -= gam * dth
        out.field("theta")[:] = kap * grid.d1(dth) - gam * grid.d1(q)
        out.reservoir = kap * grid.inner(dth, dth)
        return out

    return layout, terms, l_blocks, rows, direct


def _build_timoshenko_heat_ii(params: ModelParams, grid: Grid):
    # Cattaneo law: hyperbolic heat conduction through the flux s.
    layout = StateLayout(grid, ("phi", "psi", "p", "q", "theta", "s"), has_reservoir=True)
    gam, beta, alpha = params.gamma, params.beta, params.alpha
    terms = _timoshenko_energy(params) + (_sq("theta"), _sq("s"))
    l_blocks = _CANONICAL_TIMOSHENKO + (
        ("q", "theta", Block("d1", -gam)),
        ("theta", "q", Block("d1", -gam)),
        ("theta", "s", Block("d1", -1.0)),
        ("s", "theta", Block("d1", -1.0)),
    )
    rows = (DissipativeRow("s", weight=beta / alpha),)

    def direct(z: State) -> State:
        out = _timoshenko_core(params, z)
        q, theta, s = z.field("q"), z.field("theta"), z.field("s")
        out.field("q")[:] -= gam * grid.d1(theta)
        out.field("theta")[:] = -grid.d1(s) - gam * grid.d1(q)
        out.field("s")[:] = -grid.d1(theta) - beta * s
        out.reservoir = beta * grid.inner(s, s)
        return out

    return layout, terms, l_blocks, rows, direct


def _build_timoshenko_heat_iii(params: ModelParams, grid: Grid):
    # Type III conduction: theta evolves as a wave (velocity w) with an extra
    # K w_xx damping term.
    layout = StateLayout(grid, ("phi", "psi", "p", "q", "theta", "w"), has_reservoir=True)
    gam, dlt, bigk, alpha = params.gamma, params.delta, params.K, params.alpha
    terms = _timoshenko_energy(params) + (
        _sq("w"),
        SquareTerm(dlt, (("theta", True, 1.0),)),
    )
    l_blocks = _CANONICAL_TIMOSHENKO + (
        ("q", "w", Block("d1", -gam)),
        ("w", "q", Block("d1", -gam)),
        ("theta", "w", Block("identity", 1.0)),
        ("w", "theta", Block("identity", -1.0)),
    )
    rows = (DissipativeRow("w", differentiate=True, weight=bigk / alpha),)

    def direct(z: State) -> State:
        out = _timoshenko_core(params, z)
        q, theta, w = z.field("q"), z.field("theta"), z.field("w")
        dw = grid.d1(w)
        out.field("q")[:] -= gam * dw
        out.field("theta")[:] = w
        out.field("w")[:] = dlt * grid.d1(grid.d1(theta)) - gam * grid.d1(q) + bigk * grid.d1(dw)
        out.reservoir = bigk * grid.inner(dw, dw)
        return out

    return layout, terms, l_blocks, rows, direct


def _build_timoshenko_new(params: ModelParams, grid: Grid):
    # Nonlinearly coupled temperature; a closed metriplectic system with no
    # reservoir.  The entropy is the integral of log(theta).
    layout = StateLayout(grid, ("phi", "psi", "p", "q", "theta"), has_reservoir=False)
    gam, dlt = params.gamma, params.delta
    terms = _timoshenko_energy(params) + (LinearTerm("theta", 1.0),)
    l_blocks = _CANONICAL_TIMOSHENKO + (
        ("q", "theta", Block("d1_mul", gam, "theta")),
        ("theta", "q", Block("mul_d1", gam, "theta")),
    )

    def theta_weight(z: State) -> np.ndarray:
        # Product of the two neighbours entering the d1 stencil: with this
        # nodal weight the discrete chain rule w * d1(1/theta) = -delta *
        # d1(theta) is exact, so the assembled temperature equation reproduces
        # the direct transcription to roundoff (and the weight is positive
        # whenever theta is).
        theta = z.field("theta")
        out = np.empty_like(theta)
        # nodes first (a transposed view), as in Grid.d1
        t, w = theta.T, out.T
        np.multiply(dlt * t[2:], t[:-2], out=w[1:-1])
        w[0] = dlt * t[1] * t[-1]
        w[-1] = dlt * t[0] * t[-2]
        return out

    rows = (DissipativeRow("theta", differentiate=True, weight=theta_weight),)

    def direct(z: State) -> State:
        out = _timoshenko_core(params, z)
        q, theta = z.field("q"), z.field("theta")
        out.field("q")[:] += gam * grid.d1(theta)
        out.field("theta")[:] = dlt * grid.d1(grid.d1(theta)) + gam * theta * grid.d1(q)
        return out

    return layout, terms, l_blocks, rows, direct


def _build_bresse_heat_ii(params: ModelParams, grid: Grid):
    # Two temperatures: theta damps the shear angle, eta damps the longitudinal
    # displacement (and couples to p through the curvature).
    layout = StateLayout(
        grid, ("phi", "psi", "chi", "p", "q", "w", "theta", "eta"), has_reservoir=True
    )
    l, gam, dlt = params.l, params.gamma, params.delta
    kap1, kap2, alpha = params.kappa1, params.kappa2, params.alpha
    terms = _bresse_energy(params) + (_sq("theta"), _sq("eta"))
    l_blocks = _CANONICAL_BRESSE + (
        ("q", "theta", Block("d1", -dlt)),
        ("theta", "q", Block("d1", -dlt)),
        ("p", "eta", Block("identity", -gam * l)),
        ("eta", "p", Block("identity", gam * l)),
        ("w", "eta", Block("d1", -gam)),
        ("eta", "w", Block("d1", -gam)),
    )
    rows = (
        DissipativeRow("theta", differentiate=True, weight=kap1 / alpha),
        DissipativeRow("eta", differentiate=True, weight=kap2 / alpha),
    )

    def direct(z: State) -> State:
        out = _bresse_core(params, z)
        p, q, w = z.field("p"), z.field("q"), z.field("w")
        theta, eta = z.field("theta"), z.field("eta")
        dth, deta = grid.d1(theta), grid.d1(eta)
        out.field("p")[:] -= gam * l * eta
        out.field("q")[:] -= dlt * dth
        out.field("w")[:] -= gam * deta
        out.field("theta")[:] = kap1 * grid.d1(dth) - dlt * grid.d1(q)
        out.field("eta")[:] = kap2 * grid.d1(deta) - gam * (grid.d1(w) - l * p)
        out.reservoir = kap1 * grid.inner(dth, dth) + kap2 * grid.inner(deta, deta)
        return out

    return layout, terms, l_blocks, rows, direct


_BUILDERS = {
    ModelId.TIMOSHENKO_UNDAMPED: functools.partial(_build_undamped, _TIMOSHENKO_FAMILY),
    ModelId.TIMOSHENKO_FRICTIONAL: functools.partial(_build_frictional, _TIMOSHENKO_FAMILY),
    ModelId.TIMOSHENKO_HEAT_I: functools.partial(_build_heat_i, _TIMOSHENKO_FAMILY),
    ModelId.TIMOSHENKO_HEAT_II: _build_timoshenko_heat_ii,
    ModelId.TIMOSHENKO_HEAT_III: _build_timoshenko_heat_iii,
    ModelId.TIMOSHENKO_NEW: _build_timoshenko_new,
    ModelId.BRESSE_UNDAMPED: functools.partial(_build_undamped, _BRESSE_FAMILY),
    ModelId.BRESSE_FRICTIONAL: functools.partial(_build_frictional, _BRESSE_FAMILY),
    ModelId.BRESSE_HEAT_I: functools.partial(_build_heat_i, _BRESSE_FAMILY),
    ModelId.BRESSE_HEAT_II: _build_bresse_heat_ii,
}


def build_model(model_id, params: ModelParams = None, grid: Grid = None) -> ModelSpec:
    """Construct a fully wired model.

    ``model_id`` may be a :class:`ModelId` or its string name.  ``params``
    defaults to unit constants; ``grid`` defaults to 64 nodes on a unit domain.
    A grid whose estimated set-up memory is above the engine's
    ``MEMORY_LIMIT_BYTES`` raises :class:`ValueError` before anything of its
    size is allocated.
    The entropy and the reference state follow the layout: with a reservoir,
    ``alpha * e`` and the zero state; without one, the integral of
    ``log(theta)`` and the zero state with ``theta = 1``.
    """
    mid = ModelId(model_id)
    if params is None:
        params = ModelParams()
    if grid is None:
        grid = Grid(64, 1.0)
    _validate_params(mid, params)
    layout, terms, l_blocks, rows, direct = _BUILDERS[mid](params, grid)
    _check_budget(f"{mid} on n = {grid.n}",
                  memory=layout.flat_dim * SETUP_BYTES_PER_SLOT)
    reference = State.zeros(layout)
    if layout.has_reservoir:
        entropy = ReservoirEntropy(params.alpha)
    else:
        entropy = LogThetaEntropy()
        reference.field("theta")[:] = 1.0
    return ModelSpec(
        id=mid,
        layout=layout,
        params=params,
        energy_terms=terms,
        entropy=entropy,
        l_blocks=l_blocks,
        m_rows=rows,
        direct_rhs=direct,
        reference_state=reference,
    )


def default_initial_state(model_id, grid: Grid, mode: int = 1, amplitude: float = 0.1) -> State:
    """Smooth single-mode initial data: displacements excited, velocities zero.

    Every other slot keeps the model's reference state: theta starts at 1 for
    the nonlinear model (its entropy needs theta > 0) and at 0 everywhere
    else; flux/second-temperature/reservoir slots start at 0.  A non-finite
    ``amplitude`` is rejected, and so is a ``mode`` above n/2, which the grid
    would alias to a lower one.
    """
    mid = ModelId(model_id)
    if not _is_count(mode):
        raise ValueError(f"mode must be a positive integer, got {mode!r}")
    if mode > grid.n // 2:
        raise ValueError(
            f"mode must be at most n/2 = {grid.n // 2} on n = {grid.n} nodes, got {mode}"
        )
    if not math.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude!r}")
    z = build_model(mid, ModelParams(), grid).reference_state.copy()
    phase = 2.0 * math.pi * mode * grid.nodes / grid.length
    z.field("phi")[:] = amplitude * np.sin(phase)
    z.field("psi")[:] = amplitude * np.cos(phase)
    if "chi" in z.layout:
        z.field("chi")[:] = amplitude * np.sin(phase + math.pi / 4.0)
    return z
