"""The model registry: damped Timoshenko and Bresse beams as metriplectic systems.

Each entry bundles the state layout, the energy/entropy functionals, the
Poisson blocks, the factored dissipative rows and an independently hand-coded
transcription of the underlying PDE system (``direct_rhs``).  The generic
assembly L dE + M dS and the direct transcription must agree to roundoff;
that equivalence is the central consistency check of the package.

Naming: ``chi`` is the longitudinal displacement of the Bresse arch (kept
distinct from the transverse displacement ``phi``); ``p``, ``q``, ``w`` are the
velocities of ``phi``, ``psi`` and of ``chi`` (Bresse) or of ``theta`` (heat
type III); ``e`` is the scalar reservoir absorbing whatever energy the damped
mechanical subsystem loses.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional

import numpy as np

from .engine import _sparse_form
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

_TIMOSHENKO_IDS = {
    ModelId.TIMOSHENKO_UNDAMPED,
    ModelId.TIMOSHENKO_FRICTIONAL,
    ModelId.TIMOSHENKO_HEAT_I,
    ModelId.TIMOSHENKO_HEAT_II,
    ModelId.TIMOSHENKO_HEAT_III,
    ModelId.TIMOSHENKO_NEW,
}


@dataclass(eq=False)
class ModelSpec:
    """Everything needed to evaluate and integrate one model.

    Instances are immutable by convention once built.  The one private slot
    caches what the engine derives from the building blocks in one pass: the
    sparse form, the compiled right-hand side and the stable step bound (see
    :func:`beamgeneric.engine.compile_rhs`).
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
        symbols of its node-0 columns, one small eigenproblem per wavenumber.
        It is the ``dt_bound`` of the model's cached derivation
        (:func:`beamgeneric.engine.compile_rhs` reads the same one), which
        raises :class:`ValueError` for a model that is not
        translation-invariant.
        """
        return _sparse_form(self).dt_bound


# --------------------------------------------------------------------------
# parameter validation


_NONNEGATIVE = (
    "delta1", "delta2", "gamma1", "gamma2", "gamma3",
    "gamma", "delta", "beta", "kappa", "kappa1", "kappa2", "K",
)


def _validate_params(mid: ModelId, params: ModelParams):
    # NaN passes the `< 0` checks below, so finiteness is checked on its own.
    values = dataclasses.asdict(params)
    problems = [
        f"{name} must be finite, got {value}"
        for name, value in values.items()
        if not math.isfinite(value)
    ]
    positive = ["k", "b"]
    if mid not in _TIMOSHENKO_IDS:
        positive += ["k0", "l"]
    for name in positive:
        if not values[name] > 0.0:
            problems.append(f"{name} must be > 0, got {values[name]}")
    for name in _NONNEGATIVE:
        if values[name] < 0.0:
            problems.append(f"{name} must be >= 0, got {values[name]}")
    # alpha < 0 would flip the sign of the dissipative quadratic form and break
    # positive semidefiniteness, so it is rejected along with alpha == 0.
    if not params.alpha > 0.0:
        problems.append(f"alpha must be > 0, got {params.alpha}")
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
# model builders


def _build_timoshenko_undamped(params: ModelParams, grid: Grid):
    layout = StateLayout(grid, ("phi", "psi", "p", "q"), has_reservoir=True)
    k, b = params.k, params.b

    def direct(z: State) -> State:
        out = State.zeros(layout)
        g = grid.d1(z.field("phi")) + z.field("psi")
        out.field("phi")[:] = z.field("p")
        out.field("psi")[:] = z.field("q")
        out.field("p")[:] = k * grid.d1(g)
        out.field("q")[:] = b * grid.d1(grid.d1(z.field("psi"))) - k * g
        return out

    return layout, _timoshenko_energy(params), _CANONICAL_TIMOSHENKO, (), direct


def _build_timoshenko_frictional(params: ModelParams, grid: Grid):
    layout = StateLayout(grid, ("phi", "psi", "p", "q"), has_reservoir=True)
    k, b, d1f, d2f, alpha = params.k, params.b, params.delta1, params.delta2, params.alpha
    rows = (
        DissipativeRow("p", weight=d1f / alpha),
        DissipativeRow("q", weight=d2f / alpha),
    )

    def direct(z: State) -> State:
        out = State.zeros(layout)
        p, q = z.field("p"), z.field("q")
        g = grid.d1(z.field("phi")) + z.field("psi")
        out.field("phi")[:] = p
        out.field("psi")[:] = q
        out.field("p")[:] = -d1f * p + k * grid.d1(g)
        out.field("q")[:] = -d2f * q - k * g + b * grid.d1(grid.d1(z.field("psi")))
        out.reservoir = d1f * grid.inner(p, p) + d2f * grid.inner(q, q)
        return out

    return layout, _timoshenko_energy(params), _CANONICAL_TIMOSHENKO, rows, direct


def _build_timoshenko_heat_i(params: ModelParams, grid: Grid):
    layout = StateLayout(grid, ("phi", "psi", "p", "q", "theta"), has_reservoir=True)
    k, b, gam, kap, alpha = params.k, params.b, params.gamma, params.kappa, params.alpha
    terms = _timoshenko_energy(params) + (_sq("theta"),)
    l_blocks = _CANONICAL_TIMOSHENKO + (
        ("q", "theta", Block("d1", -gam)),
        ("theta", "q", Block("d1", -gam)),
    )
    rows = (DissipativeRow("theta", differentiate=True, weight=kap / alpha),)

    def direct(z: State) -> State:
        out = State.zeros(layout)
        p, q, theta = z.field("p"), z.field("q"), z.field("theta")
        g = grid.d1(z.field("phi")) + z.field("psi")
        out.field("phi")[:] = p
        out.field("psi")[:] = q
        out.field("p")[:] = k * grid.d1(g)
        out.field("q")[:] = -k * g + b * grid.d1(grid.d1(z.field("psi"))) - gam * grid.d1(theta)
        out.field("theta")[:] = kap * grid.d1(grid.d1(theta)) - gam * grid.d1(q)
        dth = grid.d1(theta)
        out.reservoir = kap * grid.inner(dth, dth)
        return out

    return layout, terms, l_blocks, rows, direct


def _build_timoshenko_heat_ii(params: ModelParams, grid: Grid):
    # Cattaneo law: hyperbolic heat conduction through the flux s.
    layout = StateLayout(grid, ("phi", "psi", "p", "q", "theta", "s"), has_reservoir=True)
    k, b, gam, beta, alpha = params.k, params.b, params.gamma, params.beta, params.alpha
    terms = _timoshenko_energy(params) + (_sq("theta"), _sq("s"))
    l_blocks = _CANONICAL_TIMOSHENKO + (
        ("q", "theta", Block("d1", -gam)),
        ("theta", "q", Block("d1", -gam)),
        ("theta", "s", Block("d1", -1.0)),
        ("s", "theta", Block("d1", -1.0)),
    )
    rows = (DissipativeRow("s", weight=beta / alpha),)

    def direct(z: State) -> State:
        out = State.zeros(layout)
        p, q = z.field("p"), z.field("q")
        theta, s = z.field("theta"), z.field("s")
        g = grid.d1(z.field("phi")) + z.field("psi")
        out.field("phi")[:] = p
        out.field("psi")[:] = q
        out.field("p")[:] = k * grid.d1(g)
        out.field("q")[:] = -k * g + b * grid.d1(grid.d1(z.field("psi"))) - gam * grid.d1(theta)
        out.field("theta")[:] = -grid.d1(s) - gam * grid.d1(q)
        out.field("s")[:] = -grid.d1(theta) - beta * s
        out.reservoir = beta * grid.inner(s, s)
        return out

    return layout, terms, l_blocks, rows, direct


def _build_timoshenko_heat_iii(params: ModelParams, grid: Grid):
    # Type III conduction: theta evolves as a wave (velocity w) with an extra
    # K w_xx damping term.
    layout = StateLayout(grid, ("phi", "psi", "p", "q", "theta", "w"), has_reservoir=True)
    k, b, gam, dlt, bigk, alpha = (
        params.k, params.b, params.gamma, params.delta, params.K, params.alpha,
    )
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
        out = State.zeros(layout)
        p, q = z.field("p"), z.field("q")
        theta, w = z.field("theta"), z.field("w")
        g = grid.d1(z.field("phi")) + z.field("psi")
        out.field("phi")[:] = p
        out.field("psi")[:] = q
        out.field("p")[:] = k * grid.d1(g)
        out.field("q")[:] = -k * g + b * grid.d1(grid.d1(z.field("psi"))) - gam * grid.d1(w)
        out.field("theta")[:] = w
        out.field("w")[:] = dlt * grid.d1(grid.d1(theta)) - gam * grid.d1(q) + bigk * grid.d1(grid.d1(w))
        dw = grid.d1(w)
        out.reservoir = bigk * grid.inner(dw, dw)
        return out

    return layout, terms, l_blocks, rows, direct


def _build_timoshenko_new(params: ModelParams, grid: Grid):
    # Nonlinearly coupled temperature; a closed metriplectic system with no
    # reservoir.  The entropy is the integral of log(theta).
    layout = StateLayout(grid, ("phi", "psi", "p", "q", "theta"), has_reservoir=False)
    k, b, gam, dlt = params.k, params.b, params.gamma, params.delta
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
        np.multiply(dlt * theta[2:], theta[:-2], out=out[1:-1])
        out[0] = dlt * theta[1] * theta[-1]
        out[-1] = dlt * theta[0] * theta[-2]
        return out

    rows = (
        DissipativeRow("theta", differentiate=True, weight=theta_weight),
    )

    def direct(z: State) -> State:
        out = State.zeros(layout)
        p, q, theta = z.field("p"), z.field("q"), z.field("theta")
        g = grid.d1(z.field("phi")) + z.field("psi")
        out.field("phi")[:] = p
        out.field("psi")[:] = q
        out.field("p")[:] = k * grid.d1(g)
        out.field("q")[:] = -k * g + b * grid.d1(grid.d1(z.field("psi"))) + gam * grid.d1(theta)
        out.field("theta")[:] = dlt * grid.d1(grid.d1(theta)) + gam * theta * grid.d1(q)
        return out

    return layout, terms, l_blocks, rows, direct


def _build_bresse_undamped(params: ModelParams, grid: Grid):
    layout = StateLayout(grid, ("phi", "psi", "chi", "p", "q", "w"), has_reservoir=True)
    k, b, k0, l = params.k, params.b, params.k0, params.l

    def direct(z: State) -> State:
        out = State.zeros(layout)
        p, q, w = z.field("p"), z.field("q"), z.field("w")
        g = grid.d1(z.field("phi")) + z.field("psi") + l * z.field("chi")
        h = grid.d1(z.field("chi")) - l * z.field("phi")
        out.field("phi")[:] = p
        out.field("psi")[:] = q
        out.field("chi")[:] = w
        out.field("p")[:] = k * grid.d1(g) + k0 * l * h
        out.field("q")[:] = b * grid.d1(grid.d1(z.field("psi"))) - k * g
        out.field("w")[:] = k0 * grid.d1(h) - k * l * g
        return out

    return layout, _bresse_energy(params), _CANONICAL_BRESSE, (), direct


def _build_bresse_frictional(params: ModelParams, grid: Grid):
    layout = StateLayout(grid, ("phi", "psi", "chi", "p", "q", "w"), has_reservoir=True)
    k, b, k0, l = params.k, params.b, params.k0, params.l
    g1, g2, g3, alpha = params.gamma1, params.gamma2, params.gamma3, params.alpha
    rows = (
        DissipativeRow("p", weight=g1 / alpha),
        DissipativeRow("q", weight=g2 / alpha),
        DissipativeRow("w", weight=g3 / alpha),
    )

    def direct(z: State) -> State:
        out = State.zeros(layout)
        p, q, w = z.field("p"), z.field("q"), z.field("w")
        g = grid.d1(z.field("phi")) + z.field("psi") + l * z.field("chi")
        h = grid.d1(z.field("chi")) - l * z.field("phi")
        out.field("phi")[:] = p
        out.field("psi")[:] = q
        out.field("chi")[:] = w
        out.field("p")[:] = k * grid.d1(g) + k0 * l * h - g1 * p
        out.field("q")[:] = b * grid.d1(grid.d1(z.field("psi"))) - k * g - g2 * q
        out.field("w")[:] = k0 * grid.d1(h) - k * l * g - g3 * w
        out.reservoir = (
            g1 * grid.inner(p, p) + g2 * grid.inner(q, q) + g3 * grid.inner(w, w)
        )
        return out

    return layout, _bresse_energy(params), _CANONICAL_BRESSE, rows, direct


def _build_bresse_heat_i(params: ModelParams, grid: Grid):
    layout = StateLayout(grid, ("phi", "psi", "chi", "p", "q", "w", "theta"), has_reservoir=True)
    k, b, k0, l = params.k, params.b, params.k0, params.l
    gam, kap, alpha = params.gamma, params.kappa, params.alpha
    terms = _bresse_energy(params) + (_sq("theta"),)
    l_blocks = _CANONICAL_BRESSE + (
        ("q", "theta", Block("d1", -gam)),
        ("theta", "q", Block("d1", -gam)),
    )
    rows = (DissipativeRow("theta", differentiate=True, weight=kap / alpha),)

    def direct(z: State) -> State:
        out = State.zeros(layout)
        p, q, w, theta = z.field("p"), z.field("q"), z.field("w"), z.field("theta")
        g = grid.d1(z.field("phi")) + z.field("psi") + l * z.field("chi")
        h = grid.d1(z.field("chi")) - l * z.field("phi")
        out.field("phi")[:] = p
        out.field("psi")[:] = q
        out.field("chi")[:] = w
        out.field("p")[:] = k * grid.d1(g) + k0 * l * h
        out.field("q")[:] = b * grid.d1(grid.d1(z.field("psi"))) - k * g - gam * grid.d1(theta)
        out.field("w")[:] = k0 * grid.d1(h) - k * l * g
        out.field("theta")[:] = kap * grid.d1(grid.d1(theta)) - gam * grid.d1(q)
        dth = grid.d1(theta)
        out.reservoir = kap * grid.inner(dth, dth)
        return out

    return layout, terms, l_blocks, rows, direct


def _build_bresse_heat_ii(params: ModelParams, grid: Grid):
    # Two temperatures: theta damps the shear angle, eta damps the longitudinal
    # displacement (and couples to p through the curvature).
    layout = StateLayout(
        grid, ("phi", "psi", "chi", "p", "q", "w", "theta", "eta"), has_reservoir=True
    )
    k, b, k0, l = params.k, params.b, params.k0, params.l
    gam, dlt = params.gamma, params.delta
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
        out = State.zeros(layout)
        p, q, w = z.field("p"), z.field("q"), z.field("w")
        theta, eta = z.field("theta"), z.field("eta")
        g = grid.d1(z.field("phi")) + z.field("psi") + l * z.field("chi")
        h = grid.d1(z.field("chi")) - l * z.field("phi")
        out.field("phi")[:] = p
        out.field("psi")[:] = q
        out.field("chi")[:] = w
        out.field("p")[:] = k * grid.d1(g) + k0 * l * h - gam * l * eta
        out.field("q")[:] = b * grid.d1(grid.d1(z.field("psi"))) - k * g - dlt * grid.d1(theta)
        out.field("w")[:] = k0 * grid.d1(h) - k * l * g - gam * grid.d1(eta)
        out.field("theta")[:] = kap1 * grid.d1(grid.d1(theta)) - dlt * grid.d1(q)
        out.field("eta")[:] = kap2 * grid.d1(grid.d1(eta)) - gam * (grid.d1(w) - l * p)
        dth, deta = grid.d1(theta), grid.d1(eta)
        out.reservoir = kap1 * grid.inner(dth, dth) + kap2 * grid.inner(deta, deta)
        return out

    return layout, terms, l_blocks, rows, direct


_BUILDERS = {
    ModelId.TIMOSHENKO_UNDAMPED: _build_timoshenko_undamped,
    ModelId.TIMOSHENKO_FRICTIONAL: _build_timoshenko_frictional,
    ModelId.TIMOSHENKO_HEAT_I: _build_timoshenko_heat_i,
    ModelId.TIMOSHENKO_HEAT_II: _build_timoshenko_heat_ii,
    ModelId.TIMOSHENKO_HEAT_III: _build_timoshenko_heat_iii,
    ModelId.TIMOSHENKO_NEW: _build_timoshenko_new,
    ModelId.BRESSE_UNDAMPED: _build_bresse_undamped,
    ModelId.BRESSE_FRICTIONAL: _build_bresse_frictional,
    ModelId.BRESSE_HEAT_I: _build_bresse_heat_i,
    ModelId.BRESSE_HEAT_II: _build_bresse_heat_ii,
}


def build_model(model_id, params: ModelParams = None, grid: Grid = None) -> ModelSpec:
    """Construct a fully wired model.

    ``model_id`` may be a :class:`ModelId` or its string name.  ``params``
    defaults to unit constants; ``grid`` defaults to 64 nodes on a unit domain.
    """
    mid = ModelId(model_id)
    if params is None:
        params = ModelParams()
    if grid is None:
        grid = Grid(64, 1.0)
    _validate_params(mid, params)
    layout, terms, l_blocks, rows, direct = _BUILDERS[mid](params, grid)
    if mid is ModelId.TIMOSHENKO_NEW:
        entropy = LogThetaEntropy()
    else:
        entropy = ReservoirEntropy(params.alpha)
    model = ModelSpec(
        id=mid,
        layout=layout,
        params=params,
        energy_terms=terms,
        entropy=entropy,
        l_blocks=l_blocks,
        m_rows=rows,
        direct_rhs=direct,
        reference_state=_equilibrium_state(mid, layout),
    )
    return model


def _equilibrium_state(mid: ModelId, layout: StateLayout) -> State:
    z = State.zeros(layout)
    if mid is ModelId.TIMOSHENKO_NEW:
        z.field("theta")[:] = 1.0
    return z


def default_initial_state(model_id, grid: Grid, mode: int = 1, amplitude: float = 0.1) -> State:
    """Smooth single-mode initial data: displacements excited, velocities zero.

    Every other slot keeps the model's reference state: theta starts at 1 for
    the nonlinear model (its entropy needs theta > 0) and at 0 everywhere
    else; flux/second-temperature/reservoir slots start at 0.  A non-finite
    ``amplitude`` is rejected, and so is a ``mode`` above n/2, which the grid
    would alias to a lower one.
    """
    mid = ModelId(model_id)
    if not isinstance(mode, (int, np.integer)) or mode < 1:
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
