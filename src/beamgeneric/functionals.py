"""Energy and entropy functionals with closed-form discrete gradients.

Every model's energy is a sum of small building blocks (quadratic densities,
a linear density, the reservoir scalar).  Each block knows both its value and
its exact gradient with respect to the mixed inner product (dx-weighted on
fields, Euclidean on the reservoir slot).  "Exact" means exact for the
*discrete* functional: second derivatives appearing in gradients are the
iterated central difference d1(d1 .), because that is what differentiating the
discrete quadrature actually produces.  The finite-difference oracle
:func:`fd_gradient` is the independent check of that bookkeeping.

Values and gradients also accept a stack of states (built inside the package,
see ``State._stack``): a value is then one float per state and a gradient a
stack of covectors, each bitwise what the state alone would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PositivityError
from .grid import scalar_or_array
from .state import CotangentVector, State, stack_rows


@dataclass(frozen=True)
class ModelParams:
    """Physical constants shared by all catalog models.

    Every model reads only some of the constants
    (``catalog.MODEL_CONSTANTS``); a config that sets one its model does not
    read is rejected.
    Defaults are unit values, which expose structural bugs without scale
    masking.
    """

    k: float = 1.0        # shear stiffness
    b: float = 1.0        # bending stiffness
    k0: float = 1.0       # longitudinal stiffness (Bresse)
    l: float = 1.0        # arch curvature (Bresse)
    delta1: float = 1.0   # Timoshenko friction on p
    delta2: float = 1.0   # Timoshenko friction on q
    gamma1: float = 1.0   # Bresse friction on p
    gamma2: float = 1.0   # Bresse friction on q
    gamma3: float = 1.0   # Bresse friction on w
    gamma: float = 1.0    # thermo-mechanical coupling
    delta: float = 1.0    # thermal coupling / conductivity (type III, nonlinear model)
    beta: float = 1.0     # heat-flux relaxation (Cattaneo)
    kappa: float = 1.0    # thermal conductivity (type I)
    kappa1: float = 1.0   # first conductivity (Bresse, two temperatures)
    kappa2: float = 1.0   # second conductivity (Bresse, two temperatures)
    K: float = 1.0        # damping conductivity (type III)
    alpha: float = 1.0    # entropy scale


# --------------------------------------------------------------------------
# energy building blocks


@dataclass(frozen=True)
class SquareTerm:
    """Integral coeff/2 * g^2 with g a linear combination of fields and their
    first derivatives.

    ``parts`` is a tuple of (field name, differentiate flag, factor); the
    combination is g = sum(factor * d1(field) if differentiate else factor * field).
    """

    coeff: float
    parts: tuple

    def combination(self, z: State) -> np.ndarray:
        """g, summed from its first part in the order of ``parts``; a unit
        factor is not multiplied by, so a term of one undifferentiated part
        at a unit factor gives the field view itself, which callers only
        read.  The sum is bitwise that from a zero-filled start but for the
        sign of a zero: ``0 + x`` turns ``-0.0`` into ``+0.0``."""
        grid = z.layout.grid
        g = None
        for name, differentiate, factor in self.parts:
            u = z.field(name)
            if differentiate:
                u = grid.d1(u)
            if factor != 1.0:
                u = factor * u
            g = u if g is None else g + u
        return g

    def value(self, z: State):
        """``coeff/2 * inner(g, g)``: a float, or one value per state of a
        stack."""
        g = self.combination(z)
        return 0.5 * self.coeff * z.layout.grid.inner(g, g)

    def add_gradient(self, z: State, out: CotangentVector):
        grid = z.layout.grid
        cg = self.coeff * self.combination(z)
        for name, differentiate, factor in self.parts:
            if differentiate:
                out.field(name)[:] += -factor * grid.d1(cg)
            else:
                out.field(name)[:] += factor * cg


@dataclass(frozen=True)
class LinearTerm:
    """Integral coeff * field (used by the nonlinear model, whose energy is
    linear in the temperature)."""

    field: str
    coeff: float = 1.0

    def value(self, z: State):
        grid = z.layout.grid
        return scalar_or_array(self.coeff * grid.dx * np.sum(z.field(self.field), axis=-1))

    def add_gradient(self, z: State, out: CotangentVector):
        out.field(self.field)[:] += self.coeff


# --------------------------------------------------------------------------
# entropies


@dataclass(frozen=True)
class ReservoirEntropy:
    """S(z) = alpha * e."""

    alpha: float = 1.0

    def value(self, z: State):
        return self.alpha * z.reservoir

    def gradient(self, z: State) -> CotangentVector:
        out = CotangentVector._stack(z.layout, np.zeros(z.flat.shape))
        out.flat[..., z.layout.reservoir_index] = self.alpha
        return out


@dataclass(frozen=True)
class LogThetaEntropy:
    """S(z) = integral of log(theta) over the field ``theta``; requires
    theta > 0 everywhere."""

    def _theta(self, z: State) -> np.ndarray:
        theta = z.field("theta")
        tmin = float(np.min(theta))
        if not tmin > 0.0:
            raise PositivityError(f"log entropy needs strictly positive theta, min is {tmin}")
        return theta

    def value(self, z: State):
        theta = self._theta(z)
        return scalar_or_array(z.layout.grid.dx * np.sum(np.log(theta), axis=-1))

    def gradient(self, z: State) -> CotangentVector:
        theta = self._theta(z)
        out = CotangentVector._stack(z.layout, np.zeros(z.flat.shape))
        out.field("theta")[:] = 1.0 / theta
        return out


# --------------------------------------------------------------------------
# public operations (models supply their term lists; see catalog)


def _check_state(model, z: State):
    if z.layout != model.layout:
        raise ValueError(f"state layout does not match model {model.id}")


def _energy_parts(model, z: State):
    """``(total, mechanical)``: the mechanical energy is the sum of the
    :class:`SquareTerm` values; the total adds the other terms to it, then
    the reservoir.  Every catalog model lists its squares first, so the total
    is summed in the order of its terms.  A sum, not the total less the rest,
    keeps the mechanical energy to relative roundoff as it decays."""
    _check_state(model, z)
    terms = model.energy_terms
    mech = sum(term.value(z) for term in terms if isinstance(term, SquareTerm))
    total = sum((term.value(z) for term in terms if not isinstance(term, SquareTerm)), mech)
    if model.layout.has_reservoir:
        # out of place: with no other term, total is mech itself
        total = total + z.reservoir
    return scalar_or_array(total), scalar_or_array(mech)


def energy(model, z: State):
    """Total energy: quadrature of the model's energy density plus the reservoir."""
    return _energy_parts(model, z)[0]


def grad_energy(model, z: State) -> CotangentVector:
    """Exact gradient of :func:`energy` under the mixed inner product."""
    _check_state(model, z)
    out = CotangentVector._stack(model.layout, np.zeros(z.flat.shape))
    for term in model.energy_terms:
        term.add_gradient(z, out)
    if model.layout.has_reservoir:
        out.flat[..., model.layout.reservoir_index] = 1.0
    return out


def entropy(model, z: State):
    _check_state(model, z)
    return scalar_or_array(model.entropy.value(z))


def grad_entropy(model, z: State) -> CotangentVector:
    _check_state(model, z)
    return model.entropy.gradient(z)


def mechanical_energy(model, z: State):
    """The sum of the square terms, without the reservoir or the nonlinear
    model's thermal content: the part that decays in damped runs."""
    return _energy_parts(model, z)[1]


def fd_gradient(f, z: State, rel_step: float = 1e-6) -> CotangentVector:
    """Central finite-difference gradient of the scalar functional ``f``.

    Slot i moves by ``h_i = rel_step * (1 + |z_i|)``.  Field slots are
    divided by dx so the result approximates the density derivative
    consistent with the mixed inner product; the reservoir slot is left
    unscaled.  ``rel_step`` must be positive and finite.

    ``f`` is called on stacks, not on single states: each call gets a
    ``State`` whose ``flat`` holds 2k perturbed copies of z as rows (the +h
    copies of k consecutive slots, then their -h copies), and must return
    one value per row, an array of shape (2k,).  The functionals of this
    package (:func:`energy`, :func:`entropy`, ``engine.poisson_bracket``)
    do, and so does an ``f`` that reads ``z.field`` and
    ``z.reservoir`` (one row per state) and reduces with the grid's
    ``inner`` or over the last axis.  A stack holds at most
    ``state.STACK_BYTES`` (256 KB; at least one slot), so k shrinks as the
    layout grows; the result is bitwise that of perturbing one slot at a
    time.  Every stack is a view into one probe buffer, tiled from z once
    per call: each block perturbs its 2k entries, and once its differences
    are taken puts them back from z, so ``f`` must read its stack before it
    returns and keep no reference to it.  An ``f`` returning one scalar for
    a stack raises :class:`ValueError`; its evaluation failures (e.g. log
    of a nonpositive temperature) propagate.
    """
    if not (rel_step > 0.0 and math.isfinite(rel_step)):
        raise ValueError(f"finite-difference step must be positive and finite, got {rel_step!r}")
    layout = z.layout
    flat = z.flat
    dim = flat.size
    steps = rel_step * (1.0 + np.abs(flat))
    out = np.empty_like(flat)
    block = min(dim, max(1, stack_rows(layout) // 2))
    probes = np.tile(flat, (2 * block, 1))
    for start in range(0, dim, block):
        slots = np.arange(start, min(start + block, dim))
        k = slots.size
        h = steps[slots]
        plus, minus = np.arange(k), np.arange(k, 2 * k)
        probes[plus, slots] += h
        probes[minus, slots] -= h
        values = np.asarray(f(State._stack(layout, probes[:2 * k])), dtype=float)
        if values.shape != (2 * k,):
            raise ValueError(
                f"fd_gradient: f must return one value per state of a stack of {2 * k}, "
                f"got shape {values.shape}"
            )
        out[slots] = (values[:k] - values[k:]) / (2.0 * h)
        # the buffer holds z again before the next block perturbs it
        probes[plus, slots] = flat[slots]
        probes[minus, slots] = flat[slots]
    nf = layout.grid.n * layout.n_fields
    out[:nf] /= layout.grid.dx
    return CotangentVector(layout, out)
