"""Energy and entropy functionals with closed-form discrete gradients.

Every model's energy is a sum of small building blocks (quadratic densities,
a linear density, the reservoir scalar).  Each block knows both its value and
its exact gradient with respect to the mixed inner product (dx-weighted on
fields, Euclidean on the reservoir slot).  "Exact" means exact for the
*discrete* functional: second derivatives appearing in gradients are the
iterated central difference d1(d1 .), because that is what differentiating the
discrete quadrature actually produces.  The finite-difference oracle
:func:`fd_gradient` is the independent check of that bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PositivityError
from .state import CotangentVector, State


@dataclass(frozen=True)
class ModelParams:
    """Physical constants shared by all catalog models.

    Every model reads only the constants it needs; unused ones are ignored.
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
        grid = z.layout.grid
        g = grid.zeros()
        for name, differentiate, factor in self.parts:
            u = z.field(name)
            g += factor * (grid.d1(u) if differentiate else u)
        return g

    def value(self, z: State) -> float:
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

    def value(self, z: State) -> float:
        grid = z.layout.grid
        return self.coeff * grid.dx * float(np.sum(z.field(self.field)))

    def add_gradient(self, z: State, out: CotangentVector):
        out.field(self.field)[:] += self.coeff


# --------------------------------------------------------------------------
# entropies


@dataclass(frozen=True)
class ReservoirEntropy:
    """S(z) = alpha * e."""

    alpha: float = 1.0

    def value(self, model, z: State) -> float:
        return self.alpha * z.reservoir

    def gradient(self, model, z: State) -> CotangentVector:
        out = CotangentVector.zeros(z.layout)
        out.flat[z.layout.reservoir_index] = self.alpha
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

    def value(self, model, z: State) -> float:
        theta = self._theta(z)
        return z.layout.grid.dx * float(np.sum(np.log(theta)))

    def gradient(self, model, z: State) -> CotangentVector:
        theta = self._theta(z)
        out = CotangentVector.zeros(z.layout)
        out.field("theta")[:] = 1.0 / theta
        return out


# --------------------------------------------------------------------------
# public operations (models supply their term lists; see catalog)


def _check_state(model, z: State):
    if z.layout != model.layout:
        raise ValueError(f"state layout does not match model {model.id}")


def energy(model, z: State) -> float:
    """Total energy: quadrature of the model's energy density plus the reservoir."""
    _check_state(model, z)
    val = sum(term.value(z) for term in model.energy_terms)
    if model.layout.has_reservoir:
        val += z.reservoir
    return float(val)


def grad_energy(model, z: State) -> CotangentVector:
    """Exact gradient of :func:`energy` under the mixed inner product."""
    _check_state(model, z)
    out = CotangentVector.zeros(model.layout)
    for term in model.energy_terms:
        term.add_gradient(z, out)
    if model.layout.has_reservoir:
        out.flat[model.layout.reservoir_index] = 1.0
    return out


def entropy(model, z: State) -> float:
    _check_state(model, z)
    return float(model.entropy.value(model, z))


def grad_entropy(model, z: State) -> CotangentVector:
    _check_state(model, z)
    return model.entropy.gradient(model, z)


def mechanical_energy(model, z: State) -> float:
    """Energy minus the reservoir (or minus the thermal content for the
    nonlinear model); the part that decays in damped runs."""
    val = energy(model, z)
    if model.layout.has_reservoir:
        return val - z.reservoir
    for term in model.energy_terms:
        if isinstance(term, LinearTerm):
            val -= term.value(z)
    return val


def fd_gradient(f, z: State, rel_step: float = 1e-6) -> CotangentVector:
    """Central finite-difference gradient of the scalar functional ``f``.

    Field slots are divided by dx so the result approximates the density
    derivative consistent with the mixed inner product; the reservoir slot is
    left unscaled.  ``rel_step`` must be positive and finite.  Evaluation
    failures of ``f`` (e.g. log of a nonpositive temperature) propagate.
    """
    if not (rel_step > 0.0 and math.isfinite(rel_step)):
        raise ValueError(f"finite-difference step must be positive and finite, got {rel_step!r}")
    layout = z.layout
    flat = z.flat
    out = np.empty_like(flat)
    for i in range(flat.size):
        h = rel_step * (1.0 + abs(float(flat[i])))
        zp = flat.copy()
        zp[i] += h
        zm = flat.copy()
        zm[i] -= h
        out[i] = (f(State(layout, zp)) - f(State(layout, zm))) / (2.0 * h)
    nf = layout.grid.n * layout.n_fields
    out[:nf] /= layout.grid.dx
    return CotangentVector(layout, out)
