"""Discrete Poisson operators L(z) and dissipative operators M(z).

L is stored block-wise: a tuple of (row field, column field, Block).  Blocks
are the handful of entry types that occur in the catalog (constant multiples,
first derivatives, and multiply-then-differentiate and
differentiate-then-multiply with a coefficient that is a field of the state).
Second derivatives are realized as the iterated central difference d1(d1 .)
so that every adjointness identity used below is exact.

M is *constructed* in factored form M = sum_r J_r^T w_r J_r with nonnegative
weights, which makes symmetry, positive semidefiniteness and the degeneracy
M dE = 0 hold by construction to roundoff.  Every row is coupled to the
reservoir exactly when the layout has one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .state import CotangentVector, State, StateLayout

#: block kinds and their action on the field argument x:
#:   identity      c * x
#:   d1            c * d1(x)
#:   mul_d1        c * a * d1(x)
#:   d1_mul        c * d1(a * x)
BLOCK_KINDS = ("identity", "d1", "mul_d1", "d1_mul")


@dataclass(frozen=True)
class Block:
    """One operator-matrix entry.  ``a`` names the coefficient field, read
    from the state at application time; the ``mul_d1`` and ``d1_mul`` kinds
    require it and the others forbid it."""

    kind: str
    c: float
    a: Optional[str] = None

    def __post_init__(self):
        if self.kind not in BLOCK_KINDS:
            raise ValueError(f"unknown block kind {self.kind!r}")
        if (self.a is None) == (self.kind in ("mul_d1", "d1_mul")):
            need = "needs a" if self.a is None else "takes no"
            raise ValueError(f"a {self.kind!r} block {need} coefficient field")


def _apply_block(block: Block, z: State, x):
    """Apply one block to the field array ``x``."""
    grid = z.layout.grid
    if block.kind == "identity":
        return block.c * x
    if block.kind == "d1":
        return block.c * grid.d1(x)
    if block.kind == "mul_d1":
        return block.c * z.field(block.a) * grid.d1(x)
    if block.kind == "d1_mul":
        return block.c * grid.d1(z.field(block.a) * x)
    raise AssertionError(block.kind)


def _check_pair(layout: StateLayout, z: State, xi: CotangentVector):
    if z.layout != layout:
        raise ValueError("state layout does not match the operator's layout")
    if xi.layout != layout:
        raise ValueError("cotangent layout does not match the operator's layout")


def apply_L(model, z: State, xi: CotangentVector) -> State:
    """Apply the Poisson operator: block-wise, never touching the reservoir."""
    _check_pair(model.layout, z, xi)
    out = State.zeros(model.layout)
    for row, col, block in model.l_blocks:
        out.field(row)[:] += _apply_block(block, z, xi.field(col))
    return out


# --------------------------------------------------------------------------
# dissipative operator


@dataclass(frozen=True)
class DissipativeRow:
    """One row J of the factorization M = sum J^T w J.

    J(xi) = D(xi_field) - D(z_field) * xi_e, with D = d1 when ``differentiate``
    and the identity otherwise; the reservoir part is present exactly when
    the layout has a reservoir.  The weight is a nonnegative constant
    (already including any entropy-scale factor) or a function of the state
    returning a nodal field, which only a model without a reservoir may use.
    """

    field: str
    differentiate: bool = False
    weight: Union[float, Callable[[State], np.ndarray]] = 1.0

    def weight_values(self, z: State):
        return self.weight(z) if callable(self.weight) else self.weight

    def coefficient(self, z: State) -> np.ndarray:
        """The field paired with xi_e inside J (and inside J^T's reservoir row)."""
        u = z.field(self.field)
        return z.layout.grid.d1(u) if self.differentiate else u

    def apply(self, z: State, xi: CotangentVector) -> np.ndarray:
        grid = z.layout.grid
        g = xi.field(self.field)
        g = grid.d1(g) if self.differentiate else g.copy()
        if z.layout.has_reservoir:
            g = g - self.coefficient(z) * xi.reservoir
        return g


def apply_M(model, z: State, xi: CotangentVector) -> State:
    """Apply M via the factored form sum J^T (w . J xi)."""
    _check_pair(model.layout, z, xi)
    grid = model.layout.grid
    out = State.zeros(model.layout)
    for row in model.m_rows:
        v = row.weight_values(z) * row.apply(z, xi)
        if row.differentiate:
            out.field(row.field)[:] += -grid.d1(v)
        else:
            out.field(row.field)[:] += v
        if model.layout.has_reservoir:
            out.flat[model.layout.reservoir_index] += -grid.inner(row.coefficient(z), v)
    return out
