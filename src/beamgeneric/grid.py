"""Uniform periodic 1D mesh with mimetic discrete calculus.

The three operators defined here (`d1`, `d2`, `inner`) are chosen so that
summation by parts holds without any boundary term:

* ``inner(u, d1 v) == -inner(d1 u, v)`` exactly (skew-adjointness),
* ``inner(u, d2 v) == inner(d2 u, v)`` exactly (self-adjointness),
* ``d1`` and ``d2`` annihilate constant fields exactly.

These identities are what make the operator-level degeneracy and bracket
checks elsewhere in the package hold to roundoff instead of to O(dx^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform mesh with ``n`` nodes on a periodic domain of length ``length``.

    Node ``i`` sits at ``i * dx`` with ``dx = length / n``; index arithmetic is
    modulo ``n``.
    """

    n: int
    length: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 4:
            raise ValueError(f"grid needs an integer node count >= 4, got n={self.n!r}")
        if not (self.length > 0.0 and math.isfinite(self.length)):
            raise ValueError(f"domain length must be positive and finite, got {self.length!r}")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def nodes(self) -> np.ndarray:
        """Node coordinates x_i = i * dx."""
        return np.arange(self.n) * self.dx

    def field(self, values) -> np.ndarray:
        """Coerce ``values`` to a float field on this grid, validating its size."""
        u = np.asarray(values, dtype=float)
        if u.shape != (self.n,):
            raise ValueError(
                f"field of shape {u.shape} does not live on a grid with n={self.n}"
            )
        return u

    def zeros(self) -> np.ndarray:
        return np.zeros(self.n)

    def d1(self, u) -> np.ndarray:
        """Central first derivative (u[i+1] - u[i-1]) / (2 dx), periodic."""
        u = self.field(u)
        out = np.empty_like(u)
        np.subtract(u[2:], u[:-2], out=out[1:-1])
        out[0] = u[1] - u[-1]
        out[-1] = u[0] - u[-2]
        out /= 2.0 * self.dx
        return out

    def d2(self, u) -> np.ndarray:
        """Compact second derivative (u[i+1] - 2 u[i] + u[i-1]) / dx^2, periodic."""
        u = self.field(u)
        out = np.empty_like(u)
        np.multiply(u[1:-1], 2.0, out=out[1:-1])
        np.subtract(u[2:], out[1:-1], out=out[1:-1])
        out[1:-1] += u[:-2]
        out[0] = u[1] - 2.0 * u[0] + u[-1]
        out[-1] = u[0] - 2.0 * u[-1] + u[-2]
        out /= self.dx**2
        return out

    def inner(self, u, v) -> float:
        """Rectangle-rule pairing dx * sum(u * v)."""
        u = self.field(u)
        v = self.field(v)
        return self.dx * float(np.dot(u, v))
