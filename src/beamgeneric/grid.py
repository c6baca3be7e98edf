"""Uniform periodic 1D mesh with mimetic discrete calculus.

The three operators defined here (`d1`, `d2`, `inner`) are chosen so that
summation by parts holds without any boundary term:

* ``inner(u, d1 v) == -inner(d1 u, v)`` exactly (skew-adjointness),
* ``inner(u, d2 v) == inner(d2 u, v)`` exactly (self-adjointness),
* ``d1`` and ``d2`` annihilate constant fields exactly.

These identities are what make the operator-level degeneracy and bracket
checks elsewhere in the package hold to roundoff instead of to O(dx^2).

The three operators act on the last axis, so a stack of fields (leading batch
axes, nodes last) is treated row by row, with the same floating-point
operations as one field at a time.
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
        """Coerce ``values`` to a float field on this grid, validating its
        size and that it is real."""
        u = real_array(values, "field")
        if u.shape != (self.n,):
            raise ValueError(
                f"field of shape {u.shape} does not live on a grid with n={self.n}"
            )
        return u

    def _nodal(self, u) -> np.ndarray:
        """Coerce ``u`` to a field or a stack of fields (nodes on the last axis)."""
        u = real_array(u, "field")
        if u.ndim == 0 or u.shape[-1] != self.n:
            raise ValueError(
                f"field of shape {u.shape} does not live on a grid with n={self.n}"
            )
        return u

    def d1(self, u) -> np.ndarray:
        """Central first derivative (u[i+1] - u[i-1]) / (2 dx), periodic."""
        u = self._nodal(u)
        out = np.empty_like(u)
        # nodes first (a transposed view), so one field reads scalars at its ends
        v, w = u.T, out.T
        np.subtract(v[2:], v[:-2], out=w[1:-1])
        w[0] = v[1] - v[-1]
        w[-1] = v[0] - v[-2]
        out /= 2.0 * self.dx
        return out

    def d2(self, u) -> np.ndarray:
        """Compact second derivative (u[i+1] - 2 u[i] + u[i-1]) / dx^2, periodic."""
        u = self._nodal(u)
        out = np.empty_like(u)
        v, w = u.T, out.T
        np.multiply(v[1:-1], 2.0, out=w[1:-1])
        np.subtract(v[2:], w[1:-1], out=w[1:-1])
        w[1:-1] += v[:-2]
        w[0] = v[1] - 2.0 * v[0] + v[-1]
        w[-1] = v[0] - 2.0 * v[-1] + v[-2]
        out /= self.dx**2
        return out

    def inner(self, u, v):
        """Rectangle-rule pairing dx * sum(u * v): a float for two fields, an
        array for stacks."""
        return self.dx * row_dot(self._nodal(u), self._nodal(v))


def real_array(values, what: str) -> np.ndarray:
    """``values`` as a float array.  A complex one raises
    :class:`ValueError` naming ``what`` and its dtype, where a cast would
    drop the imaginary part with only a warning."""
    u = np.asarray(values)
    if u.dtype.kind == "c":
        raise ValueError(f"{what} of dtype {u.dtype} is not real")
    return np.asarray(u, dtype=float)


def row_dot(a: np.ndarray, b: np.ndarray):
    """Dot product over the last axis: a float for two vectors, an array for
    stacks.

    ``matmul`` takes each row's (1 x n) @ (n x 1) product through the same
    dot kernel as ``np.dot`` on a lone vector, so a stack gives bitwise the
    results of its rows one at a time.
    """
    if a.ndim == b.ndim == 1:
        return float(np.dot(a, b))
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def scalar_or_array(x):
    """A Python float for a 0-d result, else the array."""
    x = np.asarray(x)
    return float(x) if x.ndim == 0 else x
