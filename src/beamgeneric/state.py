"""Composite state vectors: named fields on a grid plus an optional scalar reservoir.

A state is stored as one flat float array; a :class:`StateLayout` records which
contiguous slice belongs to which field and whether a trailing scalar reservoir
slot ``e`` is present.  Keeping a single flat array makes integrators and
operator applications layout-generic across every model in the catalog.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, real_array, row_dot, scalar_or_array

#: Field tags understood by layouts, in canonical display order.
FIELD_NAMES = ("phi", "psi", "chi", "p", "q", "w", "theta", "eta", "s")


@dataclass(frozen=True)
class StateLayout:
    """Ordered field names over a grid, plus an optional reservoir slot."""

    grid: Grid
    field_order: tuple
    has_reservoir: bool = True

    def __post_init__(self):
        order = tuple(self.field_order)
        object.__setattr__(self, "field_order", order)
        if not order:
            raise ValueError("layout needs at least one field")
        if len(set(order)) != len(order):
            raise ValueError(f"duplicate field names in layout: {order}")
        unknown = [f for f in order if f not in FIELD_NAMES]
        if unknown:
            raise ValueError(f"unknown field names: {unknown}")

    @property
    def n_fields(self) -> int:
        return len(self.field_order)

    @property
    def flat_dim(self) -> int:
        return self.grid.n * self.n_fields + (1 if self.has_reservoir else 0)

    @property
    def reservoir_index(self) -> int:
        if not self.has_reservoir:
            raise ValueError("layout has no reservoir slot")
        return self.flat_dim - 1

    def field_slice(self, name: str) -> slice:
        try:
            i = self.field_order.index(name)
        except ValueError:
            raise KeyError(f"field {name!r} not in layout {self.field_order}") from None
        n = self.grid.n
        return slice(i * n, (i + 1) * n)

    def __contains__(self, name: str) -> bool:
        return name in self.field_order


#: Size bound of every stack of vectors built inside the package (the
#: finite-difference blocks of ``fd_gradient``, the trials of
#: ``verify_brackets``, the record states of ``integrate``, the directions
#: and the probes of ``jacobi_check``), whatever the
#: grid: large enough that Python overhead is paid per stack rather than per
#: state, small enough to add little to the peak memory.  Every stacked
#: result is bitwise that of its rows alone, so the size moves only time.
#: Medians of two runs of 9 alternated rounds at 64 KB / 256 KB / 512 KB /
#: 1 MB (a shared 2-vCPU VM, one BLAS thread, October 2026, with the
#: verifier's stack passes and the oracle's one probe buffer), summed over
#: the ten models: the energy's ``fd_gradient`` at n = 64 took 59-60 /
#: 22-24 / 16-20 / 15-18 ms, ``jacobi_check`` at n = 32 (its twelve probes
#: fit the smallest stack) 3.9-4.0 / 3.8-4.0 / 4.0-5.0 / 4.0-4.3 ms,
#: ``verify_brackets`` (20 trials, n = 64) 18-21 / 18-20 / 20-23 / 19-20 ms;
#: BresseHeatII's integrate over 250 steps at n = 512 (``record_every``
#: 10) took 20 / 14-15 / 14-15 / 16 ms.
STACK_BYTES = 256 * 1024


def stack_rows(layout: StateLayout) -> int:
    """Number of flat vectors of ``layout`` that fit in a stack of
    :data:`STACK_BYTES`; at least one."""
    return max(1, STACK_BYTES // (8 * layout.flat_dim))


@dataclass(eq=False)
class _FlatVector:
    """Shared behaviour of states and cotangent vectors (layout + flat storage).

    ``flat`` is one vector, or, inside the package, a stack of vectors along
    leading axes (see :meth:`_stack`); field and reservoir reads then return
    one row per vector.
    """

    layout: StateLayout
    flat: np.ndarray

    def __post_init__(self):
        flat = real_array(self.flat, "flat vector")
        if flat.shape != (self.layout.flat_dim,):
            raise ValueError(
                f"flat vector of shape {flat.shape} does not match layout "
                f"dimension {self.layout.flat_dim}"
            )
        self.flat = flat

    @classmethod
    def _stack(cls, layout: StateLayout, flat: np.ndarray):
        """A stack of vectors: ``flat`` holds one per row, the layout's
        dimension on the last axis.  The constructor callers use accepts one
        vector only; the object-level layer builds stacks through this one."""
        if flat.shape[-1:] != (layout.flat_dim,):
            raise ValueError(
                f"stack of shape {flat.shape} does not match layout dimension {layout.flat_dim}"
            )
        out = cls.__new__(cls)
        out.layout, out.flat = layout, flat
        return out

    def field(self, name: str) -> np.ndarray:
        """View of the slice belonging to ``name`` (writing through it mutates self)."""
        return self.flat[..., self.layout.field_slice(name)]

    @property
    def reservoir(self):
        """The reservoir scalar: a float, or one value per vector of a stack."""
        return scalar_or_array(self.flat[..., self.layout.reservoir_index])

    @reservoir.setter
    def reservoir(self, value):
        self.flat[..., self.layout.reservoir_index] = value

    def copy(self):
        return type(self)._stack(self.layout, self.flat.copy())

    @classmethod
    def zeros(cls, layout: StateLayout):
        return cls(layout, np.zeros(layout.flat_dim))


class State(_FlatVector):
    """A point z of the state space: field values plus the reservoir scalar."""


class CotangentVector(_FlatVector):
    """A functional derivative dF/dz; same storage shape as a State."""


def unpack(z) -> dict:
    """Split a state into a dict of per-field copies; reservoir under key 'e'."""
    out = {name: z.field(name).copy() for name in z.layout.field_order}
    if z.layout.has_reservoir:
        out["e"] = z.reservoir
    return out


def pack(layout: StateLayout, fields: dict) -> State:
    """Inverse of :func:`unpack`; missing fields, the reservoir ``"e"``
    included, default to zero.  The reservoir must be one real value, and a
    layout without a reservoir refuses ``"e"`` as it refuses any name it
    does not hold (:class:`KeyError`)."""
    z = State.zeros(layout)
    for name, values in fields.items():
        if name != "e":
            z.field(name)[:] = layout.grid.field(values)
        elif not layout.has_reservoir:
            raise KeyError(f"field 'e' not in layout {layout.field_order}: it has no reservoir")
    if layout.has_reservoir:
        e = real_array(fields.get("e", 0.0), "reservoir")
        if e.ndim != 0:
            raise ValueError(f"reservoir must be one value, got shape {e.shape}")
        z.reservoir = e
    return z


def mixed_inner(layout: StateLayout, a: np.ndarray, b: np.ndarray):
    """Inner product pairing states with cotangent vectors.

    dx-weighted on field slots, plain Euclidean on the reservoir slot.  All
    adjointness conventions in the package refer to this pairing.  It acts
    on the last axis: a float for two vectors, one value per row for stacks.
    """
    dx = layout.grid.dx
    nf = layout.grid.n * layout.n_fields
    s = dx * row_dot(a[..., :nf], b[..., :nf])
    if layout.has_reservoir:
        s += a[..., nf] * b[..., nf]
    return scalar_or_array(s)
