"""Assembly of z_t = L dE + M dS, time integration, and the axiom verifier.

The integrator is classical explicit RK4 with a fixed step.  Every catalog
operator is a stencil on the periodic grid, so set-up works from node-0
columns in O(dim), and every model runs compiled, with no object-level
fallback in the solve loop.  Each model is derived once: one pass
(:func:`_sparse_form`) applies the building blocks themselves (the
gradients, ``apply_L``, the dissipative rows and the grid's ``d1``) to the
reference state and to unit vectors at node 0, which gives the node-0
columns of the right-hand side's linear part and of the products its other
terms read.  It takes their Fourier symbols, checks the Fourier form
against the object-level right-hand side and takes the step bound, and the
result is cached in the model's one private slot.

* :func:`compile_rhs` returns the compiled right-hand side: one constant
  sparse matrix (the cyclic shifts of those columns) plus the terms that are
  not linear, the reservoir production ``alpha * dx * sum_r w_r |D_r y|^2``
  and the bilinear coupling of the nonlinear model.  It reproduces the
  object-level assembly to roundoff.  It is handed out one way, as an
  evaluator that owns a work buffer (``_SparseForm.evaluator``): the
  first one made builds the CSR matrix and checks it.
* ``ModelSpec.dt_bound`` reads the step bound: the RK4 limit over the
  eigenvalues of the Fourier symbols of the exact linearization, the
  linear part plus the derivative of the quadratic terms, found by one
  bisection from the spectral radius down to adjacent floats, so it is
  exact at any constants (:func:`_rk4_stability_limit`).  A model that
  fails the check gets neither.
* :func:`integrate` holds the one stepping loop: the record interval, the
  replay and the failure report.  Each of its two paths is a pure
  ``jump(state, m)`` that takes m steps and says whether the result is
  fine.  A model whose fields evolve linearly (no bilinear term, no log
  entropy: nine of the ten catalog models) jumps with RK4's exact
  one-step map on their Fourier symbols.  Those maps compose exactly, so
  each record interval is one batched product, with the map raised to
  ``record_every`` steps by squaring once per call.  Any other model
  steps through RK4's four stages on the compiled right-hand side
  (:func:`step_rk4`, also the oracle of the first).  Every RK4 step runs
  through one stepper (:func:`_rk4_stepper`).  The stage path makes its
  stepper once per run, on four evaluators: each evaluation is the CSR
  kernel's product plus the bilinear and production updates, on views and
  scratch taken when the evaluator is made, with no new array, and the
  step's sums are formed in place (a lone :func:`step_rk4` makes one
  evaluator and copies each stage's result).  The
  steps of a jump alternate between two result buffers and only the state
  a jump returns is copied out.  Each step's temperatures are folded into
  a running minimum, which is checked with finiteness once per jump.  An
  interval whose jump is not fine is replayed from its start one step at a
  time, which names its first bad step.  The one-step map is built in batches
  of bins with the four stages side by side (:func:`_rk4_symbol_map`).
* The Fourier path's arrays have shapes fixed by the model: the one-step
  map and its powers, (n//2+1, 2f, f) each, the (n//2+1, f, f) scratch of
  their compositions and of the map's build, a jump's product, and a
  record stack's coefficients and states.  So the derived form keeps them
  as one workspace (:class:`_MapWork`): the first :func:`integrate` makes
  it, and every later one writes into it through ``out=``, with the same
  products in the same order, so each record is bitwise what new arrays
  give.  Only the arrays are kept, never their values: each call builds
  its own maps.  A call takes the workspace out of the form for its
  duration and puts it back when it returns or raises; a concurrent call
  finds none, makes its own and drops it at its end if the form holds one
  again, so no two calls share one.  The workspace holds no reference to
  the model and is freed with it: about 3.8 MB for BresseHeatII at
  n = 512.  Made afresh at each call, these arrays were trimmed from the
  heap at each return and faulted back in by the next call (418 minor
  faults per call there).
* The degeneracy conditions are properties of the building blocks, not of
  a trajectory, so the derivation settles them once.  It proves
  ``M dE = 0`` in O(dim): the dissipative rows applied to the energy
  gradient must vanish exactly (see :func:`_sparse_form`), or the model
  is rejected.  ``|L dS|`` of the reservoir entropy needs no probe: its
  ``dS`` lives on the reservoir slot alone, which L never reads, so it is 0.
* One function records every model (:func:`_diagnostics`), on a stack of
  states through the stack-aware functionals: the energy and the
  mechanical energy (the sum of the square terms, so that it keeps its
  relative precision as it decays) from one pass over the energy terms,
  the entropy, ``|L dS|`` (computed with ``apply_L`` only for the log
  entropy, whose ``dS`` depends on the state) and ``|M dE| = 0``.
  :func:`integrate` holds the path's state at each record time and
  records the held ones together, up to ``state.STACK_BYTES`` (256 KB) at
  a time; each record is bitwise the one its state alone gives.
* scipy is loaded in one place (:func:`_circulant`): the first evaluator
  of a compiled right-hand side, which builds its CSR arrays in
  numpy and loads the compiled kernel ``csr_matvec`` that its products run
  on, from scipy's extension module ``sparse/_sparsetools`` alone, never
  the ``scipy.sparse`` package (see :func:`_csr_matvec`).  Where scipy cannot
  be found or loaded, that call raises :class:`ValueError` naming the
  model and scipy.  The derivation, the step bound, the records, the
  Fourier path of :func:`integrate` and the verifier are numpy only, so a
  ``simulate``, ``decay`` or ``verify`` of a linear model never loads
  scipy; :func:`step_rk4` and the nonlinear model's stage path load that
  one extension module.
* ``build_model``, :func:`integrate` and :func:`verify_brackets` check
  their estimated memory and work against :data:`MEMORY_LIMIT_BYTES` and
  :data:`WORK_LIMIT` before they allocate or step.

The object-level operators (``apply_L``, ``apply_M``, the gradients,
:func:`generic_rhs`) and the hand-coded :func:`direct_rhs` stay as the
oracles the compiled forms are tested against.

Randomized verification draws states and covectors from a seeded generator,
one call per stack of trials, and evaluates them as stacks (see
:func:`verify_brackets`; :func:`_state_draws` and :func:`_state_from_draws`
hold the rule that turns normal draws into a state, for
:func:`random_state` as well); residuals are reported relative to per-trial
magnitudes (scale = max(1, size of the quantities being compared)), so
tolerances transfer across parameter choices.
The Jacobi check runs in two stack passes (:func:`jacobi_check`), and the
gradient oracle ``functionals.fd_gradient`` perturbs one probe buffer per
call.  Each stacked result is bitwise what its rows give alone.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.machinery
import importlib.util
import inspect
import itertools
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DivergenceError, DomainError, PositivityError
from .functionals import (
    LogThetaEntropy,
    _energy_parts,
    entropy,
    grad_energy,
    grad_entropy,
)
from .grid import real_array
from .operators import apply_L, apply_M
from .state import STACK_BYTES, CotangentVector, State, StateLayout, mixed_inner, stack_rows

# --------------------------------------------------------------------------
# resource budget

#: Largest memory a call is estimated to take, in bytes (1 GiB).
MEMORY_LIMIT_BYTES = 2**30
#: Set-up memory per slot of the flat state: the peak resident growth of
#: ``build_model``, the derivation and a three-step ``integrate`` at the
#: step bound, from just after the import, measured 355-884 bytes per slot
#: at n = 2^12, 2^14 and 2^16 (BresseHeatII, TimoshenkoNew,
#: TimoshenkoUndamped; the most at n = 2^12, where the fixed costs weigh
#: most; Python 3.11, numpy 2.4), rounded up.  The Fourier path's workspace,
#: which the model keeps from its first ``integrate`` on (about 16 f bytes
#: per slot per map), is counted apart: ``integrate`` adds it at its largest
#: (:func:`_map_work_bytes`) to its own estimate, although the measured peak
#: already held the maps of that three-step run.
SETUP_BYTES_PER_SLOT = 1024
#: Memory of one diagnostics record held by ``integrate`` (312 measured).
RECORD_BYTES = 512
#: Largest work a call may take, in slot updates: records (on the Fourier
#: path of ``integrate``) or steps (on its stage path) plus one record
#: interval's steps (the step-by-step replay that finds a first bad step)
#: times slots, and trials times slots times
#: :data:`VERIFY_WORK_WEIGHT` in ``verify_brackets``.  An RK4 stage step
#: with the right-hand side and the step's coefficients bound to per-run
#: work costs 17-93 ns per slot (less at larger n; the ten catalog models
#: at n = 64..4096, timeit minima, one core of a shared 2-vCPU VM), so the
#: limit is about 2.8 to 16 minutes of stepping.
WORK_LIMIT = 1e10
#: Slot updates one verify trial counts per slot: a trial's cost per slot
#: over an RK4 stage step's, measured 1.2-2.3 at n = 64 and 2.3-5.6 at
#: n = 256 with 64 KB trial stacks.  At n = 1024 and 4096, where the limit
#: binds, the 256 KB stacks of ``state.STACK_BYTES`` give 2.4-6.3 over the
#: ten catalog models, median 4.1 and 3.9 in two runs (64 KB stacks gave
#: a median of 5.2 by the same method; same VM).  Re-measured with one
#: generator call per stack of trials (timeit minima of 16 trials against
#: a stage step on a bound stepper, one BLAS thread): 1.8-5.5, medians 4.4
#: and 4.0 at n = 1024 and 3.7 and 3.6 at n = 4096 in two runs (one call
#: per trial, alternated with them, read 4.3 and 4.1, 3.7 and 3.8), within
#: a unit of 4.  So the limit allows verify about the wall time it allows
#: stepping.
VERIFY_WORK_WEIGHT = 4


def _check_budget(what: str, memory: int = 0, work: int = 0) -> None:
    """Raise :class:`ValueError` naming the estimate and the limit when
    ``memory`` (bytes) or ``work`` (slot updates) is above its limit.  Callers
    check before they allocate or step."""
    if memory > MEMORY_LIMIT_BYTES:
        raise ValueError(
            f"{what}: estimated memory {_magnitude(memory, 2**30)} GiB is above "
            f"the limit of {MEMORY_LIMIT_BYTES / 2**30:g} GiB"
        )
    if work > WORK_LIMIT:
        raise ValueError(
            f"{what}: estimated work {_magnitude(work)} slot updates is above "
            f"the limit of {WORK_LIMIT:.3g}"
        )


def _is_count(x, least: int = 1) -> bool:
    """Whether ``x`` is an integer of at least ``least`` (by default, a
    positive one): a Python or numpy int, not a bool (which
    ``isinstance(x, int)`` accepts as 0 or 1)."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= least


def _magnitude(x, unit: int = 1) -> str:
    """``x / unit`` to three digits; an integer beyond the float range reads
    'inf'."""
    return f"{x / unit:.3g}" if x < 1e300 else "inf"


# --------------------------------------------------------------------------
# right-hand sides


def generic_rhs(model, z: State) -> State:
    """z_t = L(z) dE(z) + M(z) dS(z)."""
    le = apply_L(model, z, grad_energy(model, z))
    ms = apply_M(model, z, grad_entropy(model, z))
    return State(model.layout, le.flat + ms.flat)


def direct_rhs(model, z: State) -> State:
    """The hand-coded transcription of the model's PDE system; independent of
    L, M and the gradients."""
    if z.layout != model.layout:
        raise ValueError(f"state layout does not match model {model.id}")
    return model.direct_rhs(z)


@functools.cache
def _csr_matvec():
    """scipy's compiled CSR kernel ``csr_matvec``, loaded once per process
    from the extension module ``scipy/sparse/_sparsetools`` alone: the
    ``scipy.sparse`` package, and the memory and start-up time it costs, is
    never imported for it.  ``importlib.util.find_spec`` locates scipy
    without importing it; where it finds none, or a finder refuses it, this
    raises :class:`ImportError`."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    return _load_csr_matvec(scipy.submodule_search_locations or ())


def _load_csr_matvec(scipy_dirs: Sequence[str]):
    """``csr_matvec`` from the extension file under ``sparse/`` of the
    package directories ``scipy_dirs``; through the ``scipy.sparse`` package
    where scipy keeps no such file there (an editable build) or where that
    package has loaded the extension already."""
    name = "scipy.sparse._sparsetools"
    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(d, "sparse") for d in scipy_dirs]
    )
    if spec is None or name in sys.modules:
        from scipy.sparse._sparsetools import csr_matvec

        return csr_matvec
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # the extension enters itself in sys.modules; take it out, so that a
    # later import of scipy.sparse binds a submodule of its own
    sys.modules.pop(name, None)
    return module.csr_matvec


def _circulant(n: int, shape: tuple, columns: np.ndarray):
    """``((indptr, indices, data), product)``: the CSR arrays of the matrix
    of ``shape`` made of n x n periodic blocks whose column ``j * n`` is
    ``columns[j]``, the node-0 column of field j over every block row, and
    whose other columns in that block column are its cyclic shifts
    (``columns[j, r]`` stands at ``(r // n * n + i, j * n + (i - r) % n)``
    for every node i; rows of ``shape`` beyond the columns are zero), and
    ``product(x, out)``, which writes the matrix times the flat x into
    ``out`` (``shape[0]`` floats) and returns it.

    The arrays are in scipy's canonical form, rows in order and columns
    ascending within a row (the cyclic shifts of distinct entries never
    meet, so there are no duplicates), as ``scipy.sparse.csr_matrix`` builds
    them from the same entries.  The product runs scipy's compiled CSR kernel
    (:func:`_csr_matvec`) on zeros, as ``matrix @ x`` does, so it is bitwise
    that product without its dispatch and its new array.  The kernel is
    loaded here, and only here, when the first evaluator of a compiled
    right-hand side is made (``_SparseForm.evaluator``)."""
    csr_matvec = _csr_matvec()
    field, row = np.nonzero(columns)
    nodes = np.arange(n)
    rows = ((row // n * n)[:, None] + nodes).ravel()
    cols = ((field * n)[:, None] + (nodes - row[:, None]) % n).ravel()
    values = np.broadcast_to(columns[field, row][:, None], (row.size, n)).ravel()
    order = np.lexsort((cols, rows))
    # scipy's index type below 2**31 entries, which MEMORY_LIMIT_BYTES
    # keeps every model far under
    indptr = np.zeros(shape[0] + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    indices = cols[order].astype(np.int32)
    data = values[order]

    n_rows, n_cols = shape

    def product(x: np.ndarray, out: np.ndarray) -> np.ndarray:
        out.fill(0.0)  # the kernel adds the product to out
        csr_matvec(n_rows, n_cols, indptr, indices, data, x, out)
        return out

    return (indptr, indices, data), product


@dataclass(frozen=True)
class _SparseForm:
    """Everything the engine derives from a model's building blocks, built in
    one pass by :func:`_sparse_form`, in numpy; only the compiled right-hand
    side builds CSR arrays, and loads scipy's CSR kernel (the extension
    module alone, not ``scipy.sparse``), when its first evaluator is made.

    * ``production`` is ``alpha * dx`` times the constant weights of the
      dissipative rows R (one row block per ``DissipativeRow``: D or the
      identity on its field) for a model with a reservoir, else None.
    * ``bilinear`` lists the bilinear terms of the right-hand side as (rows,
      coefficient field, c as a 0-d array, rows of the products P that the
      CSR matrix stacks above its constant matrix A); it is empty for a
      model whose fields evolve linearly.
    * ``symbols`` holds the f x f Fourier symbols of the exact linearization
      and ``m_symbols`` the (rows of R) x f symbols of R, one per wavenumber
      k = 0..n//2 (the other half are their complex conjugates).  R's
      symbols serve only the reservoir's gain, so without a production
      ``m_symbols`` has no rows.
    * ``evaluator()`` hands out the compiled right-hand side: an
      ``evaluate(y)`` that owns a fresh work buffer (the products P y, then
      the right-hand side), writes ``A y + N(y)`` into its tail and returns
      that tail, the same array at every call, with every view and the
      bilinear terms' scratch taken once, when it is made.  The first
      ``evaluator()`` call builds the CSR matrix and checks it.
      :func:`compile_rhs` and :func:`step_rk4` make one per call; the stage
      path of :func:`integrate` makes four per run, one per RK4 stage.
    * ``dt_bound`` is the RK4 step bound (``ModelSpec.dt_bound``).
    * ``map_work`` holds at most one :class:`_MapWork`, the arrays of the
      Fourier path of :func:`integrate`, made by its first call (and left
      empty on the stage path); a call takes it out for its duration and
      puts it back (:func:`_checked_out`).  It is the one mutable field,
      and holds arrays only.
    """

    production: Optional[np.ndarray]
    bilinear: tuple
    symbols: np.ndarray
    m_symbols: np.ndarray
    evaluator: Callable[[], Callable[[np.ndarray], np.ndarray]]
    dt_bound: float
    map_work: list = field(default_factory=list, init=False, repr=False, compare=False)


def _sparse_form(model) -> _SparseForm:
    """The model's :class:`_SparseForm`, derived in one pass on first use and
    cached in the model's private slot.

    Everything is taken through the building blocks (the gradients,
    ``apply_L``, the ``DissipativeRow`` methods and the grid's ``d1``),
    applied to the reference state, to unit vectors at node 0 or to a
    generic check state (:func:`_check_state`), in O(dim).  The right-hand
    side is ``A y + N(y)``: A is a constant matrix and N holds the terms
    that are not linear, the reservoir production
    ``sum(production * (R y)**2)`` and, for each ``mul_d1`` block with a
    coefficient field, the bilinear term ``c * y_a * (K y)`` with
    ``K y = D dE(y)`` on the block's column.  N reads the products P y (R y
    when there is a production, and the K y).

    One probe at the reference state z0 linearizes the model.  For each
    field j, with e_j its unit vector at node 0, A's column is the unit
    secant ``F(z0 + e_j) - F(z0)`` of ``F = generic_rhs - N``, exact because
    F is affine (F(z0) is exactly 0 for the linear models, z0 = 0), and N's
    derivative is the central secant ``(N(z0 + e_j) - N(z0 - e_j)) / 2``,
    exact because N is quadratic.  z0 must be uniform on the grid, so that
    node 0 stands for every node: every catalog operator is a periodic
    stencil, A is the block-circulant matrix generated by cyclic shifts of
    its columns, and the spectrum of the Jacobian is the union of the
    eigenvalues of the n Fourier symbols of its columns (von Neumann
    analysis).  The symbols of bins k = 0..n//2 give the step bound; the
    others are their complex conjugates, with the same RK4 amplification.

    The degeneracy ``M dE = 0`` is proved once, exactly.  M is built in
    factored form, ``M(z) = sum_r J_r^T w_r J_r`` with
    ``J_r xi = R_r xi - (R_r z) xi_e`` (the second term only with a
    reservoir, where ``dE_e = 1``).  So ``M(z) dE(z) = 0`` at every state,
    whatever the weights, when the affine map
    ``y -> J dE(y) = R dE(y) - [reservoir] R y`` vanishes.  The rows'
    ``apply`` evaluates it on the stack ``[0; e_1 .. e_f]``, in O(dim): its
    offset ``R c`` (c the gradient of the ``LinearTerm`` densities), then
    the offset plus each node-0 column.  An entry that is not exactly zero
    raises :class:`ValueError` naming the degeneracy.  Every catalog model
    passes at any constants, because each dissipated field enters the
    energy only through a unit square (so ``R dE(y) = R y``) or linearly
    (so ``R c`` is a difference of a constant, exactly zero).

    At the check state (temperatures positive for the log entropy), the
    Fourier form ``irfft(A(k) rfft(y))`` plus N(y) is checked against the
    object-level right-hand side; for a model without a bilinear term,
    A(k) are the symbols it steps on.  A mismatch above 1e-12 relative (a
    model that is not translation-invariant) raises :class:`ValueError`,
    so neither the right-hand side nor the step bound of such a model is
    ever returned.  The compiled right-hand side, ``A y + N(y)`` from one
    CSR product with P stacked on A (:func:`_circulant` of their node-0
    columns), is built when its first evaluator is made, checked by the
    same comparison at the same state (1e-12, else :class:`ValueError`),
    and only then evaluated or stepped with.  Extreme constants can
    overflow the derivation: it runs with numpy's floating-point warnings
    off and raises :class:`ValueError` when ``J dE`` at the probes, the
    object-level right-hand side at the check state or the symbols of the
    linearization are not finite.
    """
    if model._sparse is None:
        with np.errstate(all="ignore"):
            model._sparse = _derive_sparse_form(model)
    return model._sparse


def _derive_sparse_form(model) -> _SparseForm:
    layout = model.layout
    grid = layout.grid
    n, nfields, dim = grid.n, layout.n_fields, layout.flat_dim
    nf = n * nfields
    not_finite = (f"{model.id}: the right-hand side or its linearization is not finite "
                  "(are the constants too extreme?)")
    z0 = model.reference_state.flat
    fields = z0[:nf].reshape(nfields, n)
    if not np.all(fields == fields[:, :1]):
        raise ValueError(
            f"{model.id}: the reference state must be uniform on the grid "
            "for the stencil linearization"
        )

    dissipative = model.m_rows
    production = None
    if layout.has_reservoir and dissipative:
        if any(callable(row.weight) for row in dissipative):
            raise ValueError(f"{model.id}: a state-dependent row weight rules out a reservoir")
        weights = np.repeat(np.array([row.weight for row in dissipative], dtype=float), n)
        production = model.entropy.alpha * grid.dx * weights

    # the products N reads: R y only for the reservoir production, then one
    # K y per mul_d1 block.  Each bilinear coefficient is held as a 0-d
    # array, made once: a ufunc takes it with less overhead than a Python
    # float, for the same product.
    k_fields, bilinear = [], []
    r_rows = start = len(dissipative) * n if production is not None else 0
    for row, col, block in model.l_blocks:
        if block.kind == "mul_d1":
            k_fields.append(col)
            bilinear.append((layout.field_slice(row), layout.field_slice(block.a),
                             np.asarray(block.c), slice(start, start + n)))
            start += n

    def products(y: np.ndarray) -> np.ndarray:
        """P y for one flat vector or an (R, dim) stack."""
        z = State._stack(layout, y)
        parts = [np.zeros(y.shape[:-1] + (0,))]  # P y is empty without products
        if production is not None:
            parts += [row.coefficient(z) for row in dissipative]
        if k_fields:
            de = grad_energy(model, z)
            parts += [grid.d1(de.field(col)) for col in k_fields]
        return np.concatenate(parts, axis=-1)

    # P y fills the first p_rows of a work buffer, the right-hand side the rest
    p_rows = start
    rows = p_rows + dim

    def bind(full: np.ndarray, multiply) -> Callable[[np.ndarray], np.ndarray]:
        """``evaluate(y)`` bound to the work buffer ``full`` (``rows`` floats,
        written by nothing else while it is bound): ``multiply(y, full)``
        writes P y into its head and the part of the right-hand side to add
        to into its tail, then ``evaluate`` adds N(y) to the tail and
        returns it.  The production squares R y in place, in the head.  Its
        views of ``full``, and a scratch field for each bilinear term, are
        taken here, once, so that an evaluation allocates nothing; ``y``
        must share no memory with ``full``."""
        out = full[p_rows:]
        terms = [(out[target], full[k_rows], coefficient, c, np.empty(n))
                 for target, coefficient, c, k_rows in bilinear] if bilinear else ()
        g = full[:production.size] if production is not None else None

        def evaluate(y):
            multiply(y, full)
            for target, k_y, coefficient, c, term in terms:
                np.multiply(c, y[coefficient], out=term)
                term *= k_y
                target += term
            if g is not None:
                out[-1] += production @ np.multiply(g, g, out=g)
            return out

        return evaluate

    def write_products(y: np.ndarray, full: np.ndarray) -> None:
        """P y into the head of ``full``; its tail is left as it is."""
        full[:p_rows] = products(y)

    def nonlinear(y: np.ndarray) -> np.ndarray:
        """N(y) for one flat vector."""
        return bind(np.zeros(rows), write_products)(y)

    def affine(y: np.ndarray) -> np.ndarray:
        return (generic_rhs(model, State(layout, y)).flat - nonlinear(y))[:nf]

    # the stack [0; e_1 .. e_f], e_j the unit vector of field j at node 0
    probes = State._stack(layout, np.zeros((nfields + 1, dim)))
    probes.flat[np.arange(1, nfields + 1), np.arange(nfields) * n] = 1.0
    units = probes.flat[1:]

    # y -> J dE(y) at 0, its offset R c, and at each e_j, the offset plus
    # the node-0 column of field j
    energy_gradients = grad_energy(model, probes)
    j_de = [row.apply(probes, energy_gradients) for row in dissipative]
    worst = float(np.max(np.abs(j_de), initial=0.0))
    # a NaN or inf here is an overflow (of 1/(2 dx), say), not a failed degeneracy
    if not math.isfinite(worst):
        raise ValueError(not_finite)
    if not worst == 0.0:
        raise ValueError(
            f"{model.id}: the degeneracy M dE = 0 does not hold: J dE, the dissipative "
            f"rows applied to the energy gradient, reaches {worst:.3e} (each dissipated "
            "field must enter the energy as a unit square or linearly)"
        )

    base = affine(z0.copy())
    # row j is A's node-0 column of field j; the exact linearization's adds
    # N's derivative
    a_columns = np.array([affine(z0 + e) - base for e in units])
    jacobian = a_columns.copy()
    for column, e in zip(jacobian, units):
        column += 0.5 * (nonlinear(z0 + e) - nonlinear(z0 - e))[:nf]
    # the node-0 columns of the CSR matrix [P; A]: P's rows come first, so
    # that the product ends with A's rows, the reservoir's (zero) among
    # them, as the right-hand side's.  Taken now, not by the first
    # evaluator, so that the form refers to no closure over the model (see
    # below).  Their first r_rows are R's node-0 columns (row j for field j).
    csr_columns = np.concatenate([products(units), a_columns], axis=1)

    def fourier(columns: np.ndarray) -> np.ndarray:
        """The (n, rows, f) symbols of blocks given by their node-0 columns."""
        return np.fft.fft(columns.reshape(-1, n, nfields), axis=1).transpose(1, 0, 2)

    # one FFT of the node-0 columns of the linearization and of R; the step
    # bound and the Fourier path take the bins k = 0..n//2
    bins = n // 2 + 1
    spectrum = fourier(np.concatenate([jacobian.T, csr_columns[:, :r_rows].T]))[:bins]
    symbols = spectrum[:, :nfields]
    # N adds nothing to the fields of a model without a bilinear term: its
    # A(k) are the symbols it steps on
    a_symbols = fourier(a_columns.T)[:bins] if bilinear else symbols

    z = _check_state(model)
    want = generic_rhs(model, State(layout, z)).flat
    if not (np.isfinite(want).all() and np.isfinite(spectrum).all()):
        raise ValueError(not_finite)
    # the model's id, not the model: the model caches this form, and a
    # closure over the model would make a reference cycle
    product, model_id = None, model.id

    def check(multiply, message: str) -> None:
        """Raise :class:`ValueError` with ``message`` (formatted with the
        mismatch) when :func:`bind` with ``multiply`` misses the object-level
        right-hand side at the check state by more than 1e-12 of
        ``max(1, |got|_inf, |want|_inf)``."""
        got = bind(np.zeros(rows), multiply)(z)
        scale = max(1.0, float(np.max(np.abs(got))), float(np.max(np.abs(want))))
        mismatch = float(np.max(np.abs(got - want))) / scale
        if not mismatch <= 1e-12:
            raise ValueError(f"{model_id}: " + message.format(mismatch))

    def fourier_product(y: np.ndarray, full: np.ndarray) -> None:
        """P y, and A y as ``irfft(A(k) rfft(y))``, into ``full``."""
        write_products(y, full)
        y_hat = np.fft.rfft(y[:nf].reshape(nfields, n), axis=1).T[:, :, None]
        full[p_rows:p_rows + nf] = np.fft.irfft((a_symbols @ y_hat)[:, :, 0].T, n, axis=1).ravel()

    check(fourier_product, "the Fourier form of the stencil assembly differs from the object-level "
          "right-hand side by {:.3e} (is the model translation-invariant?)")

    eigs = np.linalg.eigvals(symbols).ravel()
    limit = _rk4_stability_limit(eigs)
    if not limit > 0.0:
        raise ValueError(
            f"{model.id}: no stable step size found: the RK4 step bound underflows "
            f"below 1e-300 at spectral radius {float(np.max(np.abs(eigs))):.3e} "
            "(are the constants too extreme?)"
        )

    def evaluator() -> Callable[[np.ndarray], np.ndarray]:
        """:func:`bind` to a new work buffer, with the product by the CSR
        matrix ``[P; A]``, which the first call builds and checks."""
        nonlocal product
        if product is None:
            try:
                _, candidate = _circulant(n, (rows, dim), csr_columns)
            except ImportError as error:
                raise ValueError(
                    f"{model_id}: the compiled right-hand side needs scipy, which "
                    f"cannot be imported ({error})"
                ) from None
            check(candidate, "the compiled sparse right-hand side differs from the "
                  "object-level one by {:.3e} at the derivation's check state")
            product = candidate
        return bind(np.empty(rows), product)

    return _SparseForm(
        production=production,
        bilinear=tuple(bilinear),
        symbols=symbols.copy(),
        m_symbols=spectrum[:, nfields:].copy(),
        evaluator=evaluator,
        dt_bound=0.9 * limit,
    )


def _check_state(model) -> np.ndarray:
    """The derivation's check state, made in numpy alone: slot i holds
    ``u_i = 2 frac((i + 1) phi) - 1``, in (-1, 1), with phi the golden
    ratio's fraction (a Weyl sequence: equidistributed, no two slots equal
    and no period on the grid, so every Fourier bin of every field is
    excited), and the log entropy's temperatures are ``exp(0.3 u)``,
    strictly positive."""
    layout = model.layout
    z = np.arange(1, layout.flat_dim + 1) * (0.5 * (math.sqrt(5.0) - 1.0)) % 1.0 * 2.0 - 1.0
    if isinstance(model.entropy, LogThetaEntropy):
        theta = layout.field_slice("theta")
        z[theta] = np.exp(0.3 * z[theta])
    return z


def compile_rhs(model) -> Callable[[np.ndarray], np.ndarray]:
    """Flat-array form of :func:`generic_rhs`, for every model.

    Each call makes an evaluator of the sparse form (:func:`_sparse_form`):
    ``A y`` plus the terms that are not linear, the nonlinear model's
    bilinear term ``gamma * theta * (D q)`` and, for models with a
    reservoir, the production ``alpha * dx * sum_r w_r |D_r y|^2`` over the
    stacked dissipative rows, all from one sparse product per call.  A is the
    constant matrix of cyclic shifts of the node-0 columns the derivation
    probes through the building blocks.  A model that is not
    translation-invariant raises :class:`ValueError`.

    Calling ``compile_rhs`` derives the model, in numpy only.  The CSR
    arrays of P stacked on A are built from their node-0 columns
    (:func:`_circulant`) on the returned function's first call, which loads
    scipy's compiled CSR kernel from its extension module alone (not the
    ``scipy.sparse`` package) and checks the product against the
    object-level right-hand side at the derivation's check state (1e-12
    relative, else :class:`ValueError`; so is an install where scipy cannot
    be imported).
    Called on a flat state of shape ``(dim,)`` of real numbers (another
    raises :class:`ValueError`), it returns a new array: each call takes a
    fresh evaluator (``_SparseForm.evaluator``), which owns its work
    buffer.  It takes no work buffer itself, since the CSR kernel writes as
    many floats as the buffer must hold into whatever it is given.
    """
    sparse, model_id = _sparse_form(model), model.id
    dim = model.layout.flat_dim

    def rhs(flat: np.ndarray) -> np.ndarray:
        # the kernel reads dim floats of flat whatever its length, and
        # refuses a complex one with a message that names no model
        flat = np.asarray(flat)
        if flat.shape != (dim,) or flat.dtype.char != "d":
            if flat.shape != (dim,) or flat.dtype.kind not in "biuf":
                raise ValueError(f"{model_id}: expected a flat state of shape ({dim},) of real "
                                 f"numbers, got shape {flat.shape} of {flat.dtype}")
            # in float64, so that a float32 state reads as its values on every
            # numpy: numpy 1's value-based casting would take the bilinear
            # product by a 0-d coefficient in float32, numpy 2 in float64
            flat = flat.astype(float)
        return sparse.evaluator()(flat)

    return rhs


# --------------------------------------------------------------------------
# stable time step


def _rk4_amplification(z: np.ndarray) -> np.ndarray:
    return np.abs(1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0)


def _moving(eigs: np.ndarray) -> np.ndarray:
    """The eigenvalues above 1e-9 of the largest |lambda| among them.  The
    others are steady states, whose eigensolver roundoff scales with that
    radius, so the cut scales with the constants and keeps a motion
    however slow."""
    magnitudes = np.abs(eigs)
    return eigs[magnitudes > 1e-9 * np.max(magnitudes, initial=0.0)]


def _rk4_stability_limit(eigs: np.ndarray) -> float:
    """Largest dt with |R(dt*lambda)| <= 1 (+1e-9 slack) for every moving
    eigenvalue (:func:`_moving`), found by one bisection of
    ``[0, 3 / radius]`` down to adjacent floats, so it is exact at any
    constants; inf when no eigenvalue moves or 3 / radius overflows, 0.0
    when the limit is below 1e-300.

    The dynamics are contractive in the energy seminorm, so the true
    spectrum satisfies Re(lambda) <= 0; positive real parts are eigensolver
    noise (worst near defective wave pairs) and are taken as zero, where
    they would make the bound spuriously tight.  RK4's stability region
    with the slack lies inside |z| <= 2.961, so dt = 3 / radius is unstable
    and dt = 0 stable."""
    eigs = _moving(np.minimum(eigs.real, 0.0) + 1j * eigs.imag)
    if eigs.size == 0:
        return math.inf
    lo, hi = 0.0, 3.0 / float(np.max(np.abs(eigs)))
    if hi == math.inf:
        return math.inf
    # halfway by the difference, which cannot overflow near the largest float
    while (mid := lo + 0.5 * (hi - lo)) != lo and mid != hi:
        if np.all(_rk4_amplification(mid * eigs) <= 1.0 + 1e-9):
            lo = mid
        else:
            hi = mid
    return lo if lo >= 1e-300 else 0.0


# --------------------------------------------------------------------------
# time integration


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    t_end: float
    record_every: int = 1

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if not (self.t_end >= self.dt and math.isfinite(self.t_end)):
            raise ValueError(f"t_end must be finite and at least dt, got {self.t_end!r}")
        if not math.isfinite(self.t_end / self.dt):
            raise ValueError(f"t_end/dt overflows (t_end={self.t_end!r}, dt={self.dt!r})")
        if not _is_count(self.record_every):
            raise ValueError(f"record_every must be a positive integer, got {self.record_every!r}")

    @property
    def n_steps(self) -> int:
        """Number of fixed steps that reach t_end (the last may overshoot it)."""
        return int(math.ceil(self.t_end / self.dt - 1e-9))

    @property
    def n_records(self) -> int:
        """Number of records a run writes: the initial one and one per
        interval of ``record_every`` steps (the last may be shorter)."""
        return 1 + -(-self.n_steps // self.record_every)


class DiagnosticsRecord(NamedTuple):
    """One row of a run's diagnostics, in the column order of the CSV."""

    t: float
    energy: float
    entropy: float
    mech_energy: float
    res_l_ds: float       # |L dS|_inf at this sample
    res_m_de: float       # |M dE|_inf at this sample
    theta_min: float      # min(theta), NaN when the model has no theta field


def _diagnostics(model, sparse: _SparseForm, times: Sequence[float],
                 flats: np.ndarray) -> List[DiagnosticsRecord]:
    """The records of the (R, dim) stack of states ``flats`` at ``times``,
    one per row; any model, in numpy only.

    The energy, the entropy, the mechanical energy (the sum of the square
    terms, taken with the energy in one pass) and ``theta_min`` come from the
    stack-aware functionals, and ``|L dS|`` is ``apply_L(z, dS(z))`` for the
    log entropy.  ``|L dS|`` of the reservoir entropy is 0, and so is
    ``|M dE|``: ``sparse``, the model's derivation, proved ``M(z) dE(z) = 0``
    at every state (:func:`_sparse_form`).
    Each record is bitwise the one a stack of that row alone gives."""
    layout = model.layout
    z = State._stack(layout, flats)
    total, mech = _energy_parts(model, z)
    # the reservoir entropy's dS is alpha on the reservoir slot alone, which
    # no block of L reads, so its L dS is exactly 0; the log entropy's
    # dS = 1/theta depends on the state
    res_l_ds = 0.0
    if isinstance(model.entropy, LogThetaEntropy):
        res_l_ds = np.max(np.abs(apply_L(model, z, grad_entropy(model, z)).flat), axis=1)
    table = np.empty((len(flats), 6))
    table[:, 0] = times
    table[:, 1] = total
    table[:, 2] = entropy(model, z)
    table[:, 3] = mech
    table[:, 4] = res_l_ds
    table[:, 5] = 0.0
    rows = table.tolist()
    if "theta" not in layout:
        # the one math.nan, so that records compare equal
        return [DiagnosticsRecord(*row, math.nan) for row in rows]
    theta_min = np.min(z.field("theta"), axis=1).tolist()
    return [DiagnosticsRecord(*row, low) for row, low in zip(rows, theta_min)]


#: Peak memory of recording one stack, in multiples of its states' bytes:
#: the held states, their stacked coefficients, the ``irfft`` output, its
#: transposed copy, the (R, dim) states and the functionals' temporaries are
#: alive at once.  tracemalloc put the peak of a whole ``integrate``, less
#: its records' :data:`RECORD_BYTES`, at 3.5-4.4 times one full stack
#: (n = 64, T = 0.5, ``record_every = 1``, dt = min(1e-3, bound), the CSR
#: matrix already built: TimoshenkoHeatI 3.5, BresseHeatII 3.6,
#: TimoshenkoNew 4.4), rounded up with room to spare.
RECORD_STACK_PEAK = 7


def _rk4_stepper(evaluators: Sequence[Callable[[np.ndarray], np.ndarray]], dim: int,
                 dt: float) -> Callable[..., np.ndarray]:
    """``step(y, out=None)``: one classical RK4 step of size ``dt`` from the
    flat state ``y`` (``dim`` slots), into ``out`` (a new array when None).

    ``evaluators`` are the four stages' right-hand sides; each returns the
    derivative at its argument, in an array that the step may overwrite
    and that nothing else writes before the step ends (its own work buffer,
    or a new array).  The stages share one stage input, and the step's sums
    are formed in place in the stages' results, in the order of
    ``y + dt/6 (k1 + 2 (k2 + k3) + k4)``, so the result is bitwise that of
    the expression.  The coefficients ``dt/2``, ``dt``, ``2`` and ``dt/6``
    are 0-d arrays, made once per stepper: a ufunc takes one with less
    overhead than a Python float, and the product by a 0-d float64 array is
    the IEEE product by the float under numpy 2's promotion rules and numpy
    1's value-based casting alike.  ``y`` is left as it is; ``out`` must
    share no memory with it or with the stages' buffers."""
    first, second, third, fourth = evaluators
    half, whole, two, sixth = map(np.asarray, (0.5 * dt, dt, 2.0, dt / 6.0))
    stage = np.empty(dim)

    def step(y: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        nonlocal stage  # += rebinds it, to the same array
        k1 = first(y)
        np.multiply(half, k1, out=stage)
        stage += y
        k2 = second(stage)
        np.multiply(half, k2, out=stage)
        stage += y
        k3 = third(stage)
        np.multiply(whole, k3, out=stage)
        stage += y
        k4 = fourth(stage)
        k2 += k3
        k2 *= two
        k1 += k2
        k1 += k4
        out = np.multiply(sixth, k1, out=out)
        out += y
        return out

    return step


def step_rk4(model, z: State, dt: float) -> State:
    """One classical RK4 step of the compiled right-hand side."""
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    # the stages hand the state to the CSR kernel, which does not check its length
    if z.layout != model.layout:
        raise ValueError(f"state layout does not match model {model.id}")
    evaluate = _sparse_form(model).evaluator()
    # one evaluator serves all four stages: each stage's result is a copy
    step = _rk4_stepper([lambda y: evaluate(y).copy()] * 4, model.layout.flat_dim, dt)
    return State(model.layout, step(z.flat))


#: Whether numpy's FFT writes into an array it is given (numpy 2 on); numpy
#: 1's takes no ``out`` and returns a new array.
_IRFFT_TAKES_OUT = "out" in inspect.signature(np.fft.irfft).parameters


class _MapWork:
    """The arrays of the Fourier path of :func:`integrate` for one model, by
    name: the one-step map and the scratch of its build, its powers, their
    spare and the scratch of their compositions, a jump's product, and a
    record stack's coefficients, fields on the grid (where numpy's FFT
    takes ``out``) and states.  Their shapes are fixed by the
    model, so every run after the first finds each array it asks for
    already made.  A run writes each array before it reads it, so nothing
    carries over from one run to the next, and nothing here refers to the
    model."""

    def __init__(self):
        self.arrays = {}

    def array(self, name, shape: tuple, dtype=complex) -> np.ndarray:
        """The array ``name``, of ``shape`` and ``dtype``: the one kept, or a
        new one, kept from then on, where none of that shape is kept."""
        kept = self.arrays.get(name)
        if kept is None or kept.shape != shape or kept.dtype != dtype:
            kept = self.arrays[name] = np.empty(shape, dtype=dtype)
        return kept


@contextlib.contextmanager
def _checked_out(pool: list):
    """The :class:`_MapWork` that ``pool`` (a form's ``map_work``) holds,
    taken out for the duration of one call, or a new one where the pool is
    empty (a concurrent call has it).  It goes back at the end, whether the
    call returns or raises; the pool keeps one, so of two calls that end
    together the later one's is dropped (each list operation is atomic)."""
    try:
        work = pool.pop()
    except IndexError:
        work = _MapWork()
    try:
        yield work
    finally:
        pool.append(work)
        del pool[1:]


def _map_work_bytes(bins: int, f: int) -> int:
    """Bytes of the Fourier path's workspace (:class:`_MapWork`) of a model
    with ``f`` fields on ``bins`` Fourier bins, at its largest: per bin,
    four (2f, f) maps, the two (f, f) scratch blocks of their compositions
    and a jump's (2f, 1) product, all complex; and the scratch of the map's
    build, whose batches hold at most ``state.STACK_BYTES`` of stages, as
    much for the rows of R on them (at most f rows) and for their adjoints,
    and three sums of a quarter of that each.  Its record stack's arrays
    are within :data:`RECORD_STACK_PEAK`."""
    return 16 * bins * f * (10 * f + 2) + 4 * STACK_BYTES


def _rk4_symbol_map(sparse: _SparseForm, n: int, dt: float, work: _MapWork) -> np.ndarray:
    """RK4's exact one-step map for a model whose fields evolve linearly,
    ``y' = A y``, on the Fourier bins k = 0..n//2 of the fields: one stacked
    ``[P; H]`` of shape (2f, f) per bin, in the array ``("map", 0)`` of
    ``work``, which is returned.

    With ``Z = dt A(k)`` the stage fields are ``y_s = S_s y``, where
    ``S_1 = I`` and ``S_(s+1) = I + c_s Z S_s`` (c = 1/2, 1/2, 1), and the
    step is ``P = I + Z/6 sum_s b_s S_s`` (b = 1, 2, 2, 1), which is
    ``I + Z + Z^2/2 + Z^3/6 + Z^4/24``.  The reservoir gains the stages'
    production ``dt/6 sum_s b_s alpha dx sum_r w_r |R_r y_s|^2``.  By
    Parseval over the half spectrum (weight 1 at k = 0 and at the Nyquist
    bin of an even n, 2 elsewhere, over n) that is ``sum_k y^H H y`` with
    ``H = dt/6 weight/n sum_s b_s (R S_s)^H W (R S_s)``, where R(k) stacks
    the rows' symbols and W holds their ``alpha dx w_r``.

    The bins are taken in batches whose stage blocks fill at most
    ``state.STACK_BYTES`` (all of them up to n = 127 with f = 8), each by
    :func:`_rk4_stage_sums`, on scratch of ``work``; every bin's map is
    bitwise the same in any batch.  The batches keep the memory of the
    build small.
    """
    a, r = sparse.symbols, sparse.m_symbols
    bins, f, _ = a.shape
    production = np.zeros(r.shape[1]) if sparse.production is None else sparse.production[::n]
    parseval = np.full(bins, 2.0)
    parseval[0] = 1.0
    if n % 2 == 0:
        parseval[-1] = 1.0
    step_map = work.array(("map", 0), (bins, 2 * f, f))
    per_batch = min(bins, max(1, STACK_BYTES // (4 * f * f * 16)))
    for start in range(0, bins, per_batch):
        batch = slice(start, start + per_batch)
        step_map[batch, :f], step_map[batch, f:] = _rk4_stage_sums(
            a[batch], r[batch], production, dt, work, per_batch)
    step_map[:, f:] *= (dt / (6.0 * n) * parseval)[:, None, None]
    return step_map


def _rk4_stage_sums(a: np.ndarray, r: np.ndarray, production: np.ndarray, dt: float,
                    work: _MapWork, per_batch: int) -> tuple:
    """``(P, sum_s b_s (R S_s)^H W (R S_s))`` for a batch of bins with the
    symbols ``a`` and ``r`` (see :func:`_rk4_symbol_map`), in scratch of
    ``work`` made for batches of ``per_batch`` bins.

    The four S_s lie side by side in one contiguous (bins, f, 4f) block,
    each formed in place from the one before, so that one batched product
    gives every R S_s.  The sums for P and for the gain are taken in
    contiguous arrays of their own, in the order of the expressions."""
    bins, f, _ = a.shape

    def scratch(name: str, shape: tuple) -> np.ndarray:
        # the leading bins of a full batch's array: contiguous, as a new one
        return work.array(name, (per_batch,) + shape)[:bins]

    eye = np.eye(f)
    stages = scratch("stages", (f, 4 * f))
    blocks = [stages[:, :, s * f:(s + 1) * f] for s in range(4)]
    blocks[0][...] = eye
    for stage, following, c in zip(blocks, blocks[1:], (0.5, 0.5, 1.0)):
        np.matmul(a, stage, out=following)
        following *= c * dt
        following += eye
    rows = np.matmul(r, stages, out=scratch("rows", (r.shape[1], 4 * f)))
    rows_h = np.conj(rows, out=scratch("adjoint rows", (r.shape[1], 4 * f))).transpose(0, 2, 1)
    rows *= production[:, None]
    total, gain, buffer = (scratch(name, (f, f)) for name in ("total", "gain", "buffer"))
    total.fill(0.0)
    gain.fill(0.0)
    for s, (stage, b) in enumerate(zip(blocks, (1.0, 2.0, 2.0, 1.0))):
        total += np.multiply(b, stage, out=buffer)
        columns = slice(s * f, (s + 1) * f)
        np.matmul(rows_h[:, columns], rows[:, :, columns], out=buffer)
        gain += np.multiply(b, buffer, out=buffer)
    np.matmul(a, total, out=buffer)
    buffer *= dt / 6.0
    buffer += eye
    return buffer, gain


def _compose(first: np.ndarray, then: np.ndarray, out: np.ndarray, scratch: tuple) -> np.ndarray:
    """The map of ``first`` followed by ``then``, both stacked ``[P; H]`` per
    bin: ``[P2 P1; H1 + P1^H H2 P1]``, two batched products, written into
    ``out`` (which shares no memory with either) and returned.  ``P1^H``
    and ``P1^H H2 P1`` are taken in the two (bins, f, f) arrays of
    ``scratch``, as new arrays of the same layout would hold them, so the
    map is bitwise the one without ``out``."""
    f = first.shape[2]
    p1 = first[:, :f]
    np.matmul(then, p1, out=out)
    adjoint, product = scratch
    np.matmul(np.conj(p1, out=adjoint).transpose(0, 2, 1), out[:, f:], out=product)
    np.add(product, first[:, f:], out=out[:, f:])
    return out


def _map_power(step_map: np.ndarray, steps: int, out: np.ndarray, spare: np.ndarray,
               scratch: tuple) -> np.ndarray:
    """m = ``steps`` (at least 2) applications of the stacked map ``[P; H]``
    as one map, ``[P^m; sum_(j<m) (P^j)^H H P^j]``, by binary powering from
    the leading bit: square, then compose with the one-step map on a set
    bit.  That is at most 2 log2(m) compositions (:func:`_compose`, with
    ``scratch``), which alternate between ``out`` and ``spare``, starting
    with the one that makes the last land in ``out``, which is returned."""
    bits = bin(steps)[3:]
    pair = (out, spare) if (len(bits) + bits.count("1")) % 2 else (spare, out)
    targets = itertools.cycle(pair)
    result = step_map
    for bit in bits:
        result = _compose(result, result, next(targets), scratch)
        if bit == "1":
            result = _compose(result, step_map, next(targets), scratch)
    return result


def _stage_path(sparse: _SparseForm, y: np.ndarray, dt: float, theta: Optional[slice]):
    """``(state, jump, to_grid)`` for RK4 through its stages on the compiled
    right-hand side, starting from the flat state ``y``.

    ``jump(state, m)`` takes m steps from ``state`` and returns
    ``(new_state, ok)``, where ok means finite and, with ``theta`` a slice,
    with a positive temperature at every step.  Each step's temperatures
    are folded into one running minimum (``np.minimum``, which keeps a NaN),
    reduced once at the end of the jump, and finiteness is checked there
    too: a slot that is not finite stays so under ``y + dt/6 (...)``, so a
    state that is finite there was finite at every step before it.  A jump
    that is not fine has run to its end; :func:`integrate` replays it.

    The work is made here, once per call: one stepper
    (:func:`_rk4_stepper`) on four evaluators of the compiled right-hand
    side (``sparse.evaluator``), two result buffers and the running
    minimum.  Inside a jump the steps alternate between the result buffers,
    so a step never writes the state it reads; the state a jump returns is
    a copy, so no state it hands out or is given shares memory with the
    work, and the input is left as it is.  ``to_grid`` stacks states as
    rows.
    """
    step = _rk4_stepper([sparse.evaluator() for _ in range(4)], y.size, dt)
    results = (np.empty(y.size), np.empty(y.size))
    temperatures = None if theta is None else tuple(result[theta] for result in results)
    coldest = None if theta is None else np.empty_like(temperatures[0])

    def jump(state: np.ndarray, m: int):
        if coldest is not None:
            coldest.fill(math.inf)
        for i in range(m):
            state = step(state, results[i & 1])
            if coldest is not None:
                np.minimum(coldest, temperatures[i & 1], out=coldest)
        ok = bool(np.isfinite(state).all()) and (coldest is None or coldest.min() > 0.0)
        return state.copy(), ok

    return y, jump, np.stack


def _symbol_path(model, sparse: _SparseForm, y: np.ndarray, cfg: IntegratorConfig,
                 work: _MapWork):
    """``(state, jump, to_grid)`` for RK4's map on the Fourier bins of the
    fields, starting from the flat state ``y``.

    A state is the fields' coefficients and the reservoir.  The one-step
    map, and its powers over ``record_every`` steps and over the remainder
    ``n_steps % record_every`` when the run has them (:func:`_map_power`),
    are built once per call, in arrays of ``work``: the one-step map in
    ``("map", 0)``, each power in one of its own and their spare in the
    next, so a run takes at most four.  ``jump(state, m)`` takes m steps
    (1, one record interval, or the last, shorter one) as one batched
    product with the m-step map, into the array ``"jump"``, and one
    ``vdot`` for the reservoir, and returns ``(new_state, ok)``, where ok
    means the coefficients and the reservoir are finite; the input is left
    as it is.  ``to_grid`` turns at most ``stack_rows`` states back into an
    (R, dim) stack with one ``irfft`` over all their bins, bitwise one
    ``irfft`` per state; the stack is a view of the array ``"states"``,
    valid until the next call.
    """
    layout = model.layout
    n, f = layout.grid.n, layout.n_fields
    nf = n * f
    bins = n // 2 + 1
    one_step = _rk4_symbol_map(sparse, n, cfg.dt, work)
    maps = {1: one_step}
    powers = [m for m in {min(cfg.record_every, cfg.n_steps), cfg.n_steps % cfg.record_every}
              if m > 1]
    for i, m in enumerate(powers, 1):
        out, spare = (work.array(("map", j), one_step.shape) for j in (i, len(powers) + 1))
        scratch = tuple(work.array(name, (bins, f, f)) for name in ("adjoint", "composed gain"))
        maps[m] = _map_power(one_step, m, out, spare, scratch)
    product = work.array("jump", (bins, 2 * f, 1))
    rows = stack_rows(layout)
    coefficients = work.array("coefficients", (rows, bins, f))
    fields = work.array("fields", (rows, n, f), dtype=float) if _IRFFT_TAKES_OUT else None
    grid_states = work.array("states", (rows, layout.flat_dim), dtype=float)

    def jump(state, m: int):
        y_hat, e = state
        mapped = np.matmul(maps[m], y_hat, out=product)
        e += np.vdot(y_hat, mapped[:, f:]).real
        # a copy: the next jump writes its product over this one
        y_hat = mapped[:, :f].copy()
        return (y_hat, e), bool(np.isfinite(y_hat).all()) and math.isfinite(e)

    def to_grid(states) -> np.ndarray:
        held = np.stack([c[:, :, 0] for c, _ in states], out=coefficients[:len(states)])
        # (R, n, f): the transform runs along the bins of the stack as it lies
        if fields is None:
            on_grid = np.fft.irfft(held, n, axis=1)
        else:
            on_grid = np.fft.irfft(held, n, axis=1, out=fields[:len(states)])
        out = grid_states[:len(states)]
        out[:, :nf].reshape(len(states), f, n)[...] = on_grid.transpose(0, 2, 1)
        out[:, nf:] = np.array([e for _, e in states])[:, None]
        return out

    y_hat = np.fft.rfft(y[:nf].reshape(f, n), axis=1).T[:, :, None]
    return (y_hat, float(y[nf]) if layout.has_reservoir else 0.0), jump, to_grid


def _check_initial_state(model, z0: State) -> None:
    """Reject an initial state of another layout than the model's, or with a
    slot that is not finite, naming the first such slot's field and node."""
    if z0.layout != model.layout:
        raise ValueError(f"initial state layout does not match model {model.id}")
    finite = np.isfinite(z0.flat)
    if not finite.all():
        slot = int(np.argmin(finite))
        n = model.grid.n
        where = (f"field {model.layout.field_order[slot // n]} at node {slot % n}"
                 if slot < model.layout.n_fields * n else "the reservoir e")
        raise ValueError(f"initial state is not finite: {where} is {float(z0.flat[slot])}")


def integrate(model, z0: State, cfg: IntegratorConfig) -> List[DiagnosticsRecord]:
    """March z0 forward to t_end with classical RK4, recording diagnostics
    every ``record_every`` steps and at the last.

    When the model's derivation finds no bilinear term and its entropy is
    not the log entropy, the fields evolve linearly: RK4's exact one-step map
    on their Fourier bins, with the reservoir's gain over the stages as one
    quadratic form (:func:`_rk4_symbol_map`), composes exactly, so each
    record interval is one batched product with the map raised to
    ``record_every`` steps by squaring (and one with the remainder's map at
    the end).  Any other model steps through the four stages of the
    compiled right-hand side (:func:`step_rk4`), with the temperature of
    every step folded into a running minimum, which is checked with
    finiteness once per interval.  Both give the same records to roundoff.

    Each path is one ``jump(state, m)`` (:func:`_stage_path`,
    :func:`_symbol_path`); the loop here is the same for both.  It keeps
    each interval's start and jumps over the interval at once.  When the
    jump is not fine, it replays the interval from the start with one-step
    jumps, bitwise the steps of a run that records every step, and reports
    the first step that is not fine.  If every replayed step is fine (a
    composed map can overflow where its single steps do not), the run goes
    on from the replayed state.

    Records are taken in stacks: the path's state at each record time
    is held, and the held ones go back to the grid and through
    :func:`_diagnostics` together: when they fill ``state.STACK_BYTES``
    (256 KB, at least one state) and another is to be held, at the end,
    and before a failure is reported.  Each record is bitwise the one its
    state alone gives.  The initial record is the first row of the first
    stack, taken from z0 itself (not from its round trip through the path's
    state), so a run makes one :func:`_diagnostics` call per stack and no
    other.

    Rejects a model whose derivation fails (:func:`_sparse_form`: among
    others, one that is not translation-invariant or whose ``M dE = 0`` does
    not hold exactly), steps above the model's stability bound, and a run whose
    estimated memory (set-up, records, one record stack and, on the Fourier
    path, the model's workspace) or work is above
    :data:`MEMORY_LIMIT_BYTES` or :data:`WORK_LIMIT`; aborts with
    :class:`PositivityError` if a log-entropy temperature leaves the positive
    cone, and with :class:`DivergenceError` on non-finite states (the
    fields or the reservoir).  Both name the first such step, its time and
    the last record before it.  An initial state of another layout or with a
    slot that is not finite is rejected before (:func:`_check_initial_state`).
    """
    _check_initial_state(model, z0)
    if cfg.dt > model.dt_bound:
        raise ValueError(
            f"dt={cfg.dt:g} exceeds the stable bound {model.dt_bound:g} for {model.id}"
        )
    log_entropy = isinstance(model.entropy, LogThetaEntropy)
    if log_entropy and not float(np.min(z0.field("theta"))) > 0.0:
        raise PositivityError("initial temperature must be strictly positive")

    sparse = _sparse_form(model)
    stage = bool(sparse.bilinear) or log_entropy
    n_steps, n_records = cfg.n_steps, cfg.n_records
    dim = model.layout.flat_dim
    # both paths may replay the steps of one interval one by one to find a
    # first bad step; the Fourier path takes one product per record besides
    replay = min(cfg.record_every, n_steps)
    per_stack = stack_rows(model.layout)
    _check_budget(
        f"{model.id} integrate over {_magnitude(n_steps)} steps",
        memory=(dim * SETUP_BYTES_PER_SLOT + n_records * RECORD_BYTES
                + RECORD_STACK_PEAK * per_stack * 8 * dim
                + (0 if stage else _map_work_bytes(*sparse.symbols.shape[:2]))),
        work=((n_steps if stage else n_records) + replay) * dim,
    )
    y = z0.flat.copy()
    theta = model.layout.field_slice("theta") if log_entropy else None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"), \
            _checked_out(sparse.map_work) as work:
        if stage:
            state, jump, to_grid = _stage_path(sparse, y, cfg.dt, theta)
        else:
            state, jump, to_grid = _symbol_path(model, sparse, y, cfg, work)
        records = []
        times, held = [0.0], [state]

        def record():
            if held:
                flats = to_grid(held)
                if not records:
                    # the first stack's first row is the initial record: z0
                    # itself, not its round trip through the Fourier bins
                    flats[0] = y
                records.extend(_diagnostics(model, sparse, times, flats))
                times.clear()
                held.clear()

        step = 0
        while step < n_steps:
            interval = min(cfg.record_every, n_steps - step)
            start = state
            state, ok = jump(start, interval)
            if not ok:
                # replay the interval one step at a time to name its first bad
                # step; a replay that stays fine goes on from where it ends
                state = start
                for bad in range(step + 1, step + interval + 1):
                    state, ok = jump(state, 1)
                    if ok:
                        continue
                    record()
                    last = records[-1]
                    context = (f"t = {bad * cfg.dt:g}; last recorded energy "
                               f"{last.energy:.6g} at t = {last.t:g}")
                    flat = to_grid([state])[0]
                    if theta is not None and np.isfinite(flat).all():
                        raise PositivityError(
                            f"temperature became nonpositive at step {bad} "
                            f"(min {float(np.min(flat[theta])):g}; {context})"
                        )
                    raise DivergenceError(f"non-finite state at step {bad} ({context})", step=bad)
            step += interval
            if len(held) == per_stack:
                record()
            times.append(step * cfg.dt)
            held.append(state)
        record()
    return records


# --------------------------------------------------------------------------
# randomized verification


def _state_draws(model) -> int:
    """Standard-normal draws one random state takes: one per slot, and one
    more per node for the log entropy's temperatures."""
    layout = model.layout
    if isinstance(model.entropy, LogThetaEntropy):
        return layout.flat_dim + layout.grid.n
    return layout.flat_dim


def _state_from_draws(model, draws: np.ndarray) -> np.ndarray:
    """The states that :func:`_state_draws` standard-normal ``draws`` on the
    last axis give, as a view of ``draws``: one draw per slot, then, for the
    log entropy, theta = exp(0.3 N) from the draws after those, written over
    the theta columns in place, so theta is strictly positive."""
    layout = model.layout
    dim = layout.flat_dim
    z = draws[..., :dim]
    if isinstance(model.entropy, LogThetaEntropy):
        z[..., layout.field_slice("theta")] = np.exp(0.3 * draws[..., dim:])
    return z


def random_state(model, rng: np.random.Generator) -> State:
    """Standard-normal state; log-entropy temperatures drawn strictly positive."""
    draws = rng.standard_normal(_state_draws(model))
    return State(model.layout, _state_from_draws(model, draws))


def random_cotangent(layout: StateLayout, rng: np.random.Generator) -> CotangentVector:
    return CotangentVector(layout, rng.standard_normal(layout.flat_dim))


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


@dataclass(frozen=True)
class VerificationReport:
    model_id: str
    trials: int
    seed: int
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


BRACKET_TOLERANCE = 1e-12


def verify_brackets(model, trials: int = 20, seed: int = 0) -> VerificationReport:
    """Randomized checks of antisymmetry, symmetry, positive semidefiniteness
    and the two degeneracy conditions.

    Each trial draws a state z and covectors xi and eta, in that order, from
    one generator seeded with ``seed``.  The trials are evaluated as stacks
    (at most ``state.STACK_BYTES``, 256 KB, per stack of states; more trials
    make more stacks), and each stack's draws are one ``standard_normal``
    call of one row per trial, which the generator fills in order, so a row
    holds bitwise the draws of :func:`random_state`, :func:`random_cotangent`
    and :func:`random_cotangent` in turn; z, xi and eta are column slices
    of that block.  The object-level operators act row by row, so each
    trial's residuals are bitwise those of evaluating it alone, and a NaN
    residual fails its check.  Residuals are normalized per trial by
    max(1, magnitudes involved); the report keeps the worst over all trials,
    its checks in the order :func:`_bracket_residuals` gives.  ``trials``
    that is not a positive integer, ``seed`` that is not a non-negative one
    (bools are neither), and trials times slots times
    :data:`VERIFY_WORK_WEIGHT` above :data:`WORK_LIMIT` raise
    :class:`ValueError` before the first trial.
    """
    if not _is_count(trials):
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    if not _is_count(seed, least=0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    _check_budget(f"{model.id} verify over {trials} trials",
                  work=int(trials) * model.layout.flat_dim * VERIFY_WORK_WEIGHT)
    rng = np.random.default_rng(seed)
    layout = model.layout
    dim = layout.flat_dim
    state_draws = _state_draws(model)
    per_stack = stack_rows(layout)
    worst = {}
    for start in range(0, trials, per_stack):
        block = rng.standard_normal((min(per_stack, trials - start), state_draws + 2 * dim))
        z = State._stack(layout, _state_from_draws(model, block[:, :state_draws]))
        xi = CotangentVector._stack(layout, block[:, state_draws:state_draws + dim])
        eta = CotangentVector._stack(layout, block[:, state_draws + dim:])
        for name, residuals in _bracket_residuals(model, z, xi, eta).items():
            # np.max, unlike max(), lets a NaN residual through to fail the check
            worst[name] = float(np.max((worst.get(name, 0.0), np.max(residuals))))
    checks = tuple(
        CheckResult(name, value, BRACKET_TOLERANCE) for name, value in worst.items()
    )
    return VerificationReport(str(model.id), int(trials), int(seed), checks)


def _bracket_residuals(model, z: State, xi: CotangentVector, eta: CotangentVector) -> dict:
    """Per-trial residuals of the five bracket checks on stacks of trials.
    ``M xi`` is applied once and paired with both eta and xi; every other
    operator output is dropped once it is paired."""
    layout = model.layout

    def pair(a, op, b):
        return mixed_inner(layout, a.flat, op(model, z, b).flat)

    def scaled(residual, *magnitudes):
        return residual / functools.reduce(np.maximum, magnitudes, 1.0)

    def sup(v):
        return np.max(np.abs(v.flat), axis=-1)

    def degeneracy(op, grad):
        g = grad(model, z)
        return scaled(sup(op(model, z, g)), sup(g))

    b1, b2 = pair(xi, apply_L, eta), pair(eta, apply_L, xi)
    s1 = pair(xi, apply_M, eta)
    m_xi = apply_M(model, z, xi).flat
    s2, quad = mixed_inner(layout, eta.flat, m_xi), mixed_inner(layout, xi.flat, m_xi)
    return {
        "antisymmetry": scaled(np.abs(b1 + b2), np.abs(b1), np.abs(b2)),
        "symmetry": scaled(np.abs(s1 - s2), np.abs(s1), np.abs(s2)),
        # -quad first: np.maximum returns its second argument on a tie, so
        # an exact zero reads +0.0 (as max(0.0, -quad) did), not -0.0
        "psd": scaled(np.maximum(-quad, 0.0), np.abs(quad)),
        "degeneracy_LdS": degeneracy(apply_L, grad_entropy),
        "degeneracy_MdE": degeneracy(apply_M, grad_energy),
    }


# --------------------------------------------------------------------------
# Jacobi identity (an exact check: directional differences of cubics)


@dataclass(frozen=True)
class TestFunctional:
    """Quadratic functional F(z) = 1/2 <z - z0, A (z - z0)> + <c, z> with a
    per-slot diagonal A (symmetric under the mixed inner product).  ``grad``
    takes a state or a stack of states.  ``z0`` must be a :class:`State`,
    ``c`` a :class:`CotangentVector` of its layout and ``diag`` a real array
    of one entry per slot; anything else raises :class:`ValueError`."""

    z0: State
    diag: np.ndarray
    c: CotangentVector

    def __post_init__(self):
        if not isinstance(self.z0, State):
            raise ValueError(f"test functional: z0 must be a State, got {type(self.z0).__name__}")
        layout = self.z0.layout
        if not (isinstance(self.c, CotangentVector) and self.c.layout == layout):
            raise ValueError("test functional: c must be a CotangentVector of z0's layout")
        diag = np.asarray(self.diag)
        if diag.dtype.kind not in "iuf" or diag.shape != (layout.flat_dim,):
            raise ValueError(f"test functional: diag must be a real array of shape "
                             f"({layout.flat_dim},), got shape {diag.shape} of {diag.dtype}")

    def grad(self, z: State) -> CotangentVector:
        if z.layout != self.z0.layout:
            raise ValueError("state layout does not match the test functional's layout")
        g = z.flat - self.z0.flat
        g *= self.diag
        g += self.c.flat
        return CotangentVector._stack(z.layout, g)


def random_test_functional(layout: StateLayout, rng: np.random.Generator) -> TestFunctional:
    weights = rng.uniform(0.5, 1.5, layout.n_fields + layout.has_reservoir)
    # one weight per field's n slots; the reservoir's, last, keeps one slot
    diag = np.repeat(weights, layout.grid.n)[:layout.flat_dim]
    z0 = State(layout, 0.3 * rng.standard_normal(layout.flat_dim))
    c = CotangentVector(layout, 0.3 * rng.standard_normal(layout.flat_dim))
    return TestFunctional(z0, diag, c)


def poisson_bracket(model, z: State, f: TestFunctional, g: TestFunctional):
    """{F, G}(z) = <dF(z), L(z) dG(z)>: a float, or one value per state of a
    stack."""
    return mixed_inner(model.layout, f.grad(z).flat, apply_L(model, z, g.grad(z)).flat)


def jacobi_check(model, z: State, f1, f2, f3, h: float):
    """Cyclic sum of nested brackets and the magnitude scale of its terms.

    Each term ``{{F, G}, H}(z) = <d{F, G}(z), L(z) dH(z)>`` is the
    derivative of ``{F, G}`` along ``v = L(z) dH(z)``, taken by the
    five-point stencil on four brackets at ``z +- t v`` and ``z +- 2t v``,
    with ``t = h (1 + |z|_inf) / |v|_inf``: the relative step ``h`` bounds
    how far a probe moves from z.  ``dF``, ``dG`` and ``L(z)`` are affine in
    z for the quadratic test functionals and the catalog's blocks, so
    ``{F, G}`` is at most cubic along the line and the stencil, exact
    through degree four, gives each term to roundoff at any ``h``: a
    residual above roundoff is a Jacobi defect, not truncation error.  A
    term with ``v = 0`` is exactly 0.  O(dim) per call.

    The work runs in two stack passes, each split into stacks of
    ``state.STACK_BYTES`` on large grids: one ``apply_L`` at z on the stack
    of the three ``dH(z)`` gives the directions, and the probes of every
    term with ``v != 0`` (four rows each, each term's ``dF`` and ``dG`` taken
    on its own rows) go through one ``apply_L`` and one pairing per stack.
    Every row is bitwise what it gives alone.  The probes and the stencil
    run with numpy's floating-point warnings off; an ``h`` so large that a
    probe, a bracket or a term is not finite raises :class:`ValueError`
    naming it, as one that is not finite does.
    """
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"finite-difference step must be positive and finite, got {h!r}")
    layout = model.layout
    flat = z.flat
    rows = stack_rows(layout)
    cycle = ((f1, f2, f3), (f2, f3, f1), (f3, f1, f2))
    directions = np.empty((3, flat.size))
    for a in range(0, 3, rows):
        grads = np.array([fc.grad(z).flat for _, _, fc in cycle[a:a + rows]])
        directions[a:a + rows] = apply_L(model, z, CotangentVector._stack(layout, grads)).flat
    finite = True
    with np.errstate(over="ignore", invalid="ignore"):
        reach = h * (1.0 + float(np.max(np.abs(flat))))
        sizes = np.max(np.abs(directions), axis=1)
        live = [term for term in range(3) if sizes[term] != 0.0]
        steps = [reach / float(sizes[term]) for term in live]
        # probe row 4q + j is z + t m_j v of the q-th live term
        along = np.repeat(live, 4)
        shifts = (np.array(steps)[:, None] * np.array([1.0, -1.0, 2.0, -2.0])).ravel()
        brackets = np.empty(along.size)
        for a in range(0, along.size, rows):
            end = min(a + rows, along.size)
            # in place, each row is bitwise z.flat + t * m * v
            probes = directions[along[a:end]]
            probes *= shifts[a:end, None]
            probes += flat
            finite = finite and bool(np.isfinite(probes).all())
            ga, gb = np.empty_like(probes), np.empty_like(probes)
            for q in range(a // 4, (end - 1) // 4 + 1):
                fa, fb, _ = cycle[live[q]]
                mine = slice(max(a, 4 * q) - a, min(end, 4 * q + 4) - a)
                block = State._stack(layout, probes[mine])
                ga[mine], gb[mine] = fa.grad(block).flat, fb.grad(block).flat
            lgb = apply_L(model, State._stack(layout, probes), CotangentVector._stack(layout, gb))
            brackets[a:end] = mixed_inner(layout, ga, lgb.flat)
        terms = [0.0, 0.0, 0.0]
        for q, (term, t) in enumerate(zip(live, steps)):
            b = brackets[4 * q:4 * q + 4]
            terms[term] = float(8.0 * (b[0] - b[1]) - (b[2] - b[3])) / (12.0 * t)
    if not (finite and np.isfinite(brackets).all() and np.isfinite(terms).all()):
        raise ValueError(f"finite-difference step h={h!r} is too large: a probe, a bracket "
                         "or a term of the Jacobi check is not finite")
    residual = abs(terms[0] + terms[1] + terms[2])
    scale = max(1.0, *(abs(term) for term in terms))
    return residual, scale


# --------------------------------------------------------------------------
# coordinate-transform invariance


def uniform_scaling(layout: StateLayout, factor: float) -> np.ndarray:
    return np.full(layout.flat_dim, float(factor))


def transform_check(model, t_diag: np.ndarray, z0: State, cfg: IntegratorConfig) -> float:
    """Integrate the system and its diagonally rescaled image side by side.

    The rescaled system is assembled through the transformed building blocks
    (E-bar(v) = E(T^-1 v), L-bar = T L T^T, M-bar = T M T^T) and must trace
    T z(t); the return value is the largest mismatch over the samples.  An
    initial state is checked as :func:`integrate` checks it; a sample where
    either trajectory is not finite raises :class:`DivergenceError` naming
    its step.
    """
    _check_initial_state(model, z0)
    layout = model.layout
    t_diag = real_array(t_diag, "transform diagonal")
    if t_diag.shape != (layout.flat_dim,):
        raise ValueError("transform diagonal has the wrong dimension")
    if np.any(t_diag == 0.0) or not np.isfinite(t_diag).all():
        raise ValueError("transform must be invertible (no zero diagonal entries)")
    t_inv = 1.0 / t_diag

    def original(flat: np.ndarray) -> np.ndarray:
        return generic_rhs(model, State(layout, flat)).flat

    def transformed(v: np.ndarray) -> np.ndarray:
        z = State(layout, t_inv * v)
        xi_e = CotangentVector(layout, t_diag * (t_inv * grad_energy(model, z).flat))
        xi_s = CotangentVector(layout, t_diag * (t_inv * grad_entropy(model, z).flat))
        return t_diag * (apply_L(model, z, xi_e).flat + apply_M(model, z, xi_s).flat)

    n_steps = cfg.n_steps
    y = z0.flat.copy()
    v = t_diag * z0.flat
    # the evaluators return new arrays, so one serves all four stages
    step_y = _rk4_stepper([original] * 4, layout.flat_dim, cfg.dt)
    step_v = _rk4_stepper([transformed] * 4, layout.flat_dim, cfg.dt)
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(1, n_steps + 1):
            y = step_y(y)
            v = step_v(v)
            if step % cfg.record_every == 0 or step == n_steps:
                if not (np.isfinite(y).all() and np.isfinite(v).all()):
                    raise DivergenceError(f"non-finite state at step {step}", step=step)
                worst = max(worst, float(np.max(np.abs(t_diag * y - v))))
    return worst


# --------------------------------------------------------------------------
# decay diagnostics


def _log_mech_energy_tail(records: Sequence[DiagnosticsRecord]):
    """Times and log(mechanical energy) over the last half of the trajectory.

    Rejects, with :class:`DomainError`, a fit window holding a time or a
    mechanical energy that is not finite (naming the first such record) or
    an energy that is not positive: a fit over either would read NaN."""
    start = len(records) // 2
    tail = records[start:]
    t = np.array([r.t for r in tail])
    me = np.array([r.mech_energy for r in tail])
    finite = np.isfinite(t) & np.isfinite(me)
    if not finite.all():
        first = int(np.argmin(finite))
        raise DomainError(
            f"record {start + first} in the fit window is not finite "
            f"(t = {t[first]:g}, mechanical energy {me[first]:g})"
        )
    if np.any(me <= 0.0):
        raise DomainError("mechanical energy must stay positive in the fit window")
    return t, np.log(me)


def _slope(t: np.ndarray, y: np.ndarray) -> float:
    """The least-squares slope of y against t, in closed form on centred
    data: within roundoff of the exact slope of the floats.  An SVD solve
    of the uncentred system (``np.polyfit``) loses the digits of a slope
    far below the size of y itself: five of an undamped model's ~1e-12
    beside a log energy of order one."""
    tc = t - t.sum() / t.size   # the mean, without ``mean``'s overhead
    return float(tc @ (y - y.sum() / y.size) / (tc @ tc))


def decay_rate(records: Sequence[DiagnosticsRecord]) -> float:
    """Least-squares slope of log(mechanical energy) over the last half of the
    trajectory (:func:`_slope`).

    Rejects fewer than 10 records (:class:`ValueError`,
    :func:`check_decay_records`) and a fit window with a time or a
    mechanical energy that is not finite, or an energy that is not positive
    (:class:`DomainError`)."""
    check_decay_records(len(records), windows=False)
    return _slope(*_log_mech_energy_tail(records))


def mode_abscissa(model, mode: int) -> float:
    """The largest real part over the nonzero eigenvalues of the Fourier
    symbol of wavenumber ``mode`` (1..n/2) of the model's exact
    linearization, from its derivation.

    Below zero, every motion of that mode decays; at zero, up to eigensolver
    noise, some motion of it goes undamped.  Zero eigenvalues are steady
    states, not motions (a frictional model's zero-energy sawtooth of phi at
    the Nyquist bin), and are left out; -inf when every eigenvalue is zero.
    They are cut by the step bound's rule (:func:`_moving`): an eigenvalue
    at or below 1e-9 of the symbol's largest |lambda| counts as zero, so a
    mode that moves however slowly keeps its motions.
    """
    n = model.layout.grid.n
    if not (_is_count(mode) and mode <= n // 2):
        raise ValueError(f"mode must be an integer in 1..{n // 2} on n = {n} nodes, got {mode!r}")
    eigs = _moving(np.linalg.eigvals(_sparse_form(model).symbols[mode]))
    return float(np.max(eigs.real, initial=-math.inf))


#: number of windows :func:`windowed_decay_rates` splits the fit range into
DECAY_WINDOWS = 5


def check_decay_records(count: int, rate: bool = True, windows: bool = True) -> None:
    """Raise :class:`ValueError` when ``count`` records are too few for the
    fit of :func:`decay_rate` (``rate``: at least 10) or for the windows of
    :func:`windowed_decay_rates` (``windows``: at least
    ``DECAY_WINDOWS + 1`` in the last half), in that order.  A count known
    before a run (:attr:`IntegratorConfig.n_records`) can be checked before
    it."""
    if rate and count < 10:
        raise ValueError(f"need at least 10 records for a decay fit, got {count}")
    tail = count - count // 2
    if windows and tail < DECAY_WINDOWS + 1:
        raise ValueError(
            f"the windowed decay fit needs at least {DECAY_WINDOWS + 1} records in the "
            f"trajectory's last half, got {tail} of {count} records"
        )


def windowed_decay_rates(records: Sequence[DiagnosticsRecord]):
    """Decay slopes over :data:`DECAY_WINDOWS` consecutive windows of the
    trajectory's last half, for a sign test on the fitted rate.

    Neighbouring windows share their end record, so every window holds at
    least two records once the last half holds ``DECAY_WINDOWS + 1``; fewer
    raise :class:`ValueError` rather than return fewer rates
    (:func:`check_decay_records`).  Each slope is :func:`_slope`'s closed
    form, and the fit window is rejected as in :func:`decay_rate`.
    """
    check_decay_records(len(records), rate=False)
    t, log_me = _log_mech_energy_tail(records)
    bounds = np.linspace(0, len(t) - 1, DECAY_WINDOWS + 1).astype(int)
    return [_slope(t[a:b + 1], log_me[a:b + 1]) for a, b in zip(bounds[:-1], bounds[1:])]
