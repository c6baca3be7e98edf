"""Assembly of z_t = L dE + M dS, time integration, and the axiom verifier.

The integrator is classical explicit RK4 with a fixed step.  Every catalog
operator is a stencil on the periodic grid, so set-up works from node-0
stencils in O(dim), and every model runs compiled, with no object-level
fallback in the solve loop.  Each model is derived once: one pass
(:func:`_sparse_form`) builds the sparse form of the building blocks, probes
the node-0 stencil at the reference state, checks the compiled right-hand
side against the object-level one and takes the step bound, and the result
is cached in the model's one private slot.

* :func:`compile_rhs` returns the compiled right-hand side: one constant
  sparse matrix (the cyclic shifts of that stencil) plus the terms that are
  not linear, the reservoir production ``alpha * dx * sum_r w_r |D_r y|^2``
  and the bilinear coupling of the nonlinear model.  It reproduces the
  object-level assembly to roundoff.
* ``ModelSpec.dt_bound`` reads the step bound: the RK4 limit over the
  eigenvalues of the Fourier symbols of the exact linearization, the
  stencil plus the derivative of the quadratic terms.  A model that fails
  the check gets neither.
* The diagnostics records of :func:`integrate` evaluate the energy, its
  gradient and the degeneracy residuals through the same sparse form.

The object-level operators (``apply_L``, ``apply_M``, the gradients,
:func:`generic_rhs`) and the hand-coded :func:`direct_rhs` stay as the
oracles the compiled forms are tested against.

Randomized verification draws states and covectors from a seeded generator;
residuals are reported relative to per-trial magnitudes (scale = max(1,
size of the quantities being compared)), so tolerances transfer across
parameter choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np
import scipy.sparse

from .errors import DivergenceError, DomainError, PositivityError
from .functionals import (
    LinearTerm,
    LogThetaEntropy,
    entropy,
    fd_gradient,
    grad_energy,
    grad_entropy,
)
from .operators import apply_L, apply_M
from .state import CotangentVector, State, StateLayout, mixed_inner


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


def _periodic_matrix(n: int, shape: tuple, entries) -> scipy.sparse.csr_matrix:
    """Sparse matrix made of n x n periodic stencil blocks.

    Each entry ``(block row, block column, offset, value)`` puts ``value`` at
    ``(row * n + i, column * n + (i + offset) % n)`` for every node i;
    coinciding entries add up.
    """
    nodes = np.arange(n)
    rows, cols, vals = [], [], []
    for row, col, offset, value in entries:
        rows.append(row * n + nodes)
        cols.append(col * n + (nodes + offset) % n)
        vals.append(np.full(n, value))
    if not vals:
        return scipy.sparse.csr_matrix(shape)
    return scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=shape
    )


@dataclass(frozen=True)
class _SparseForm:
    """Everything the engine derives from a model's building blocks, built in
    one pass by :func:`_sparse_form`.

    * ``energy_rows`` (G) stacks one row block per ``SquareTerm``, the
      combination g it squares, so the quadratic energy is
      ``1/2 dx sum(energy_coeffs * g**2)`` and its gradient ``G^T C G y``;
      ``energy_const`` is the gradient of the rest (the ``LinearTerm``
      coefficients, and 1 on the reservoir slot).
    * ``l_const`` holds the constant Poisson blocks; ``l_state`` the blocks
      with a coefficient field, as (row slice, column slice, kind, c,
      coefficient slice), applied with ``d1``.
    * ``m_rows`` (R) stacks one row block per ``DissipativeRow`` (D or the
      identity on its field); ``m_weights`` are their constant weights (None
      when a weight depends on the state).
    * ``rhs`` is the compiled right-hand side (:func:`compile_rhs`) and
      ``dt_bound`` the RK4 step bound (``ModelSpec.dt_bound``).
    """

    d1: scipy.sparse.csr_matrix
    energy_rows: scipy.sparse.csr_matrix
    energy_rows_t: scipy.sparse.csr_matrix
    energy_coeffs: np.ndarray
    energy_const: np.ndarray
    l_const: scipy.sparse.csr_matrix
    l_state: tuple
    m_rows: scipy.sparse.csr_matrix
    m_rows_t: scipy.sparse.csr_matrix
    m_weights: Optional[np.ndarray]
    rhs: Callable[[np.ndarray], np.ndarray]
    dt_bound: float


def _sparse_form(model) -> _SparseForm:
    """The model's :class:`_SparseForm`, derived in one pass on first use and
    cached in the model's private slot.

    The blocks are built in O(dim) from the SquareTerm/LinearTerm, Block and
    DissipativeRow data.  The right-hand side is ``A y + N(y)``: A is a
    constant matrix and N holds the terms that are not linear, the reservoir
    production ``sum(production * (R y)**2)`` and, for each ``mul_d1`` block
    with a coefficient field, the bilinear term ``c * y_a * (K y)`` with
    ``K = D (G^T C G)`` restricted to the block's column.  The products P y
    these terms need (R y and the K y) are stacked under A, so one sparse
    product per call yields all of them.

    One probe of the node-0 stencil at the reference state z0 linearizes the
    model.  For each field j, with e_j its unit vector at node 0, A's column
    is the unit secant ``F(z0 + e_j) - F(z0)`` of ``F = generic_rhs - N``,
    exact because F is affine (F(z0) is exactly 0 for the linear models,
    z0 = 0), and N's derivative is the central secant
    ``(N(z0 + e_j) - N(z0 - e_j)) / 2``, exact because N is quadratic.  z0
    must be uniform on the grid, so that node 0 stands for every node: every
    catalog operator is a periodic stencil, A is the block-circulant matrix
    generated by cyclic shifts of its columns, and the spectrum of the
    Jacobian is the union of the eigenvalues of the n Fourier symbols of its
    columns (von Neumann analysis).

    The compiled right-hand side is checked once against the object-level one
    at a seeded random state (temperatures positive for the log entropy); a
    mismatch above 1e-12 relative (a model that is not translation-invariant)
    raises :class:`ValueError`, so neither the right-hand side nor the step
    bound of such a model is ever returned.
    """
    if model._sparse is not None:
        return model._sparse
    layout = model.layout
    n, nfields, dim, dx = layout.grid.n, layout.n_fields, layout.flat_dim, layout.grid.dx
    nf = n * nfields
    z0 = model.reference_state.flat
    fields = z0[:nf].reshape(nfields, n)
    if not np.all(fields == fields[:, :1]):
        raise ValueError(
            f"{model.id}: the reference state must be uniform on the grid "
            "for the stencil linearization"
        )
    index = {name: i for i, name in enumerate(layout.field_order)}
    half = 1.0 / (2.0 * dx)
    taps = {
        "identity": ((0, 1.0),),
        "d1": ((1, half), (-1, -half)),
    }

    def tap(differentiate: bool):
        return taps["d1" if differentiate else "identity"]

    squares = [t for t in model.energy_terms if not isinstance(t, LinearTerm)]
    energy_rows = _periodic_matrix(n, (len(squares) * n, dim), [
        (r, index[name], offset, factor * value)
        for r, term in enumerate(squares)
        for name, differentiate, factor in term.parts
        for offset, value in tap(differentiate)
    ])
    energy_rows_t = energy_rows.T.tocsr()
    energy_coeffs = np.repeat(np.array([t.coeff for t in squares], dtype=float), n)
    energy_const = np.zeros(dim)
    for term in model.energy_terms:
        if isinstance(term, LinearTerm):
            energy_const[layout.field_slice(term.field)] += term.coeff
    if layout.has_reservoir:
        energy_const[layout.reservoir_index] = 1.0

    l_entries, l_state = [], []
    for row, col, block in model.l_blocks:
        if block.kind in taps:
            l_entries += [(index[row], index[col], o, block.c * v) for o, v in taps[block.kind]]
        else:
            l_state.append((layout.field_slice(row), layout.field_slice(col),
                            block.kind, block.c, layout.field_slice(block.a)))

    dissipative = model.m_rows
    m_rows = _periodic_matrix(n, (len(dissipative) * n, dim), [
        (r, index[row.field], o, v)
        for r, row in enumerate(dissipative)
        for o, v in tap(row.differentiate)
    ])
    m_weights = None
    if not any(callable(row.weight) for row in dissipative):
        m_weights = np.repeat(np.array([row.weight for row in dissipative], dtype=float), n)
    elif layout.has_reservoir:
        raise ValueError(f"{model.id}: a state-dependent row weight rules out a reservoir")
    production = None
    if layout.has_reservoir and dissipative:
        production = model.entropy.alpha * dx * m_weights

    d1 = _periodic_matrix(n, (n, n), [(0, 0, o, v) for o, v in taps["d1"]])
    products, bilinear = [m_rows], []
    start = m_rows.shape[0]
    for rows, cols, kind, c, a in l_state:
        if kind == "mul_d1":
            hessian = energy_rows_t[cols] @ scipy.sparse.diags(energy_coeffs) @ energy_rows
            products.append(d1 @ hessian)
            bilinear.append((rows, a, c, slice(start, start + n)))
            start += n
    products = scipy.sparse.vstack(products, format="csr")

    def add_nonlinear(y: np.ndarray, p: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Add N(y) to ``out``, given the products ``p = P y``."""
        for rows, coefficient, c, k_rows in bilinear:
            out[rows] += c * y[coefficient] * p[k_rows]
        if production is not None:
            g = p[:production.size]
            out[-1] += production @ (g * g)
        return out

    def nonlinear(y: np.ndarray) -> np.ndarray:
        return add_nonlinear(y, products @ y, np.zeros_like(y))

    def affine(y: np.ndarray) -> np.ndarray:
        return (generic_rhs(model, State(layout, y)).flat - nonlinear(y))[:nf]

    base = affine(z0.copy())
    entries, jacobian = [], np.empty((nf, nfields))
    for j in range(nfields):
        e = np.zeros(dim)
        e[j * n] = 1.0
        column = affine(z0 + e) - base
        jacobian[:, j] = column + 0.5 * (nonlinear(z0 + e) - nonlinear(z0 - e))[:nf]
        for r in np.flatnonzero(column):
            field, node = divmod(int(r), n)
            entries.append((field, j, -node, column[r]))
    stacked = scipy.sparse.vstack([_periodic_matrix(n, (dim, dim), entries), products], format="csr")

    def rhs(flat: np.ndarray) -> np.ndarray:
        full = stacked @ flat
        return add_nonlinear(flat, full[dim:], full[:dim])

    z = random_state(model, np.random.default_rng(0))
    got = rhs(z.flat.copy())
    want = generic_rhs(model, z).flat
    scale = max(1.0, float(np.max(np.abs(got))), float(np.max(np.abs(want))))
    mismatch = float(np.max(np.abs(got - want))) / scale
    if not mismatch <= 1e-12:
        raise ValueError(
            f"{model.id}: the stencil assembly differs from the object-level "
            f"right-hand side by {mismatch:.3e} (is the model translation-invariant?)"
        )

    symbols = np.fft.fft(jacobian.reshape(nfields, n, nfields), axis=1).transpose(1, 0, 2)
    eigs = np.linalg.eigvals(symbols).ravel()
    # The dynamics are contractive in the energy seminorm, so the true
    # spectrum satisfies Re(lambda) <= 0; positive real parts are eigensolver
    # noise (worst near defective wave pairs) and would make the bound
    # spuriously tight.
    eigs = np.minimum(eigs.real, 0.0) + 1j * eigs.imag

    model._sparse = _SparseForm(
        d1=d1,
        energy_rows=energy_rows,
        energy_rows_t=energy_rows_t,
        energy_coeffs=energy_coeffs,
        energy_const=energy_const,
        l_const=_periodic_matrix(n, (dim, dim), l_entries),
        l_state=tuple(l_state),
        m_rows=m_rows,
        m_rows_t=m_rows.T.tocsr(),
        m_weights=m_weights,
        rhs=rhs,
        dt_bound=0.9 * _rk4_stability_limit(eigs),
    )
    return model._sparse


def _apply_l(sparse: _SparseForm, y: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """L(y) xi: the constant blocks, then the blocks with a coefficient field."""
    out = sparse.l_const @ xi
    for rows, cols, kind, c, coefficient in sparse.l_state:
        a = y[coefficient]
        if kind == "mul_d1":
            out[rows] += c * a * (sparse.d1 @ xi[cols])
        else:  # d1_mul
            out[rows] += c * (sparse.d1 @ (a * xi[cols]))
    return out


def _apply_m(model, sparse: _SparseForm, z: State, xi: np.ndarray) -> np.ndarray:
    """M(z) xi in factored form, sum_r J_r^T w_r J_r xi with
    J_r xi = R_r xi - (R_r z) xi_e, the second term only with a reservoir."""
    layout = model.layout
    weights = sparse.m_weights
    if weights is None:
        n = layout.grid.n
        weights = np.concatenate(
            [np.broadcast_to(row.weight_values(z), (n,)) for row in model.m_rows]
        )
    j = sparse.m_rows @ xi
    if layout.has_reservoir:
        coupled = sparse.m_rows @ z.flat
        j -= coupled * xi[layout.reservoir_index]
    v = weights * j
    out = sparse.m_rows_t @ v
    if layout.has_reservoir:
        out[layout.reservoir_index] = -layout.grid.dx * float(np.dot(coupled, v))
    return out


def compile_rhs(model) -> Callable[[np.ndarray], np.ndarray]:
    """Flat-array form of :func:`generic_rhs`, for every model.

    It is the sparse form's ``rhs`` (:func:`_sparse_form`): ``A y`` plus the
    terms that are not linear, the nonlinear model's bilinear term
    ``gamma * theta * (D q)`` and, for models with a reservoir, the
    production ``alpha * dx * sum_r w_r |D_r y|^2`` over the stacked
    dissipative rows, all from one sparse product per call.  A is the
    constant matrix of cyclic shifts of the node-0 stencil.  A model that is
    not translation-invariant raises :class:`ValueError`.
    """
    return _sparse_form(model).rhs


# --------------------------------------------------------------------------
# stable time step


def _rk4_amplification(z: np.ndarray) -> np.ndarray:
    return np.abs(1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0)


def _rk4_stability_limit(eigs: np.ndarray) -> float:
    """Largest dt with |R(dt*lambda)| <= 1 (+tiny slack) for every eigenvalue."""
    eigs = eigs[np.abs(eigs) > 1e-9]
    if eigs.size == 0:
        return math.inf

    def ok(dt: float) -> bool:
        return bool(np.all(_rk4_amplification(dt * eigs) <= 1.0 + 1e-9))

    lo, hi = 1e-12, 1.0
    if ok(hi):
        while ok(hi):
            hi *= 2.0
            if hi > 1e6:
                return math.inf
        lo = hi / 2.0
    else:
        while not ok(lo):
            lo /= 4.0
            if lo < 1e-300:
                raise ValueError("no stable step size found")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


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
        if not isinstance(self.record_every, (int, np.integer)) or self.record_every < 1:
            raise ValueError(f"record_every must be a positive integer, got {self.record_every!r}")

    @property
    def n_steps(self) -> int:
        """Number of fixed steps that reach t_end (the last may overshoot it)."""
        return int(math.ceil(self.t_end / self.dt - 1e-9))


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    energy: float
    entropy: float
    mech_energy: float
    res_l_ds: float       # |L dS|_inf at this sample
    res_m_de: float       # |M dE|_inf at this sample
    theta_min: float      # min(theta), NaN when the model has no theta field


def _diagnostics(model, t: float, flat: np.ndarray) -> DiagnosticsRecord:
    """One record, through the model's sparse form: the energy is evaluated
    once, as 1/2 dx sum c |G y|^2 plus the linear terms and the reservoir,
    and its gradient as G^T C G y plus a constant."""
    sparse = _sparse_form(model)
    layout = model.layout
    dx = layout.grid.dx
    nf = layout.grid.n * layout.n_fields
    z = State(layout, flat)
    g = sparse.energy_rows @ flat
    cg = sparse.energy_coeffs * g
    linear = dx * float(np.dot(sparse.energy_const[:nf], flat[:nf]))
    e = float(flat[nf]) if layout.has_reservoir else 0.0
    total = 0.5 * dx * float(np.dot(cg, g)) + linear + e
    de = sparse.energy_rows_t @ cg + sparse.energy_const
    ds = grad_entropy(model, z).flat
    theta_min = float(np.min(z.field("theta"))) if "theta" in layout else math.nan
    return DiagnosticsRecord(
        t=t,
        energy=total,
        entropy=entropy(model, z),
        mech_energy=total - e if layout.has_reservoir else total - linear,
        res_l_ds=float(np.max(np.abs(_apply_l(sparse, flat, ds)))),
        res_m_de=float(np.max(np.abs(_apply_m(model, sparse, z, de)))),
        theta_min=theta_min,
    )


def _rk4(rhs: Callable[[np.ndarray], np.ndarray], y: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of the flat-array right-hand side ``rhs``."""
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def step_rk4(model, z: State, dt: float) -> State:
    """One classical RK4 step of the compiled right-hand side."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    return State(model.layout, _rk4(compile_rhs(model), z.flat, dt))


def _failure_context(step: int, dt: float, records: List[DiagnosticsRecord]) -> str:
    last = records[-1]
    return f"t = {step * dt:g}; last recorded energy {last.energy:.6g} at t = {last.t:g}"


def integrate(model, z0: State, cfg: IntegratorConfig) -> List[DiagnosticsRecord]:
    """March z0 forward to t_end, recording diagnostics every few steps.

    Rejects steps above the model's stability bound; aborts with
    :class:`PositivityError` if a log-entropy temperature leaves the positive
    cone, and with :class:`DivergenceError` on non-finite states.  Both name
    the step, its time and the last recorded energy.
    """
    if z0.layout != model.layout:
        raise ValueError(f"initial state layout does not match model {model.id}")
    if cfg.dt > model.dt_bound:
        raise ValueError(
            f"dt={cfg.dt:g} exceeds the stable bound {model.dt_bound:g} for {model.id}"
        )
    log_entropy = isinstance(model.entropy, LogThetaEntropy)
    if log_entropy and not float(np.min(z0.field("theta"))) > 0.0:
        raise PositivityError("initial temperature must be strictly positive")

    rhs = compile_rhs(model)
    n_steps = cfg.n_steps
    y = z0.flat.copy()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        records = [_diagnostics(model, 0.0, y)]
        for step in range(1, n_steps + 1):
            y = _rk4(rhs, y, cfg.dt)
            if not np.isfinite(y).all():
                raise DivergenceError(
                    f"non-finite state at step {step} "
                    f"({_failure_context(step, cfg.dt, records)})",
                    step=step,
                )
            if log_entropy:
                tmin = float(np.min(y[model.layout.field_slice("theta")]))
                if not tmin > 0.0:
                    raise PositivityError(
                        f"temperature became nonpositive at step {step} "
                        f"(min {tmin:g}; {_failure_context(step, cfg.dt, records)})"
                    )
            if step % cfg.record_every == 0 or step == n_steps:
                records.append(_diagnostics(model, step * cfg.dt, y))
    return records


# --------------------------------------------------------------------------
# randomized verification


def random_state(model, rng: np.random.Generator) -> State:
    """Standard-normal state; log-entropy temperatures drawn strictly positive."""
    z = State(model.layout, rng.standard_normal(model.layout.flat_dim))
    if isinstance(model.entropy, LogThetaEntropy):
        n = model.layout.grid.n
        z.field("theta")[:] = np.exp(0.3 * rng.standard_normal(n))
    return z


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

    Residuals are normalized per trial by max(1, magnitudes involved); the
    report keeps the worst over all trials.
    """
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    rng = np.random.default_rng(seed)
    layout = model.layout
    worst = {"antisymmetry": 0.0, "symmetry": 0.0, "psd": 0.0,
             "degeneracy_LdS": 0.0, "degeneracy_MdE": 0.0}
    for _ in range(trials):
        z = random_state(model, rng)
        xi = random_cotangent(layout, rng)
        eta = random_cotangent(layout, rng)

        b1 = mixed_inner(layout, xi.flat, apply_L(model, z, eta).flat)
        b2 = mixed_inner(layout, eta.flat, apply_L(model, z, xi).flat)
        scale = max(1.0, abs(b1), abs(b2))
        worst["antisymmetry"] = max(worst["antisymmetry"], abs(b1 + b2) / scale)

        m_eta = apply_M(model, z, eta)
        m_xi = apply_M(model, z, xi)
        s1 = mixed_inner(layout, xi.flat, m_eta.flat)
        s2 = mixed_inner(layout, eta.flat, m_xi.flat)
        scale = max(1.0, abs(s1), abs(s2))
        worst["symmetry"] = max(worst["symmetry"], abs(s1 - s2) / scale)

        quad = mixed_inner(layout, xi.flat, m_xi.flat)
        worst["psd"] = max(worst["psd"], max(0.0, -quad) / max(1.0, abs(quad)))

        ds = grad_entropy(model, z)
        res = float(np.max(np.abs(apply_L(model, z, ds).flat)))
        worst["degeneracy_LdS"] = max(
            worst["degeneracy_LdS"], res / max(1.0, float(np.max(np.abs(ds.flat))))
        )

        de = grad_energy(model, z)
        res = float(np.max(np.abs(apply_M(model, z, de).flat)))
        worst["degeneracy_MdE"] = max(
            worst["degeneracy_MdE"], res / max(1.0, float(np.max(np.abs(de.flat))))
        )
    checks = tuple(
        CheckResult(name, value, BRACKET_TOLERANCE) for name, value in worst.items()
    )
    return VerificationReport(str(model.id), int(trials), int(seed), checks)


# --------------------------------------------------------------------------
# Jacobi identity (numerical evidence, not proof)


@dataclass(frozen=True)
class TestFunctional:
    """Quadratic functional F(z) = 1/2 <z - z0, A (z - z0)> + <c, z> with a
    per-slot diagonal A (symmetric under the mixed inner product)."""

    z0: State
    diag: np.ndarray
    c: CotangentVector

    def grad(self, z: State) -> CotangentVector:
        return CotangentVector(z.layout, self.diag * (z.flat - self.z0.flat) + self.c.flat)


def random_test_functional(layout: StateLayout, rng: np.random.Generator) -> TestFunctional:
    diag = np.empty(layout.flat_dim)
    n = layout.grid.n
    for i in range(layout.n_fields):
        diag[i * n:(i + 1) * n] = rng.uniform(0.5, 1.5)
    if layout.has_reservoir:
        diag[layout.reservoir_index] = rng.uniform(0.5, 1.5)
    z0 = State(layout, 0.3 * rng.standard_normal(layout.flat_dim))
    c = CotangentVector(layout, 0.3 * rng.standard_normal(layout.flat_dim))
    return TestFunctional(z0, diag, c)


def poisson_bracket(model, z: State, f: TestFunctional, g: TestFunctional) -> float:
    """{F, G}(z) = <dF(z), L(z) dG(z)>."""
    return mixed_inner(model.layout, f.grad(z).flat, apply_L(model, z, g.grad(z)).flat)


def jacobi_check(model, z: State, f1, f2, f3, h: float):
    """Cyclic sum of nested brackets and the magnitude scale of its terms.

    The gradient of z -> {F, G}(z) is taken by :func:`fd_gradient` with the
    relative step ``h``: slot i moves by ``h * (1 + |z_i|)``.
    """
    terms = []
    for fa, fb, fc in ((f1, f2, f3), (f2, f3, f1), (f3, f1, f2)):
        grad_inner = fd_gradient(lambda s: poisson_bracket(model, s, fa, fb), z, rel_step=h)
        outer = mixed_inner(
            model.layout, grad_inner.flat, apply_L(model, z, fc.grad(z)).flat
        )
        terms.append(outer)
    residual = abs(terms[0] + terms[1] + terms[2])
    scale = max(1.0, *(abs(t) for t in terms))
    return residual, scale


# --------------------------------------------------------------------------
# coordinate-transform invariance


def uniform_scaling(layout: StateLayout, factor: float) -> np.ndarray:
    return np.full(layout.flat_dim, float(factor))


def transform_check(model, t_diag: np.ndarray, z0: State, cfg: IntegratorConfig) -> float:
    """Integrate the system and its diagonally rescaled image side by side.

    The rescaled system is assembled through the transformed building blocks
    (E-bar(v) = E(T^-1 v), L-bar = T L T^T, M-bar = T M T^T) and must trace
    T z(t); the return value is the largest mismatch over the samples.
    """
    layout = model.layout
    t_diag = np.asarray(t_diag, dtype=float)
    if t_diag.shape != (layout.flat_dim,):
        raise ValueError("transform diagonal has the wrong dimension")
    if np.any(t_diag == 0.0) or not np.isfinite(t_diag).all():
        raise ValueError("transform must be invertible (no zero diagonal entries)")
    t_inv = 1.0 / t_diag

    def rhs_original(flat: np.ndarray) -> np.ndarray:
        return generic_rhs(model, State(layout, flat)).flat

    def rhs_transformed(v: np.ndarray) -> np.ndarray:
        z = State(layout, t_inv * v)
        xi_e = CotangentVector(layout, t_diag * (t_inv * grad_energy(model, z).flat))
        xi_s = CotangentVector(layout, t_diag * (t_inv * grad_entropy(model, z).flat))
        out = apply_L(model, z, xi_e).flat + apply_M(model, z, xi_s).flat
        return t_diag * out

    n_steps = cfg.n_steps
    y = z0.flat.copy()
    v = t_diag * z0.flat
    worst = 0.0
    for step in range(1, n_steps + 1):
        y = _rk4(rhs_original, y, cfg.dt)
        v = _rk4(rhs_transformed, v, cfg.dt)
        if step % cfg.record_every == 0 or step == n_steps:
            worst = max(worst, float(np.max(np.abs(t_diag * y - v))))
    return worst


# --------------------------------------------------------------------------
# decay diagnostics


def _log_mech_energy_tail(records: Sequence[DiagnosticsRecord]):
    """Times and log(mechanical energy) over the last half of the trajectory."""
    tail = records[len(records) // 2:]
    me = np.array([r.mech_energy for r in tail])
    if np.any(me <= 0.0):
        raise DomainError("mechanical energy must stay positive in the fit window")
    return np.array([r.t for r in tail]), np.log(me)


def decay_rate(records: Sequence[DiagnosticsRecord]) -> float:
    """Least-squares slope of log(mechanical energy) over the last half of the
    trajectory."""
    if len(records) < 10:
        raise ValueError(f"need at least 10 records for a decay fit, got {len(records)}")
    t, log_me = _log_mech_energy_tail(records)
    return float(np.polyfit(t, log_me, 1)[0])


def windowed_decay_rates(records: Sequence[DiagnosticsRecord], windows: int = 5):
    """Decay slopes over consecutive windows of the trajectory's last half,
    for a sign test on the fitted rate."""
    if len(records) < 2 * windows:
        raise ValueError("not enough records for windowed fits")
    t, log_me = _log_mech_energy_tail(records)
    bounds = np.linspace(0, len(t), windows + 1).astype(int)
    rates = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b - a >= 2:
            rates.append(float(np.polyfit(t[a:b], log_me[a:b], 1)[0]))
    return rates
