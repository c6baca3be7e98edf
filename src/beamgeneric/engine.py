"""Assembly of z_t = L dE + M dS, time integration, and the axiom verifier.

The integrator is classical explicit RK4 with a fixed step.  Every catalog
operator is a stencil on the periodic grid, so the field Jacobian is
block-circulant and one probe per field at node 0 (the stencil) determines
it.  Set-up uses that probe twice: for the models whose right-hand side is
linear in the fields (all but the nonlinearly coupled one) the assembly is
compiled into a sparse matrix from the stencil's cyclic shifts, plus a scalar
closure for the reservoir production; and the stable step bound is the RK4
limit over the eigenvalues of the stencil's Fourier symbols.  The compiled
path is checked against the object-level assembly once at compile time and
reproduces it to roundoff.

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
    LogThetaEntropy,
    energy,
    entropy,
    grad_energy,
    grad_entropy,
    mechanical_energy,
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


def _reservoir_rate(model) -> Optional[Callable[[np.ndarray], float]]:
    """Closure computing (M dS)_e = sum of the weighted dissipation quadratures."""
    if not (model.layout.has_reservoir and model.m_rows):
        return None
    grid = model.layout.grid
    alpha = model.entropy.alpha
    pieces = [
        (model.layout.field_slice(row.field), row.differentiate, row.weight)
        for row in model.m_rows
    ]
    dx = grid.dx
    inv2dx = 1.0 / (2.0 * dx)

    def rate(flat: np.ndarray) -> float:
        total = 0.0
        for sl, differentiate, weight in pieces:
            a = flat[sl]
            if differentiate:
                a = (np.roll(a, -1) - np.roll(a, 1)) * inv2dx
            total += weight * dx * float(np.dot(a, a))
        return alpha * total

    return rate


def _stencil(model) -> np.ndarray:
    """The node-0 columns of the field Jacobian, shape ``(n * n_fields, n_fields)``.

    Column j is the response of the field rows of the right-hand side to a
    unit perturbation of field j at node 0: exact for linear models, a central
    finite difference at the uniform reference state for the nonlinear model.  Every catalog operator is a periodic stencil, so the
    full field Jacobian is the block-circulant matrix generated by cyclic
    shifts of these columns.
    """
    layout = model.layout
    n, nfields = layout.grid.n, layout.n_fields
    nf = n * nfields
    stencil = np.zeros((nf, nfields))
    if model.rhs_linear:
        basis = np.zeros(layout.flat_dim)
        for j in range(nfields):
            basis[j * n] = 1.0
            stencil[:, j] = generic_rhs(model, State(layout, basis.copy())).flat[:nf]
            basis[j * n] = 0.0
        return stencil
    z0 = model.reference_state.flat
    fields = z0[:nf].reshape(nfields, n)
    if not np.all(fields == fields[:, :1]):
        raise ValueError(
            f"{model.id}: the reference state must be uniform on the grid "
            "for the stencil linearization"
        )
    h = 1e-6
    for j in range(nfields):
        zp = z0.copy()
        zp[j * n] += h
        zm = z0.copy()
        zm[j * n] -= h
        fp = generic_rhs(model, State(layout, zp)).flat[:nf]
        fm = generic_rhs(model, State(layout, zm)).flat[:nf]
        stencil[:, j] = (fp - fm) / (2.0 * h)
    return stencil


def _circulant_csr(model, stencil: np.ndarray) -> scipy.sparse.csr_matrix:
    """Sparse matrix of the linear part of the right-hand side.

    Field columns are the cyclic shifts of the stencil, the reservoir column
    is probed once, and the reservoir row (quadratic, see
    :func:`_reservoir_rate`) is left empty.
    """
    layout = model.layout
    n, nfields, dim = layout.grid.n, layout.n_fields, layout.flat_dim
    shifts = np.arange(n)
    rows, cols, vals = [], [], []
    for j in range(nfields):
        for r in np.flatnonzero(stencil[:, j]):
            field, node = divmod(int(r), n)
            rows.append(field * n + (node + shifts) % n)
            cols.append(j * n + shifts)
            vals.append(np.full(n, stencil[r, j]))
    if layout.has_reservoir:
        basis = np.zeros(dim)
        basis[layout.reservoir_index] = 1.0
        column = generic_rhs(model, State(layout, basis)).flat
        column[layout.reservoir_index] = 0.0
        nonzero = np.flatnonzero(column)
        rows.append(nonzero)
        cols.append(np.full(nonzero.size, layout.reservoir_index))
        vals.append(column[nonzero])
    return scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )


def compile_rhs(model) -> Callable[[np.ndarray], np.ndarray]:
    """Fast flat-array form of :func:`generic_rhs`.

    For linear models the field part is a sparse matrix assembled from one
    probe of the node-0 stencil (see :func:`_stencil`) and one probe of the
    reservoir column; the reservoir row, which is quadratic, is kept as a
    closure.  The assembly is checked once against the object-level
    right-hand side on a fixed-seed vector, and a mismatch above 1e-12
    relative (a model that is not translation-invariant) raises
    :class:`ValueError`.  The nonlinear model uses its flat-array form, or
    falls back to the object-level assembly.
    """
    if model._compiled_rhs is not None:
        return model._compiled_rhs
    layout = model.layout
    if not model.rhs_linear:
        if model.fast_rhs is not None:
            model._compiled_rhs = model.fast_rhs
            return model.fast_rhs

        def rhs(flat: np.ndarray) -> np.ndarray:
            return generic_rhs(model, State(layout, flat)).flat

        model._compiled_rhs = rhs
        return rhs

    matrix = _circulant_csr(model, _stencil(model))
    rate = _reservoir_rate(model)
    e_index = layout.reservoir_index if layout.has_reservoir else None

    def rhs(flat: np.ndarray) -> np.ndarray:
        out = matrix @ flat
        if rate is not None:
            out[e_index] = rate(flat)
        return out

    y = np.random.default_rng(0).standard_normal(layout.flat_dim)
    got = rhs(y)
    want = generic_rhs(model, State(layout, y.copy())).flat
    scale = max(1.0, float(np.max(np.abs(got))), float(np.max(np.abs(want))))
    mismatch = float(np.max(np.abs(got - want))) / scale
    if not mismatch <= 1e-12:
        raise ValueError(
            f"{model.id}: the stencil assembly differs from the object-level "
            f"right-hand side by {mismatch:.3e} (is the model translation-invariant?)"
        )
    model._compiled_rhs = rhs
    return rhs


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


def stable_dt(model) -> float:
    """0.9 times the RK4 stability limit of the linearized right-hand side.

    The field Jacobian is block-circulant, so its spectrum is the union of the
    eigenvalues of the n symbol matrices (f x f, one per wavenumber) obtained
    by a Fourier transform of the node-0 stencil along the grid axis (von
    Neumann analysis).
    """
    layout = model.layout
    n, nfields = layout.grid.n, layout.n_fields
    stencil = _stencil(model).reshape(nfields, n, nfields)
    symbols = np.fft.fft(stencil, axis=1).transpose(1, 0, 2)
    eigs = np.linalg.eigvals(symbols).ravel()
    # The dynamics are contractive in the energy seminorm, so the true
    # spectrum satisfies Re(lambda) <= 0; positive real parts are eigensolver
    # noise (worst near defective wave pairs) and would make the bound
    # spuriously tight.
    eigs = np.minimum(eigs.real, 0.0) + 1j * eigs.imag
    return 0.9 * _rk4_stability_limit(eigs)


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
    z = State(model.layout, flat)
    res_l = float(np.max(np.abs(apply_L(model, z, grad_entropy(model, z)).flat)))
    res_m = float(np.max(np.abs(apply_M(model, z, grad_energy(model, z)).flat)))
    theta_min = float(np.min(z.field("theta"))) if "theta" in model.layout else math.nan
    return DiagnosticsRecord(
        t=t,
        energy=energy(model, z),
        entropy=entropy(model, z),
        mech_energy=mechanical_energy(model, z),
        res_l_ds=res_l,
        res_m_de=res_m,
        theta_min=theta_min,
    )


def step_rk4(model, z: State, dt: float) -> State:
    """One classical RK4 step of the assembled right-hand side."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    rhs = compile_rhs(model)
    y = z.flat
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return State(model.layout, y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4))


def integrate(model, z0: State, cfg: IntegratorConfig) -> List[DiagnosticsRecord]:
    """March z0 forward to t_end, recording diagnostics every few steps.

    Rejects steps above the model's stability bound; aborts with
    :class:`PositivityError` if a log-entropy temperature leaves the positive
    cone, and with :class:`DivergenceError` on non-finite states.
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
    n_steps = int(math.ceil(cfg.t_end / cfg.dt - 1e-9))
    y = z0.flat.copy()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        records = [_diagnostics(model, 0.0, y)]
        for step in range(1, n_steps + 1):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * cfg.dt * k1)
            k3 = rhs(y + 0.5 * cfg.dt * k2)
            k4 = rhs(y + cfg.dt * k3)
            y = y + (cfg.dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            if not np.isfinite(y).all():
                raise DivergenceError(f"non-finite state at step {step}", step=step)
            if log_entropy:
                tmin = float(np.min(y[model.layout.field_slice("theta")]))
                if not tmin > 0.0:
                    raise PositivityError(
                        f"temperature became nonpositive at step {step} (min {tmin:g})"
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

    def value(self, z: State) -> float:
        d = z.flat - self.z0.flat
        layout = z.layout
        return 0.5 * mixed_inner(layout, d, self.diag * d) + mixed_inner(
            layout, self.c.flat, z.flat
        )

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


def _bracket_gradient_fd(model, f, g, z: State, h: float) -> np.ndarray:
    """Gradient of z -> {F, G}(z) by central differences with fixed step h,
    in the mixed inner-product convention."""
    layout = model.layout
    flat = z.flat
    out = np.empty_like(flat)
    for i in range(flat.size):
        zp = flat.copy()
        zp[i] += h
        zm = flat.copy()
        zm[i] -= h
        out[i] = (
            poisson_bracket(model, State(layout, zp), f, g)
            - poisson_bracket(model, State(layout, zm), f, g)
        ) / (2.0 * h)
    nf = layout.grid.n * layout.n_fields
    out[:nf] /= layout.grid.dx
    return out


def jacobi_check(model, z: State, f1, f2, f3, h: float):
    """Cyclic sum of nested brackets and the magnitude scale of its terms."""
    if not h > 0.0:
        raise ValueError(f"finite-difference step must be positive, got {h!r}")
    terms = []
    for fa, fb, fc in ((f1, f2, f3), (f2, f3, f1), (f3, f1, f2)):
        grad_inner = _bracket_gradient_fd(model, fa, fb, z, h)
        outer = mixed_inner(
            model.layout, grad_inner, apply_L(model, z, fc.grad(z)).flat
        )
        terms.append(outer)
    residual = abs(terms[0] + terms[1] + terms[2])
    scale = max(1.0, *(abs(t) for t in terms))
    return residual, scale


def jacobi_residual(model, z: State, f1, f2, f3, h: float) -> float:
    """Absolute value of the cyclic Jacobi sum for three quadratic functionals."""
    return jacobi_check(model, z, f1, f2, f3, h)[0]


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

    n_steps = int(math.ceil(cfg.t_end / cfg.dt - 1e-9))
    y = z0.flat.copy()
    v = t_diag * z0.flat
    worst = 0.0
    for step in range(1, n_steps + 1):
        y = _rk4_flat(rhs_original, y, cfg.dt)
        v = _rk4_flat(rhs_transformed, v, cfg.dt)
        if step % cfg.record_every == 0 or step == n_steps:
            worst = max(worst, float(np.max(np.abs(t_diag * y - v))))
    return worst


def _rk4_flat(rhs, y: np.ndarray, dt: float) -> np.ndarray:
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


# --------------------------------------------------------------------------
# decay diagnostics


def decay_rate(records: Sequence[DiagnosticsRecord]) -> float:
    """Least-squares slope of log(mechanical energy) over the last half of the
    trajectory."""
    if len(records) < 10:
        raise ValueError(f"need at least 10 records for a decay fit, got {len(records)}")
    tail = records[len(records) // 2:]
    me = np.array([r.mech_energy for r in tail])
    if np.any(me <= 0.0):
        raise DomainError("mechanical energy must stay positive in the fit window")
    t = np.array([r.t for r in tail])
    slope = np.polyfit(t, np.log(me), 1)[0]
    return float(slope)


def windowed_decay_rates(records: Sequence[DiagnosticsRecord], windows: int = 5):
    """Decay slopes over consecutive windows of the trajectory's last half,
    for a sign test on the fitted rate."""
    if len(records) < 2 * windows:
        raise ValueError("not enough records for windowed fits")
    tail = records[len(records) // 2:]
    t = np.array([r.t for r in tail])
    me = np.array([r.mech_energy for r in tail])
    if np.any(me <= 0.0):
        raise DomainError("mechanical energy must stay positive in the fit window")
    rates = []
    bounds = np.linspace(0, len(tail), windows + 1).astype(int)
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b - a >= 2:
            rates.append(float(np.polyfit(t[a:b], np.log(me[a:b]), 1)[0]))
    return rates
