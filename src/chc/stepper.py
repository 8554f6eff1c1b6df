"""Fully implicit backward Euler stepping in the mixed (X, Y) formulation.

One step solves

    M X + k K Y = M X_prev + M dW_h
    K X + b(X) - M Y = 0,        b_i(X) = int f(X) phi_i dx,

by chord Newton on the stacked residual: the Newton matrix is factorized
at one iterate and that LU is reused until the residual stops contracting
(C. T. Kelley, Solving Nonlinear Equations with Newton's Method, SIAM 2003).
One LU is kept for the life of one trajectory.  The mixed form avoids ever
assembling M^{-1} inside an operator: the fourth-order term k A_h^2 X would
otherwise be dense.  The chemical potential Y doubles as the dissipation
diagnostic: the discrete energy J(X) = 0.5 |X|_1^2 + int F(X) decreases up
to the noise input, step by step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .fem import FemFunction, OperatorSet
from .potential import Potential

__all__ = [
    "StepperConfig",
    "State",
    "StepDiagnostics",
    "ChordLU",
    "NewtonError",
    "chemical_potential",
    "backward_euler_step",
    "run_trajectory",
    "lyapunov_J",
    "functional_F",
    "dissipativity_check",
    "energy_residual",
]

QUAD_NPTS = 3  # Gauss points per cell: exact for the degree-4 integrands of a quartic F
# A chord iteration that shrinks the residual by less than this factor
# refactorizes at the current iterate.
CHORD_RATIO = 0.1


@dataclass(frozen=True)
class StepperConfig:
    k: float
    newton_rtol: float = 1e-10
    newton_atol: float = 1e-12
    max_newton_iters: int = 50

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("time step must be positive")
        if self.newton_rtol <= 0 or self.newton_atol <= 0:
            raise ValueError("Newton tolerances must be positive")


@dataclass
class State:
    X: FemFunction
    Y: FemFunction
    step: int
    t: float


@dataclass
class StepDiagnostics:
    newton_iters: int
    factorizations: int
    mass: float
    J: float
    Y_h1: float  # |Y|_1


class NewtonError(RuntimeError):
    """A step whose Newton residual did not reach its tolerance."""


@dataclass
class ChordLU:
    """The factorization one trajectory keeps, and how many it has built."""

    lu: spla.SuperLU | None = None
    count: int = 0


def _nonlinear_load(ops: OperatorSet, pot: Potential, vals: np.ndarray, quad):
    """b_i = int f(X) phi_i dx from X at the quadrature points, vals[c, q]."""
    _, wts, shapes = quad
    return ops.scatter((wts * pot.f(vals)) @ shapes)


def functional_F(X: FemFunction, pot: Potential, ops: OperatorSet) -> float:
    """int F(X) dx, exact for the degree-4 composite of a P1 function."""
    pts, wts, shapes = ops.quadrature(QUAD_NPTS)
    vals = X.values[ops.mesh.cells] @ shapes.T
    return float(np.sum(wts * pot.F(vals)))


def lyapunov_J(X: FemFunction, ops: OperatorSet, pot: Potential) -> float:
    """J(X) = 0.5 |X|_1^2 + int F(X) dx."""
    return 0.5 * float(X.values @ (ops.K @ X.values)) + functional_F(X, pot, ops)


def dissipativity_check(pot: Potential, fields: list, ops: OperatorSet) -> float:
    """min over the sample fields of <f(v), v> + C_0; nonnegative by design."""
    C0 = pot.dissipativity_floor(ops.domain_measure)
    pts, wts, shapes = ops.quadrature(QUAD_NPTS)
    worst = np.inf
    for v in fields:
        vals = v.values[ops.mesh.cells] @ shapes.T
        inner = float(np.sum(wts * pot.f(vals) * vals))
        worst = min(worst, inner + C0)
    return worst


def chemical_potential(X: FemFunction, ops: OperatorSet, pot: Potential) -> FemFunction:
    """Y with M Y = K X + b(X); the discrete chemical potential."""
    quad = ops.quadrature(QUAD_NPTS)
    _, _, shapes = quad
    vals = X.values[ops.mesh.cells] @ shapes.T
    rhs = ops.K @ X.values + _nonlinear_load(ops, pot, vals, quad)
    return FemFunction(ops.mesh, ops.solve_M(rhs))


def backward_euler_step(
    prev: State,
    dW_h: FemFunction,
    cfg: StepperConfig,
    ops: OperatorSet,
    pot: Potential,
    chord: ChordLU | None = None,
) -> tuple[State, StepDiagnostics]:
    """One fully implicit step driven by the projected noise increment.

    The Newton matrix of (ops, k) is cached on ``ops``.  ``chord`` holds the
    LU kept from earlier steps of the same trajectory (same ops and k); it
    is refactorized at the current iterate when there is none yet or when
    an iteration leaves the residual above CHORD_RATIO times the previous
    one.  Without ``chord`` the step starts with no LU.
    """
    if chord is None:
        chord = ChordLU()
    n = ops.n_dofs
    system = ops.newton_system(cfg.k)
    quad = ops.quadrature(QUAD_NPTS)
    _, wts, shapes = quad
    cells = ops.mesh.cells

    rhs1 = ops.M @ (prev.X.values + dW_h.values)
    rhs_norm = np.linalg.norm(rhs1)
    tol = cfg.newton_atol + cfg.newton_rtol * rhs_norm

    z = np.concatenate([prev.X.values, prev.Y.values])  # (X, Y) stacked
    count0 = chord.count
    last = np.inf  # residual before the latest iteration
    iters = 0
    while True:
        vals = z[:n][cells] @ shapes.T  # X at the quadrature points
        res_vec = system.static @ z
        res_vec[:n] -= rhs1
        res_vec[n:] += _nonlinear_load(ops, pot, vals, quad)
        res = np.linalg.norm(res_vec)
        if res <= tol:
            break
        if iters >= cfg.max_newton_iters:
            ratio = f"{res / last:.3g}" if iters else "none"
            raise NewtonError(
                f"Newton stalled at residual {res:.3e} after {iters} iterations and "
                f"{chord.count - count0} factorizations (tol {tol:.3e}, last "
                f"contraction ratio {ratio})"
            )
        if chord.lu is None or res > CHORD_RATIO * last:
            local = np.einsum("cq,qi,ql->cil", wts * pot.f_prime(vals), shapes, shapes)
            chord.lu = None  # free the old LU before the new one is built
            chord.lu = system.factorize(local)
            chord.count += 1
        z = z - chord.lu.solve(res_vec)
        last = res
        iters += 1

    x, y = z[:n], z[n:]
    X_new = FemFunction(ops.mesh, x)
    Y_new = FemFunction(ops.mesh, y)
    diag = StepDiagnostics(
        newton_iters=iters,
        factorizations=chord.count - count0,
        mass=ops.mean(x),
        J=lyapunov_J(X_new, ops, pot),
        Y_h1=float(np.sqrt(max(0.0, y @ (ops.K @ y)))),
    )
    return State(X_new, Y_new, prev.step + 1, prev.t + cfg.k), diag


def energy_residual(
    prev: State,
    nxt: State,
    dW_h: FemFunction,
    k: float,
    ops: OperatorSet,
    pot: Potential,
) -> float:
    """Pathwise dissipation residual of one accepted step; <= 0 up to solver error.

    residual = J(X^j) - J(X^{j-1}) + 0.5 |dX|_1^2 + k |Y^j|_1^2
               - <Y^j, dW_h> - 0.5 c_1^2 ||dX||^2.
    """
    dx = nxt.X.values - prev.X.values
    dx_h1_sq = float(dx @ (ops.K @ dx))
    dx_l2_sq = float(dx @ (ops.M @ dx))
    y = nxt.Y.values
    y_h1_sq = float(y @ (ops.K @ y))
    noise_work = float(y @ (ops.M @ dW_h.values))
    J_prev = lyapunov_J(prev.X, ops, pot)
    J_next = lyapunov_J(nxt.X, ops, pot)
    return (
        J_next - J_prev + 0.5 * dx_h1_sq + k * y_h1_sq - noise_work
        - 0.5 * pot.c1_sq * dx_l2_sq
    )


def run_trajectory(
    X0: FemFunction,
    dW_fields: list[FemFunction],
    cfg: StepperConfig,
    ops: OperatorSet,
    pot: Potential,
    store: str = "none",
) -> tuple[list[State], list[StepDiagnostics]]:
    """March one backward Euler step from X0 per projected increment in dW_fields.

    ``store`` is "all" or "none"; the initial and final states are always
    kept.
    """
    if store not in ("all", "none"):
        raise ValueError(f"store must be 'all' or 'none', not {store!r}")
    chord = ChordLU()  # never shared across trajectories: samples stay independent

    state = State(X0, chemical_potential(X0, ops, pot), 0, 0.0)
    states = [state]
    diags = []
    for j, dW in enumerate(dW_fields):
        try:
            state, diag = backward_euler_step(state, dW, cfg, ops, pot, chord)
        except NewtonError as err:
            raise NewtonError(f"step {j + 1}: {err}") from err
        diags.append(diag)
        if store == "all" or state.step == len(dW_fields):
            states.append(state)
    return states, diags
