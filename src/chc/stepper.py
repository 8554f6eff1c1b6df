"""Fully implicit backward Euler stepping in the mixed (X, Y) formulation.

One step solves

    M X + k K Y = M X_prev + M dW_h
    K X + b(X) - M Y = 0,        b_i(X) = int f(X) phi_i dx,

by Newton's method on the stacked residual.  The mixed form avoids ever
assembling M^{-1} inside an operator: the fourth-order term k A_h^2 X would
otherwise be dense.  The chemical potential Y doubles as the dissipation
diagnostic: the discrete energy J(X) = 0.5 |X|_1^2 + int F(X) decreases up
to the noise input, step by step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fem import FemFunction, OperatorSet
from .potential import Potential

__all__ = [
    "StepperConfig",
    "State",
    "StepDiagnostics",
    "NewtonError",
    "chemical_potential",
    "backward_euler_step",
    "run_trajectory",
    "lyapunov_J",
    "functional_F",
    "dissipativity_check",
    "energy_residual",
]


@dataclass(frozen=True)
class StepperConfig:
    k: float
    newton_rtol: float = 1e-10
    newton_atol: float = 1e-12
    max_newton_iters: int = 50
    quad_npts: int = 3  # Gauss points per cell, degree >= 4 exact

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
    residual: float
    mass: float
    J: float
    Y_h1: float  # |Y|_1


class NewtonError(RuntimeError):
    def __init__(self, message: str, history: list):
        super().__init__(message)
        self.history = history


def _nonlinear_load(ops: OperatorSet, pot: Potential, values: np.ndarray, quad):
    """b_i = int f(X) phi_i dx with the assembly quadrature."""
    pts, wts, shapes = quad
    vals = values[ops.mesh.cells] @ shapes.T  # (nc, nq)
    contrib = np.einsum("cq,cq,ql->cl", wts, pot.f(vals), shapes)
    b = np.zeros(ops.n_dofs)
    np.add.at(b, ops.mesh.cells, contrib)
    return b


def _nonlinear_jacobian(ops: OperatorSet, pot: Potential, values: np.ndarray, quad):
    """B'(X)_{il} = int f'(X) phi_i phi_l dx, same quadrature as assembly."""
    pts, wts, shapes = quad
    vals = values[ops.mesh.cells] @ shapes.T
    w = wts * pot.f_prime(vals)  # (nc, nq)
    loc = np.einsum("cq,qi,ql->cil", w, shapes, shapes)
    nloc = ops.mesh.cells.shape[1]
    rows = np.repeat(ops.mesh.cells, nloc, axis=1).ravel()
    cols = np.tile(ops.mesh.cells, (1, nloc)).ravel()
    n = ops.n_dofs
    return sp.coo_matrix((loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def functional_F(X: FemFunction, pot: Potential, ops: OperatorSet, npts: int = 3) -> float:
    """int F(X) dx, exact for the degree-4 composite of a P1 function."""
    pts, wts, shapes = ops.quadrature(npts)
    vals = X.values[ops.mesh.cells] @ shapes.T
    return float(np.sum(wts * pot.F(vals)))


def lyapunov_J(X: FemFunction, ops: OperatorSet, pot: Potential, npts: int = 3) -> float:
    """J(X) = 0.5 |X|_1^2 + int F(X) dx."""
    return 0.5 * float(X.values @ (ops.K @ X.values)) + functional_F(X, pot, ops, npts)


def dissipativity_check(pot: Potential, fields: list, ops: OperatorSet, npts: int = 3) -> float:
    """min over the sample fields of <f(v), v> + C_0; nonnegative by design."""
    C0 = pot.dissipativity_floor(ops.domain_measure)
    pts, wts, shapes = ops.quadrature(npts)
    worst = np.inf
    for v in fields:
        vals = v.values[ops.mesh.cells] @ shapes.T
        inner = float(np.sum(wts * pot.f(vals) * vals))
        worst = min(worst, inner + C0)
    return worst


def chemical_potential(X: FemFunction, ops: OperatorSet, pot: Potential, npts: int = 3) -> FemFunction:
    """Y with M Y = K X + b(X); the discrete chemical potential."""
    quad = ops.quadrature(npts)
    rhs = ops.K @ X.values + _nonlinear_load(ops, pot, X.values, quad)
    return FemFunction(ops.mesh, ops.solve_M(rhs))


def backward_euler_step(
    prev: State,
    dW_h: FemFunction,
    cfg: StepperConfig,
    ops: OperatorSet,
    pot: Potential,
) -> tuple[State, StepDiagnostics]:
    """One fully implicit step driven by the projected noise increment."""
    n = ops.n_dofs
    M, K, k = ops.M, ops.K, cfg.k
    quad = ops.quadrature(cfg.quad_npts)

    rhs1 = M @ (prev.X.values + dW_h.values)
    rhs_norm = np.linalg.norm(rhs1)
    tol = cfg.newton_atol + cfg.newton_rtol * rhs_norm

    x = prev.X.values.copy()
    y = prev.Y.values.copy()
    history = []
    iters = 0
    while True:
        bx = _nonlinear_load(ops, pot, x, quad)
        r1 = M @ x + k * (K @ y) - rhs1
        r2 = K @ x + bx - M @ y
        res = np.sqrt(np.linalg.norm(r1) ** 2 + np.linalg.norm(r2) ** 2)
        history.append(res)
        if res <= tol:
            break
        if iters >= cfg.max_newton_iters:
            raise NewtonError(
                f"Newton stalled at residual {res:.3e} after {iters} iterations "
                f"(tol {tol:.3e})",
                history,
            )
        Bp = _nonlinear_jacobian(ops, pot, x, quad)
        jac = sp.bmat([[M, k * K], [K + Bp, -M]], format="csc")
        delta = spla.splu(jac).solve(np.concatenate([r1, r2]))
        x = x - delta[:n]
        y = y - delta[n:]
        iters += 1

    X_new = FemFunction(ops.mesh, x)
    Y_new = FemFunction(ops.mesh, y)
    diag = StepDiagnostics(
        newton_iters=iters,
        residual=history[-1],
        mass=ops.mean(x),
        J=lyapunov_J(X_new, ops, pot, cfg.quad_npts),
        Y_h1=float(np.sqrt(max(0.0, y @ (K @ y)))),
    )
    return State(X_new, Y_new, prev.step + 1, prev.t + k), diag


def energy_residual(
    prev: State,
    nxt: State,
    dW_h: FemFunction,
    k: float,
    ops: OperatorSet,
    pot: Potential,
    npts: int = 3,
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
    J_prev = lyapunov_J(prev.X, ops, pot, npts)
    J_next = lyapunov_J(nxt.X, ops, pot, npts)
    return (
        J_next - J_prev + 0.5 * dx_h1_sq + k * y_h1_sq - noise_work
        - 0.5 * pot.c1_sq * dx_l2_sq
    )


def run_trajectory(
    X0: FemFunction,
    dW_fields: list[FemFunction] | None,
    cfg: StepperConfig,
    ops: OperatorSet,
    pot: Potential,
    n_steps: int | None = None,
    store: str = "none",
    stride: int | None = None,
) -> tuple[list[State], list[StepDiagnostics]]:
    """March N backward Euler steps from X0.

    dW_fields holds one projected increment per step (None means a
    deterministic run).  ``store`` is "all", "strided", or "none"; the
    initial and final states are always kept.
    """
    if n_steps is None:
        n_steps = len(dW_fields) if dW_fields is not None else 0
    if dW_fields is not None and len(dW_fields) != n_steps:
        raise ValueError("need one increment per step")
    zero = FemFunction(ops.mesh, np.zeros(ops.n_dofs))
    if stride is None:
        stride = max(1, int(np.ceil(n_steps / 100)))

    state = State(X0, chemical_potential(X0, ops, pot, cfg.quad_npts), 0, 0.0)
    states = [state]
    diags = []
    for j in range(n_steps):
        dW = dW_fields[j] if dW_fields is not None else zero
        try:
            state, diag = backward_euler_step(state, dW, cfg, ops, pot)
        except NewtonError as err:
            raise NewtonError(f"step {j + 1}: {err}", err.history) from err
        diags.append(diag)
        keep = (
            store == "all"
            or (store == "strided" and (state.step % stride == 0))
            or state.step == n_steps
        )
        if keep:
            states.append(state)
    return states, diags
