"""Correctness checks on the program's outputs.

Each check compares what the program produced with a property the scheme
must have, recomputed with the matrices and rules of ``oracle``; every
tolerance is fixed here from the method (solver tolerance, quadrature
error bound, round-off), never from a run.  A check returns a ``Verdict``;
the benchmark's own tests feed each one a wrong input and expect a FAIL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from oracle import EPS

# Newton stops at atol + rtol * ||M (X^{j-1} + dW^j)||; the recomputed residual
# may differ from the stepper's by round-off in the terms it is made of.
ROUNDOFF = 64.0 * EPS
ENERGY_TOL = 1e-8  # pathwise energy residual, per step
EIGEN_RTOL = 1e-12  # dense eigensolve against the closed form, relative to lambda_max
PAIR_Z_MAX = 4.0


@dataclass(frozen=True)
class Verdict:
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.ok else 'FAIL'}] {self.name}: {self.detail}"


def _rows(A, V: np.ndarray) -> np.ndarray:
    """A @ v for every row v of V."""
    return (A @ V.T).T


def _norms(V: np.ndarray) -> np.ndarray:
    return np.linalg.norm(V, axis=-1)


def newton_tolerance(M, X: np.ndarray, dW: np.ndarray, atol: float, rtol: float):
    """Per-step stopping tolerance of the stepper: atol + rtol ||M(X^{j-1} + dW^j)||."""
    return atol + rtol * _norms(_rows(M, X[:-1] + dW))


def check_mass(M, X: np.ndarray, dW: np.ndarray, tol: np.ndarray) -> Verdict:
    """int X^j - int X^{j-1} = int P_h dW^j at every step.

    X holds the N+1 nodal states, dW the N projected increments.  The
    integrals are exact P1 integrals (M 1 holds the hat integrals).  The
    first Newton block is linear and 1^T K = 0, so the defect is bounded by
    sqrt(n) times the Newton tolerance plus round-off in the three integrals.
    """
    w = M @ np.ones(M.shape[0])
    defect = np.abs((X[1:] - X[:-1]) @ w - dW @ w)
    scale = (np.abs(X[1:]) + np.abs(X[:-1]) + np.abs(dW)) @ w
    bound = math.sqrt(M.shape[0]) * tol + ROUNDOFF * scale
    j = int(np.argmax(defect / bound))
    return Verdict(
        "mass",
        bool(np.all(defect <= bound)),
        f"worst step {j + 1}: |defect|={defect[j]:.2e} <= bound {bound[j]:.2e}",
    )


def check_newton(M, K, energy, X, Y, dW, k: float, tol: np.ndarray) -> Verdict:
    """Each accepted step's residual, recomputed with the oracle's M, K and b(X)."""
    Xn, Yn = X[1:], Y[1:]
    MX, KY, KX, MY = _rows(M, Xn), _rows(K, Yn), _rows(K, Xn), _rows(M, Yn)
    rhs = _rows(M, X[:-1] + dW)
    b = energy.load_f(Xn)
    r1 = MX + k * KY - rhs
    r2 = KX + b - MY
    res = np.sqrt(_norms(r1) ** 2 + _norms(r2) ** 2)
    terms = _norms(MX) + k * _norms(KY) + _norms(rhs) + _norms(KX) + _norms(b) + _norms(MY)
    bound = tol + ROUNDOFF * terms
    j = int(np.argmax(res / bound))
    return Verdict(
        "newton",
        bool(np.all(res <= bound)),
        f"worst step {j + 1}: residual={res[j]:.2e} <= tol {tol[j]:.2e} "
        f"+ round-off {bound[j] - tol[j]:.2e}",
    )


def energy_residuals(M, K, energy, X, Y, dW, k: float, c1_sq: float) -> np.ndarray:
    """J(X^j) - J(X^{j-1}) + |dX|_1^2/2 + k|Y^j|_1^2 - <Y^j, dW^j> - c1^2 ||dX||^2/2."""
    dX = X[1:] - X[:-1]
    Yn = Y[1:]
    J = 0.5 * np.einsum("si,si->s", X, _rows(K, X)) + energy.integral_F(X)
    return (
        J[1:] - J[:-1]
        + 0.5 * np.einsum("si,si->s", dX, _rows(K, dX))
        + k * np.einsum("si,si->s", Yn, _rows(K, Yn))
        - np.einsum("si,si->s", Yn, _rows(M, dW))
        - 0.5 * c1_sq * np.einsum("si,si->s", dX, _rows(M, dX))
    )


def check_energy(M, K, energy, X, Y, dW, k: float, c1_sq: float) -> Verdict:
    res = energy_residuals(M, K, energy, X, Y, dW, k, c1_sq)
    j = int(np.argmax(res))
    return Verdict(
        "energy",
        bool(np.all(res <= ENERGY_TOL)),
        f"worst step {j + 1}: residual={res[j]:.2e} <= {ENERGY_TOL:.0e}",
    )


def projection_bound(M, coeffs: np.ndarray, cell_errors: np.ndarray) -> np.ndarray:
    """Max-norm bound on P_h dW - M^{-1} b_exact for each step.

    A node's load collects at most two cells, each off by at most
    sum_m |c_m| E_m (E_m the per-cell quadrature bound of mode m); the
    solve amplifies max-norm load errors by at most ||M^{-1}||_inf.
    """
    inv_norm = np.abs(np.linalg.inv(M.toarray())).sum(axis=1).max()
    return inv_norm * 2.0 * (cell_errors @ np.abs(coeffs))


def check_projection(M, B: np.ndarray, coeffs: np.ndarray, P: np.ndarray, bound) -> Verdict:
    """Every projected increment P[j] equals M^{-1} B coeffs[:, j] within bound[j].

    B holds the closed-form mode loads and coeffs the spectral coefficients
    of each increment (modes by steps).
    """
    ref = spla.spsolve(M.tocsc(), B @ coeffs).T
    err = np.abs(P - ref).max(axis=1)
    allow = bound + ROUNDOFF * 8.0 * np.abs(ref).max(axis=1)
    j = int(np.argmax(err / allow))
    return Verdict(
        "projection",
        bool(np.all(err <= allow)),
        f"worst step {j + 1}: max error={err[j]:.2e} <= quadrature bound {allow[j]:.2e}",
    )


def read_level_csv(text: str) -> list[dict]:
    """Rows of a study CSV by column name.

    The program writes the level label ``n=16,N=32`` unquoted, so a row has
    one field more than the header; the label is taken as everything before
    the last len(header) - 1 fields.
    """
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        fields = line.rsplit(",", len(header) - 1)
        fields[0] = fields[0].strip('"')
        rows.append(dict(zip(header, fields)))
    return rows


def check_strong_csv(text: str, L: float, T: float, levels, M: int) -> Verdict:
    """One row per compared level with h = L/n, k = T/N, the sample count, error > 0."""
    rows = read_level_csv(text)
    problems = []
    if len(rows) != len(levels):
        problems.append(f"{len(rows)} rows for {len(levels)} levels")
    for row, (n, N) in zip(rows, levels):
        try:
            if row["level"] != f"n={n},N={N}":
                problems.append(f"level {row['level']!r} != n={n},N={N}")
            if float(row["h"]) != L / n:
                problems.append(f"h={row['h']} != L/n={L / n!r} at n={n}")
            if float(row["k"]) != T / N:
                problems.append(f"k={row['k']} != T/N={T / N!r} at N={N}")
            if int(row["M"]) != M:
                problems.append(f"M={row['M']} != {M}")
            if not float(row["error"]) > 0.0:
                problems.append(f"error={row['error']} at n={n}")
        except (KeyError, ValueError) as err:
            problems.append(f"unreadable row {row}: {err}")
    return Verdict(
        "strong-csv",
        not problems,
        "; ".join(problems) if problems else f"{len(rows)} levels, h = L/n and k = T/N",
    )


def check_slope(name: str, xs, errors, lo: float, hi: float) -> Verdict:
    """Least-squares slope of log(error) against log(x) lies in [lo, hi]."""
    slope = float(np.polyfit(np.log(xs), np.log(errors), 1)[0])
    return Verdict(name, lo <= slope <= hi, f"slope={slope:.4f} in [{lo}, {hi}]")


def check_eigenvalues(n: int, computed: np.ndarray, exact: np.ndarray) -> Verdict:
    err = float(np.abs(np.sort(computed) - np.sort(exact)).max())
    bound = EIGEN_RTOL * float(np.max(exact))
    return Verdict(f"eigenvalues n={n}", err <= bound, f"max error={err:.2e} <= {bound:.2e}")


def pair_moment_zscores(lam: float, k: float, dbeta: np.ndarray, I: np.ndarray) -> dict:
    """z-scores of the three sample second moments against the exact ones.

    For mu = lam^2 k: Var(dbeta) = k, Var(I) = (1 - e^{-2 mu}) / (2 lam^2),
    Cov(dbeta, I) = (1 - e^{-mu}) / lam^2 (written through expm1 so that
    small mu keeps its digits).
    """
    mu = lam * lam * k
    exact = {
        "var_dbeta": k,
        "var_I": k * -math.expm1(-2.0 * mu) / (2.0 * mu),
        "cov": k * -math.expm1(-mu) / mu,
    }
    out = {}
    for key, prod in (("var_dbeta", dbeta * dbeta), ("var_I", I * I), ("cov", dbeta * I)):
        se = prod.std(ddof=1) / math.sqrt(len(prod))
        out[key] = (prod.mean() - exact[key]) / se
    return out


def check_pair_moments(lam: float, k: float, dbeta, I) -> Verdict:
    z = pair_moment_zscores(lam, k, dbeta, I)
    worst = max(abs(v) for v in z.values())
    return Verdict(
        f"pair moments lam^2 k={lam * lam * k:.0e}",
        worst <= PAIR_Z_MAX,
        ", ".join(f"z_{key}={v:+.2f}" for key, v in z.items()),
    )


def check_equal(name: str, got, expected) -> Verdict:
    ok = got == expected
    if isinstance(got, bytes):
        got, expected = f"{len(got)} bytes", f"{len(expected)} bytes"
    return Verdict(name, ok, f"{got} {'==' if ok else '!='} {expected}")
