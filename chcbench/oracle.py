"""Reference computations for the benchmark's correctness checks.

Nothing here imports ``chc``: the rules, matrices, loads and eigenvalues
are derived afresh so that a check compares the program against an
independent computation rather than against itself.

* Gauss-Legendre rules from the Golub-Welsch eigenproblem and the
  6-point degree-4 triangle rule (Dunavant).
* P1 mass matrices by quadrature and stiffness matrices from barycentric
  gradients, on interval and triangle meshes given as vertex/cell arrays.
* Closed-form loads int cos(m pi x / L) phi_i dx on uniform interval meshes.
* Closed-form Neumann P1 eigenvalues on uniform interval meshes.
* The double-well potential F(s) = (s^2 - 1)^2 / 4 and the discrete energy.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

EPS = float(np.finfo(float).eps)

# -- quadrature ---------------------------------------------------------------


def gauss_rule(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre points and weights on [0, 1] (exact to degree 2*npts-1)."""
    k = np.arange(1, npts)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vecs = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    weights = 2.0 * vecs[0] ** 2
    return 0.5 * (nodes + 1.0), 0.5 * weights


_A1, _W1 = 0.44594849091596488632, 0.22338158967801146570
_A2, _W2 = 0.09157621350977074346, 0.10995174365532186764


def triangle_rule() -> tuple[np.ndarray, np.ndarray]:
    """Barycentric points and weights (summing to 1) exact to degree 4."""
    bary = []
    for a in (_A1, _A2):
        b = 1.0 - 2.0 * a
        bary += [(b, a, a), (a, b, a), (a, a, b)]
    weights = np.array([_W1] * 3 + [_W2] * 3)
    return np.array(bary), weights


def cell_rule(vertices: np.ndarray, cells: np.ndarray):
    """Physical weights (nc, nq) and P1 shape values (nq, nloc) per cell.

    Intervals use the 3-point Gauss rule; triangles use the 6-point rule.
    Both integrate a P1 function to the fourth power exactly.
    """
    if cells.shape[1] == 2:
        x, w = gauss_rule(3)
        meas = vertices[cells[:, 1]] - vertices[cells[:, 0]]
        return meas[:, None] * w[None, :], np.column_stack([1.0 - x, x])
    bary, w = triangle_rule()
    return cell_measures(vertices, cells)[:, None] * w[None, :], bary


def cell_measures(vertices: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Signed lengths (1-D) or signed areas (2-D) of the cells."""
    if cells.shape[1] == 2:
        return vertices[cells[:, 1]] - vertices[cells[:, 0]]
    p = vertices[cells]
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)  # (nc, 2, 2)
    return 0.5 * np.linalg.det(jac)


# -- P1 matrices --------------------------------------------------------------


def _gradients(vertices: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Constant gradients of the local P1 basis, shape (nc, nloc, dim)."""
    if cells.shape[1] == 2:
        h = vertices[cells[:, 1]] - vertices[cells[:, 0]]
        return np.stack([-1.0 / h, 1.0 / h], axis=1)[..., None]
    p = vertices[cells]
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)  # columns
    inv_t = np.linalg.inv(jac).transpose(0, 2, 1)  # grads of the 2 affine coords
    g12 = np.einsum("cij,kj->cki", inv_t, np.eye(2))  # (nc, 2, 2)
    g0 = -g12.sum(axis=1, keepdims=True)
    return np.concatenate([g0, g12], axis=1)


def _scatter(cells: np.ndarray, local: np.ndarray, n: int) -> sp.csr_matrix:
    nloc = cells.shape[1]
    rows = np.broadcast_to(cells[:, :, None], (len(cells), nloc, nloc)).ravel()
    cols = np.broadcast_to(cells[:, None, :], (len(cells), nloc, nloc)).ravel()
    return sp.csr_matrix((local.ravel(), (rows, cols)), shape=(n, n))


def mass_stiffness(vertices: np.ndarray, cells: np.ndarray):
    """P1 mass (by quadrature) and stiffness (from gradients), CSR."""
    vertices = np.asarray(vertices, dtype=float)
    n = len(vertices)
    wts, shapes = cell_rule(vertices, cells)
    Mloc = np.einsum("cq,qa,qb->cab", wts, shapes, shapes)
    grads = _gradients(vertices, cells)
    meas = np.abs(cell_measures(vertices, cells))
    Kloc = meas[:, None, None] * np.einsum("cad,cbd->cab", grads, grads)
    return _scatter(cells, Mloc, n), _scatter(cells, Kloc, n)


def interval_mesh(L: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform vertices and cells of [0, L] with n cells."""
    verts = L * np.arange(n + 1) / n
    cells = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    return verts, cells


# -- closed forms on uniform interval meshes ------------------------------------


def mode_loads(L: float, n: int, J: int) -> np.ndarray:
    """B[i, m] = int_0^L phi_m(x) hat_i(x) dx for the first J Neumann modes.

    phi_0 = 1/sqrt(L), phi_m = sqrt(2/L) cos(m pi x / L).  For a = m pi / L
    and h = L/n the hat integral is c_i h sinc^2(a h / 2) cos(a x_i), with
    c_i = 1 inside and 1/2 at the two end nodes (the sine terms of the half
    hats vanish there because a L is a multiple of pi).
    """
    h = L / n
    x = h * np.arange(n + 1)
    c = np.ones(n + 1)
    c[[0, -1]] = 0.5
    B = np.empty((n + 1, J))
    for m in range(J):
        a = m * math.pi / L
        half = 0.5 * a * h
        sinc2 = 1.0 if m == 0 else (math.sin(half) / half) ** 2
        norm = 1.0 / math.sqrt(L) if m == 0 else math.sqrt(2.0 / L)
        B[:, m] = norm * c * h * sinc2 * np.cos(a * x)
    return B


def p1_neumann_eigenvalues(L: float, n: int) -> np.ndarray:
    """lambda_{h,m} = (6/h^2)(1 - cos(m pi h/L)) / (2 + cos(m pi h/L)), m = 0..n."""
    h = L / n
    c = np.cos(np.arange(n + 1) * math.pi * h / L)
    return (6.0 / h**2) * (1.0 - c) / (2.0 + c)


def gauss_load_error_bound(L: float, n: int, m: int, npts: int) -> float:
    """Bound on the npts-point Gauss error of int phi_m hat_i over one cell.

    |E| <= h^(2p+1) (p!)^4 / ((2p+1) ((2p)!)^3) * max |g^(2p)| with
    g = phi_m * hat_i; on a cell hat_i is linear with |hat| <= 1 and
    |hat'| = 1/h, so |g^(2p)| <= norm (a^(2p) + 2p a^(2p-1) / h), a = m pi/L.
    """
    if m == 0:
        return 0.0
    h = L / n
    p = npts
    a = m * math.pi / L
    const = math.factorial(p) ** 4 / ((2 * p + 1) * math.factorial(2 * p) ** 3)
    deriv = math.sqrt(2.0 / L) * (a ** (2 * p) + 2 * p * a ** (2 * p - 1) / h)
    return h ** (2 * p + 1) * const * deriv


# -- double-well energy ---------------------------------------------------------

C1_SQ = 1.0  # max(0, -min F''), F'' = 3 s^2 - 1


def F(s):
    return 0.25 * (s * s - 1.0) ** 2


def f(s):
    return s * s * s - s


class Energy:
    """Quadrature of int F(X) and b_i(X) = int f(X) hat_i on one mesh."""

    def __init__(self, vertices: np.ndarray, cells: np.ndarray):
        self.cells = cells
        self.wts, self.shapes = cell_rule(np.asarray(vertices, dtype=float), cells)
        slots = cells.size
        self.scatter = sp.csr_matrix(
            (np.ones(slots), (cells.ravel(), np.arange(slots))), shape=(len(vertices), slots)
        )

    def _at_points(self, X: np.ndarray) -> np.ndarray:
        """Values at quadrature points; X is (..., n) nodal, result (..., nc, nq)."""
        return X[..., self.cells] @ self.shapes.T

    def integral_F(self, X: np.ndarray) -> np.ndarray:
        return np.sum(self.wts * F(self._at_points(X)), axis=(-2, -1))

    def load_f(self, X: np.ndarray) -> np.ndarray:
        """b(X) for a batch of nodal vectors X of shape (s, n)."""
        X = np.atleast_2d(X)
        contrib = np.einsum("cq,scq,qa->sca", self.wts, f(self._at_points(X)), self.shapes)
        return (self.scatter @ contrib.reshape(len(X), -1).T).T
