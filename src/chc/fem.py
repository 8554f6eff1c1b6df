"""P1 finite elements: meshes, mass/stiffness assembly, projectors, norms.

The discrete Laplacian A_h is realized through the generalized pair (K, M):
A_h v has nodal coefficients M^{-1} K v, and discrete fractional norms come
from the generalized eigenproblem K phi = lambda M phi.  Meshes are uniform
interval meshes or structured triangulations of rectangles; both are desk
scale, so direct sparse factorizations and dense eigensolves suffice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .spectral import EigenBasis, SpectralField

__all__ = [
    "Mesh",
    "OperatorSet",
    "NewtonSystem",
    "FemFunction",
    "DiscreteSpectrum",
    "build_interval_mesh",
    "build_rectangle_mesh",
    "assemble",
    "load_vector",
    "project_l2",
    "ritz_project",
    "apply_Ah",
    "discrete_spectrum",
    "discrete_norm_alpha",
    "l2_error",
    "prolong",
]

DENSE_EIG_LIMIT = 4000

FieldLike = Union[SpectralField, Callable[[np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class Mesh:
    """A conforming P1 mesh: segments in 1-D, triangles in 2-D."""

    dim: int
    vertices: np.ndarray  # (nv,) in 1-D, (nv, 2) in 2-D
    cells: np.ndarray  # (nc, 2) or (nc, 3) vertex indices
    h: float

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    def cell_measures(self) -> np.ndarray:
        """Length of each segment or area of each triangle."""
        if self.dim == 1:
            return self.vertices[self.cells[:, 1]] - self.vertices[self.cells[:, 0]]
        p = self.vertices[self.cells]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def build_interval_mesh(L: float, n: int) -> Mesh:
    """Uniform mesh of [0, L] with n cells."""
    if n < 2:
        raise ValueError("need at least 2 cells")
    verts = np.linspace(0.0, L, n + 1)
    cells = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    return Mesh(1, verts, cells, L / n)


def build_rectangle_mesh(Lx: float, Ly: float, nx: int, ny: int) -> Mesh:
    """Structured triangulation of [0,Lx] x [0,Ly], 2*nx*ny triangles.

    Each grid cell is split along one diagonal; the diagonal direction
    alternates with the parity of the cell so that the mesh has no
    preferred orientation.
    """
    if nx < 2 or ny < 2:
        raise ValueError("need at least 2 cells per direction")
    xs = np.linspace(0.0, Lx, nx + 1)
    ys = np.linspace(0.0, Ly, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return i * (ny + 1) + j

    cells = []
    for i in range(nx):
        for j in range(ny):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            if (i + j) % 2 == 0:
                cells.append((a, b, c))
                cells.append((a, c, d))
            else:
                cells.append((a, b, d))
                cells.append((b, c, d))
    cells = np.array(cells, dtype=int)
    p = verts[cells]
    diams = max(
        np.linalg.norm(p[:, 1] - p[:, 0], axis=1).max(),
        np.linalg.norm(p[:, 2] - p[:, 1], axis=1).max(),
        np.linalg.norm(p[:, 2] - p[:, 0], axis=1).max(),
    )
    return Mesh(2, verts, cells, float(diams))


# -- quadrature -----------------------------------------------------------

# 6-point symmetric triangle rule, exact to polynomial degree 4.
_TRI6_W = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)
_TRI6_B = np.array(
    [
        [0.108103018168070, 0.445948490915965, 0.445948490915965],
        [0.445948490915965, 0.108103018168070, 0.445948490915965],
        [0.445948490915965, 0.445948490915965, 0.108103018168070],
        [0.816847572980459, 0.091576213509771, 0.091576213509771],
        [0.091576213509771, 0.816847572980459, 0.091576213509771],
        [0.091576213509771, 0.091576213509771, 0.816847572980459],
    ]
)


def _interval_rule(npts: int):
    """Gauss-Legendre points/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (x + 1.0), 0.5 * w


def _triangle_rule(npts_1d: int):
    """Barycentric points/weights on the reference triangle.

    The default 6-point rule handles degree <= 4; larger requests use a
    Duffy-collapsed tensor Gauss rule of npts_1d^2 points.
    """
    if npts_1d <= 3:
        return _TRI6_B, _TRI6_W
    x, w = _interval_rule(npts_1d)
    X, Y = np.meshgrid(x, x, indexing="ij")
    WX, WY = np.meshgrid(w, w, indexing="ij")
    xi = X.ravel()
    eta = (Y * (1.0 - X)).ravel()
    wq = (WX * WY * (1.0 - X)).ravel() * 2.0  # reference area normalized to 1
    bary = np.column_stack([1.0 - xi - eta, xi, eta])
    return bary, wq / wq.sum() * 1.0


def quadrature_points(mesh: Mesh, npts: int):
    """Physical quadrature points, weights, and P1 shape values per cell.

    Returns (points, weights, shapes) with shapes[q, loc] the value of the
    local basis function ``loc`` at quadrature point ``q``; points and
    weights have shape (n_cells, nq[, dim]) and (n_cells, nq).
    """
    meas = mesh.cell_measures()
    if mesh.dim == 1:
        xq, wq = _interval_rule(npts)
        a = mesh.vertices[mesh.cells[:, 0]][:, None]
        pts = a + meas[:, None] * xq[None, :]
        wts = meas[:, None] * wq[None, :]
        shapes = np.column_stack([1.0 - xq, xq])
        return pts, wts, shapes
    bary, wq = _triangle_rule(npts)
    p = mesh.vertices[mesh.cells]  # (nc, 3, 2)
    pts = np.einsum("qk,ckd->cqd", bary, p)
    wts = meas[:, None] * wq[None, :]
    return pts, wts, bary


def points_for_field(mesh: Mesh, v: FieldLike, base: int = 3) -> int:
    """Per-cell quadrature size resolving the oscillation of ``v``.

    For spectral fields the rule is at least four points per half
    wavelength of the highest retained mode; plain callables get ``base``.
    """
    if not isinstance(v, SpectralField):
        return base
    dom = v.basis.domain
    m_max = max(max(idx) for idx in v.basis.indices)
    if m_max == 0:
        return base
    per_cell = 4.0 * m_max * mesh.h / min(dom.lengths)
    return max(base, int(np.ceil(per_cell)) + 1)


# -- operators ------------------------------------------------------------


@dataclass(frozen=True)
class NewtonSystem:
    """The Newton matrix [[M, kK], [K + B'(X), -M]] of one time step k.

    ``static`` is [[M, kK], [K, -M]] in canonical CSC form, with an explicit
    entry at every (cell, i, l) position of B'(X), the pattern of M in the
    lower-left block.  ``slots[c * nloc**2 + i * nloc + l]`` is the position
    in ``static.data`` of the entry (n + cells[c, i], cells[c, l]) of B'.
    """

    static: sp.csc_matrix
    slots: np.ndarray

    @classmethod
    def assemble(cls, M: sp.spmatrix, K: sp.spmatrix, cells: np.ndarray, k: float):
        """The template and slot map for mass M, stiffness K and time step k."""
        n = M.shape[0]
        M, K = M.tocoo(), K.tocoo()
        nloc = cells.shape[1]
        rows = np.concatenate(
            [M.row, K.row, K.row + n, M.row + n, n + np.repeat(cells, nloc, axis=1).ravel()]
        )
        cols = np.concatenate(
            [M.col, K.col + n, K.col, M.col + n, np.tile(cells, (1, nloc)).ravel()]
        )
        vals = np.concatenate([M.data, k * K.data, K.data, -M.data, np.zeros(cells.size * nloc)])
        # Sorting by (column, row) gives the canonical CSC order; the pattern
        # entries of B' add exact zeros, so every static value is M, kK or K.
        keys, inverse = np.unique(cols * (2 * n) + rows, return_inverse=True)
        indptr = np.searchsorted(keys // (2 * n), np.arange(2 * n + 1))
        static = sp.csc_matrix(
            (np.bincount(inverse, vals), keys % (2 * n), indptr), shape=(2 * n, 2 * n)
        )
        return cls(static, inverse[-cells.size * nloc:])

    def jacobian(self, local: np.ndarray) -> sp.csc_matrix:
        """The Newton matrix for the local B' matrices ``local[c, i, l]``."""
        A = self.static
        data = A.data + np.bincount(self.slots, local.ravel(), minlength=A.nnz)
        return sp.csc_matrix((data, A.indices, A.indptr), shape=A.shape)

    def factorize(self, local: np.ndarray) -> spla.SuperLU:
        """Sparse LU of ``jacobian(local)`` in the fill-reducing MMD(A^T + A) order."""
        return spla.splu(self.jacobian(local), permc_spec="MMD_AT_PLUS_A")


class OperatorSet:
    """Assembled mass and stiffness matrices with the per-mesh caches.

    Factorizations, quadrature rules, mode-load matrices and Newton systems
    are built on first use and kept for the life of the object.
    """

    def __init__(self, mesh: Mesh, M: sp.csr_matrix, K: sp.csr_matrix):
        self.mesh = mesh
        self.M = M
        self.K = K
        self.domain_measure = float(mesh.cell_measures().sum())
        self._hat_integrals = M @ np.ones(M.shape[0])  # m @ c = int c dx
        self._M_lu = None
        self._Kaug_lu = None
        self._quad = {}
        self._mode_loads = {}
        self._newton = {}

    @property
    def n_dofs(self) -> int:
        return self.M.shape[0]

    def quadrature(self, npts: int):
        """``quadrature_points(self.mesh, npts)``, built once per npts."""
        if npts not in self._quad:
            self._quad[npts] = quadrature_points(self.mesh, npts)
        return self._quad[npts]

    def newton_system(self, k: float) -> NewtonSystem:
        """The backward Euler Newton system of time step k, built once per k."""
        if k not in self._newton:
            self._newton[k] = NewtonSystem.assemble(self.M, self.K, self.mesh.cells, k)
        return self._newton[k]

    def mode_loads(self, basis: EigenBasis) -> np.ndarray:
        """B[:, j] = load_vector(self, phi_j) for the modes of ``basis``, built once.

        Each column uses the Gauss rule ``points_for_field`` sizes from the
        whole basis, so ``M^{-1} B c`` is ``project_l2`` of the field with
        coefficients c up to rounding.
        """
        key = (basis.domain, basis.indices)
        if key not in self._mode_loads:
            modes = [SpectralField.single_mode(basis, j) for j in range(basis.J)]
            self._mode_loads[key] = np.column_stack([load_vector(self, v) for v in modes])
        return self._mode_loads[key]

    def project_modes(self, basis: EigenBasis, coeffs: np.ndarray) -> np.ndarray:
        """Nodal values of P_h sum_j coeffs[j] phi_j, one column per column of coeffs."""
        return self.solve_M(self.mode_loads(basis) @ coeffs)

    def solve_M(self, b: np.ndarray) -> np.ndarray:
        if self._M_lu is None:
            self._M_lu = spla.factorized(self.M.tocsc())
        return self._M_lu(b)

    def solve_K_mean(self, g: np.ndarray, mean_value: float) -> np.ndarray:
        """Solve K c = g subject to mean(c) = mean_value.

        K is singular on constants, so the system is augmented with a
        Lagrange multiplier row enforcing the integral constraint; this
        keeps the solve symmetric instead of pinning a node.
        """
        n = self.n_dofs
        m = self._hat_integrals
        if self._Kaug_lu is None:
            aug = sp.bmat([[self.K, m[:, None]], [m[None, :], None]], format="csc")
            self._Kaug_lu = spla.factorized(aug)
        rhs = np.concatenate([g, [mean_value * self.domain_measure]])
        return self._Kaug_lu(rhs)[:n]

    def mean(self, values: np.ndarray) -> float:
        return float(self._hat_integrals @ values) / self.domain_measure


def assemble(mesh: Mesh) -> OperatorSet:
    """Exact P1 mass and stiffness matrices."""
    meas = mesh.cell_measures()
    bad = np.flatnonzero(meas <= 0)
    if len(bad):
        raise ValueError(f"degenerate cell {bad[0]} (measure {meas[bad[0]]:g})")

    if mesh.dim == 1:
        Me = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
        Mloc = meas[:, None, None] * Me[None]
        Kloc = (1.0 / meas)[:, None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])[None]
    else:
        p = mesh.vertices[mesh.cells]
        Me = (np.ones((3, 3)) + np.eye(3)) / 12.0
        Mloc = meas[:, None, None] * Me[None]
        # Constant P1 gradients from the opposite-edge vectors.
        e = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]], axis=1)
        rot = np.stack([-e[..., 1], e[..., 0]], axis=-1)  # outward-ish normals
        grads = rot / (2.0 * meas[:, None, None])
        Kloc = meas[:, None, None] * np.einsum("cid,cjd->cij", grads, grads)

    nloc = mesh.cells.shape[1]
    rows = np.repeat(mesh.cells, nloc, axis=1).ravel()
    cols = np.tile(mesh.cells, (1, nloc)).ravel()
    n = mesh.n_vertices
    M = sp.coo_matrix((Mloc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    K = sp.coo_matrix((Kloc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return OperatorSet(mesh, M, K)


@dataclass
class FemFunction:
    """Nodal values of a P1 function on a mesh."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_vertices,):
            raise ValueError("nodal vector length must match the vertex count")

    def at_quadrature(self, pts_shapes) -> np.ndarray:
        """Values at quadrature points given (points, weights, shapes)."""
        _, _, shapes = pts_shapes
        nodal = self.values[self.mesh.cells]  # (nc, nloc)
        return nodal @ shapes.T  # (nc, nq)

    def __call__(self, x) -> np.ndarray:
        if self.mesh.dim != 1:
            raise NotImplementedError("pointwise evaluation only in 1-D")
        return np.interp(np.asarray(x, dtype=float), self.mesh.vertices, self.values)


def load_vector(ops: OperatorSet, v: FieldLike, npts: int | None = None) -> np.ndarray:
    """b_i = int v phi_i dx by Gauss quadrature."""
    if npts is None:
        npts = points_for_field(ops.mesh, v)
    pts, wts, shapes = ops.quadrature(npts)
    vals = v(pts)  # (nc, nq)
    contrib = np.einsum("cq,cq,ql->cl", wts, vals, shapes)
    b = np.zeros(ops.n_dofs)
    np.add.at(b, ops.mesh.cells, contrib)
    return b


def project_l2(v: FieldLike, ops: OperatorSet, npts: int | None = None) -> FemFunction:
    """Orthogonal L2 projection onto the P1 space: solve M c = b."""
    b = load_vector(ops, v, npts)
    return FemFunction(ops.mesh, ops.solve_M(b))


def ritz_project(v: SpectralField, ops: OperatorSet) -> FemFunction:
    """Energy projection: <grad(R_h v - v), grad w_h> = 0, mean preserved.

    The gradient load <grad v, grad phi_i> equals the load vector of A v
    after integration by parts (no boundary term under Neumann data).
    """
    lam = v.basis.eigenvalues
    Av = SpectralField(v.basis, lam * v.coeffs)
    g = load_vector(ops, Av, points_for_field(ops.mesh, v))
    c = ops.solve_K_mean(g, v.mean)
    return FemFunction(ops.mesh, c)


def apply_Ah(v: FemFunction, ops: OperatorSet) -> FemFunction:
    """A_h v, nodal coefficients M^{-1} K v."""
    return FemFunction(ops.mesh, ops.solve_M(ops.K @ v.values))


@dataclass(frozen=True)
class DiscreteSpectrum:
    """Full generalized spectrum K phi = lambda M phi, M-orthonormal."""

    ops: OperatorSet
    eigenvalues: np.ndarray  # ascending, eigenvalues of A_h
    vectors: np.ndarray  # columns phi_{h,j}, phi_i^T M phi_j = delta_ij

    def coefficients(self, values: np.ndarray) -> np.ndarray:
        """M-inner products <v, phi_{h,j}>_M for a nodal vector."""
        return self.vectors.T @ (self.ops.M @ values)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        return self.vectors @ coeffs


def discrete_spectrum(ops: OperatorSet) -> DiscreteSpectrum:
    """Dense generalized eigensolve; refuses beyond the desk-scale limit."""
    n = ops.n_dofs
    if n > DENSE_EIG_LIMIT:
        raise ValueError(
            f"{n} dofs exceeds the dense eigensolve limit {DENSE_EIG_LIMIT}; "
            "use the iterative norm path"
        )
    lam, vecs = scipy.linalg.eigh(ops.K.toarray(), ops.M.toarray())
    lam = np.maximum(lam, 0.0)
    lam[0] = 0.0
    return DiscreteSpectrum(ops, lam, vecs)


def discrete_norm_alpha(
    v: FemFunction, alpha: float, spectrum: DiscreteSpectrum
) -> float:
    """|v|_{alpha,h} = (sum_{j>=1} lambda_{h,j}^alpha <v,phi_{h,j}>_M^2)^(1/2)."""
    c = spectrum.coefficients(v.values)
    if alpha < 0 and abs(c[0]) > 1e-10 * max(1.0, np.abs(c).max()):
        raise ValueError("negative-order norm requires a zero-mean function")
    lam = spectrum.eigenvalues[1:]
    return float(np.sqrt(np.sum(lam**alpha * c[1:] ** 2)))


def minus_one_norm_cg(v: FemFunction, ops: OperatorSet, rtol: float = 1e-12) -> float:
    """|v|_{-1,h} without the dense spectrum: solve K y = M v on zero-mean.

    |v|_{-1,h}^2 = <A_h^{-1} v, v>_M = y^T M v with y the mean-free solution.
    """
    b = ops.M @ v.values
    y = ops.solve_K_mean(b, 0.0)  # mean constraint handles the kernel
    return float(np.sqrt(max(0.0, y @ b)))


def l2_error(v: FieldLike, u: FemFunction, ops: OperatorSet, npts: int | None = None) -> float:
    """||v - u||_{L2} by quadrature of the pointwise difference."""
    if npts is None:
        npts = points_for_field(ops.mesh, v, base=4)
    pts_wts_shapes = ops.quadrature(npts)
    pts, wts, _ = pts_wts_shapes
    diff = v(pts) - u.at_quadrature(pts_wts_shapes)
    return float(np.sqrt(np.sum(wts * diff**2)))


def prolong(u: FemFunction, fine_mesh: Mesh) -> FemFunction:
    """Exact P1 prolongation onto a nested refinement (1-D uniform meshes)."""
    if u.mesh.dim != 1 or fine_mesh.dim != 1:
        raise NotImplementedError("prolongation implemented for 1-D meshes")
    return FemFunction(fine_mesh, u(fine_mesh.vertices))
