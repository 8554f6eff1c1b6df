"""The oracle against known integrals and a dense eigensolve of its own matrices."""

import math

import numpy as np
import pytest
import scipy.linalg

import oracle


def grid_triangulation(Lx, Ly, nx, ny):
    """Structured mesh of [0,Lx]x[0,Ly], every square cut along the same diagonal."""
    xs, ys = np.meshgrid(np.linspace(0, Lx, nx + 1), np.linspace(0, Ly, ny + 1), indexing="ij")
    verts = np.column_stack([xs.ravel(), ys.ravel()])
    vid = lambda i, j: i * (ny + 1) + j  # noqa: E731
    cells = []
    for i in range(nx):
        for j in range(ny):
            cells += [(vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)),
                      (vid(i, j), vid(i + 1, j + 1), vid(i, j + 1))]
    return verts, np.array(cells)


@pytest.mark.parametrize("npts", [1, 2, 3, 4, 5])
def test_gauss_rule_exact_to_degree_2n_minus_1_only(npts):
    x, w = oracle.gauss_rule(npts)
    for p in range(2 * npts):
        assert np.sum(w * x**p) == pytest.approx(1.0 / (p + 1), abs=1e-14)
    assert abs(np.sum(w * x ** (2 * npts)) - 1.0 / (2 * npts + 1)) > 1e-6


def test_triangle_rule_exact_to_degree_4_only():
    bary, w = oracle.triangle_rule()
    x, y = bary[:, 1], bary[:, 2]
    for i in range(5):
        for j in range(5 - i):
            exact = math.factorial(i) * math.factorial(j) / math.factorial(i + j + 2)
            assert 0.5 * np.sum(w * x**i * y**j) == pytest.approx(exact, abs=1e-15)
    assert abs(0.5 * np.sum(w * x**6) - math.factorial(6) / math.factorial(8)) > 1e-6


@pytest.mark.parametrize("dim", [1, 2])
def test_matrices_integrate_p1_functions_exactly(dim):
    if dim == 1:
        L = 2.0
        verts, cells = oracle.interval_mesh(L, 7)
        x, area, Lx = verts, L, L
    else:
        Lx, Ly = 2.0, 0.5
        verts, cells = grid_triangulation(Lx, Ly, 5, 3)
        x, area = verts[:, 0], Lx * Ly
    M, K = oracle.mass_stiffness(verts, cells)
    one = np.ones(len(verts))
    assert one @ M @ one == pytest.approx(area, rel=1e-14)
    assert np.abs(K @ one).max() < 1e-13
    assert x @ K @ x == pytest.approx(area, rel=1e-13)  # int |grad x|^2
    assert x @ M @ x == pytest.approx(area * Lx**2 / 3.0, rel=1e-13)  # int x^2


def test_mode_loads_match_fine_quadrature():
    L, n, J = 1.5, 12, 20
    x, w = oracle.gauss_rule(20)
    verts, cells = oracle.interval_mesh(L, n)
    h = L / n
    pts = verts[cells[:, 0]][:, None] + h * x[None, :]
    shapes = np.column_stack([1.0 - x, x])
    ref = np.zeros((n + 1, J))
    for m in range(J):
        phi = (math.sqrt(2.0 / L) if m else 1.0 / math.sqrt(L)) * np.cos(m * math.pi * pts / L)
        np.add.at(ref[:, m], cells, np.einsum("cq,q,ql->cl", phi, h * w, shapes))
    assert np.abs(oracle.mode_loads(L, n, J) - ref).max() < 1e-14


@pytest.mark.parametrize("n", [8, 64])
def test_eigenvalue_formula_matches_dense_eigensolve(n):
    L = 1.0
    M, K = oracle.mass_stiffness(*oracle.interval_mesh(L, n))
    lam = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True)
    exact = oracle.p1_neumann_eigenvalues(L, n)
    assert np.abs(np.sort(exact) - lam).max() <= 1e-13 * exact.max()


def test_gauss_error_bound_holds_for_every_mode():
    L, n, npts = 1.0, 16, 3
    exact = oracle.mode_loads(L, n, 16)
    x, w = oracle.gauss_rule(npts)
    verts, cells = oracle.interval_mesh(L, n)
    h = L / n
    pts = verts[cells[:, 0]][:, None] + h * x[None, :]
    shapes = np.column_stack([1.0 - x, x])
    for m in range(1, 16):
        phi = math.sqrt(2.0 / L) * np.cos(m * math.pi * pts / L)
        approx = np.zeros(n + 1)
        np.add.at(approx, cells, np.einsum("cq,q,ql->cl", phi, h * w, shapes))
        bound = 2.0 * oracle.gauss_load_error_bound(L, n, m, npts)
        assert np.abs(approx - exact[:, m]).max() <= bound


def test_energy_of_constant_state():
    verts, cells = grid_triangulation(1.0, 2.0, 3, 4)
    M, _ = oracle.mass_stiffness(verts, cells)
    energy = oracle.Energy(verts, cells)
    s = 0.3
    X = np.full(len(verts), s)
    assert energy.integral_F(X) == pytest.approx(oracle.F(s) * 2.0, rel=1e-13)
    np.testing.assert_allclose(energy.load_f(X)[0], oracle.f(s) * (M @ np.ones(len(verts))),
                               rtol=1e-13)
