"""Meshes, P1 assembly, projectors, and the discrete spectrum."""

import numpy as np
import pytest

from chc.fem import (
    DENSE_EIG_LIMIT,
    FemFunction,
    apply_Ah,
    assemble,
    build_interval_mesh,
    build_rectangle_mesh,
    discrete_norm_alpha,
    discrete_spectrum,
    l2_error,
    minus_one_norm,
    project_l2,
    prolong,
    ritz_project,
)
from chc.spectral import DomainSpec, SpectralField, build_basis, norm_alpha

PI = np.pi


def slope_of(hs, errs):
    return np.polyfit(np.log(hs), np.log(errs), 1)[0]


class TestMeshes:
    def test_interval_basic(self):
        m = build_interval_mesh(1.0, 4)
        assert np.allclose(m.vertices, [0, 0.25, 0.5, 0.75, 1.0])
        assert m.h == pytest.approx(0.25)

    def test_interval_scaled(self):
        assert build_interval_mesh(2.0, 2).h == pytest.approx(1.0)

    def test_interval_too_coarse(self):
        with pytest.raises(ValueError):
            build_interval_mesh(1.0, 1)

    def test_rectangle_counts(self):
        m = build_rectangle_mesh(1.0, 1.0, 2, 2)
        assert m.cells.shape[0] == 8
        assert m.n_vertices == 9
        assert m.h == pytest.approx(np.sqrt(2.0) / 2.0)

    def test_rectangle_too_coarse(self):
        with pytest.raises(ValueError):
            build_rectangle_mesh(1.0, 1.0, 1, 2)


class TestAssembly:
    def test_stiffness_n2(self):
        ops = assemble(build_interval_mesh(1.0, 2))
        expect = 2.0 * np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
        assert np.allclose(ops.K.toarray(), expect, atol=1e-14)

    def test_mass_partition_of_unity(self):
        ops = assemble(build_interval_mesh(1.0, 2))
        assert ops.M.toarray().sum() == pytest.approx(1.0)

    def test_constants_in_kernel(self):
        for ops in (
            assemble(build_interval_mesh(1.0, 7)),
            assemble(build_rectangle_mesh(1.0, 0.8, 3, 4)),
        ):
            assert np.max(np.abs(ops.K @ np.ones(ops.n_dofs))) < 1e-12

    def test_symmetry_and_positivity(self):
        ops = assemble(build_rectangle_mesh(1.0, 1.0, 3, 3))
        M, K = ops.M.toarray(), ops.K.toarray()
        assert np.max(np.abs(M - M.T)) < 1e-12 * np.max(np.abs(M))
        assert np.max(np.abs(K - K.T)) < 1e-12 * np.max(np.abs(K))
        assert np.min(np.linalg.eigvalsh(M)) > 0

    def test_rectangle_mass_total(self):
        ops = assemble(build_rectangle_mesh(2.0, 0.5, 4, 3))
        assert ops.M.toarray().sum() == pytest.approx(1.0)


class TestProjectors:
    def setup_method(self):
        self.domain = DomainSpec.interval(1.0)
        self.basis = build_basis(self.domain, 8)

    def test_project_constant(self):
        ops = assemble(build_interval_mesh(1.0, 8))
        got = project_l2(lambda x: 3.0 * np.ones_like(x), ops)
        assert np.allclose(got.values, 3.0, atol=1e-12)

    def test_project_idempotent_on_S_h(self):
        mesh = build_interval_mesh(1.0, 8)
        ops = assemble(mesh)
        v = FemFunction(mesh, np.sin(3 * mesh.vertices))
        # the P1 function itself, evaluated by linear interpolation of its nodal values
        again = project_l2(lambda x: np.interp(x, mesh.vertices, v.values), ops)
        assert np.max(np.abs(again.values - v.values)) < 1e-12

    def test_project_rate_two(self):
        v = SpectralField.single_mode(self.basis, 1)
        errs = []
        for n in (16, 32, 64, 128):
            ops = assemble(build_interval_mesh(1.0, n))
            errs.append(l2_error(v, project_l2(v, ops), ops))
        ratios = np.array(errs[:-1]) / np.array(errs[1:])
        assert np.all(np.abs(ratios - 4.0) < 0.2)  # halving h quarters the error

    def test_ritz_constant_exact(self):
        ops = assemble(build_interval_mesh(1.0, 8))
        v = SpectralField.single_mode(self.basis, 0, 2.0)  # constant field
        got = ritz_project(v, ops)
        assert np.allclose(got.values, 2.0, atol=1e-12)

    def test_ritz_rate_two(self):
        v = SpectralField.single_mode(self.basis, 1)
        hs, errs = [], []
        for n in (16, 32, 64, 128):
            ops = assemble(build_interval_mesh(1.0, n))
            errs.append(l2_error(v, ritz_project(v, ops), ops))
            hs.append(1.0 / n)
        assert 1.9 <= slope_of(hs, errs) <= 2.1

    def test_ritz_galerkin_orthogonality(self):
        ops = assemble(build_interval_mesh(1.0, 32))
        v = SpectralField.single_mode(self.basis, 2)
        rh = ritz_project(v, ops)
        # <grad(R_h v - v), grad hat_i> = K rh - g must vanish for every hat
        from chc.fem import load_vector

        lam2 = self.basis.eigenvalues[2]
        g = load_vector(ops, SpectralField.single_mode(self.basis, 2, lam2))
        assert np.max(np.abs(ops.K @ rh.values - g)) < 1e-10


class TestDiscreteLaplacian:
    def setup_method(self):
        self.ops = assemble(build_interval_mesh(1.0, 64))
        self.spec = discrete_spectrum(self.ops)
        self.basis = build_basis(DomainSpec.interval(1.0), 8)

    def test_constant_maps_to_zero(self):
        v = FemFunction(self.ops.mesh, np.full(self.ops.n_dofs, 2.5))
        assert np.max(np.abs(apply_Ah(v, self.ops).values)) < 1e-12

    def test_eigenvector_scaling(self):
        j = 3
        v = FemFunction(self.ops.mesh, self.spec.vectors[:, j])
        got = apply_Ah(v, self.ops).values
        assert np.max(np.abs(got - self.spec.eigenvalues[j] * v.values)) < 1e-9

    def test_apply_on_projected_cosine(self):
        v1 = project_l2(SpectralField.single_mode(self.basis, 1), self.ops)
        got = apply_Ah(v1, self.ops)
        rel = np.max(np.abs(got.values - PI**2 * v1.values)) / PI**2
        assert rel < 5e-3  # O(h^2) at n=64

    def test_spectrum_structure(self):
        lam = self.spec.eigenvalues
        assert lam[0] == 0.0
        assert np.sum(lam < 1e-10) == 1
        vec0 = self.spec.vectors[:, 0]
        assert np.max(np.abs(vec0 - vec0[0])) < 1e-9  # constant eigenvector
        G = self.spec.vectors.T @ (self.ops.M @ self.spec.vectors)
        assert np.max(np.abs(G - np.eye(len(lam)))) < 1e-9

    def test_lambda1_rate_two(self):
        hs, errs = [], []
        for n in (8, 16, 32, 64):
            spec = discrete_spectrum(assemble(build_interval_mesh(1.0, n)))
            errs.append(abs(spec.eigenvalues[1] - PI**2))
            hs.append(1.0 / n)
        assert 1.9 <= slope_of(hs, errs) <= 2.1

    def test_minmax_lower_bound(self):
        # discrete eigenvalues dominate the exact ones for resolved modes
        lam_h = self.spec.eigenvalues
        n_check = len(lam_h) // 4
        exact = np.array([(j * PI) ** 2 for j in range(n_check)])
        assert np.all(lam_h[:n_check] >= exact - 1e-9)

    def test_dense_limit_refused(self):
        ops = assemble(build_interval_mesh(1.0, DENSE_EIG_LIMIT + 10))
        with pytest.raises(ValueError):
            discrete_spectrum(ops)


class TestDiscreteNorms:
    def setup_method(self):
        self.ops = assemble(build_interval_mesh(1.0, 32))
        self.spec = discrete_spectrum(self.ops)
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(self.ops.n_dofs)
        vals -= self.ops.mean(vals)  # zero-mean field for negative orders
        self.v = FemFunction(self.ops.mesh, vals)

    def test_alpha_zero_is_l2(self):
        got = discrete_norm_alpha(self.v, 0.0, self.spec)
        expect = np.sqrt(self.v.values @ (self.ops.M @ self.v.values))
        assert got == pytest.approx(expect, abs=1e-9)

    def test_alpha_one_is_h1(self):
        got = discrete_norm_alpha(self.v, 1.0, self.spec)
        expect = np.sqrt(self.v.values @ (self.ops.K @ self.v.values))
        assert got == pytest.approx(expect, abs=1e-9)

    def test_exponent_algebra(self):
        Av = apply_Ah(self.v, self.ops)
        got = discrete_norm_alpha(Av, -1.0, self.spec)
        expect = discrete_norm_alpha(self.v, 1.0, self.spec)
        assert got == pytest.approx(expect, abs=1e-8)

    def test_negative_alpha_needs_zero_mean(self):
        w = FemFunction(self.ops.mesh, self.v.values + 1.0)
        with pytest.raises(ValueError):
            discrete_norm_alpha(w, -1.0, self.spec)

    def test_minus_one_norm_matches(self):
        got = minus_one_norm(self.v, self.ops)
        expect = discrete_norm_alpha(self.v, -1.0, self.spec)
        assert got == pytest.approx(expect, rel=1e-8)


def h1_ratio(v, ops):
    """|P_h v|_1 / |v|_1 for a zero-mean spectral field v."""
    ph = project_l2(v, ops).values
    return np.sqrt(ph @ (ops.K @ ph)) / norm_alpha(v, 1.0)


class TestH1Bound:
    def test_phi1_bounded(self):
        # |P_h phi_1|_1 exceeds |phi_1|_1 by O(h^2); bounded and shrinking
        basis = build_basis(DomainSpec.interval(1.0), 16)
        ratios = []
        for n in (16, 64):
            ops = assemble(build_interval_mesh(1.0, n))
            ratios.append(h1_ratio(SpectralField.single_mode(basis, 1), ops))
        assert ratios[0] <= 1.01
        assert ratios[1] - 1.0 <= (ratios[0] - 1.0) / 8.0  # ~h^2 decay

    def test_multimode_bounded_by_two(self):
        basis = build_basis(DomainSpec.interval(1.0), 16)
        c = np.zeros(16)
        for j in range(1, 11):
            c[j] = 1.0 / j
        ops = assemble(build_interval_mesh(1.0, 64))
        assert h1_ratio(SpectralField(basis, c), ops) <= 2.0


@pytest.mark.parametrize(
    "coarse, fine",
    [
        (build_interval_mesh(1.0, 8), build_interval_mesh(1.0, 32)),
        *[(build_rectangle_mesh(1.0, 1.0, n, n), build_rectangle_mesh(1.0, 1.0, 2 * n, 2 * n))
          for n in (2, 3, 4)],
    ],
    ids=["interval-8-32", "square-2-4", "square-3-6", "square-4-8"],
)
def test_prolong_exact_on_nested(coarse, fine):
    P = prolong(coarse, fine)
    assert P.shape == (fine.n_vertices, coarse.n_vertices)
    np.testing.assert_allclose(P.sum(axis=1), 1.0, rtol=0, atol=1e-14)
    cpts = coarse.vertices.reshape(coarse.n_vertices, -1)
    fpts = fine.vertices.reshape(fine.n_vertices, -1)
    # a linear function is a P1 function on every mesh, so P reproduces it
    slope = np.array([1.7, -0.9])[: coarse.dim]
    np.testing.assert_allclose(P @ (0.3 + cpts @ slope), 0.3 + fpts @ slope, rtol=0, atol=1e-14)
    # a random coarse P1 function, evaluated at each fine vertex in a coarse
    # cell that holds it, by barycentric coordinates computed here
    u = np.random.default_rng(0).standard_normal(coarse.n_vertices)
    expected = np.full(fine.n_vertices, np.nan)
    for cell in coarse.cells:
        p = cpts[cell]
        lam = np.linalg.solve((p[1:] - p[0]).T, (fpts - p[0]).T).T
        bary = np.column_stack([1.0 - lam.sum(axis=1), lam])
        inside = bary.min(axis=1) >= -1e-12
        expected[inside] = bary[inside] @ u[cell]
    assert not np.isnan(expected).any()
    np.testing.assert_allclose(P @ u, expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize(
    "coarse, fine",
    [
        (build_interval_mesh(1.0, 3), build_interval_mesh(1.0, 4)),
        (build_rectangle_mesh(1.0, 1.0, 3, 3), build_rectangle_mesh(1.0, 1.0, 4, 4)),
    ],
    ids=["interval-3-4", "square-3-4"],
)
def test_prolong_refuses_meshes_that_do_not_nest(coarse, fine):
    with pytest.raises(ValueError, match="does not nest"):
        prolong(coarse, fine)
