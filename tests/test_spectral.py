"""Exact eigenstructure, fractional norms, and semigroup oracle checks."""

import numpy as np
import pytest

from chc.spectral import (
    DomainSpec,
    SpectralField,
    build_basis,
    eval_phi,
    norm_alpha,
    semigroup_apply,
)

PI = np.pi


def gauss_1d(L, npts=200):
    x, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * L * (x + 1.0), 0.5 * L * w


class TestBuildBasis:
    def test_interval_eigenvalues(self):
        b = build_basis(DomainSpec.interval(1.0), 3)
        assert np.allclose(b.eigenvalues, [0.0, PI**2, 4 * PI**2], atol=1e-12)

    def test_interval_scaled(self):
        b = build_basis(DomainSpec.interval(2.0), 2)
        assert b.eigenvalues[1] == pytest.approx((PI / 2) ** 2)

    def test_rectangle_eigenvalues_and_tiebreak(self):
        b = build_basis(DomainSpec.rectangle(1.0, 1.0), 4)
        assert np.allclose(b.eigenvalues, [0.0, PI**2, PI**2, 2 * PI**2])
        # equal eigenvalues are ordered by ascending lexicographic index tuple
        assert b.indices == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_nondecreasing(self):
        b = build_basis(DomainSpec.rectangle(1.0, 2.0), 30)
        assert np.all(np.diff(b.eigenvalues) >= -1e-14)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            build_basis(DomainSpec.interval(1.0), 0)
        with pytest.raises(ValueError):
            DomainSpec.interval(-1.0)
        with pytest.raises(ValueError):
            DomainSpec("triangle", (1.0,))


class TestEvalPhi:
    def test_constant_mode(self):
        b = build_basis(DomainSpec.interval(2.0), 2)
        assert eval_phi(b, 0, np.array([0.3, 1.7])) == pytest.approx(1 / np.sqrt(2.0))

    def test_phi1_values(self):
        b = build_basis(DomainSpec.interval(1.0), 2)
        assert eval_phi(b, 1, 0.0) == pytest.approx(np.sqrt(2.0))
        assert eval_phi(b, 1, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_index_out_of_range(self):
        b = build_basis(DomainSpec.interval(1.0), 2)
        with pytest.raises(IndexError):
            eval_phi(b, 2, 0.0)

    def test_orthonormality_interval(self):
        b = build_basis(DomainSpec.interval(1.0), 10)
        x, w = gauss_1d(1.0)
        vals = np.stack([eval_phi(b, j, x) for j in range(b.J)])
        gram = (vals * w) @ vals.T
        assert np.max(np.abs(gram - np.eye(b.J))) < 1e-10

    def test_orthonormality_rectangle(self):
        b = build_basis(DomainSpec.rectangle(1.0, 0.7), 8)
        x, wx = gauss_1d(1.0, 120)
        y, wy = gauss_1d(0.7, 120)
        X, Y = np.meshgrid(x, y, indexing="ij")
        pts = np.stack([X, Y], axis=-1)
        W = wx[:, None] * wy[None, :]
        vals = np.stack([eval_phi(b, j, pts) for j in range(b.J)])
        gram = np.einsum("jxy,xy,lxy->jl", vals, W, vals)
        assert np.max(np.abs(gram - np.eye(b.J))) < 1e-10


class TestNormAlpha:
    def setup_method(self):
        self.basis = build_basis(DomainSpec.interval(1.0), 4)

    def test_phi1_h1(self):
        v = SpectralField.single_mode(self.basis, 1)
        assert norm_alpha(v, 1.0) == pytest.approx(PI)

    def test_constant_mode_norms(self):
        v = SpectralField.single_mode(self.basis, 0)
        assert norm_alpha(v, 0.0) == 0.0
        assert norm_alpha(v, 0.0, dotted=False) == pytest.approx(1.0)

    def test_negative_order(self):
        c = np.zeros(4)
        c[1] = c[2] = 1.0
        v = SpectralField(self.basis, c)
        expect = np.sqrt(PI**-2 + (2 * PI) ** -2)
        assert norm_alpha(v, -1.0) == pytest.approx(expect)

    def test_negative_order_needs_zero_mean(self):
        v = SpectralField.single_mode(self.basis, 0)
        with pytest.raises(ValueError):
            norm_alpha(v, -1.0)

    def test_scaling_homogeneity(self):
        c = np.array([0.0, 0.3, -0.2, 0.1])
        v = SpectralField(self.basis, c)
        for alpha in (-1.0, 0.0, 1.0, 2.0):
            assert norm_alpha(v.scaled(-3.0), alpha) == pytest.approx(
                3.0 * norm_alpha(v, alpha)
            )


class TestSemigroup:
    def setup_method(self):
        self.basis = build_basis(DomainSpec.interval(1.0), 4)

    def test_identity_at_zero(self):
        v = SpectralField(self.basis, np.array([1.0, 2.0, 3.0, 4.0]))
        assert np.array_equal(semigroup_apply(v, 0.0).coeffs, v.coeffs)

    def test_constant_mode_fixed(self):
        v = SpectralField.single_mode(self.basis, 0, 0.7)
        assert semigroup_apply(v, 5.0).coeffs[0] == pytest.approx(0.7)

    def test_single_mode_decay_against_integrator(self):
        # independent oracle: integrate u' = -lambda^2 u with RK45
        from scipy.integrate import solve_ivp

        lam = PI**2
        sol = solve_ivp(
            lambda t, u: -(lam**2) * u, (0.0, 1e-3), [1.0], rtol=1e-12, atol=1e-14
        )
        v = SpectralField.single_mode(self.basis, 1)
        got = semigroup_apply(v, 1e-3).coeffs[1]
        assert got == pytest.approx(sol.y[0, -1], rel=1e-9)
        assert got == pytest.approx(0.9071, abs=5e-4)

    def test_semigroup_property(self):
        v = SpectralField(self.basis, np.array([0.5, 1.0, -2.0, 0.25]))
        a = semigroup_apply(semigroup_apply(v, 1e-4), 3e-4)
        b = semigroup_apply(v, 4e-4)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12

    def test_negative_time_rejected(self):
        v = SpectralField.single_mode(self.basis, 1)
        with pytest.raises(ValueError):
            semigroup_apply(v, -1.0)


def test_field_mean():
    b = build_basis(DomainSpec.interval(4.0), 2)
    v = SpectralField(b, np.array([3.0, 1.0]))
    assert v.mean == pytest.approx(3.0 / 2.0)  # c_0 / sqrt(|D|)


def test_field_rejects_nonfinite():
    b = build_basis(DomainSpec.interval(1.0), 2)
    with pytest.raises(ValueError):
        SpectralField(b, np.array([1.0, np.inf]))
