"""Q-Wiener sampling: laws, coupling, projection, and the joint pair."""

import numpy as np
import pytest

from chc.fem import assemble, build_interval_mesh, build_rectangle_mesh, project_l2
from chc.noise import (
    NoiseSpec,
    brute_force_pair_moments,
    convolution_pair_from_normals,
    field_coefficients,
    project_increment,
    sample_increments,
)
from chc.spectral import DomainSpec, SpectralField, build_basis

PI = np.pi


@pytest.fixture(scope="module")
def basis():
    return build_basis(DomainSpec.interval(1.0), 512)


class TestNoiseSpec:
    def test_q_weights(self, basis):
        spec = NoiseSpec(r=2.0, sigma=1.0, J=4)
        q = spec.q(basis)
        assert q[0] == 0.0
        assert q[1] == pytest.approx(PI**-4)
        assert q[2] == pytest.approx((2 * PI) ** -4)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(r=0.0, sigma=1.0, J=4)
        with pytest.raises(ValueError):
            NoiseSpec(r=2.0, sigma=-1.0, J=4)
        with pytest.raises(ValueError):
            NoiseSpec(r=2.0, sigma=1.0, J=0)


class TestIncrements:
    def test_variance_law(self):
        # 1e5 samples of a single step: per-mode variance k within 4 SE,
        # off-diagonal covariance consistent with independence
        spec = NoiseSpec(r=2.0, sigma=0.7, J=5, seed=11)
        basis = build_basis(DomainSpec.interval(1.0), 5)
        T, N = 0.02, 1
        draws = np.stack(
            [
                field_coefficients(spec, basis, sample_increments(spec, T, N, sample_index=m).dbeta_fine)[:, 0]
                for m in range(10**5)
            ]
        )
        k = T / N
        q = spec.q(basis)
        cov = draws.T @ draws / len(draws)
        for j in range(1, 5):
            var = cov[j, j]
            se = np.sqrt(2.0 / len(draws)) * k * spec.sigma**2 * q[j]  # chi^2 SE
            assert abs(var - k * spec.sigma**2 * q[j]) <= 4 * se
        offdiag = cov - np.diag(np.diag(cov))
        scale = k * spec.sigma**2 * np.sqrt(np.outer(q, q) + 1e-300)
        assert np.max(np.abs(offdiag[1:, 1:]) / scale[1:, 1:]) <= 4 * len(draws) ** -0.5

    def test_mode_zero_is_zero(self):
        spec = NoiseSpec(r=2.0, sigma=1.0, J=8)
        inc = sample_increments(spec, 1.0, 16)
        assert np.all(inc.dbeta_fine[0] == 0.0)

    def test_coarse_equals_sum_of_fine(self):
        spec = NoiseSpec(r=2.0, sigma=1.0, J=6)
        inc = sample_increments(spec, 1.0, 16, factors=(1, 2, 4))
        c2 = inc.increments(2)
        assert np.array_equal(c2, inc.dbeta_fine[:, 0::2] + inc.dbeta_fine[:, 1::2])
        c4 = inc.increments(4)
        J, n = inc.dbeta_fine.shape
        assert np.array_equal(c4, inc.dbeta_fine.reshape(J, n // 4, 4).sum(axis=2))
        # iterated pairwise sums differ only by fp association order
        assert np.allclose(c4, c2[:, 0::2] + c2[:, 1::2], atol=1e-15)

    def test_bitwise_reproducibility(self):
        spec = NoiseSpec(r=2.0, sigma=1.0, J=6, seed=99)
        a = sample_increments(spec, 1.0, 8, sample_index=3)
        b = sample_increments(spec, 1.0, 8, sample_index=3)
        assert a.checksum() == b.checksum()
        assert np.array_equal(a.dbeta_fine, b.dbeta_fine)
        # different samples differ
        c = sample_increments(spec, 1.0, 8, sample_index=4)
        assert c.checksum() != a.checksum()

    def test_order_independence(self):
        # sampling index 5 first or last gives the same draws
        spec = NoiseSpec(r=2.0, sigma=1.0, J=4, seed=1)
        direct = sample_increments(spec, 1.0, 4, sample_index=5)
        for m in (0, 2, 7):
            sample_increments(spec, 1.0, 4, sample_index=m)
        again = sample_increments(spec, 1.0, 4, sample_index=5)
        assert np.array_equal(direct.dbeta_fine, again.dbeta_fine)

    def test_sigma_zero_increment_field(self):
        spec = NoiseSpec(r=2.0, sigma=0.0, J=4)
        basis = build_basis(DomainSpec.interval(1.0), 4)
        inc = sample_increments(spec, 1.0, 4)
        coefs = field_coefficients(spec, basis, inc.dbeta_fine)
        assert np.all(coefs == 0.0)

    def test_factor_mismatch(self):
        spec = NoiseSpec(r=2.0, sigma=1.0, J=4)
        with pytest.raises(ValueError):
            sample_increments(spec, 1.0, 10, factors=(3,))
        with pytest.raises(ValueError):
            sample_increments(spec, 1.0, 10).increments(3)


class TestProjection:
    def setup_method(self):
        self.basis = build_basis(DomainSpec.interval(1.0), 8)
        self.ops = assemble(build_interval_mesh(1.0, 32))

    def test_zero_increment(self):
        z = SpectralField(self.basis, np.zeros(8))
        assert np.all(project_increment(z, self.ops).values == 0.0)

    def test_linearity(self):
        v = SpectralField.single_mode(self.basis, 1)
        a = project_increment(SpectralField(self.basis, 2.5 * v.coeffs), self.ops)
        b = project_increment(v, self.ops)
        assert np.max(np.abs(a.values - 2.5 * b.values)) < 1e-12

    @pytest.mark.parametrize(
        "domain, mesh",
        [
            (DomainSpec.interval(1.0), build_interval_mesh(1.0, 32)),
            (DomainSpec.rectangle(1.0, 0.5), build_rectangle_mesh(1.0, 0.5, 8, 4)),
        ],
    )
    def test_matches_quadrature_projection(self, domain, mesh):
        # M^{-1} B c through the cached mode loads against project_l2 of the field
        basis = build_basis(domain, 16)
        spec = NoiseSpec(r=2.0, sigma=1.0, J=16, seed=3)
        ops = assemble(mesh)
        coefs = field_coefficients(spec, basis, sample_increments(spec, 0.1, 4).dbeta_fine)
        for c in coefs.T:
            v = SpectralField(basis, c)
            ref = project_l2(v, ops).values
            got = project_increment(v, ops).values
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_projected_mean_zero(self):
        spec = NoiseSpec(r=2.0, sigma=1.0, J=8, seed=5)
        inc = sample_increments(spec, 0.1, 1)
        coefs = field_coefficients(spec, self.basis, inc.dbeta_fine)[:, 0]
        f = project_increment(SpectralField(self.basis, coefs), self.ops)
        assert abs(self.ops.mean(f.values)) < 1e-10


class TestConvolutionPair:
    def test_lambda_zero_identity(self):
        rng = np.random.default_rng(0)
        z1, z2 = rng.standard_normal(100), rng.standard_normal(100)
        db, I = convolution_pair_from_normals(0.0, 0.5, z1, z2)
        assert np.array_equal(db, I)

    def test_large_mu_limits(self):
        lam, k = 50.0, 10.0  # mu = lam^2 k huge
        z = np.ones(1)
        db, I = convolution_pair_from_normals(lam, k, z, z)
        # Var(I) -> 1/(2 lam^2), Cov -> 1/lam^2
        var_I = (1 - np.exp(-2 * lam**2 * k)) / (2 * lam**2)
        assert var_I == pytest.approx(1 / (2 * lam**2))
        cov = (1 - np.exp(-(lam**2) * k)) / lam**2
        assert cov == pytest.approx(1 / lam**2)

    def test_taylor_switch_continuity(self):
        k = 1.0
        for lam2 in (0.9e-6, 1.1e-6):
            lam = np.sqrt(lam2)
            z1, z2 = np.array([1.0]), np.array([0.5])
            db, I = convolution_pair_from_normals(lam, k, z1, z2)
            # near lambda = 0 the convolution degenerates to the increment
            assert I[0] == pytest.approx(db[0], rel=1e-5)

    def test_sampled_moments_match_law(self):
        lam, k = PI**2, 1e-3
        rng = np.random.default_rng(42)
        z1, z2 = rng.standard_normal(10**5), rng.standard_normal(10**5)
        db, I = convolution_pair_from_normals(lam, k, z1, z2)
        mu = lam**2 * k
        var_I = (1 - np.exp(-2 * mu)) / (2 * lam**2)
        cov = (1 - np.exp(-mu)) / lam**2
        n = len(db)
        for got, expect in (
            ((db**2).mean(), k),
            ((I**2).mean(), var_I),
            ((db * I).mean(), cov),
        ):
            se = np.std(db * I if expect is cov else db**2, ddof=1) / np.sqrt(n)
            # conservative: use 4x the largest plausible SE of a 2nd moment
            assert abs(got - expect) <= 4 * max(se, expect * np.sqrt(2.0 / n))

    def test_brute_force_oracle_small(self):
        # cheap version of the substep oracle; the full 1e6-substep run is
        # part of the acceptance suite
        lam, k = PI**2, 1e-3
        est = brute_force_pair_moments(lam, k, n_sub=20000, M=2000, seed=3)
        mu = lam**2 * k
        exact = {
            "var_dbeta": k,
            "var_I": (1 - np.exp(-2 * mu)) / (2 * lam**2),
            "cov": (1 - np.exp(-mu)) / lam**2,
        }
        for key, (val, se) in est.items():
            assert abs(val - exact[key]) <= 4 * se
