"""Q-Wiener increment sampling in the Laplacian eigenbasis.

The covariance is diagonal, q_j = lambda_j^{-r} for j >= 1 and q_0 = 0, so
every sampled field increment has zero spatial average.  Increments are
drawn at the finest time level and summed to coarser levels, which couples
all discretization levels of a study to one Brownian path.  Seeding is
counter-based (Philox keyed on base seed and sample index) so Monte-Carlo
results do not depend on worker scheduling.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .fem import FemFunction, OperatorSet
from .spectral import EigenBasis, SpectralField

__all__ = [
    "NoiseSpec",
    "WienerIncrements",
    "sample_increments",
    "project_increment",
    "convolution_pair_from_normals",
    "brute_force_pair_moments",
    "field_coefficients",
]

_TAYLOR_SWITCH = 1e-6


@dataclass(frozen=True)
class NoiseSpec:
    """Covariance decay exponent r, amplitude sigma, truncation J, seed."""

    r: float
    sigma: float
    J: int
    seed: int = 42

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("decay exponent r must be positive")
        if self.sigma < 0:
            raise ValueError("amplitude sigma must be nonnegative")
        if self.J < 1:
            raise ValueError("truncation J must be >= 1")

    def q(self, basis: EigenBasis) -> np.ndarray:
        """Per-mode covariance weights; the constant mode carries none."""
        if basis.J < self.J:
            raise ValueError("basis has fewer modes than the noise truncation")
        lam = basis.eigenvalues[: self.J]
        q = np.zeros(self.J)
        q[1:] = lam[1:] ** (-self.r)
        return q


@dataclass
class WienerIncrements:
    """Per-mode Brownian increments at a fine step, summable to coarse levels."""

    k_fine: float
    dbeta_fine: np.ndarray  # (J, N_fine); row 0 (constant mode) is zero

    @property
    def n_fine(self) -> int:
        return self.dbeta_fine.shape[1]

    def increments(self, factor: int = 1) -> np.ndarray:
        """Coarse increments: exact sums of the contained fine increments."""
        if factor == 1:
            return self.dbeta_fine
        if self.n_fine % factor != 0:
            raise ValueError(f"factor {factor} does not divide {self.n_fine}")
        J, n = self.dbeta_fine.shape
        return self.dbeta_fine.reshape(J, n // factor, factor).sum(axis=2)

    def checksum(self) -> str:
        """Digest of the fine draws, for cross-level coupling audits."""
        return hashlib.sha256(np.ascontiguousarray(self.dbeta_fine).tobytes()).hexdigest()


def _rng_for_sample(seed: int, sample_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, sample_index], dtype=np.uint64))
    )


def sample_increments(
    spec: NoiseSpec,
    T: float,
    N_fine: int,
    factors: tuple[int, ...] = (1,),
    sample_index: int = 0,
) -> WienerIncrements:
    """Draw per-mode increments Delta beta_j ~ N(0, k_fine), mode 0 zero."""
    k_fine = T / N_fine
    for f in factors:
        if N_fine % f != 0:
            raise ValueError(f"factor {f} does not divide N_fine={N_fine}")
    rng = _rng_for_sample(spec.seed, sample_index)
    dbeta = np.zeros((spec.J, N_fine))
    dbeta[1:] = np.sqrt(k_fine) * rng.standard_normal((spec.J - 1, N_fine))
    return WienerIncrements(k_fine, dbeta)


def field_coefficients(
    spec: NoiseSpec, basis: EigenBasis, dbeta: np.ndarray
) -> np.ndarray:
    """Spectral coefficients of Delta W = sigma sum_j sqrt(q_j) dbeta_j phi_j."""
    scale = spec.sigma * np.sqrt(spec.q(basis))
    return scale[:, None] * dbeta


def project_increment(dW: SpectralField, ops: OperatorSet) -> FemFunction:
    """P_h applied to a (truncated) spectral increment, through the cached mode loads."""
    return FemFunction(ops.mesh, ops.project_modes(dW.basis, dW.coeffs))


def convolution_pair_from_normals(lam, k: float, z1, z2):
    """Transform iid standard normals into the joint pair (dbeta, I).

    dbeta is the Brownian increment over a step of size k and
    I = int exp(-lam^2 (t_end - s)) dbeta(s) over the same step; the pair
    is jointly Gaussian with Var(dbeta) = k,
    Var(I) = (1 - exp(-2 mu)) / (2 lam^2) and
    Cov = (1 - exp(-mu)) / lam^2 where mu = lam^2 k.  For mu below 1e-6
    the variance ratios switch to 4th-order Taylor series in mu.
    """
    lam = np.asarray(lam, dtype=float)
    mu = lam**2 * k
    small = mu < _TAYLOR_SWITCH
    mu_s = np.where(small, 0.0, mu)  # silence 0/0 in the closed form
    with np.errstate(divide="ignore", invalid="ignore"):
        var_ratio = np.where(
            small,
            1.0 - mu + (2.0 / 3.0) * mu**2 - (1.0 / 3.0) * mu**3 + (2.0 / 15.0) * mu**4,
            -np.expm1(-2.0 * mu_s) / (2.0 * mu_s),
        )
        cov_ratio = np.where(
            small,
            1.0 - mu / 2.0 + mu**2 / 6.0 - mu**3 / 24.0 + mu**4 / 120.0,
            -np.expm1(-mu_s) / mu_s,
        )
    var_I = k * var_ratio  # (1 - e^{-2mu}) / (2 lam^2)
    cov = k * cov_ratio  # (1 - e^{-mu}) / lam^2

    dbeta = np.sqrt(k) * np.asarray(z1)
    cond_var = np.maximum(var_I - cov**2 / k, 0.0)
    I = (cov / k) * dbeta + np.sqrt(cond_var) * np.asarray(z2)
    return dbeta, I


def brute_force_pair_moments(
    lam: float,
    k: float,
    n_sub: int = 10**6,
    M: int = 1200,
    seed: int = 0,
    chunk: int = 20000,
):
    """Riemann-sum Monte-Carlo oracle for the joint (dbeta, I) covariance.

    Simulates M paths of the Brownian motion on n_sub substeps, accumulates
    I as a left-endpoint Riemann-Ito sum, and returns the three second
    moments (Var dbeta, Var I, Cov) with their standard errors.  Used to
    certify the closed-form sampler; deliberately dumb and independent.
    """
    ds = k / n_sub
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    db = np.zeros(M)
    I = np.zeros(M)
    for lo in range(0, n_sub, chunk):
        hi = min(lo + chunk, n_sub)
        z = rng.standard_normal((M, hi - lo))
        s = (np.arange(lo, hi)) * ds  # left endpoints
        w = np.exp(-lam**2 * (k - s))
        inc = np.sqrt(ds) * z
        db += inc.sum(axis=1)
        I += inc @ w
    out = {}
    for name, prod in (
        ("var_dbeta", db * db),
        ("var_I", I * I),
        ("cov", db * I),
    ):
        out[name] = (float(prod.mean()), float(prod.std(ddof=1) / np.sqrt(M)))
    return out
