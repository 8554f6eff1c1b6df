"""Desk-scale numerical studies for the fully discrete scheme.

Six studies: deterministic semigroup rates, derivative-error rates,
stochastic-convolution strong rates, coupled-refinement strong convergence
of the nonlinear scheme, moment-bound stability across a refinement ladder,
and a Hölder-quotient probe of path regularity.  Every Monte-Carlo study
derives its randomness from (base seed, sample index) alone, so results do
not depend on how samples are scheduled across workers, and every
multi-level comparison within a sample is driven by one set of Brownian
increments (checksummed per sample as a coupling audit).
"""

from __future__ import annotations

import csv
import functools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .fem import (
    FemFunction,
    OperatorSet,
    assemble,
    build_interval_mesh,
    build_rectangle_mesh,
    discrete_spectrum,
    l2_error,
    minus_one_norm,
    project_l2,
    prolong,
)
from .noise import (
    NoiseSpec,
    WienerIncrements,
    _phi1,
    _rng_for_sample,
    convolution_pair_from_normals,
    field_coefficients,
    sample_increments,
)
from .potential import Potential, zero_potential
from .spectral import DomainSpec, EigenBasis, SpectralField, build_basis, semigroup_apply
from .stepper import NewtonError, StepperConfig, lyapunov_J, run_trajectory

__all__ = [
    "LevelResult",
    "RateStudyResult",
    "Check",
    "StudyReport",
    "fit_loglog",
    "det_linear_rate_study",
    "det_derivative_rate_study",
    "stoch_conv_rate_study",
    "strong_convergence_study",
    "moment_bound_study",
    "holder_probe",
    "single_run",
    "write_csv",
    "write_manifest",
    "map_samples",
]


# -- result containers -------------------------------------------------------


@dataclass(frozen=True)
class LevelResult:
    level: str
    h: float
    k: float
    M: int
    error: float
    stderr: float


@dataclass
class RateStudyResult:
    sweep: str  # which quantity was refined, e.g. "spatial" / "temporal"
    levels: list[LevelResult]
    slope: float
    r2: float

    @classmethod
    def fit(cls, sweep: str, levels: list[LevelResult], x: str = "h") -> RateStudyResult:
        """The sweep with the log-log slope and R^2 of its errors against ``x`` ("h" or "k")."""
        slope, r2 = fit_loglog([getattr(lv, x) for lv in levels], [lv.error for lv in levels])
        return cls(sweep, levels, slope, r2)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class StudyReport:
    study: str
    results: list[RateStudyResult]
    checks: list[Check] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def rows(self) -> list[tuple]:
        out = []
        for res in self.results:
            for lv in res.levels:
                out.append(
                    (lv.level, lv.h, lv.k, lv.M, lv.error, lv.stderr, res.slope, res.r2)
                )
        return out


CSV_HEADER = ("level", "h", "k", "M", "error", "stderr", "slope", "r2")


def fit_loglog(xs, errors) -> tuple[float, float]:
    """Least-squares slope and R^2 of log(error) against log(x)."""
    xs = np.asarray(xs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if np.any(errors <= 0) or np.any(xs <= 0):
        raise ValueError("rate fits need positive levels and errors")
    lx, le = np.log(xs), np.log(errors)
    A = np.vstack([lx, np.ones_like(lx)]).T
    sol, *_ = np.linalg.lstsq(A, le, rcond=None)
    ss_res = float(np.sum((le - A @ sol) ** 2))
    ss_tot = float(np.sum((le - le.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(sol[0]), r2


def _slope_check(label: str, res: RateStudyResult, lo: float, hi: float | None = None) -> Check:
    """``<label> slope in [lo, hi]``, or ``<label> slope >= lo`` without an upper end."""
    name = f"{label} slope >= {lo}" if hi is None else f"{label} slope in [{lo}, {hi}]"
    ok = lo <= res.slope and (hi is None or res.slope <= hi)
    return Check(name, ok, f"slope={res.slope:.4f}")


def _r2_check(label: str, res: RateStudyResult) -> Check:
    return Check(f"{label} R2 >= 0.98", res.r2 >= 0.98, f"R2={res.r2:.5f}")


def _spread(xs) -> float:
    """max/min of positive values; infinite when the minimum is not positive."""
    return max(xs) / min(xs) if min(xs) > 0 else float("inf")


# -- output ------------------------------------------------------------------


def _fmt(x) -> str:
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)


def write_csv(path, header, rows) -> None:
    """CSV with repr-precision floats, reproducible byte for byte.

    Fields that contain a comma, such as the level label ``n=16,N=32``,
    are quoted.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def write_manifest(path, mapping) -> None:
    """Flat ``key = value`` manifest, one line per key, insertion order."""
    with open(path, "w") as fh:
        for key, value in mapping.items():
            fh.write(f"{key} = {_fmt(value)}\n")


# -- worker pool -------------------------------------------------------------


def map_samples(fn, n_samples: int, workers: int = 1) -> list:
    """Evaluate fn(0..n_samples-1), in sample order regardless of workers.

    fn must be picklable (a module-level function or functools.partial of
    one) when workers > 1; every sample draws its own randomness from the
    base seed and its index, so the result is scheduling-independent.
    """
    if workers <= 1 or n_samples <= 1:
        return [fn(m) for m in range(n_samples)]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, range(n_samples)))


def _successes(results: list, failures: list, where: str = "") -> tuple[list, list]:
    """Split (value, detail) sample results into the values and details of the successes.

    A failed sample returns (None, message); its message is appended to
    ``failures``.  Raises if every sample failed.
    """
    ok = [(value, detail) for value, detail in results if value is not None]
    failed = [detail for value, detail in results if value is None]
    failures += failed
    if not ok:
        raise RuntimeError(f"every sample failed the Newton solve{where}; first: {failed[0]}")
    return [value for value, _ in ok], [detail for _, detail in ok]


def _mean_se(samples: np.ndarray):
    """Mean over the samples (axis 0) and its standard error, which is 0 for one sample."""
    n = len(samples)
    if n == 1:
        return samples.mean(axis=0), np.zeros(samples.shape[1:])
    return samples.mean(axis=0), samples.std(axis=0, ddof=1) / np.sqrt(n)


# -- deterministic linear rates ----------------------------------------------


def det_linear_rate_study(
    domain: DomainSpec = DomainSpec.interval(1.0),
    T_spatial: float = 0.01,
    ns_spatial: tuple = (16, 32, 64, 128),
    k_fraction: float = 1e-6,
    T_temporal: float = 1e-3,
    n_temporal: int = 512,
    Ns_temporal: tuple = (8, 16, 32, 64),
    J_rough: int = 200,
) -> StudyReport:
    """Linear (f == 0) error rates against the exact semigroup.

    Spatial sweep: v = phi_1 at t = T with k = k_fraction*T; the scheme is
    the resolvent power (1 + k lambda_h^2)^{-N} in the discrete eigenbasis,
    expected slope 2 in h.  Temporal sweep: the error is measured as the
    maximum over the discrete times t_n <= T, with borderline-rough data
    c_j ~ lambda_j^{-(1 + d/4)}; this is the regime where the k^{1/2} temporal
    order is sharp (smooth data at a fixed positive time shows the full
    first-order resolvent rate instead, which would say nothing about the
    fractional exponent).
    """
    basis = build_basis(domain, max(J_rough, 8))
    v1 = SpectralField.single_mode(basis, 1)

    levels = []
    N_pow = int(round(1.0 / k_fraction))
    k = k_fraction * T_spatial
    for n in ns_spatial:
        ops = _assembled(domain, n)
        spec = discrete_spectrum(ops)
        c = spec.coefficients(project_l2(v1, ops).values)
        c = c * np.exp(-N_pow * np.log1p(k * spec.eigenvalues**2))
        Xh = FemFunction(ops.mesh, spec.synthesize(c))
        err = l2_error(semigroup_apply(v1, T_spatial), Xh, ops)
        levels.append(LevelResult(f"n={n}", ops.mesh.h, k, 1, err, 0.0))
    spatial = RateStudyResult.fit("spatial", levels)

    ops = _assembled(domain, n_temporal)
    # c_j = lambda_j^{-(1 + d/4)}: with lambda_j ~ j^{2/d}, sum_j lambda_j^2 c_j^2 diverges
    # like sum_j 1/j, so the data are exactly borderline in H^2 (-5/4 on the interval,
    # -3/2 on the rectangle), which is where the k^{1/2} order is sharp.
    cj = np.zeros(basis.J)
    cj[1:] = basis.eigenvalues[1:] ** -(1 + domain.dim / 4)
    v_rough = SpectralField(basis, cj)
    X0 = project_l2(v_rough, ops)
    pot = zero_potential()
    zero = FemFunction(ops.mesh, np.zeros(ops.n_dofs))
    levels = []
    for N in Ns_temporal:
        k = T_temporal / N
        states, _ = run_trajectory(X0, [zero] * N, StepperConfig(k=k), ops, pot, store="all")
        sup = max(l2_error(semigroup_apply(v_rough, s.t), s.X, ops) for s in states[1:])
        levels.append(LevelResult(f"N={N}", ops.mesh.h, k, 1, sup, 0.0))
    temporal = RateStudyResult.fit("temporal", levels, x="k")

    checks = [
        _slope_check("spatial", spatial, 1.85, 2.15),
        _r2_check("spatial", spatial),
        _slope_check("temporal", temporal, 0.4, 0.6),
        _r2_check("temporal", temporal),
    ]
    return StudyReport("det", [spatial, temporal], checks)


def det_derivative_rate_study(
    domain: DomainSpec = DomainSpec.interval(1.0),
    t: float = 0.01,
    ns_spatial: tuple = (16, 32, 64, 128),
    n_temporal: int = 512,
    Ns_temporal: tuple = (8, 16, 32, 64),
) -> StudyReport:
    """Derivative-error rates for the linear semigroup, v = phi_1.

    h-sweep: ||A_h E_h(t) P_h v - A E(t) v||, expected slope 2 (up to a
    delta-loss).  k-sweep: ||A_h R^N P_h v - A_h E_h(t) P_h v|| on a fine
    fixed mesh, expected slope at least 1/2.  Both use discrete-spectrum
    exponentials/powers; the stepper is certified against those separately.
    """
    basis = build_basis(domain, 8)
    v1 = SpectralField.single_mode(basis, 1)
    lam1 = basis.eigenvalues[1]
    c_exact = np.zeros(basis.J)
    c_exact[1] = lam1 * np.exp(-t * lam1**2)
    AEv = SpectralField(basis, c_exact)

    levels = []
    for n in ns_spatial:
        ops = _assembled(domain, n)
        spec = discrete_spectrum(ops)
        c = spec.coefficients(project_l2(v1, ops).values)
        c = spec.eigenvalues * np.exp(-t * spec.eigenvalues**2) * c
        Xh = FemFunction(ops.mesh, spec.synthesize(c))
        levels.append(LevelResult(f"n={n}", ops.mesh.h, 0.0, 1, l2_error(AEv, Xh, ops), 0.0))
    h_sweep = RateStudyResult.fit("h", levels)

    ops = _assembled(domain, n_temporal)
    spec = discrete_spectrum(ops)
    c0 = spec.coefficients(project_l2(v1, ops).values)
    lam = spec.eigenvalues
    levels = []
    for N in Ns_temporal:
        k = t / N
        diff = lam * ((1 + k * lam**2) ** (-N) - np.exp(-t * lam**2)) * c0
        err = float(np.sqrt(np.sum(diff**2)))
        levels.append(LevelResult(f"N={N}", ops.mesh.h, k, 1, err, 0.0))
    k_sweep = RateStudyResult.fit("k", levels, x="k")

    checks = [
        _slope_check("h-sweep", h_sweep, 1.7),
        _r2_check("h-sweep", h_sweep),
        _slope_check("k-sweep", k_sweep, 0.4),
        _r2_check("k-sweep", k_sweep),
    ]
    return StudyReport("det-deriv", [h_sweep, k_sweep], checks)


# -- stochastic convolution ---------------------------------------------------


@functools.lru_cache(maxsize=32)
def _assembled(domain: DomainSpec, n: int) -> OperatorSet:
    """Assembled operators for a (domain, resolution) pair; process-local."""
    if domain.kind == "interval":
        mesh = build_interval_mesh(domain.lengths[0], n)
    else:
        mesh = build_rectangle_mesh(domain.lengths[0], domain.lengths[1], n, n)
    return assemble(mesh)


def _rms_sup_error(
    noise: NoiseSpec, G: np.ndarray, N: int, M: int, chunk: int, width: int,
    dec_a: np.ndarray, dec_w: np.ndarray, forcing,
) -> tuple[float, float]:
    """RMS over M samples of sup_n ||W(t_n) - W_h^n||, with its delta-method SE.

    The exact process is held by its J mode coefficients a, the scheme by
    its coefficients w in the discrete eigenbasis, and G = <psi_i, phi_j>
    couples the two.  Sample m draws normals z of shape (J, N, width) from
    its own stream; ``forcing(z)`` turns them into that sample's forcing of
    every step, fa of shape (N, J) and fw of shape (N, Nh).  The samples of
    a chunk then run one linear recurrence, a <- dec_a a + fa[n] and
    w <- dec_w w + fw[n].
    """
    sup2 = np.empty(M)
    for lo in range(0, M, chunk):
        hi = min(lo + chunk, M)
        fa = np.empty((N, noise.J, hi - lo))
        fw = np.empty((N, G.shape[0], hi - lo))
        for c, m in enumerate(range(lo, hi)):
            z = _rng_for_sample(noise.seed, m).standard_normal((noise.J, N, width))
            fa[:, :, c], fw[:, :, c] = forcing(z)
        a = np.zeros((noise.J, hi - lo))
        w = np.zeros((G.shape[0], hi - lo))
        s2 = np.zeros(hi - lo)
        for j in range(N):
            a = dec_a[:, None] * a + fa[j]
            w = dec_w[:, None] * w + fw[j]
            err2 = (a * a).sum(0) - 2 * (a * (G.T @ w)).sum(0) + (w * w).sum(0)
            s2 = np.maximum(s2, err2)
        sup2[lo:hi] = s2
    mean, se = _mean_se(sup2)
    if mean == 0.0:
        return 0.0, 0.0
    return float(np.sqrt(mean)), float(se) / (2.0 * np.sqrt(mean))


def stoch_conv_level_error_temporal(
    domain: DomainSpec, noise: NoiseSpec, n: int, N: int, T: float, M: int,
    chunk: int = 50,
) -> tuple[float, float]:
    """RMS over M samples of sup_n ||W_A(t_n) - W_{A_h}^n|| at one level.

    The exact reference accumulates per-mode one-step convolution integrals
    sampled jointly with the Brownian increments that drive the backward
    Euler recursion, so both processes live on the same path.
    """
    basis = build_basis(domain, noise.J)
    lam = basis.eigenvalues
    ops = _assembled(domain, n)
    spec = discrete_spectrum(ops)
    G = spec.vectors.T @ ops.mode_loads(basis)  # (Nh, J)
    k = T / N
    D = 1.0 / (1.0 + k * spec.eigenvalues**2)

    def forcing(z):
        db, I = convolution_pair_from_normals(lam[:, None], k, z[:, :, 0], z[:, :, 1])
        fw = D[:, None] * (G @ field_coefficients(noise, basis, db))
        return field_coefficients(noise, basis, I).T, fw.T

    return _rms_sup_error(noise, G, N, M, chunk, 2, np.exp(-(lam**2) * k), D, forcing)


def stoch_conv_level_error_spatial(
    domain: DomainSpec, noise: NoiseSpec, n: int, N: int, T: float, M: int,
    chunk: int = 25,
) -> tuple[float, float]:
    """RMS-sup error of the exact-in-time semidiscrete convolution at one h.

    Sweeping h calls for the limit of vanishing k; rather than chase it with
    ever more backward Euler steps (whose temporal error floor would bury
    the h^2 signal), the time integral is kept exact: per step and per
    driving mode, the vector of convolution integrals against e^{-lam^2 s}
    and every e^{-lam_{h,i}^2 s} is one joint Gaussian, sampled through an
    eigenvalue square root of its covariance.  Reference and scheme share
    the same Brownian path by construction.  One batched product applies
    the roots to all N steps of a sample at once.
    """
    basis = build_basis(domain, noise.J)
    lam = basis.eigenvalues
    ops = _assembled(domain, n)
    spec = discrete_spectrum(ops)
    G = spec.vectors.T @ ops.mode_loads(basis)
    Nh = len(spec.eigenvalues)
    k = T / N
    Ls = spec.eigenvalues**2
    roots = np.empty((noise.J, Nh + 1, Nh + 1))
    for j in range(noise.J):
        L = np.concatenate([[lam[j] ** 2], Ls])
        C = k * _phi1((L[:, None] + L[None, :]) * k)
        evals, evecs = np.linalg.eigh(C)
        roots[j] = evecs * np.sqrt(np.clip(evals, 0.0, None))
    Gq = field_coefficients(noise, basis, G.T).T  # column j of G times sigma sqrt(q_j)

    def forcing(z):
        g = np.matmul(z, roots.transpose(0, 2, 1))  # (J, N, Nh+1): every step's integrals
        fa = field_coefficients(noise, basis, g[:, :, 0]).T
        return fa, np.einsum("ij,jni->ni", Gq, g[:, :, 1:])

    return _rms_sup_error(
        noise, G, N, M, chunk, Nh + 1, np.exp(-(lam**2) * k), np.exp(-Ls * k), forcing
    )


def stoch_conv_rate_study(
    domain: DomainSpec = DomainSpec.interval(1.0),
    r: float = 2.0,
    sigma: float = 1.0,
    J: int = 64,
    M: int = 200,
    seed: int = 42,
    n_temporal: int = 256,
    T_temporal: float = 0.25,
    Ns_temporal: tuple = (8, 16, 32, 64),
    ns_spatial: tuple = (8, 16, 32, 64),
    T_spatial: float = 0.1,
    N_spatial: int = 64,
) -> StudyReport:
    """Strong rates of the discretized stochastic convolution.

    Temporal sweep on a fine fixed mesh; T is chosen so the sweep sits in
    the regime where the guaranteed k^{1/2} order is what one sees (for
    very small T the decaying transient shows a steeper pre-asymptotic
    slope, for very large T every mode is statistically stationary and the
    error stops responding to k).  Spatial sweep with the time integral
    exact, isolating h^2.
    """
    noise = NoiseSpec(r=r, sigma=sigma, J=J, seed=seed)

    levels = []
    for N in Ns_temporal:
        e, se = stoch_conv_level_error_temporal(domain, noise, n_temporal, N, T_temporal, M)
        h = _assembled(domain, n_temporal).mesh.h
        levels.append(LevelResult(f"N={N}", h, T_temporal / N, M, e, se))
    temporal = RateStudyResult.fit("temporal", levels, x="k")

    levels = []
    for n in ns_spatial:
        e, se = stoch_conv_level_error_spatial(domain, noise, n, N_spatial, T_spatial, M)
        levels.append(LevelResult(f"n={n}", _assembled(domain, n).mesh.h, 0.0, M, e, se))
    spatial = RateStudyResult.fit("spatial", levels)

    checks = [
        _slope_check("temporal", temporal, 0.35, 0.65),
        _slope_check("spatial", spatial, 1.6, 2.4),
    ]
    return StudyReport("stoch-conv", [temporal, spatial], checks)


# -- nonlinear coupled studies ------------------------------------------------


class _Level(NamedTuple):
    """What every sample at one resolution shares."""

    ops: OperatorSet
    basis: EigenBasis
    noise: NoiseSpec
    pot: Potential
    X0: FemFunction


@functools.lru_cache(maxsize=32)
def _level_context(domain, n, noise, potential, x0) -> _Level:
    """Per-level assembled context shared by nonlinear Monte-Carlo samples.

    ``potential`` holds the coefficients of F, constant term first, and
    ``x0`` the leading spectral coefficients of X(0).
    """
    ops = _assembled(domain, n)
    basis = build_basis(domain, noise.J)
    c0 = np.zeros(noise.J)
    c0[: len(x0)] = x0
    X0 = project_l2(SpectralField(basis, c0), ops)
    return _Level(ops, basis, noise, Potential(potential), X0)


def _run_level(level: _Level, inc: WienerIncrements, factor: int = 1, store: str = "all"):
    """March one level on the sample path: states and per-step diagnostics.

    The level steps with the increments summed over ``factor`` fine steps,
    each projected as P_h dW = M^{-1} B (sigma sqrt(q) dbeta), and with the
    time step factor * k_fine, which is T/N exactly when factor is a power
    of two.
    """
    dbeta = inc.increments(factor)
    nodal = level.ops.project_modes(
        level.basis, field_coefficients(level.noise, level.basis, dbeta)
    )
    dWs = [FemFunction(level.ops.mesh, nodal[:, j]) for j in range(dbeta.shape[1])]
    cfg = StepperConfig(k=inc.k_fine * factor)
    return run_trajectory(level.X0, dWs, cfg, level.ops, level.pot, store=store)


def _strong_sample(params, m):
    """One coupled trajectory hierarchy; returns per-level sup-errors squared.

    The sup runs over the steps n >= 1: at n = 0 every sample compares the
    two meshes' projections of the same X0.

    Returns (None, message) if Newton fails at any level, the message naming
    the sample and the level, so the study can report the failure without
    losing the whole campaign.
    """
    (domain, levels, T, noise, potential, x0) = params
    n_ref, N_ref = levels[-1]
    factors = tuple(N_ref // N for (_, N) in levels)
    inc = sample_increments(noise, T, N_ref, factors=factors, sample_index=m)
    ref = _level_context(domain, n_ref, noise, potential, x0)
    label = f"n={n_ref},N={N_ref}"
    try:
        ref_states, _ = _run_level(ref, inc)
        X_ref = np.stack([s.X.values for s in ref_states])

        sup_errs = []
        for (n, N) in levels[:-1]:
            label = f"n={n},N={N}"
            fac = N_ref // N
            level = _level_context(domain, n, noise, potential, x0)
            states, _ = _run_level(level, inc, fac)
            P = prolong(level.ops.mesh, ref.ops.mesh)
            d = X_ref[::fac] - (P @ np.stack([s.X.values for s in states]).T).T
            sup_errs.append(float(np.einsum("ij,ij->i", d, (ref.ops.M @ d.T).T)[1:].max()))
    except NewtonError as err:
        return None, f"sample {m}: {label}: {err}"
    return sup_errs, inc.checksum()


def strong_convergence_study(
    domain: DomainSpec = DomainSpec.interval(1.0),
    n: int = 128,
    N: int = 256,
    levels: int = 4,
    factor: int = 2,
    T: float = 0.1,
    M: int = 64,
    sigma: float = 1.0,
    r: float = 2.0,
    J: int = 32,
    seed: int = 42,
    potential: tuple = (0.25, 0.0, -0.5, 0.0, 0.25),
    x0: tuple = (0.0, 0.1, 0.05),
    workers: int = 1,
) -> StudyReport:
    """Self-convergence of the nonlinear scheme on a coupled hierarchy.

    The hierarchy has ``levels`` levels, the finest (n, N) and each
    coarser one ``factor`` times coarser in h and k.  The finest level
    doubles as the surrogate truth; every sample drives all levels with one
    Brownian path (coarse increments are exact sums of the fine ones).
    Reported per level: the Monte-Carlo estimate of
    E max_{n>=1} ||X_ref(t_n) - X_l(t_n)||^2 on the level's own time grid.  No
    rate is asserted, only decay: strictly decreasing up to a 10%
    statistical slack, with a 2-standard-error separation between the
    coarsest and finest compared levels.
    """
    hierarchy = [(n // factor**i, N // factor**i) for i in range(levels - 1, -1, -1)]
    noise = NoiseSpec(r=r, sigma=sigma, J=J, seed=seed)
    params = (domain, tuple(hierarchy), T, noise, potential, x0)
    fn = functools.partial(_strong_sample, params)

    failures = []
    per_level, checksums = _successes(map_samples(fn, M, workers), failures)
    means, ses = _mean_se(np.array(per_level))  # per compared level
    rows = [
        LevelResult(
            f"n={nl},N={Nl}", _assembled(domain, nl).mesh.h, T / Nl, M, float(mu), float(se)
        )
        for (nl, Nl), mu, se in zip(hierarchy[:-1], means, ses)
    ]
    res = RateStudyResult.fit("coupled", rows)

    decreasing = all(means[i + 1] < means[i] * 1.1 for i in range(len(means) - 1))
    separated = (means[0] - means[-1]) > 2.0 * (ses[0] + ses[-1])
    checks = [
        Check(
            "errors strictly decreasing (10% slack)",
            decreasing,
            " > ".join(f"{m:.3e}" for m in means),
        ),
        Check(
            "coarsest vs finest separated by 2 SE",
            bool(separated),
            f"gap={means[0] - means[-1]:.3e}, 2(SE_c+SE_f)={2 * (ses[0] + ses[-1]):.3e}",
        ),
        Check("no Newton failures", not failures, f"failures={len(failures)}"),
    ]
    return StudyReport(
        "strong",
        [res],
        checks,
        extra={"checksums": checksums, "failures": failures},
    )


def _moment_sample(params, m):
    """Per-sample supremum statistics for one ladder level.

    Returns (statistics, None), or (None, message) if Newton fails.
    """
    (domain, n, N, T, noise, potential, x0) = params
    inc = sample_increments(noise, T, N, sample_index=m)
    level = _level_context(domain, n, noise, potential, x0)
    ops, pot, X0 = level.ops, level.pot, level.X0
    try:
        states, diags = _run_level(level, inc)
    except NewtonError as err:
        return None, f"sample {m}: n={n},N={N}: {err}"

    J0 = lyapunov_J(X0, ops, pot)
    sup_J = max(J0, max(d.J for d in diags))
    sum_Y = inc.k_fine * sum(d.Y_h1**2 for d in diags)
    mass0 = ops.mean(X0.values)
    mass_dev = max(abs(d.mass - mass0) for d in diags)
    # the mean constraint of the |.|_{-1,h} solve discards the mean of X
    sup_minus1 = max(minus_one_norm(s.X, ops) ** 2 for s in states)
    sup_l2 = max(float(s.X.values @ (ops.M @ s.X.values)) for s in states)
    return (sup_J, sum_Y, sup_minus1, sup_l2, mass_dev), None


def moment_bound_study(
    domain: DomainSpec = DomainSpec.interval(1.0),
    n: int = 32,
    N: int = 64,
    T: float = 0.1,
    M: int = 64,
    sigma: float = 1.0,
    r: float = 2.0,
    J: int = 32,
    seed: int = 42,
    potential: tuple = (0.25, 0.0, -0.5, 0.0, 0.25),
    x0: tuple = (0.0, 0.1, 0.05),
    workers: int = 1,
) -> StudyReport:
    """Stability of moment estimates across an (h, k) refinement ladder.

    Monte-Carlo estimates of E sup_j J(X^j)^p, E (sum_j k|Y^j|_1^2)^p for
    p in {1, 2}, and E sup_j |X^j|_{-1,h}^{2p}, E sup_j ||X^j||^{2p}; the
    bounding constants of the theory are non-constructive, so the testable
    statement is that the estimates do not blow up under refinement
    (max/min ratio <= 3 for the p=1 energy statistics).  The ladder has
    the three rungs (n 2^i, N 2^i), i < 3.
    """
    stats = {"sup_J": [], "sum_Y": [], "sup_minus1": [], "sup_l2": [], "mass": []}
    second = {"sup_J": [], "sum_Y": [], "sup_minus1": [], "sup_l2": []}
    rows = []
    failures = []
    noise = NoiseSpec(r=r, sigma=sigma, J=J, seed=seed)
    for (nl, Nl) in ((n * 2**i, N * 2**i) for i in range(3)):
        params = (domain, nl, Nl, T, noise, potential, x0)
        fn = functools.partial(_moment_sample, params)
        vals, _ = _successes(map_samples(fn, M, workers), failures, f" at n={nl}, N={Nl}")
        vals = np.array(vals)  # (ok, 5)
        for i, key in enumerate(("sup_J", "sum_Y", "sup_minus1", "sup_l2")):
            stats[key].append(float(vals[:, i].mean()))
            second[key].append(float((vals[:, i] ** 2).mean()))
        stats["mass"].append(float(vals[:, 4].max()))
        mean_J, se_J = _mean_se(vals[:, 0])
        h = _assembled(domain, nl).mesh.h
        rows.append(LevelResult(f"n={nl},N={Nl}", h, T / Nl, M, float(mean_J), float(se_J)))

    res = RateStudyResult("ladder", rows, float("nan"), float("nan"))
    r_J = _spread(stats["sup_J"])
    r_Y = _spread(stats["sum_Y"])
    mass_worst = max(stats["mass"])
    checks = [
        Check("E sup J ratio <= 3", r_J <= 3.0, f"ratio={r_J:.3f}"),
        Check("E sum k|Y|_1^2 ratio <= 3", r_Y <= 3.0, f"ratio={r_Y:.3f}"),
        Check("mass deviation <= 1e-10", mass_worst <= 1e-10, f"max={mass_worst:.2e}"),
        Check("no Newton failures", not failures, f"failures={len(failures)}"),
    ]
    return StudyReport(
        "moments",
        [res],
        checks,
        extra={"first_moments": stats, "second_moments": second, "failures": failures},
    )


_HOLDER_GAMMAS = (0.25, 0.4, 0.45)  # Hölder exponents probed; the first is checked


def holder_probe(
    domain: DomainSpec = DomainSpec.interval(1.0),
    n: int = 64,
    N: int = 512,
    factors: tuple = (4, 2, 1),
    T: float = 0.1,
    sigma: float = 1.0,
    r: float = 2.0,
    J: int = 32,
    seed: int = 42,
    potential: tuple = (0.25, 0.0, -0.5, 0.0, 0.25),
    x0: tuple = (0.0, 0.1, 0.05),
) -> StudyReport:
    """Empirical Hölder quotients of one path under time-step refinement.

    max_{i, s dyadic} ||X(t_{i+s}) - X(t_i)|| / (s k)^gamma for each gamma
    in ``_HOLDER_GAMMAS``, with N / f steps for each f in ``factors``; the
    step sizes share the Brownian path of sample 0.  Pathwise Hölder-1/2^-
    regularity predicts the gamma = 0.25 quotient stays stable (ratio <= 3)
    as k is refined, while gamma near 1/2 may grow slowly.
    """
    noise = NoiseSpec(r=r, sigma=sigma, J=J, seed=seed)
    inc = sample_increments(noise, T, N, factors=factors)
    level = _level_context(domain, n, noise, potential, x0)
    ops = level.ops

    table = {}
    rows = []
    for fac in factors:
        steps = N // fac
        k = T / steps
        states, _ = _run_level(level, inc, fac)
        X = np.stack([s.X.values for s in states])  # (steps+1, dofs)
        peaks = {}  # dyadic lag s -> max_i ||X(t_{i+s}) - X(t_i)||
        s = 1
        while s <= steps // 2:
            d = X[s:] - X[:-s]
            peaks[s] = np.sqrt(np.einsum("ij,ij->i", d, (ops.M @ d.T).T).max())
            s *= 2
        quots = {
            g: max([0.0] + [float(p / (s * k) ** g) for s, p in peaks.items()])
            for g in _HOLDER_GAMMAS
        }
        table[fac] = quots
        rows.append(LevelResult(f"N={steps}", ops.mesh.h, k, 1, quots[_HOLDER_GAMMAS[0]], 0.0))

    res = RateStudyResult("holder", rows, float("nan"), float("nan"))
    ratio = _spread([table[f][_HOLDER_GAMMAS[0]] for f in factors])
    checks = [
        Check(
            "gamma=0.25 quotient ratio <= 3 under k-refinement",
            ratio <= 3.0,
            f"ratio={ratio:.3f}",
        ),
        Check(
            "all quotients finite",
            all(np.isfinite(v) for q in table.values() for v in q.values()),
            str({f: {g: round(v, 4) for g, v in q.items()} for f, q in table.items()}),
        ),
    ]
    return StudyReport("holder", [res], checks, extra={"quotients": table})


def single_run(
    domain: DomainSpec = DomainSpec.interval(1.0),
    n: int = 64,
    N: int = 100,
    T: float = 0.1,
    sigma: float = 1.0,
    r: float = 2.0,
    J: int = 32,
    seed: int = 42,
    potential: tuple = (0.25, 0.0, -0.5, 0.0, 0.25),
    x0: tuple = (0.0, 0.1, 0.05),
) -> tuple[StudyReport, list[tuple]]:
    """One trajectory on the path of sample 0, with per-step diagnostics (``chc run``)."""
    noise = NoiseSpec(r=r, sigma=sigma, J=J, seed=seed)
    level = _level_context(domain, n, noise, potential, x0)
    ops, pot, X0 = level.ops, level.pot, level.X0
    k = T / N
    inc = sample_increments(noise, T, N)
    _, diags = _run_level(level, inc, store="none")
    mass0 = ops.mean(X0.values)
    rows = [
        (j + 1, (j + 1) * k, d.mass - mass0, d.J, d.Y_h1, d.newton_iters)
        for j, d in enumerate(diags)
    ]
    mass_dev = max(abs(row[2]) for row in rows)
    Js = [lyapunov_J(X0, ops, pot)] + [d.J for d in diags]
    checks = [
        Check("mass conserved to 1e-10", mass_dev <= 1e-10, f"max dev={mass_dev:.2e}")
    ]
    if sigma == 0.0:
        mono = all(Js[i + 1] <= Js[i] + 1e-8 for i in range(len(Js) - 1))
        checks.append(Check("J nonincreasing (sigma=0)", mono, f"J0={Js[0]:.6f}"))
    return StudyReport("run", [], checks), rows
