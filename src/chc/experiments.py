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
    minus_one_norm_cg,
    project_l2,
    prolong,
)
from .noise import (
    NoiseSpec,
    WienerIncrements,
    _rng_for_sample,
    convolution_pair_from_normals,
    field_coefficients,
    sample_increments,
)
from .potential import Potential, double_well, zero_potential
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

    @property
    def errors(self) -> np.ndarray:
        return np.array([lv.error for lv in self.levels])


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


def _make_rate_result(sweep, names, hs, ks, Ms, errors, stderrs, xs) -> RateStudyResult:
    slope, r2 = fit_loglog(xs, errors)
    levels = [
        LevelResult(str(nm), float(h), float(k), int(m), float(e), float(se))
        for nm, h, k, m, e, se in zip(names, hs, ks, Ms, errors, stderrs)
    ]
    return RateStudyResult(sweep, levels, slope, r2)


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


# -- deterministic linear rates ----------------------------------------------


def det_linear_rate_study(
    domain: DomainSpec | None = None,
    T_spatial: float = 0.01,
    ns_spatial: tuple = (16, 32, 64, 128),
    k_fraction: float = 1e-6,
    T_temporal: float = 1e-3,
    n_temporal: int = 512,
    Ns_temporal: tuple = (8, 16, 32, 64),
    J_rough: int = 200,
    rough_exponent: float = -1.25,
) -> StudyReport:
    """Linear (f == 0) error rates against the exact semigroup.

    Spatial sweep: v = phi_1 at t = T with k = k_fraction*T; the scheme is
    the resolvent power (1 + k lambda_h^2)^{-N} in the discrete eigenbasis,
    expected slope 2 in h.  Temporal sweep: the error is measured as the
    maximum over the discrete times t_n <= T, with borderline-rough data
    c_j ~ lambda_j^{-5/4}; this is the regime where the k^{1/2} temporal
    order is sharp (smooth data at a fixed positive time shows the full
    first-order resolvent rate instead, which would say nothing about the
    fractional exponent).
    """
    if domain is None:
        domain = DomainSpec.interval(1.0)
    basis = build_basis(domain, max(J_rough, 8))
    v1 = SpectralField.single_mode(basis, 1)

    hs, errs = [], []
    N_pow = int(round(1.0 / k_fraction))
    for n in ns_spatial:
        ops = _assembled(domain, n)
        spec = discrete_spectrum(ops)
        c = spec.coefficients(project_l2(v1, ops).values)
        k = k_fraction * T_spatial
        c = c * np.exp(-N_pow * np.log1p(k * spec.eigenvalues**2))
        Xh = FemFunction(ops.mesh, spec.synthesize(c))
        errs.append(l2_error(semigroup_apply(v1, T_spatial), Xh, ops))
        hs.append(ops.mesh.h)
    spatial = _make_rate_result(
        "spatial",
        [f"n={n}" for n in ns_spatial],
        hs,
        [k_fraction * T_spatial] * len(ns_spatial),
        [1] * len(ns_spatial),
        errs,
        [0.0] * len(ns_spatial),
        hs,
    )

    ops = _assembled(domain, n_temporal)
    cj = np.zeros(basis.J)
    cj[1:] = basis.eigenvalues[1:] ** rough_exponent
    v_rough = SpectralField(basis, cj)
    X0 = project_l2(v_rough, ops)
    pot = zero_potential()
    ks, errs = [], []
    for N in Ns_temporal:
        k = T_temporal / N
        states, _ = run_trajectory(
            X0, None, StepperConfig(k=k), ops, pot, n_steps=N, store="all"
        )
        sup = max(l2_error(semigroup_apply(v_rough, s.t), s.X, ops) for s in states[1:])
        ks.append(k)
        errs.append(sup)
    temporal = _make_rate_result(
        "temporal",
        [f"N={N}" for N in Ns_temporal],
        [ops.mesh.h] * len(Ns_temporal),
        ks,
        [1] * len(Ns_temporal),
        errs,
        [0.0] * len(Ns_temporal),
        ks,
    )

    checks = [
        Check(
            "spatial slope in [1.85, 2.15]",
            1.85 <= spatial.slope <= 2.15,
            f"slope={spatial.slope:.4f}",
        ),
        Check("spatial R2 >= 0.98", spatial.r2 >= 0.98, f"R2={spatial.r2:.5f}"),
        Check(
            "temporal slope in [0.4, 0.6]",
            0.4 <= temporal.slope <= 0.6,
            f"slope={temporal.slope:.4f}",
        ),
        Check("temporal R2 >= 0.98", temporal.r2 >= 0.98, f"R2={temporal.r2:.5f}"),
    ]
    return StudyReport("det", [spatial, temporal], checks)


def det_derivative_rate_study(
    domain: DomainSpec | None = None,
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
    if domain is None:
        domain = DomainSpec.interval(1.0)
    basis = build_basis(domain, 8)
    v1 = SpectralField.single_mode(basis, 1)
    lam1 = basis.eigenvalues[1]
    c_exact = np.zeros(basis.J)
    c_exact[1] = lam1 * np.exp(-t * lam1**2)
    AEv = SpectralField(basis, c_exact)

    hs, errs = [], []
    for n in ns_spatial:
        ops = _assembled(domain, n)
        spec = discrete_spectrum(ops)
        c = spec.coefficients(project_l2(v1, ops).values)
        c = spec.eigenvalues * np.exp(-t * spec.eigenvalues**2) * c
        Xh = FemFunction(ops.mesh, spec.synthesize(c))
        errs.append(l2_error(AEv, Xh, ops))
        hs.append(ops.mesh.h)
    h_sweep = _make_rate_result(
        "h",
        [f"n={n}" for n in ns_spatial],
        hs,
        [0.0] * len(ns_spatial),
        [1] * len(ns_spatial),
        errs,
        [0.0] * len(ns_spatial),
        hs,
    )

    ops = _assembled(domain, n_temporal)
    spec = discrete_spectrum(ops)
    c0 = spec.coefficients(project_l2(v1, ops).values)
    lam = spec.eigenvalues
    ks, errs = [], []
    for N in Ns_temporal:
        k = t / N
        diff = lam * ((1 + k * lam**2) ** (-N) - np.exp(-t * lam**2)) * c0
        errs.append(float(np.sqrt(np.sum(diff**2))))
        ks.append(k)
    k_sweep = _make_rate_result(
        "k",
        [f"N={N}" for N in Ns_temporal],
        [ops.mesh.h] * len(Ns_temporal),
        ks,
        [1] * len(Ns_temporal),
        errs,
        [0.0] * len(Ns_temporal),
        ks,
    )

    checks = [
        Check("h-sweep slope >= 1.7", h_sweep.slope >= 1.7, f"slope={h_sweep.slope:.4f}"),
        Check("h-sweep R2 >= 0.98", h_sweep.r2 >= 0.98, f"R2={h_sweep.r2:.5f}"),
        Check("k-sweep slope >= 0.4", k_sweep.slope >= 0.4, f"slope={k_sweep.slope:.4f}"),
        Check("k-sweep R2 >= 0.98", k_sweep.r2 >= 0.98, f"R2={k_sweep.r2:.5f}"),
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


def _phi1(x):
    """(1 - exp(-x)) / x, stable at 0."""
    x = np.asarray(x, dtype=float)
    safe = np.where(x < 1e-8, 1.0, x)
    return np.where(x < 1e-8, 1.0 - x / 2.0, -np.expm1(-safe) / safe)


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
    dec = np.exp(-(lam**2) * k)
    sup2 = np.empty(M)
    for lo in range(0, M, chunk):
        hi = min(lo + chunk, M)
        z = np.stack(
            [_rng_for_sample(noise.seed, m).standard_normal((noise.J, N, 2))
             for m in range(lo, hi)],
            axis=-1,
        )  # (J, N, 2, m)
        a = np.zeros((noise.J, hi - lo))
        w = np.zeros((len(D), hi - lo))
        s2 = np.zeros(hi - lo)
        for j in range(N):
            db, I = convolution_pair_from_normals(
                lam[:, None], k, z[:, j, 0, :], z[:, j, 1, :]
            )
            a = dec[:, None] * a + field_coefficients(noise, basis, I)
            w = D[:, None] * (w + G @ field_coefficients(noise, basis, db))
            err2 = (a * a).sum(0) - 2 * (a * (G.T @ w)).sum(0) + (w * w).sum(0)
            s2 = np.maximum(s2, err2)
        sup2[lo:hi] = s2
    mean = float(sup2.mean())
    if mean == 0.0:
        return 0.0, 0.0
    se_mean = float(sup2.std(ddof=1) / np.sqrt(M)) if M > 1 else 0.0
    return float(np.sqrt(mean)), se_mean / (2.0 * np.sqrt(mean))


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
    the same Brownian path by construction.
    """
    basis = build_basis(domain, noise.J)
    lam = basis.eigenvalues
    ops = _assembled(domain, n)
    spec = discrete_spectrum(ops)
    G = spec.vectors.T @ ops.mode_loads(basis)
    Nh = len(spec.eigenvalues)
    k = T / N
    dec_a = np.exp(-(lam**2) * k)
    dec_w = np.exp(-(spec.eigenvalues**2) * k)
    Ls = spec.eigenvalues**2
    roots = np.empty((noise.J, Nh + 1, Nh + 1))
    for j in range(noise.J):
        L = np.concatenate([[lam[j] ** 2], Ls])
        C = k * _phi1((L[:, None] + L[None, :]) * k)
        evals, evecs = np.linalg.eigh(C)
        roots[j] = evecs * np.sqrt(np.clip(evals, 0.0, None))
    Gq = field_coefficients(noise, basis, G.T).T  # column j of G times sigma sqrt(q_j)
    sup2 = np.empty(M)
    for lo in range(0, M, chunk):
        hi = min(lo + chunk, M)
        z = np.stack(
            [_rng_for_sample(noise.seed, m).standard_normal((noise.J, N, Nh + 1))
             for m in range(lo, hi)],
            axis=-1,
        )
        a = np.zeros((noise.J, hi - lo))
        w = np.zeros((Nh, hi - lo))
        s2 = np.zeros(hi - lo)
        for j in range(N):
            g = np.einsum("jpq,jqm->jpm", roots, z[:, j, :, :])
            a = dec_a[:, None] * a + field_coefficients(noise, basis, g[:, 0, :])
            w = dec_w[:, None] * w + np.einsum("ij,jim->im", Gq, g[:, 1:, :])
            err2 = (a * a).sum(0) - 2 * (a * (G.T @ w)).sum(0) + (w * w).sum(0)
            s2 = np.maximum(s2, err2)
        sup2[lo:hi] = s2
    mean = float(sup2.mean())
    if mean == 0.0:
        return 0.0, 0.0
    se_mean = float(sup2.std(ddof=1) / np.sqrt(M)) if M > 1 else 0.0
    return float(np.sqrt(mean)), se_mean / (2.0 * np.sqrt(mean))


def stoch_conv_rate_study(
    domain: DomainSpec | None = None,
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
    if domain is None:
        domain = DomainSpec.interval(1.0)
    noise = NoiseSpec(r=r, sigma=sigma, J=J, seed=seed)

    ks, errs, ses = [], [], []
    for N in Ns_temporal:
        e, se = stoch_conv_level_error_temporal(domain, noise, n_temporal, N, T_temporal, M)
        ks.append(T_temporal / N)
        errs.append(e)
        ses.append(se)
    temporal = _make_rate_result(
        "temporal",
        [f"N={N}" for N in Ns_temporal],
        [_assembled(domain, n_temporal).mesh.h] * len(Ns_temporal),
        ks,
        [M] * len(Ns_temporal),
        errs,
        ses,
        ks,
    )

    hs, errs, ses = [], [], []
    for n in ns_spatial:
        e, se = stoch_conv_level_error_spatial(domain, noise, n, N_spatial, T_spatial, M)
        hs.append(_assembled(domain, n).mesh.h)
        errs.append(e)
        ses.append(se)
    spatial = _make_rate_result(
        "spatial",
        [f"n={n}" for n in ns_spatial],
        hs,
        [0.0] * len(ns_spatial),
        [M] * len(ns_spatial),
        errs,
        ses,
        hs,
    )

    checks = [
        Check(
            "temporal slope in [0.35, 0.65]",
            0.35 <= temporal.slope <= 0.65,
            f"slope={temporal.slope:.4f}",
        ),
        Check(
            "spatial slope in [1.6, 2.4]",
            1.6 <= spatial.slope <= 2.4,
            f"slope={spatial.slope:.4f}",
        ),
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
def _level_context(domain, n, noise, pot_coeffs, x0_coeffs) -> _Level:
    """Per-level assembled context shared by nonlinear Monte-Carlo samples."""
    ops = _assembled(domain, n)
    basis = build_basis(domain, noise.J)
    c0 = np.zeros(noise.J)
    c0[: len(x0_coeffs)] = x0_coeffs
    X0 = project_l2(SpectralField(basis, c0), ops)
    return _Level(ops, basis, noise, Potential(pot_coeffs), X0)


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

    Returns (None, message) if Newton fails at any level, the message naming
    the sample and the level, so the study can report the failure without
    losing the whole campaign.
    """
    (domain, levels, T, noise, pot_coeffs, x0_coeffs) = params
    n_ref, N_ref = levels[-1]
    factors = tuple(N_ref // N for (_, N) in levels)
    inc = sample_increments(noise, T, N_ref, factors=factors, sample_index=m)
    ref = _level_context(domain, n_ref, noise, pot_coeffs, x0_coeffs)
    label = f"n={n_ref},N={N_ref}"
    try:
        ref_states, _ = _run_level(ref, inc)
        X_ref = np.stack([s.X.values for s in ref_states])

        sup_errs = []
        for (n, N) in levels[:-1]:
            label = f"n={n},N={N}"
            fac = N_ref // N
            level = _level_context(domain, n, noise, pot_coeffs, x0_coeffs)
            states, _ = _run_level(level, inc, fac)
            e2 = 0.0
            for j, s in enumerate(states):
                d = X_ref[j * fac] - prolong(s.X, ref.ops.mesh).values
                e2 = max(e2, float(d @ (ref.ops.M @ d)))
            sup_errs.append(e2)
    except NewtonError as err:
        return None, f"sample {m}: {label}: {err}"
    return sup_errs, inc.checksum()


def strong_convergence_study(
    domain: DomainSpec | None = None,
    finest: tuple = (128, 256),
    n_levels: int = 4,
    factor: int = 2,
    T: float = 0.1,
    M: int = 64,
    sigma: float = 1.0,
    r: float = 2.0,
    J: int = 32,
    seed: int = 42,
    pot: Potential | None = None,
    x0_coeffs: tuple = (0.0, 0.1, 0.05),
    workers: int = 1,
    slack: float = 0.10,
) -> StudyReport:
    """Self-convergence of the nonlinear scheme on a coupled hierarchy.

    The finest level doubles as the surrogate truth; every sample drives
    all levels with one Brownian path (coarse increments are exact sums of
    the fine ones).  Reported per level: the Monte-Carlo estimate of
    E max_n ||X_ref(t_n) - X_l(t_n)||^2 on the level's own time grid.  No
    rate is asserted, only decay: strictly decreasing up to the given
    statistical slack, with a 2-standard-error separation between the
    coarsest and finest compared levels.
    """
    if domain is None:
        domain = DomainSpec.interval(1.0)
    if pot is None:
        pot = double_well()
    n_f, N_f = finest
    levels = [
        (n_f // factor**i, N_f // factor**i) for i in range(n_levels - 1, -1, -1)
    ]
    noise = NoiseSpec(r=r, sigma=sigma, J=J, seed=seed)
    params = (domain, tuple(levels), T, noise, pot.F_coeffs, tuple(x0_coeffs))
    fn = functools.partial(_strong_sample, params)

    failures = []
    per_level = []
    checksums = []
    for errs, detail in map_samples(fn, M, workers):
        if errs is None:
            failures.append(detail)
            continue
        per_level.append(errs)
        checksums.append(detail)
    if not per_level:
        raise RuntimeError(f"every sample failed the Newton solve; first: {failures[0]}")
    errors2 = np.array(per_level)  # (samples, n_levels-1)
    n_ok = errors2.shape[0]
    means = errors2.mean(axis=0)
    ses = (
        errors2.std(axis=0, ddof=1) / np.sqrt(n_ok)
        if n_ok > 1
        else np.zeros(len(levels) - 1)
    )

    level_rows = [
        LevelResult(
            f"n={n},N={N}", _assembled(domain, n).mesh.h, T / N, M, float(mu), float(se)
        )
        for (n, N), mu, se in zip(levels[:-1], means, ses)
    ]
    slope, r2 = fit_loglog([lr.h for lr in level_rows], means)
    res = RateStudyResult("coupled", level_rows, slope, r2)

    decreasing = all(
        means[i + 1] < means[i] * (1.0 + slack) for i in range(len(means) - 1)
    )
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
        extra={"checksums": checksums, "observed_slope": slope, "failures": failures},
    )


def _moment_sample(params, m):
    """Per-sample supremum statistics for one ladder level.

    Returns (statistics, None), or (None, message) if Newton fails.
    """
    (domain, n, N, T, noise, pot_coeffs, x0_coeffs) = params
    inc = sample_increments(noise, T, N, sample_index=m)
    level = _level_context(domain, n, noise, pot_coeffs, x0_coeffs)
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
    sup_minus1 = max(minus_one_norm_cg(s.X, ops) ** 2 for s in states)
    sup_l2 = max(float(s.X.values @ (ops.M @ s.X.values)) for s in states)
    return (sup_J, sum_Y, sup_minus1, sup_l2, mass_dev), None


def moment_bound_study(
    domain: DomainSpec | None = None,
    ladder: tuple = ((32, 64), (64, 128), (128, 256)),
    T: float = 0.1,
    M: int = 64,
    sigma: float = 1.0,
    r: float = 2.0,
    J: int = 32,
    seed: int = 42,
    pot: Potential | None = None,
    x0_coeffs: tuple = (0.0, 0.1, 0.05),
    workers: int = 1,
) -> StudyReport:
    """Stability of moment estimates across an (h, k) refinement ladder.

    Monte-Carlo estimates of E sup_j J(X^j)^p, E (sum_j k|Y^j|_1^2)^p for
    p in {1, 2}, and E sup_j |X^j|_{-1,h}^{2p}, E sup_j ||X^j||^{2p}; the
    bounding constants of the theory are non-constructive, so the testable
    statement is that the estimates do not blow up under refinement
    (max/min ratio <= 3 for the p=1 energy statistics).
    """
    if domain is None:
        domain = DomainSpec.interval(1.0)
    if pot is None:
        pot = double_well()

    stats = {"sup_J": [], "sum_Y": [], "sup_minus1": [], "sup_l2": [], "mass": []}
    second = {"sup_J": [], "sum_Y": [], "sup_minus1": [], "sup_l2": []}
    rows = []
    failures = []
    noise = NoiseSpec(r=r, sigma=sigma, J=J, seed=seed)
    for (n, N) in ladder:
        params = (domain, n, N, T, noise, pot.F_coeffs, tuple(x0_coeffs))
        fn = functools.partial(_moment_sample, params)
        results = map_samples(fn, M, workers)
        failures += [msg for v, msg in results if v is None]
        vals = np.array([v for v, _ in results if v is not None])  # (ok, 5)
        if not len(vals):
            raise RuntimeError(
                f"every sample failed the Newton solve at n={n}, N={N}; first: {failures[-1]}"
            )
        for i, key in enumerate(("sup_J", "sum_Y", "sup_minus1", "sup_l2")):
            stats[key].append(float(vals[:, i].mean()))
            second[key].append(float((vals[:, i] ** 2).mean()))
        stats["mass"].append(float(vals[:, 4].max()))
        se = vals[:, 0].std(ddof=1) / np.sqrt(len(vals)) if len(vals) > 1 else 0.0
        rows.append(
            LevelResult(
                f"n={n},N={N}",
                _assembled(domain, n).mesh.h,
                T / N,
                M,
                float(vals[:, 0].mean()),
                float(se),
            )
        )

    res = RateStudyResult("ladder", rows, float("nan"), float("nan"))

    def ratio(xs):
        xs = np.asarray(xs)
        return float(xs.max() / xs.min()) if xs.min() > 0 else float("inf")

    r_J = ratio(stats["sup_J"])
    r_Y = ratio(stats["sum_Y"])
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


def holder_probe(
    domain: DomainSpec | None = None,
    n: int = 64,
    N_fine: int = 512,
    factors: tuple = (4, 2, 1),
    T: float = 0.1,
    gammas: tuple = (0.25, 0.4, 0.45),
    sigma: float = 1.0,
    r: float = 2.0,
    J: int = 32,
    seed: int = 42,
    pot: Potential | None = None,
    x0_coeffs: tuple = (0.0, 0.1, 0.05),
    sample_index: int = 0,
) -> StudyReport:
    """Empirical Hölder quotients of one path under time-step refinement.

    max_{i, s dyadic} ||X(t_{i+s}) - X(t_i)|| / (s k)^gamma for each gamma;
    the three step sizes share one Brownian path.  Pathwise Hölder-1/2^-
    regularity predicts the gamma = 0.25 quotient stays stable (ratio <= 3)
    as k is refined, while gamma near 1/2 may grow slowly.
    """
    if domain is None:
        domain = DomainSpec.interval(1.0)
    if pot is None:
        pot = double_well()
    noise = NoiseSpec(r=r, sigma=sigma, J=J, seed=seed)
    inc = sample_increments(noise, T, N_fine, factors=factors, sample_index=sample_index)
    level = _level_context(domain, n, noise, pot.F_coeffs, tuple(x0_coeffs))
    ops = level.ops

    table = {}
    rows = []
    for fac in factors:
        N = N_fine // fac
        k = T / N
        states, _ = _run_level(level, inc, fac)
        X = np.stack([s.X.values for s in states])  # (N+1, dofs)
        quots = {}
        for g in gammas:
            best = 0.0
            s = 1
            while s <= N // 2:
                d = X[s:] - X[:-s]
                norms2 = np.einsum("ij,ij->i", d, (ops.M @ d.T).T)
                best = max(best, float(np.sqrt(norms2.max()) / (s * k) ** g))
                s *= 2
            quots[g] = best
        table[fac] = quots
        rows.append(
            LevelResult(f"N={N}", ops.mesh.h, k, 1, quots[gammas[0]], 0.0)
        )

    res = RateStudyResult("holder", rows, float("nan"), float("nan"))
    q25 = [table[f][gammas[0]] for f in factors]
    ratio = max(q25) / min(q25) if min(q25) > 0 else float("inf")
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
    domain: DomainSpec | None = None,
    n: int = 64,
    N: int = 100,
    T: float = 0.1,
    sigma: float = 1.0,
    r: float = 2.0,
    J: int = 32,
    seed: int = 42,
    pot: Potential | None = None,
    x0_coeffs: tuple = (0.0, 0.1, 0.05),
    sample_index: int = 0,
) -> tuple[StudyReport, list[tuple]]:
    """One trajectory with per-step diagnostics (the CLI ``run`` command)."""
    if domain is None:
        domain = DomainSpec.interval(1.0)
    if pot is None:
        pot = double_well()
    noise = NoiseSpec(r=r, sigma=sigma, J=J, seed=seed)
    level = _level_context(domain, n, noise, pot.F_coeffs, tuple(x0_coeffs))
    ops, pot, X0 = level.ops, level.pot, level.X0
    k = T / N
    inc = sample_increments(noise, T, N, sample_index=sample_index)
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
    report = StudyReport("run", [], checks, extra={"final_J": Js[-1]})
    return report, rows
