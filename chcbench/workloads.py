"""The four workloads: inputs from the seed, one timed round, and its checks.

A workload's ``setup`` is everything before the first timed operation;
``round`` is the fixed work that ``wall_s`` times, and ``check`` judges a
round's outputs with ``checks`` and ``oracle``.  Every call into the
program goes through a module attribute (``stepper.run_trajectory``, not a
name imported once) so that the traced run sees it.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import math
import os
import re
from dataclasses import dataclass

import numpy as np

import checks
import oracle
from chc import cli, experiments, fem, noise, potential, spectral, stepper

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
X0_COEFFS = (0.0, 0.1, 0.05)  # the CLI's default initial spectral coefficients


def _clear_program_caches() -> None:
    """Empty the per-process lru caches, so each round pays what a fresh run pays."""
    for obj in vars(experiments).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


def _stepper_defaults() -> tuple[float, float]:
    """The stepper's stated Newton tolerances (atol, rtol)."""
    cfg = stepper.StepperConfig(k=1.0)
    return cfg.newton_atol, cfg.newton_rtol


@dataclass
class Trajectory:
    dbeta: np.ndarray  # (J, N) per-mode Brownian increments
    dW: np.ndarray  # (N, n) projected increments
    X: np.ndarray  # (N+1, n) states
    Y: np.ndarray  # (N+1, n) chemical potentials


def _trajectory(dbeta, dWs, states) -> Trajectory:
    return Trajectory(
        dbeta,
        np.stack([d.values for d in dWs]),
        np.stack([s.X.values for s in states]),
        np.stack([s.Y.values for s in states]),
    )


class _Trajectories:
    """Shared set-up and checks of the two trajectory workloads."""

    T, sigma, r, J = 0.1, 1.0, 2.0, 32
    workers = 1
    n_traj: int
    N: int

    def __init__(self, seed: int):
        self.seed = seed

    @property
    def ops_per_round(self) -> int:
        return self.n_traj

    @property
    def steps_per_round(self) -> int:
        return self.n_traj * self.N

    def _common_setup(self, domain, mesh) -> None:
        self.ops = fem.assemble(mesh)
        self.basis = spectral.build_basis(domain, self.J)
        self.spec = noise.NoiseSpec(r=self.r, sigma=self.sigma, J=self.J, seed=self.seed)
        self.pot = potential.double_well()
        c0 = np.zeros(self.J)
        c0[: len(X0_COEFFS)] = X0_COEFFS
        self.X0 = fem.project_l2(spectral.SpectralField(self.basis, c0), self.ops)
        self.cfg = stepper.StepperConfig(k=self.T / self.N)
        verts, cells = mesh.vertices, mesh.cells
        self.M, self.K = oracle.mass_stiffness(verts, cells)
        self.energy = oracle.Energy(verts, cells)

    def _solve(self, dWs):
        try:
            states, _ = stepper.run_trajectory(
                self.X0, dWs, self.cfg, self.ops, self.pot, store="all"
            )
        except stepper.NewtonError:
            return None
        return states

    def check(self, out) -> list[checks.Verdict]:
        atol, rtol = _stepper_defaults()
        k = self.T / self.N
        verdicts = []
        for tr in out:
            if tr is None:
                continue
            tol = checks.newton_tolerance(self.M, tr.X, tr.dW, atol, rtol)
            verdicts += [
                checks.check_mass(self.M, tr.X, tr.dW, tol),
                checks.check_newton(self.M, self.K, self.energy, tr.X, tr.Y, tr.dW, k, tol),
                checks.check_energy(
                    self.M, self.K, self.energy, tr.X, tr.Y, tr.dW, k, oracle.C1_SQ
                ),
            ]
            verdicts += self._extra_checks(tr)
        return verdicts

    def _extra_checks(self, tr: Trajectory) -> list[checks.Verdict]:
        return []

    def check_once(self) -> list[checks.Verdict]:
        return []

    def failed(self, out) -> int:
        return sum(tr is None for tr in out)


class Ensemble1D(_Trajectories):
    """Criterion-1 ensemble: 16 trajectories, n=64, N=200, J=32 on [0, 1].

    Each step's increment is projected with ``project_increment``.
    """

    name = "ensemble-1d"
    reference = "newton-1d-64"
    sample_after = ("chc.stepper", "backward_euler_step")
    L, n, N, n_traj = 1.0, 64, 200, 16
    quad_npts = 3  # the Gauss rule points_for_field picks at J=32, n=64

    def setup(self) -> None:
        domain = spectral.DomainSpec.interval(self.L)
        self._common_setup(domain, fem.build_interval_mesh(self.L, self.n))
        self.B = oracle.mode_loads(self.L, self.n, self.J)
        self.cell_errors = np.array(
            [oracle.gauss_load_error_bound(self.L, self.n, m, self.quad_npts) for m in range(self.J)]
        )

    def round(self):
        out = []
        for m in range(self.n_traj):
            inc = noise.sample_increments(self.spec, self.T, self.N, sample_index=m)
            coefs = noise.field_coefficients(self.spec, self.basis, inc.dbeta_fine)
            dWs = [
                noise.project_increment(spectral.SpectralField(self.basis, coefs[:, j]), self.ops)
                for j in range(self.N)
            ]
            states = self._solve(dWs)
            out.append(None if states is None else _trajectory(inc.dbeta_fine, dWs, states))
        return out

    def _extra_checks(self, tr: Trajectory) -> list[checks.Verdict]:
        lam = (np.arange(self.J) * math.pi / self.L) ** 2
        scale = np.zeros(self.J)
        scale[1:] = self.sigma * lam[1:] ** (-self.r / 2.0)
        coeffs = scale[:, None] * tr.dbeta
        bound = checks.projection_bound(self.M, coeffs, self.cell_errors)
        return [checks.check_projection(self.M, self.B, coeffs, tr.dW, bound)]


class Run2D(_Trajectories):
    """Double-well trajectories on a 64x64 mesh of the unit square (4225 nodes).

    The increments come from the cached mode-load path of ``chc run``
    (loads of each mode, then one mass solve for all steps), made in set-up.
    """

    name = "run-2d"
    reference = "newton-2d"
    sample_after = ("chc.stepper", "backward_euler_step")
    nx, N, n_traj = 64, 20, 3

    def setup(self) -> None:
        domain = spectral.DomainSpec.rectangle(1.0, 1.0)
        self._common_setup(domain, fem.build_rectangle_mesh(1.0, 1.0, self.nx, self.nx))
        B = np.column_stack(
            [
                fem.load_vector(self.ops, spectral.SpectralField.single_mode(self.basis, j))
                for j in range(self.J)
            ]
        )
        self.inputs = []
        for m in range(self.n_traj):
            inc = noise.sample_increments(self.spec, self.T, self.N, sample_index=m)
            nodal = self.ops.solve_M(B @ noise.field_coefficients(self.spec, self.basis, inc.dbeta_fine))
            dWs = [fem.FemFunction(self.ops.mesh, nodal[:, j]) for j in range(self.N)]
            self.inputs.append((inc.dbeta_fine, dWs))

    def round(self):
        out = []
        for dbeta, dWs in self.inputs:
            states = self._solve(dWs)
            out.append(None if states is None else _trajectory(dbeta, dWs, states))
        return out


class StrongCLI:
    """``chc study-strong`` through ``chc.cli.main`` on the default 1-D hierarchy.

    M=16 samples on a pool of two workers; the traced run repeats the study
    with one in-process worker.
    """

    name = "strong-cli"
    reference = "newton-1d-128"
    sample_after = ("chc.stepper", "backward_euler_step")
    L, T, n, N, levels, J, M = 1.0, 0.1, 128, 256, 4, 32, 16
    workers = 2

    def __init__(self, seed: int):
        self.seed = seed
        self.ops_per_round = self.M
        self.level_sizes = [
            (self.n // 2**i, self.N // 2**i) for i in range(self.levels - 1, -1, -1)
        ]
        self.steps_per_round = self.M * sum(N for _, N in self.level_sizes)

    def setup(self) -> None:
        self.dir = os.path.join(OUT_DIR, f"strong-cli-seed{self.seed}")
        os.makedirs(self.dir, exist_ok=True)
        self.config = os.path.join(self.dir, "study.cfg")
        with open(self.config, "w") as fh:
            fh.write(
                f"study = study-strong\ndomain = interval\nL = {self.L}\nn = {self.n}\n"
                f"N = {self.N}\nlevels = {self.levels}\nT = {self.T}\nM = {self.M}\n"
                f"sigma = 1\nr = 2\nJ = {self.J}\n"
            )

    def round(self, workers: int | None = None):
        workers = self.workers if workers is None else workers
        out_dir = os.path.join(self.dir, f"workers{workers}")
        _clear_program_caches()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(
                ["--config", self.config, "--seed", str(self.seed), "--workers", str(workers),
                 "--out", out_dir, "study-strong"]
            )
        with open(os.path.join(out_dir, "study-strong.csv"), "rb") as fh:
            csv_bytes = fh.read()
        return status, buf.getvalue(), csv_bytes

    def check(self, out) -> list[checks.Verdict]:
        status, text, csv_bytes = out
        fails = [line for line in text.splitlines() if line.startswith("[FAIL]")]
        return [
            checks.Verdict("exit status", status == 0, f"status={status}"),
            checks.Verdict("study checks", not fails, "; ".join(fails) or "all [PASS]"),
            checks.check_strong_csv(
                csv_bytes.decode(), self.L, self.T, self.level_sizes[:-1], self.M
            ),
        ]

    def check_once(self) -> list[checks.Verdict]:
        return []

    def failed(self, out) -> int:
        found = re.search(r"no Newton failures \(failures=(\d+)\)", out[1])
        return int(found.group(1)) if found else 0


class StochConv:
    """``stoch_conv_rate_study`` with the arguments ``chc study-stoch-conv`` passes."""

    name = "stochconv"
    reference = "convolution"
    sample_after = ("chc.experiments", "_rng_for_sample")
    workers = 1
    r, sigma, M = 2.0, 1.0, 64  # the CLI's default config values
    pair_cases = ((1e-3, 1e-5), (10.0, 1e-3), (40.0, 1e-3), (100.0, 1e-3))  # (lam, k)
    pair_samples = 10**6
    pair_seed = 20160928  # fixed: the verdict must not depend on --seed

    def __init__(self, seed: int):
        self.seed = seed
        params = inspect.signature(experiments.stoch_conv_rate_study).parameters
        self.study = {name: p.default for name, p in params.items()}
        self.ops_per_round = self.M * (
            len(self.study["Ns_temporal"]) + len(self.study["ns_spatial"])
        )
        self.steps_per_round = 0

    def setup(self) -> None:
        self.domain = spectral.DomainSpec.interval(1.0)

    def round(self):
        _clear_program_caches()
        return experiments.stoch_conv_rate_study(
            domain=self.domain, r=self.r, sigma=self.sigma, M=self.M, seed=self.seed
        )

    def spatial_gflop(self) -> float:
        """Operations of the spatial sweep's per-step batched products.

        Per step and sample: the (J, Nh+1, Nh+1) root applied to normals,
        the (Nh, J) coupling product and the (J, Nh) reference product.
        """
        J, N = self.study["J"], self.study["N_spatial"]
        flops = 0
        for n in self.study["ns_spatial"]:
            nh = n + 1
            flops += N * self.M * (2 * J * (nh + 1) ** 2 + 4 * J * nh)
        return flops / 1e9

    def check(self, report) -> list[checks.Verdict]:
        temporal, spatial = report.results
        return [
            checks.check_slope(
                "temporal slope", [lv.k for lv in temporal.levels],
                [lv.error for lv in temporal.levels], 0.35, 0.65,
            ),
            checks.check_slope(
                "spatial slope", [lv.h for lv in spatial.levels],
                [lv.error for lv in spatial.levels], 1.6, 2.4,
            ),
        ]

    def check_once(self) -> list[checks.Verdict]:
        """Checks of the study's building blocks that do not depend on the round."""
        verdicts = []
        for n in sorted(set(self.study["ns_spatial"]) | {self.study["n_temporal"]}):
            ops = fem.assemble(fem.build_interval_mesh(1.0, n))
            computed = fem.discrete_spectrum(ops).eigenvalues
            verdicts.append(
                checks.check_eigenvalues(n, computed, oracle.p1_neumann_eigenvalues(1.0, n))
            )
        rng = np.random.default_rng(self.pair_seed)
        for lam, k in self.pair_cases:
            z1 = rng.standard_normal(self.pair_samples)
            z2 = rng.standard_normal(self.pair_samples)
            dbeta, I = noise.convolution_pair_from_normals(lam, k, z1, z2)
            verdicts.append(checks.check_pair_moments(lam, k, dbeta, I))
        return verdicts

    def failed(self, report) -> int:
        return 0


WORKLOADS = {w.name: w for w in (Ensemble1D, Run2D, StrongCLI, StochConv)}
