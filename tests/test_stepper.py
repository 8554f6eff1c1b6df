"""Backward Euler stepping: fixed points, linear resolvent, mass and energy."""

from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from chc import fem
from chc.fem import (
    FemFunction,
    assemble,
    build_interval_mesh,
    build_rectangle_mesh,
    discrete_spectrum,
    project_l2,
)
from chc.noise import NoiseSpec, field_coefficients, project_increment, sample_increments
from chc.potential import double_well, zero_potential
from chc.spectral import DomainSpec, SpectralField, build_basis
from chc.stepper import (
    NewtonError,
    State,
    StepperConfig,
    backward_euler_step,
    chemical_potential,
    energy_residual,
    lyapunov_J,
    run_trajectory,
)

PI = np.pi


@pytest.fixture(scope="module")
def ops():
    return assemble(build_interval_mesh(1.0, 32))


@pytest.fixture(scope="module")
def dw():
    return double_well()


def constant_field(ops, value):
    return FemFunction(ops.mesh, np.full(ops.n_dofs, value))


def noisy_increments(ops, n_steps, T, seed=0, J=16, sigma=1.0):
    basis = build_basis(DomainSpec.interval(1.0), J)
    spec = NoiseSpec(r=2.0, sigma=sigma, J=J, seed=seed)
    inc = sample_increments(spec, T, n_steps)
    coefs = field_coefficients(spec, basis, inc.dbeta_fine)
    return [
        project_increment(SpectralField(basis, coefs[:, j]), ops)
        for j in range(n_steps)
    ]


class TestChemicalPotential:
    def test_minima_map_to_zero(self, ops, dw):
        for value in (0.0, 1.0, -1.0):
            y = chemical_potential(constant_field(ops, value), ops, dw)
            assert np.max(np.abs(y.values)) < 1e-10

    def test_constant_two(self, ops, dw):
        # K kills constants, so Y solves M Y = b with b_i = f(2) int hat_i
        y = chemical_potential(constant_field(ops, 2.0), ops, dw)
        assert np.max(np.abs(y.values - 6.0)) < 1e-10


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepperConfig(k=0.0)
        with pytest.raises(ValueError):
            StepperConfig(k=1e-3, newton_rtol=0.0)


class TestSingleStep:
    def test_stationary_fixed_point(self, ops, dw):
        cfg = StepperConfig(k=1e-3)
        X0 = constant_field(ops, 1.0)
        prev = State(X0, chemical_potential(X0, ops, dw), 0, 0.0)
        nxt, diag = backward_euler_step(prev, constant_field(ops, 0.0), cfg, ops, dw)
        assert np.max(np.abs(nxt.X.values - 1.0)) < 1e-10
        assert diag.newton_iters <= 1

    def test_linear_step_matches_resolvent(self, ops):
        # zero potential: one step is X -> (I + k A_h^2)^{-1} X in the
        # discrete eigenbasis, computed here independently via eigh
        pot = zero_potential()
        basis = build_basis(DomainSpec.interval(1.0), 8)
        X0 = project_l2(SpectralField(basis, np.array([0.0, 0.3, -0.2, 0.0, 0.1, 0, 0, 0])), ops)
        k = 1e-4
        cfg = StepperConfig(k=k)
        prev = State(X0, chemical_potential(X0, ops, pot), 0, 0.0)
        nxt, _ = backward_euler_step(prev, constant_field(ops, 0.0), cfg, ops, pot)

        spec = discrete_spectrum(ops)
        c = spec.coefficients(X0.values)
        expect = spec.synthesize(c / (1.0 + k * spec.eigenvalues**2))
        assert np.max(np.abs(nxt.X.values - expect)) < 1e-9

    def test_mass_conserved_with_noise(self, ops, dw):
        cfg = StepperConfig(k=1e-3)
        basis = build_basis(DomainSpec.interval(1.0), 8)
        X0 = project_l2(SpectralField(basis, np.array([0.3, 0.2, 0.1, 0, 0, 0, 0, 0])), ops)
        dWs = noisy_increments(ops, 8, 8e-3, seed=4)
        states, diags = run_trajectory(X0, dWs, cfg, ops, dw, store="all")
        m0 = ops.mean(X0.values)
        for d in diags:
            assert abs(d.mass - m0) < 1e-12

    def test_newton_converges_fast(self, ops, dw):
        # |X0|_1 <= 2, k <= 1e-3: a handful of Newton iterations suffice
        basis = build_basis(DomainSpec.interval(1.0), 8)
        X0 = project_l2(SpectralField.single_mode(basis, 1, 0.5), ops)
        cfg = StepperConfig(k=1e-3)
        dWs = noisy_increments(ops, 5, 5e-3, seed=9)
        _, diags = run_trajectory(X0, dWs, cfg, ops, dw)
        assert max(d.newton_iters for d in diags) <= 8

    def test_newton_error_raised(self, ops, dw):
        cfg = StepperConfig(k=1e-3, max_newton_iters=0)
        basis = build_basis(DomainSpec.interval(1.0), 4)
        X0 = project_l2(SpectralField.single_mode(basis, 1, 0.5), ops)
        prev = State(X0, chemical_potential(X0, ops, dw), 0, 0.0)
        with pytest.raises(NewtonError):
            backward_euler_step(prev, constant_field(ops, 1.0), cfg, ops, dw)


class TestTrajectory:
    def test_zero_steps(self, ops, dw):
        X0 = constant_field(ops, 0.5)
        states, diags = run_trajectory(X0, None, StepperConfig(k=1e-3), ops, dw)
        assert len(states) == 1 and diags == []

    def test_store_modes(self, ops, dw):
        X0 = constant_field(ops, 0.5)
        cfg = StepperConfig(k=1e-3)
        dWs = noisy_increments(ops, 6, 6e-3, seed=2)
        all_states, _ = run_trajectory(X0, dWs, cfg, ops, dw, store="all")
        assert len(all_states) == 7
        none_states, _ = run_trajectory(X0, dWs, cfg, ops, dw, store="none")
        assert len(none_states) == 2  # initial and final always kept
        assert np.array_equal(none_states[-1].X.values, all_states[-1].X.values)
        strided, _ = run_trajectory(X0, dWs, cfg, ops, dw, store="strided", stride=3)
        assert [s.step for s in strided] == [0, 3, 6]

    def test_length_mismatch(self, ops, dw):
        X0 = constant_field(ops, 0.5)
        with pytest.raises(ValueError):
            run_trajectory(X0, noisy_increments(ops, 3, 3e-3), StepperConfig(k=1e-3), ops, dw, n_steps=5)

    def test_deterministic_energy_decay(self, ops, dw):
        basis = build_basis(DomainSpec.interval(1.0), 8)
        X0 = project_l2(SpectralField(basis, np.array([0.0, 0.4, 0.0, 0.2, 0, 0, 0, 0])), ops)
        cfg = StepperConfig(k=5e-4)
        _, diags = run_trajectory(X0, None, cfg, ops, dw, n_steps=40)
        J = [lyapunov_J(X0, ops, dw)] + [d.J for d in diags]
        assert np.all(np.diff(J) <= 1e-12)


    def test_quadrature_built_once_per_rule(self, monkeypatch, dw):
        calls = Counter()
        original = fem.quadrature_points

        def counted(mesh, npts):
            calls[npts] += 1
            return original(mesh, npts)

        monkeypatch.setattr(fem, "quadrature_points", counted)
        fresh = assemble(build_interval_mesh(1.0, 32))
        dWs = noisy_increments(fresh, 20, 0.02)
        X0 = constant_field(fresh, 0.1)
        states, _ = run_trajectory(X0, dWs, StepperConfig(k=0.001), fresh, dw, store="all")
        assert len(states) == 21
        assert calls and max(calls.values()) == 1, dict(calls)


def coo_nonlinear_jacobian(ops, pot, x, quad):
    """B'(X)_{il} = int f'(X) phi_i phi_l dx by COO assembly, and its local matrices."""
    _, wts, shapes = quad
    cells = ops.mesh.cells
    vals = x[cells] @ shapes.T
    local = np.einsum("cq,qi,ql->cil", wts * pot.f_prime(vals), shapes, shapes)
    nloc = cells.shape[1]
    rows = np.repeat(cells, nloc, axis=1).ravel()
    cols = np.tile(cells, (1, nloc)).ravel()
    n = ops.n_dofs
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr(), local


def reference_step(x, y, dW, k, ops, pot, quad):
    """One backward Euler step with the block Jacobian rebuilt by bmat every iteration."""
    _, wts, shapes = quad
    M, K, cells = ops.M, ops.K, ops.mesh.cells
    cfg = StepperConfig(k=k)
    rhs1 = M @ (x + dW)
    tol = cfg.newton_atol + cfg.newton_rtol * np.linalg.norm(rhs1)
    iters = 0
    while True:
        b = np.zeros(ops.n_dofs)
        np.add.at(b, cells, (wts * pot.f(x[cells] @ shapes.T)) @ shapes)
        r1 = M @ x + k * (K @ y) - rhs1
        r2 = K @ x + b - M @ y
        if np.hypot(np.linalg.norm(r1), np.linalg.norm(r2)) <= tol:
            return x, y, iters
        Bp, _ = coo_nonlinear_jacobian(ops, pot, x, quad)
        jac = sp.bmat([[M, k * K], [K + Bp, -M]], format="csc")
        delta = spla.splu(jac).solve(np.concatenate([r1, r2]))
        x, y = x - delta[: ops.n_dofs], y - delta[ops.n_dofs :]
        iters += 1


class TestNewtonSystem:
    @pytest.mark.parametrize(
        "mesh",
        [build_interval_mesh(1.0, 16), build_rectangle_mesh(2.0, 1.0, 6, 5)],
        ids=["interval", "rectangle"],
    )
    def test_template_jacobian_matches_block_assembly(self, mesh, dw):
        ops = assemble(mesh)
        k = 1e-3
        x = np.random.default_rng(3).uniform(-1.5, 1.5, ops.n_dofs)
        Bp, local = coo_nonlinear_jacobian(ops, dw, x, ops.quadrature(3))
        expect = sp.bmat([[ops.M, k * ops.K], [ops.K + Bp, -ops.M]]).toarray()
        jac = ops.newton_system(k).jacobian(local)
        assert jac.format == "csc" and jac.has_canonical_format
        err = np.abs(jac.toarray() - expect).max()
        assert err <= 1e-14 * np.abs(expect).max()

    def test_built_once_per_ops_and_k(self, monkeypatch, dw):
        calls = Counter()
        original = fem.NewtonSystem.assemble

        def counted(M, K, cells, k):
            calls[k] += 1
            return original(M, K, cells, k)

        monkeypatch.setattr(fem.NewtonSystem, "assemble", staticmethod(counted))
        fresh = assemble(build_interval_mesh(1.0, 32))
        dWs = noisy_increments(fresh, 20, 0.02)
        X0 = constant_field(fresh, 0.1)
        for _ in range(2):
            _, diags = run_trajectory(X0, dWs, StepperConfig(k=0.001), fresh, dw)
        assert sum(d.newton_iters for d in diags) > 20
        assert calls == {0.001: 1}

    def test_no_bmat_while_stepping(self, monkeypatch, dw):
        calls = []
        monkeypatch.setattr(sp, "bmat", lambda *a, **kw: calls.append(a))
        fresh = assemble(build_interval_mesh(1.0, 32))
        dWs = noisy_increments(fresh, 20, 0.02)
        states, _ = run_trajectory(
            constant_field(fresh, 0.1), dWs, StepperConfig(k=0.001), fresh, dw, store="all"
        )
        assert len(states) == 21 and calls == []

    def test_rectangle_iterations_match_bmat_newton(self, dw):
        ops = assemble(build_rectangle_mesh(1.0, 1.0, 16, 16))
        domain = DomainSpec.rectangle(1.0, 1.0)
        basis = build_basis(domain, 16)
        spec = NoiseSpec(r=2.0, sigma=1.0, J=16, seed=5)
        n_steps, T = 20, 0.02
        inc = sample_increments(spec, T, n_steps)
        nodal = ops.project_modes(basis, field_coefficients(spec, basis, inc.dbeta_fine))
        dWs = [FemFunction(ops.mesh, nodal[:, j]) for j in range(n_steps)]
        c0 = np.zeros(16)
        c0[1:3] = (0.1, 0.05)
        X0 = project_l2(SpectralField(basis, c0), ops)
        k = T / n_steps
        states, diags = run_trajectory(X0, dWs, StepperConfig(k=k), ops, dw, store="all")

        x, y = X0.values, states[0].Y.values
        expect = []
        for dW in dWs:
            x, y, iters = reference_step(x, y, dW.values, k, ops, dw, ops.quadrature(3))
            expect.append(iters)
        assert [d.newton_iters for d in diags] == expect
        assert np.abs(states[-1].X.values - x).max() < 1e-12


class TestLyapunov:
    def test_constant_values(self, ops, dw):
        assert lyapunov_J(constant_field(ops, 1.0), ops, dw) == pytest.approx(0.0, abs=1e-14)
        assert lyapunov_J(constant_field(ops, 0.0), ops, dw) == pytest.approx(0.25)

    def test_against_fine_quadrature_oracle(self, ops, dw):
        # independent J(v) for the vertex interpolant of 0.1 sqrt(2) cos(pi x):
        # gradient part exact (piecewise constant slopes), F part by fine Simpson
        from scipy.integrate import simpson

        verts = ops.mesh.vertices
        vals = 0.1 * np.sqrt(2.0) * np.cos(PI * verts)
        v = FemFunction(ops.mesh, vals)
        h = np.diff(verts)
        grad_part = 0.5 * np.sum(np.diff(vals) ** 2 / h)
        xs = np.linspace(0.0, 1.0, 20001)
        F_part = simpson(dw.F(np.interp(xs, verts, vals)), x=xs)
        assert lyapunov_J(v, ops, dw) == pytest.approx(grad_part + F_part, abs=1e-8)


class TestEnergyResidual:
    def test_stationary_is_zero(self, ops, dw):
        cfg = StepperConfig(k=1e-3)
        X0 = constant_field(ops, 1.0)
        prev = State(X0, chemical_potential(X0, ops, dw), 0, 0.0)
        zero = constant_field(ops, 0.0)
        nxt, _ = backward_euler_step(prev, zero, cfg, ops, dw)
        assert abs(energy_residual(prev, nxt, zero, cfg.k, ops, dw)) < 1e-12

    def test_nonpositive_along_noisy_run(self, ops, dw):
        basis = build_basis(DomainSpec.interval(1.0), 8)
        X0 = project_l2(SpectralField(basis, np.array([0.0, 0.3, 0.1, 0, 0, 0, 0, 0])), ops)
        cfg = StepperConfig(k=1e-3)
        dWs = noisy_increments(ops, 20, 0.02, seed=17)
        states, _ = run_trajectory(X0, dWs, cfg, ops, dw, store="all")
        for j in range(20):
            res = energy_residual(states[j], states[j + 1], dWs[j], cfg.k, ops, dw)
            assert res <= 1e-8
