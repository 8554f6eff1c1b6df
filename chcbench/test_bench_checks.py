"""Each check passes on the program's real outputs and fails on a wrong input."""

import dataclasses
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402


class SmallEnsemble(workloads.Ensemble1D):
    n, N, n_traj, J = 16, 10, 1, 8


class SmallRun2D(workloads.Run2D):
    nx, N, n_traj = 6, 4, 1


def verdict(verdicts, name):
    (found,) = [v for v in verdicts if v.name == name]
    return found


@pytest.fixture(scope="module")
def ensemble():
    wl = SmallEnsemble(seed=3)
    wl.setup()
    return wl, wl.round()[0]


def test_real_outputs_pass(ensemble):
    wl, tr = ensemble
    verdicts = wl.check([tr])
    assert {v.name for v in verdicts} == {"mass", "newton", "energy", "projection"}
    assert all(v.ok for v in verdicts), [v.line() for v in verdicts]


def test_real_2d_outputs_pass():
    wl = SmallRun2D(seed=3)
    wl.setup()
    verdicts = wl.check(wl.round())
    assert all(v.ok for v in verdicts), [v.line() for v in verdicts]


def test_mass_fails_on_increment_with_mass(ensemble):
    wl, tr = ensemble
    wrong = dataclasses.replace(tr, dW=tr.dW + 1e-7)
    assert not verdict(wl.check([wrong]), "mass").ok


def test_newton_fails_on_state_perturbed_after_solve(ensemble):
    wl, tr = ensemble
    X = tr.X.copy()
    X[4, 7] += 1e-7
    assert not verdict(wl.check([dataclasses.replace(tr, X=X)]), "newton").ok


def test_newton_fails_on_chemical_potential_shifted_after_solve(ensemble):
    wl, tr = ensemble
    Y = tr.Y.copy()
    Y[4] += 1e-7  # K annihilates constants, so only the second residual block sees it
    assert not verdict(wl.check([dataclasses.replace(tr, Y=Y)]), "newton").ok


def test_energy_fails_on_state_with_added_energy(ensemble):
    wl, tr = ensemble
    X = tr.X.copy()
    X[5] += 0.05 * np.cos(np.linspace(0.0, 3.0 * np.pi, X.shape[1]))
    assert not verdict(wl.check([dataclasses.replace(tr, X=X)]), "energy").ok


def test_projection_fails_on_wrong_increment(ensemble):
    wl, tr = ensemble
    dW = tr.dW.copy()
    dW[2, 3] += 1e-7
    assert not verdict(wl.check([dataclasses.replace(tr, dW=dW)]), "projection").ok


def test_eigenvalue_check_fails_on_wrong_eigenvalue():
    exact = oracle.p1_neumann_eigenvalues(1.0, 32)
    assert checks.check_eigenvalues(32, exact.copy(), exact).ok
    wrong = exact.copy()
    wrong[10] *= 1.0 + 1e-9
    assert not checks.check_eigenvalues(32, wrong, exact).ok


def strong_csv(hs):
    lines = ["level,h,k,M,error,stderr,slope,r2"]
    for (n, N), h in zip([(16, 32), (32, 64)], hs):
        lines.append(f"n={n},N={N},{float(h)!r},{0.1 / N!r},16,1e-05,1e-07,1.2,0.8")
    return "\n".join(lines) + "\n"


def test_strong_csv_fails_on_wrong_h_column():
    levels = [(16, 32), (32, 64)]
    assert checks.check_strong_csv(strong_csv([1 / 16, 1 / 32]), 1.0, 0.1, levels, 16).ok
    diameters = [np.sqrt(2) / 16, np.sqrt(2) / 32]
    assert not checks.check_strong_csv(strong_csv(diameters), 1.0, 0.1, levels, 16).ok


def test_pair_moments_fail_on_wrong_law():
    from chc import noise

    rng = np.random.default_rng(7)
    z1, z2 = rng.standard_normal((2, 200_000))
    lam, k = 20.0, 1e-3
    dbeta, I = noise.convolution_pair_from_normals(lam, k, z1, z2)
    assert checks.check_pair_moments(lam, k, dbeta, I).ok
    assert not checks.check_pair_moments(lam, k, dbeta, 1.05 * I).ok


def test_slope_window():
    ks = np.array([0.1, 0.05, 0.025])
    assert checks.check_slope("t", ks, ks**0.5, 0.35, 0.65).ok
    assert not checks.check_slope("t", ks, ks**1.0, 0.35, 0.65).ok
