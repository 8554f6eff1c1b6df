"""Experiment harness: rate fits, output formats, worker pool, tiny studies."""

import csv

import numpy as np
import pytest

from chc.experiments import (
    CSV_HEADER,
    det_derivative_rate_study,
    det_linear_rate_study,
    fit_loglog,
    holder_probe,
    map_samples,
    moment_bound_study,
    single_run,
    stoch_conv_level_error_spatial,
    stoch_conv_level_error_temporal,
    strong_convergence_study,
    write_csv,
    write_manifest,
)
from chc.noise import NoiseSpec
from chc.spectral import DomainSpec


class TestFitLoglog:
    def test_exact_power(self):
        xs = np.array([1.0, 0.5, 0.25, 0.125])
        slope, r2 = fit_loglog(xs, 3.0 * xs**2)
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert r2 == pytest.approx(1.0)

    def test_exact_half_power(self):
        xs = np.array([0.1, 0.05, 0.025])
        slope, _ = fit_loglog(xs, np.sqrt(xs))
        assert slope == pytest.approx(0.5, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_loglog([1.0, 0.5], [1.0, 0.0])
        with pytest.raises(ValueError):
            fit_loglog([1.0, -0.5], [1.0, 1.0])


class TestOutput:
    def test_csv_bytes_stable(self, tmp_path):
        rows = [("n=8", 0.125, 1e-3, 4, 1.234567890123456e-5, 0.0, 2.0, 0.999)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, CSV_HEADER, rows)
        write_csv(p2, CSV_HEADER, rows)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        # repr-precision float round-trips exactly
        assert float(lines[1].split(",")[4]) == 1.234567890123456e-5

    def test_manifest_format(self, tmp_path):
        p = tmp_path / "manifest.txt"
        write_manifest(p, {"study": "det", "T": 0.01, "M": 8})
        assert p.read_text() == "study = det\nT = 0.01\nM = 8\n"


def _cube(m):
    return m**3


class TestMapSamples:
    def test_serial_order(self):
        assert map_samples(_cube, 5) == [0, 1, 8, 27, 64]

    def test_parallel_matches_serial(self):
        assert map_samples(_cube, 8, workers=2) == map_samples(_cube, 8, workers=1)


class TestDeterministicStudies:
    def test_linear_rates(self):
        report = det_linear_rate_study()
        assert report.ok, [c.detail for c in report.checks if not c.ok]
        spatial, temporal = report.results
        assert 1.85 <= spatial.slope <= 2.15
        assert 0.4 <= temporal.slope <= 0.6
        assert len(report.rows()) == 8

    def test_derivative_rates(self):
        report = det_derivative_rate_study()
        assert report.ok, [c.detail for c in report.checks if not c.ok]


class TestStochConvLevels:
    def test_sigma_zero_is_exact_zero(self):
        domain = DomainSpec.interval(1.0)
        noise = NoiseSpec(r=2.0, sigma=0.0, J=8, seed=0)
        assert stoch_conv_level_error_temporal(domain, noise, 16, 4, 0.1, 3) == (0.0, 0.0)
        assert stoch_conv_level_error_spatial(domain, noise, 8, 4, 0.1, 3) == (0.0, 0.0)

    @pytest.mark.parametrize(
        "level_error",
        [stoch_conv_level_error_temporal, stoch_conv_level_error_spatial],
        ids=["temporal", "spatial"],
    )
    def test_error_positive_and_reproducible(self, level_error):
        domain = DomainSpec.interval(1.0)
        noise = NoiseSpec(r=2.0, sigma=1.0, J=16, seed=7)
        a = level_error(domain, noise, 32, 8, 0.1, 10)
        b = level_error(domain, noise, 32, 8, 0.1, 10)
        assert a == b
        assert a[0] > 0
        # chunking must not change which sample gets which draws; only the
        # BLAS reduction order differs, so agreement is to rounding error
        c = level_error(domain, noise, 32, 8, 0.1, 10, chunk=3)
        assert np.allclose(c, a, rtol=1e-10)


class TestTinyStrong:
    def test_structure_and_worker_invariance(self):
        kwargs = dict(finest=(32, 64), n_levels=3, T=0.05, M=6, J=16)
        r1 = strong_convergence_study(workers=1, **kwargs)
        r2 = strong_convergence_study(workers=2, **kwargs)
        levels1 = r1.results[0].levels
        assert len(levels1) == 2
        assert all(lv.error > 0 for lv in levels1)
        assert r1.extra["checksums"] == r2.extra["checksums"]
        assert [lv.error for lv in levels1] == [lv.error for lv in r2.results[0].levels]
        # coarser level carries the larger error even at desk scale
        assert levels1[0].error > levels1[1].error


class TestTinyMoments:
    def test_ladder(self):
        report = moment_bound_study(ladder=((16, 16), (32, 32)), T=0.05, M=4, J=16)
        named = {c.name: c for c in report.checks}
        assert named["mass deviation <= 1e-10"].ok
        assert named["no Newton failures"].ok
        stats = report.extra["first_moments"]
        assert all(v > 0 for v in stats["sup_J"])
        assert all(v >= 0 for v in stats["sum_Y"])


    def test_rectangle_h_is_mesh_diameter(self, tmp_path):
        report = moment_bound_study(
            domain=DomainSpec.rectangle(1.0, 1.0), ladder=((4, 4), (8, 8)), T=0.01, M=2, J=8
        )
        path = tmp_path / "moments.csv"
        write_csv(path, CSV_HEADER, report.rows())
        with open(path, newline="") as fh:
            hs = [float(row["h"]) for row in csv.DictReader(fh)]
        assert hs == pytest.approx([np.sqrt(2.0) / 4.0, np.sqrt(2.0) / 8.0], rel=1e-15)


class TestNewtonFailures:
    def test_strong_keeps_the_message(self, first_config_fails):
        report = strong_convergence_study(finest=(16, 16), n_levels=3, T=0.01, M=3, J=8)
        [message] = report.extra["failures"]
        assert message.startswith("sample 0: n=16,N=16: step 1: Newton stalled at residual")
        assert "after 0 iterations" in message
        named = {c.name: c for c in report.checks}
        assert named["no Newton failures"].detail == "failures=1"
        assert not named["no Newton failures"].ok

    def test_moments_keep_the_message(self, first_config_fails):
        report = moment_bound_study(ladder=((8, 8), (16, 16)), T=0.01, M=3, J=8)
        [message] = report.extra["failures"]
        assert message.startswith("sample 0: n=8,N=8: step 1: Newton stalled at residual")
        named = {c.name: c for c in report.checks}
        assert named["no Newton failures"].detail == "failures=1"


class TestTinyHolder:
    def test_quotients_finite(self):
        report = holder_probe(n=16, N_fine=64, factors=(2, 1), T=0.05, J=16)
        quots = report.extra["quotients"]
        assert set(quots) == {2, 1}
        assert all(np.isfinite(v) and v > 0 for q in quots.values() for v in q.values())


class TestSingleRun:
    def test_deterministic_run_checks(self):
        report, rows = single_run(n=32, N=20, T=0.02, sigma=0.0)
        assert report.ok
        assert len(rows) == 20
        names = [c.name for c in report.checks]
        assert "J nonincreasing (sigma=0)" in names

    def test_noisy_run_mass(self):
        report, rows = single_run(n=32, N=20, T=0.02, sigma=1.0, J=16)
        assert report.ok
        assert max(abs(r[2]) for r in rows) <= 1e-10
