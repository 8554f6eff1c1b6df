"""The reference sampler: chunks run inside the wrapped call, and the round's
relative time follows the formula in README.md."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import reference  # noqa: E402
from chc import experiments, stepper  # noqa: E402


def test_wrapped_call_logs_a_chunk_and_uninstall_restores(tmp_path):
    sampler = reference.Sampler("newton-1d-64", str(tmp_path / "log"))
    original = stepper.backward_euler_step
    sampler.install("chc.stepper", "backward_euler_step")
    assert stepper.backward_euler_step is not original
    sampler.uninstall()
    assert stepper.backward_euler_step is original

    target = experiments._rng_for_sample
    sampler.install("chc.experiments", "_rng_for_sample")
    try:
        sampler.period = 0.0
        sampler.start_round()
        experiments._rng_for_sample(1, 0)
    finally:
        sampler.uninstall()
    assert experiments._rng_for_sample is target
    (log,) = os.listdir(tmp_path / "log")
    work, chunk = map(float, (tmp_path / "log" / log).read_text().split())
    assert work >= 0.0 and chunk > 0.0


def test_collect_divides_by_the_work_weighted_harmonic_mean(tmp_path):
    sampler = reference.Sampler("newton-1d-64", str(tmp_path / "log"))
    for pid, (work, chunk) in ((101, (1.0, 0.01)), (102, (3.0, 0.02))):
        with open(tmp_path / "log" / f"{pid}.log", "w") as fh:
            fh.write(f"{work!r} {chunk!r}\n")
    # two workers: the main process ran no segment, so its tail is not weighed
    r_eff = 4.0 / (1.0 / 0.01 + 3.0 / 0.02)
    assert sampler.collect(2.03, workers=2) == pytest.approx((2.03 - 0.03 / 2) / r_eff)
    assert os.listdir(tmp_path / "log") == []
