"""Fixtures shared by the test modules."""

import os

import pytest

from chc import experiments
from chc.stepper import StepperConfig

# Child processes that run ``python -m chc.cli`` import chc from this checkout's
# src/, which pytest's own ``pythonpath`` setting does not reach.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def first_config_fails(monkeypatch):
    """The first stepper config a study makes allows no Newton iteration.

    With one worker that is sample 0's first level, so that sample fails at
    step 1 and every other sample runs as usual.
    """
    made = []

    def config(**kwargs):
        made.append(kwargs)
        if len(made) == 1:
            return StepperConfig(**kwargs, max_newton_iters=0)
        return StepperConfig(**kwargs)

    monkeypatch.setattr(experiments, "StepperConfig", config)
