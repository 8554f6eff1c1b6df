"""Fixtures shared by the test modules."""

import pytest

from chc import experiments
from chc.stepper import StepperConfig


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
