"""Spans around calls into the program, recorded in memory.

``Tracer.install`` replaces every public function of the traced ``chc``
modules, wherever a ``chc`` module holds a reference to it, by a wrapper
that records (name, start, end, parent).  It also wraps
``SpectralField.__call__`` and SciPy's ``bmat``, ``splu`` and
``factorized`` (the stepper reaches them as module attributes).  Nothing in
the program's files changes; ``uninstall`` puts every original back.

``map_samples`` is wrapped so that each Monte-Carlo sample gets its own
span; that wrapper cannot be pickled, so traced studies run with one worker.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

import numpy as np

LAYERS = ("fem", "spectral", "noise", "stepper", "experiments", "cli")
SCIPY_CALLS = (
    ("scipy.sparse", "bmat"),
    ("scipy.sparse.linalg", "splu"),
    ("scipy.sparse.linalg", "factorized"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.newton_iters = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"chc.{layer}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrappers[id(obj)] = self.wrap(f"{layer}.{name}", self._hook(layer, name, obj))
        chc_modules = [m for k, m in sys.modules.items() if k == "chc" or k.startswith("chc.")]
        for mod in chc_modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, name, wrappers[id(obj)])
        field_cls = importlib.import_module("chc.spectral").SpectralField
        self._patch(field_cls, "__call__", self.wrap("spectral.field_eval", field_cls.__call__))
        for modname, attr in SCIPY_CALLS:
            mod = importlib.import_module(modname)
            self._patch(mod, attr, self.wrap(f"scipy.{attr}", getattr(mod, attr)))

    def _hook(self, layer: str, name: str, fn):
        """Extra accounting for the two calls whose results or arguments matter."""
        if (layer, name) == ("stepper", "backward_euler_step"):

            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.newton_iters += out[1].newton_iters
                return out

            return counted
        if (layer, name) == ("experiments", "map_samples"):

            def per_sample(sample_fn, n_samples, workers=1):
                return fn(self.wrap("experiments.sample", sample_fn), n_samples, workers)

            return per_sample
        return fn

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reduction -------------------------------------------------------------

    def durations(self) -> tuple[np.ndarray, np.ndarray]:
        """Total and self time of every span (self = total minus direct children)."""
        total = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=int)
        child = np.zeros_like(total)
        has = parents >= 0
        np.add.at(child, parents[has], total[has])
        return total, total - child

    def count(self, name: str) -> int:
        return self.names.count(name)

    def write(self, path, t0: float) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans": [
                        [n, round(s - t0, 7), round(e - t0, 7), p]
                        for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
                    ],
                },
                fh,
            )


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans: (value, unit) by metric name."""
    names = np.asarray(tr.names, dtype=object)
    total, self_time = tr.durations()
    parents = np.asarray(tr.parents, dtype=int)
    parent_names = np.where(parents >= 0, names[np.maximum(parents, 0)], "")
    under_stepper = np.array([p.startswith("stepper.") for p in parent_names], dtype=bool)

    def mask(*wanted):
        return np.isin(names, wanted)

    def tot(*wanted):
        return float(total[mask(*wanted)].sum())

    def calls(*wanted):
        return float(mask(*wanted).sum())

    steps = calls("stepper.backward_euler_step")
    step_s = tot("stepper.backward_euler_step")
    iters = float(tr.newton_iters)
    lu = mask("scipy.splu", "scipy.factorized") & under_stepper
    bmat = mask("scipy.bmat") & under_stepper
    samples = total[mask("experiments.sample")]
    return {
        "fem.assemble_s": (tot("fem.assemble"), "s"),
        "fem.assemble_calls": (calls("fem.assemble"), "count"),
        "fem.quadrature_s": (tot("fem.quadrature_points"), "s"),
        "fem.quadrature_calls": (calls("fem.quadrature_points"), "count"),
        "fem.discrete_spectrum_s": (tot("fem.discrete_spectrum"), "s"),
        "fem.prolong_s": (tot("fem.prolong"), "s"),
        "spectral.field_eval_s": (tot("spectral.field_eval"), "s"),
        "noise.sample_s": (tot("noise.sample_increments"), "s"),
        "noise.sample_calls": (calls("noise.sample_increments"), "count"),
        "noise.project_s": (tot("noise.project_increment"), "s"),
        "noise.project_calls": (calls("noise.project_increment"), "count"),
        "noise.pair_s": (tot("noise.convolution_pair_from_normals"), "s"),
        "stepper.steps": (steps, "count"),
        "stepper.step_s": (step_s, "s"),
        "stepper.step_self_s": (float(self_time[mask("stepper.backward_euler_step")].sum()), "s"),
        "stepper.newton_iters": (iters, "count"),
        "stepper.iters_per_step": (iters / steps if steps else 0.0, "count"),
        "stepper.iter_ms": (1e3 * step_s / iters if iters else 0.0, "ms"),
        "stepper.bmat_s": (float(total[bmat].sum()), "s"),
        "stepper.bmat_calls": (float(bmat.sum()), "count"),
        "stepper.splu_s": (float(total[lu].sum()), "s"),
        "stepper.splu_calls": (float(lu.sum()), "count"),
        "stepper.energy_s": (tot("stepper.lyapunov_J"), "s"),
        "experiments.samples": (float(len(samples)), "count"),
        "experiments.sample_s": (statistics.median(samples) if len(samples) else 0.0, "s"),
        "experiments.map_samples_s": (tot("experiments.map_samples"), "s"),
        "experiments.stoch_conv_temporal_s": (
            tot("experiments.stoch_conv_level_error_temporal"), "s"
        ),
        "experiments.stoch_conv_spatial_s": (
            tot("experiments.stoch_conv_level_error_spatial"), "s"
        ),
        "cli.dispatch_s": (float(self_time[mask("cli.dispatch")].sum()), "s"),
        "cli.write_s": (tot("cli.write_run_manifest", "experiments.write_csv"), "s"),
    }
