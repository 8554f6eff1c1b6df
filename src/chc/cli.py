"""Command-line entry point: parse a flat config, dispatch a study or run.

Config files are flat ``key = value`` text; unknown keys, keys the study
does not read and level ladders that do not nest are errors.  Every
invocation writes its resolved manifest before computing anything, then one
CSV per study.  The exit status is 0 iff every study check passed.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

from . import __version__, experiments
from .potential import Potential
from .spectral import DomainSpec

# key -> (type, default); None default means "required" or study-specific
_SCHEMA = {
    "study": (str, None),
    "domain": (str, "interval"),
    "L": (float, 1.0),
    "Lx": (float, 1.0),
    "Ly": (float, 1.0),
    "n": (int, 64),
    "N": (int, 100),
    "T": (float, 0.1),
    "M": (int, 64),
    "J": (int, 32),
    "sigma": (float, 1.0),
    "r": (float, 2.0),
    "seed": (int, 42),
    "levels": (int, 4),
    "factor": (int, 2),
    "potential": (str, "0.25,0,-0.5,0,0.25"),
    "x0": (str, "0,0.1,0.05"),
    "workers": (int, 1),
}


@dataclass
class Bundle:
    """Resolved configuration: every schema key materialized."""

    values: dict = field(default_factory=dict)

    def __getattr__(self, key):
        try:
            return self.values[key]
        except KeyError:
            raise AttributeError(key)

    @property
    def domain_spec(self) -> DomainSpec:
        kind = self.values["domain"]
        if kind not in _LENGTH_KEYS:
            raise ValueError(f"unknown domain {kind!r}")
        return DomainSpec(kind, tuple(self.values[k] for k in _LENGTH_KEYS[kind]))

    @property
    def potential_obj(self) -> Potential:
        coeffs = tuple(float(v) for v in self.values["potential"].split(","))
        return Potential(coeffs)

    @property
    def x0_coeffs(self) -> tuple:
        return tuple(float(v) for v in self.values["x0"].split(","))


_LENGTH_KEYS = {"interval": ("L",), "rectangle": ("Lx", "Ly")}

_RUN_HEADER = ("step", "t", "mass_deviation", "J", "Y_h1", "newton_iters")


@dataclass(frozen=True)
class Study:
    """One CLI study: the ``chc.experiments`` function it calls and the config keys it reads.

    ``kwargs`` maps a bundle that holds only the domain keys and ``keys`` to
    the function's keyword arguments; the domain is passed as ``domain``.
    The function is named, not held, so that it is looked up on the module
    when the study runs.  ``interval_only`` is empty for a study that runs
    on every domain, and otherwise says why it runs only on the interval.
    """

    function: str
    keys: tuple = ()
    kwargs: Callable[[Bundle], dict] = lambda b: {}
    interval_only: str = ""


_DENSE_2D = "its 2-D sweep passes the dense eigensolve limit"


# Keys of every study that marches the nonlinear scheme along a noise path.
_PATH_KEYS = ("T", "sigma", "r", "J", "seed", "potential", "x0")


def _path_kwargs(b: Bundle) -> dict:
    return dict(
        T=b.T, sigma=b.sigma, r=b.r, J=b.J, seed=b.seed,
        pot=b.potential_obj, x0_coeffs=b.x0_coeffs,
    )


STUDIES = {
    "run": Study(
        "single_run",
        ("n", "N", *_PATH_KEYS),
        lambda b: dict(n=b.n, N=b.N, **_path_kwargs(b)),
    ),
    "study-det": Study("det_linear_rate_study", interval_only=_DENSE_2D),
    "study-det-deriv": Study("det_derivative_rate_study", interval_only=_DENSE_2D),
    "study-stoch-conv": Study(
        "stoch_conv_rate_study",
        ("r", "sigma", "M", "seed"),
        lambda b: dict(r=b.r, sigma=b.sigma, M=b.M, seed=b.seed),
        interval_only=_DENSE_2D,
    ),
    "study-strong": Study(
        "strong_convergence_study",
        ("n", "N", "levels", "factor", "M", "workers", *_PATH_KEYS),
        lambda b: dict(
            finest=(b.n, b.N), n_levels=b.levels, factor=b.factor, M=b.M,
            workers=b.workers, **_path_kwargs(b),
        ),
        interval_only="levels are compared by prolongation, which exists only in 1-D",
    ),
    "study-moments": Study(
        "moment_bound_study",
        ("n", "N", "M", "workers", *_PATH_KEYS),
        lambda b: dict(
            ladder=tuple((b.n * 2**i, b.N * 2**i) for i in range(3)), M=b.M,
            workers=b.workers, **_path_kwargs(b),
        ),
    ),
    "probe-holder": Study(
        "holder_probe",
        ("n", "N", *_PATH_KEYS),
        lambda b: dict(n=b.n, N_fine=b.N, **_path_kwargs(b)),
    ),
}


def parse_config(path: str | None, overrides: dict | None = None) -> Bundle:
    """Read a flat key = value file, apply overrides, validate against schema."""
    raw = {}  # the file's keys, then the overrides
    if path is not None:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key = value")
                key, _, value = line.partition("=")
                raw[key.strip()] = value.strip()
    file_keys = set(raw)
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})

    values = {}
    for key, text in raw.items():
        if key not in _SCHEMA:
            raise ValueError(f"unknown config key {key!r}")
        typ, _ = _SCHEMA[key]
        try:
            values[key] = typ(text)
        except (TypeError, ValueError):
            raise ValueError(f"config key {key!r}: cannot parse {text!r} as {typ.__name__}")
    for key, (typ, default) in _SCHEMA.items():
        values.setdefault(key, default)

    if values["study"] is None:
        raise ValueError("missing required key 'study'")
    study = values["study"]
    if study not in STUDIES:
        raise ValueError(f"unknown study {study!r}")
    if values["domain"] not in _LENGTH_KEYS:
        raise ValueError(
            f"unknown domain {values['domain']!r}; expected one of {', '.join(_LENGTH_KEYS)}"
        )
    reason = STUDIES[study].interval_only
    if reason and values["domain"] != "interval":
        raise ValueError(
            f"study {study!r} does not run on domain {values['domain']!r}: {reason}"
        )
    unread = sorted(file_keys - set(_read_keys(Bundle(values))))
    if unread:
        raise ValueError(f"study {study!r} does not read config keys {', '.join(unread)}")
    if values["N"] < 1:
        raise ValueError("N must be >= 1")
    if values["n"] < 2:
        raise ValueError("n must be >= 2")
    if values["T"] <= 0:
        raise ValueError("T must be positive")
    if values["M"] < 1:
        raise ValueError("M must be >= 1")
    _check_ladder(study, values)
    return Bundle(values)


def _check_ladder(study: str, v: dict) -> None:
    """Refuse level ladders whose coarse meshes and time grids do not nest in the finest."""
    if study == "study-strong":
        if v["levels"] < 2 or v["factor"] < 2:
            raise ValueError(f"study {study!r} needs levels >= 2 and factor >= 2")
        coarsening = v["factor"] ** (v["levels"] - 1)
        if v["n"] % coarsening or v["N"] % coarsening or v["n"] // coarsening < 2:
            raise ValueError(
                f"study {study!r}: levels do not nest: n={v['n']} and N={v['N']} must be "
                f"multiples of factor**(levels-1) = {coarsening}, with n/{coarsening} >= 2"
            )
    if study == "probe-holder" and v["N"] % 4:
        raise ValueError(
            f"study {study!r}: N={v['N']} must be a multiple of 4 (it steps with N/4, N/2 and N)"
        )


def _read_keys(bundle: Bundle) -> list:
    """Config keys the bundle's study reads: the study, its domain and its table keys."""
    lengths = _LENGTH_KEYS.get(bundle.values["domain"], ())
    return sorted({"study", "domain", *lengths, *STUDIES[bundle.study].keys})


def write_run_manifest(bundle: Bundle, outdir: str, csv_name: str) -> str:
    """manifest.txt: version, timestamp, the config keys the study reads, the CSV name."""
    entries = {"artifact_version": __version__, "timestamp": f"{time.time():.0f}"}
    entries.update({k: bundle.values[k] for k in _read_keys(bundle)})
    entries["output_csv"] = csv_name
    path = os.path.join(outdir, "manifest.txt")
    experiments.write_manifest(path, entries)
    return path


def dispatch(bundle: Bundle, outdir: str) -> int:
    """Run the configured study, write CSV + manifest, return exit status."""
    os.makedirs(outdir, exist_ok=True)
    study = bundle.study
    csv_name = f"{study}.csv"
    write_run_manifest(bundle, outdir, csv_name)
    entry = STUDIES[study]
    # The study sees only the keys its table entry names.
    view = Bundle({k: bundle.values[k] for k in _read_keys(bundle)})
    fn = getattr(experiments, entry.function)  # looked up now, not at import
    out = fn(domain=view.domain_spec, **entry.kwargs(view))
    if study == "run":
        (report, rows), header = out, _RUN_HEADER
    else:
        report, rows, header = out, out.rows(), experiments.CSV_HEADER
    experiments.write_csv(os.path.join(outdir, csv_name), header, rows)
    for message in report.extra.get("failures", ()):
        print(f"{study}: {message}", file=sys.stderr)

    status = 0
    for check in report.checks:
        mark = "PASS" if check.ok else "FAIL"
        print(f"[{mark}] {study}: {check.name} ({check.detail})")
        if not check.ok:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chc",
        description="Fully discrete Cahn-Hilliard-Cook scheme: runs and rate studies",
    )
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", type=int, help="override the base seed")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--workers", type=int, help="Monte-Carlo worker count")
    sub = parser.add_subparsers(dest="command")
    for name in STUDIES:
        sub.add_parser(name)

    args = parser.parse_args(argv)
    overrides = {
        "study": args.command,
        "seed": args.seed if args.seed is not None else os.environ.get("CHC_SEED"),
        "workers": args.workers,
    }
    try:
        bundle = parse_config(args.config, overrides)
    except (ValueError, OSError) as err:
        parser.exit(2, f"error: {err}\n")
    try:
        return dispatch(bundle, args.out)
    except Exception as err:  # surfaced with context, nonzero exit
        print(f"error: {bundle.study}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
