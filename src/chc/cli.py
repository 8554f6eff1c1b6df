"""Command-line entry point: parse a flat config, dispatch a study or run.

A study's config keys are the keyword parameters of the ``chc.experiments``
function it calls, and a key that is not given takes that function's
default.  Config files are flat ``key = value`` text; unknown keys, keys the
study does not take and level ladders that do not nest are errors.  Every
invocation writes its manifest, every argument the study is called with,
before computing anything, then one CSV.  The exit status is 0 iff every
study check passed.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import time

from . import __version__, experiments
from .potential import Potential
from .spectral import DomainSpec


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(","))


# config key -> parser of its value; the defaults are the study function's
CONFIG_KEYS = {
    "study": str, "domain": str, "L": float, "Lx": float, "Ly": float,
    "n": int, "N": int, "T": float, "M": int, "J": int, "sigma": float, "r": float,
    "seed": int, "levels": int, "factor": int, "workers": int, "x0": _floats,
    "potential": lambda text: Potential(_floats(text)).F_coeffs,
}

# The domain defaults to the unit interval; a length that is not given is 1.
_LENGTH_KEYS = {"interval": ("L",), "rectangle": ("Lx", "Ly")}

_RUN_HEADER = ("step", "t", "mass_deviation", "J", "Y_h1", "newton_iters")

# study -> the name of the chc.experiments function it calls, which is looked
# up on the module when the study runs
STUDIES = {
    "run": "single_run",
    "study-det": "det_linear_rate_study",
    "study-det-deriv": "det_derivative_rate_study",
    "study-stoch-conv": "stoch_conv_rate_study",
    "study-strong": "strong_convergence_study",
    "study-moments": "moment_bound_study",
    "probe-holder": "holder_probe",
}

# The rectangle sweeps of the studies that take the dense discrete spectrum:
# every mesh keeps (n + 1)**2 nodes within fem.DENSE_EIG_LIMIT.  On the
# interval these studies run the sweeps their functions default to.
RECTANGLE_SWEEPS = {
    "study-det": dict(ns_spatial=(8, 16, 32), n_temporal=32),
    "study-det-deriv": dict(ns_spatial=(8, 16, 32), n_temporal=32),
    "study-stoch-conv": dict(ns_spatial=(4, 8, 16), n_temporal=16),
}


def parse_config(
    path: str | None, overrides: dict | None = None
) -> tuple[str, inspect.BoundArguments]:
    """Read a flat key = value file and apply the overrides.

    Returns the study and its function's arguments, defaults applied.  A
    file key must be ``study``, ``domain``, a length of the domain or a
    parameter of the study's function; an override that is not one of these
    is dropped, so ``--seed`` and ``--workers`` apply to the studies that
    take them.
    """
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
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        try:
            values[key] = CONFIG_KEYS[key](text)
        except (TypeError, ValueError) as err:
            raise ValueError(f"config key {key!r}: cannot parse {text!r} ({err})")

    study = values.get("study")
    if study is None:
        raise ValueError("missing required key 'study'")
    if study not in STUDIES:
        raise ValueError(f"unknown study {study!r}")
    kind = values.get("domain", "interval")
    if kind not in _LENGTH_KEYS:
        raise ValueError(f"unknown domain {kind!r}; expected one of {', '.join(_LENGTH_KEYS)}")
    domain = DomainSpec(kind, tuple(values.get(k, 1.0) for k in _LENGTH_KEYS[kind]))
    signature = inspect.signature(getattr(experiments, STUDIES[study]))
    params = set(signature.parameters) - {"domain"}
    refused = sorted(file_keys - params - {"study", "domain", *_LENGTH_KEYS[kind]})
    if refused:
        raise ValueError(f"study {study!r} does not read config keys {', '.join(refused)}")

    given = {k: v for k, v in values.items() if k in params}
    for key, lo in (("N", 1), ("n", 2), ("M", 1)):
        if given.get(key, lo) < lo:
            raise ValueError(f"{key} must be >= {lo}")
    if given.get("T", 1.0) <= 0:
        raise ValueError("T must be positive")
    sweep = RECTANGLE_SWEEPS.get(study, {}) if kind == "rectangle" else {}
    args = signature.bind(domain=domain, **sweep, **given)
    args.apply_defaults()
    _check_ladder(study, args.arguments)
    return study, args


def _check_ladder(study: str, a: dict) -> None:
    """Refuse level ladders whose coarse meshes and time grids do not nest in the finest."""
    if study == "study-strong":
        if a["levels"] < 2 or a["factor"] < 2:
            raise ValueError(f"study {study!r} needs levels >= 2 and factor >= 2")
        coarsening = a["factor"] ** (a["levels"] - 1)
        if a["n"] % coarsening or a["N"] % coarsening or a["n"] // coarsening < 2:
            raise ValueError(
                f"study {study!r}: levels do not nest: n={a['n']} and N={a['N']} must be "
                f"multiples of factor**(levels-1) = {coarsening}, with n/{coarsening} >= 2"
            )
    if study == "probe-holder" and a["N"] % max(a["factors"]):
        raise ValueError(
            f"study {study!r}: N={a['N']} must be a multiple of max(factors) = "
            f"{max(a['factors'])} (it steps with N/f for each f in {a['factors']})"
        )


def write_run_manifest(
    study: str, args: inspect.BoundArguments, outdir: str, csv_name: str
) -> str:
    """manifest.txt: version, timestamp, the study, its domain, every other argument, the CSV."""
    domain = args.arguments["domain"]
    entries = {"artifact_version": __version__, "timestamp": f"{time.time():.0f}"}
    entries.update(study=study, domain=domain.kind)
    entries.update(zip(_LENGTH_KEYS[domain.kind], domain.lengths))
    entries.update((k, v) for k, v in args.arguments.items() if k != "domain")
    entries["output_csv"] = csv_name
    path = os.path.join(outdir, "manifest.txt")
    experiments.write_manifest(path, entries)
    return path


def dispatch(study: str, args: inspect.BoundArguments, outdir: str) -> int:
    """Run the study on its arguments, write CSV + manifest, return exit status."""
    os.makedirs(outdir, exist_ok=True)
    csv_name = f"{study}.csv"
    write_run_manifest(study, args, outdir, csv_name)
    out = getattr(experiments, STUDIES[study])(*args.args, **args.kwargs)
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
    sub = parser.add_subparsers(dest="command")
    # The options go before or after the study name.  One that is not given
    # sets nothing, so a value given before the name is not overwritten.
    for p in (parser, *(sub.add_parser(name) for name in STUDIES)):
        p.add_argument("--config", default=argparse.SUPPRESS, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="override the base seed")
        p.add_argument("--out", default=argparse.SUPPRESS, help="output directory (default: out)")
        p.add_argument("--workers", type=int, default=argparse.SUPPRESS, help="Monte-Carlo worker count")

    args = vars(parser.parse_args(argv))
    overrides = {
        "study": args["command"],
        "seed": args.get("seed", os.environ.get("CHC_SEED")),
        "workers": args.get("workers"),
    }
    try:
        study, study_args = parse_config(args.get("config"), overrides)
    except (ValueError, OSError) as err:
        parser.exit(2, f"error: {err}\n")
    try:
        return dispatch(study, study_args, args.get("out", "out"))
    except Exception as err:  # surfaced with context, nonzero exit
        print(f"error: {study}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
