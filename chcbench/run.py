"""Benchmark of the chc package in this checkout: four workloads, checked outputs.

    python3 chcbench/run.py --workload ensemble-1d --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload repeats whole rounds of its fixed work until
``--seconds`` of timed work have passed and reports the end-to-end metrics:
``setup_s`` (process start to the first timed operation), ``wall_rel`` (median
round time in units of a reference kernel whose chunks run inside the round,
see reference.py) and ``peak_rss_mb``.  With ``--trace 1`` it runs one
untraced and one traced round and reports the per-layer metrics from the
spans, which it also writes to ``chcbench/out/``.  Every round's outputs are checked; the last
line of standard output is one JSON object.  See README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
NAMES = ("ensemble-1d", "run-2d", "strong-cli", "stochconv")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def set_thread_policy() -> None:
    """One BLAS thread per process, so that pool workers times BLAS threads stays
    at or below the CPU count.  Must run before NumPy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_program():
    """Import chc from this checkout's src/ and nowhere else."""
    sys.path[:0] = [SRC, HERE]
    import chc

    if os.path.dirname(os.path.dirname(os.path.abspath(chc.__file__))) != SRC:
        raise ImportError(f"chc imported from {chc.__file__}, not from {SRC}")


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus `workers` times the largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def timed(fn, *args, **kwargs):
    t = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t


def report(verdicts, quiet_passes: bool) -> bool:
    for v in verdicts:
        if not v.ok or not quiet_passes:
            print(v.line(), file=sys.stderr)
    return all(v.ok for v in verdicts)


def measure(wl, seconds: float):
    """Whole rounds until `seconds` of timed work; returns metrics and counts.

    A round's relative time is its wall time in units of the reference
    kernel, whose chunks run inside the round (see reference.Sampler).
    """
    from reference import Sampler
    from workloads import OUT_DIR

    wl.setup()
    setup_s = time.perf_counter() - T_START
    sampler = Sampler(wl.reference, os.path.join(OUT_DIR, f"sampler-{wl.name}"))
    sampler.install(*wl.sample_after)
    walls, rels, attempted, failed = [], [], 0, 0
    correct = report(wl.check_once(), quiet_passes=False)
    while True:
        sampler.start_round()
        out, wall = timed(wl.round)
        rels.append(sampler.collect(wall, wl.workers))
        walls.append(wall)
        attempted += wl.ops_per_round
        failed += wl.failed(out)
        correct &= report(wl.check(out), quiet_passes=len(walls) > 1)
        if sum(walls) >= seconds:
            break
    sampler.uninstall()
    print(f"{wl.name}: {len(walls)} rounds, wall_s each " +
          " ".join(f"{w:.3f}" for w in walls) + ", wall_rel each " +
          " ".join(f"{r:.2f}" for r in rels), file=sys.stderr)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_rel": (statistics.median(rels), "ref"),
        "peak_rss_mb": (peak_rss_mb(wl.workers), "MB"),
    }
    return metrics, correct, attempted, failed


def measure_traced(wl, seed: int):
    """One untraced and one traced round of the same configuration.

    A pooled workload also runs one pooled round, whose CSV the traced
    in-process round must reproduce byte for byte.
    """
    import checks
    from reference import Reference
    from tracing import Tracer, layer_metrics
    from workloads import OUT_DIR

    wl.setup()
    ref_s = Reference(wl.reference).time()
    verdicts = list(wl.check_once())
    pooled = wl.workers > 1
    attempted, failed = 0, 0
    if pooled:  # the pooled round, for the scheduling-independence check
        pool_out = wl.round()
        verdicts += wl.check(pool_out)
        attempted += wl.ops_per_round
        failed += wl.failed(pool_out)
    kwargs = {"workers": 1} if pooled else {}
    base_out, base_wall = timed(wl.round, **kwargs)
    with Tracer() as tracer:  # set-up again, so that its layers show too
        wl.setup()
        out, wall = timed(wl.round, **kwargs)
    for o in (base_out, out):
        verdicts += wl.check(o)
        attempted += wl.ops_per_round
        failed += wl.failed(o)
    verdicts.append(checks.check_equal(
        "backward_euler_step spans == steps asked for",
        tracer.count("stepper.backward_euler_step"), wl.steps_per_round,
    ))
    if pooled:
        verdicts.append(checks.check_equal(
            "CSV of the traced in-process run == CSV of the pooled run", out[2], pool_out[2],
        ))
    correct = report(verdicts, quiet_passes=False)

    metrics = layer_metrics(tracer)
    gflop = wl.spatial_gflop() if hasattr(wl, "spatial_gflop") else 0.0
    spatial_s = metrics["experiments.stoch_conv_spatial_s"][0]
    metrics["experiments.stoch_conv_spatial_gflop"] = (gflop, "GFLOP")
    metrics["experiments.stoch_conv_spatial_gflops"] = (
        gflop / spatial_s if spatial_s else 0.0, "GFLOP/s"
    )
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall - base_wall, "s")
    metrics["trace.spans"] = (float(len(tracer.names)), "count")
    metrics["ref.chunk_s"] = (ref_s, "s")

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"trace-{wl.name}-seed{seed}.json"), T_START)
    return metrics, correct, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    set_thread_policy()
    try:
        import_program()
    except ImportError as err:
        print(f"error: cannot import the program: {err}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, correct, attempted, failed = measure_traced(wl, args.seed)
    else:
        metrics, correct, attempted, failed = measure(wl, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
