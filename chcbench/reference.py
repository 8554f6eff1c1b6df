"""Reference kernels: fixed NumPy/SciPy work that gauges the machine's speed.

The benchmark runs on a shared virtual machine whose speed changes with its
neighbours' load, on both CPUs at once: by 10-20% from one second to the
next, and by 20-30% between two runs ten minutes apart.  ``wall_rel``
therefore expresses a round's time in units of a reference kernel timed
while the round runs.  The kernel does what the workload's hot path does (a
Newton iteration of the P1 Cahn-Hilliard system, or the stochastic
convolution's batched products) with the benchmark's own code: it never
calls ``chc``, so a change to the program moves the round and not the
kernel.

``Sampler`` runs one chunk of the kernel, at most once per ``period``
seconds, after a program function the round calls often, in whichever
process calls it (pool workers forked after ``install`` too).  Each chunk is
logged with the work time since the previous one, and ``Sampler.collect``
turns a round's log into its relative time.
"""

from __future__ import annotations

import glob
import os
import shutil
import statistics
import sys
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import oracle


def rectangle_mesh(nx: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertices and right triangles of a uniform nx-by-nx mesh of the unit square."""
    xs = np.linspace(0.0, 1.0, nx + 1)
    X, Y = np.meshgrid(xs, xs)
    verts = np.column_stack([X.ravel(), Y.ravel()])
    idx = np.arange((nx + 1) ** 2).reshape(nx + 1, nx + 1)
    a, b = idx[:-1, :-1].ravel(), idx[:-1, 1:].ravel()
    c, d = idx[1:, :-1].ravel(), idx[1:, 1:].ravel()
    return verts, np.concatenate([np.column_stack([a, b, d]), np.column_stack([a, d, c])])


class NewtonKernel:
    """One Newton iteration of backward Euler for the double-well system.

    Nonlinear load and Jacobian by quadrature, COO assembly, the 2x2 block
    matrix, sparse LU and one solve, on a fixed state.
    """

    k = 5e-4

    def __init__(self, vertices: np.ndarray, cells: np.ndarray, iters: int):
        self.M, self.K = oracle.mass_stiffness(vertices, cells)
        self.energy = oracle.Energy(vertices, cells)
        self.iters = iters
        x = vertices if vertices.ndim == 1 else vertices @ np.array([1.0, 0.5])
        self.x = 0.1 * np.cos(3.0 * np.pi * x)
        nloc = cells.shape[1]
        self.rows = np.repeat(cells, nloc, axis=1).ravel()
        self.cols = np.tile(cells, (1, nloc)).ravel()

    def _iteration(self) -> np.ndarray:
        M, K, k, e, x = self.M, self.K, self.k, self.energy, self.x
        n = M.shape[0]
        vals = e._at_points(x)
        loc = np.einsum("cq,cq,qa,qb->cab", e.wts, 3.0 * vals * vals - 1.0, e.shapes, e.shapes)
        Bp = sp.coo_matrix((loc.ravel(), (self.rows, self.cols)), shape=(n, n)).tocsr()
        jac = sp.bmat([[M, k * K], [K + Bp, -M]], format="csc")
        r = np.concatenate([M @ x + k * (K @ x), K @ x + e.load_f(x)[0] - M @ x])
        return spla.splu(jac).solve(r)

    def chunk(self) -> None:
        for _ in range(self.iters):
            self._iteration()


class ConvolutionKernel:
    """The spatial sweep's per-step work: normals, batched products, reductions.

    J=64 modes and M=64 samples as in ``stochconv``, four steps at each n.
    """

    J, samples, ns, steps = 64, 64, (8, 16, 32, 64), 4

    def __init__(self):
        self.rng = np.random.default_rng(0)
        self.roots = []
        for n in self.ns:
            A = self.rng.standard_normal((self.J, n + 2, n + 2))
            self.roots.append(A @ A.transpose(0, 2, 1))

    def chunk(self) -> None:
        for C in self.roots:
            np.linalg.eigh(C[:4])
            for _ in range(self.steps):
                z = self.rng.standard_normal((self.J, C.shape[1], self.samples))
                g = np.einsum("jpq,jqm->jpm", C, z)
                (g * g).sum(0)


# kind -> (kernel factory, sampling period in seconds).  A chunk takes
# 15-100 ms, so the chunks cost at most 7-17% of a round.
KERNELS = {
    "newton-1d-64": (lambda: NewtonKernel(*oracle.interval_mesh(1.0, 64), iters=20), 0.25),
    "newton-1d-128": (lambda: NewtonKernel(*oracle.interval_mesh(1.0, 128), iters=15), 0.25),
    "newton-2d": (lambda: NewtonKernel(*rectangle_mesh(64), iters=1), 0.5),
    "convolution": (ConvolutionKernel, 0.5),
}


class Reference:
    """Times a kernel as the median of a few chunks, so a short stall is ignored."""

    chunks = 5

    def __init__(self, kind: str):
        self.kernel = KERNELS[kind][0]()
        self.kernel.chunk()  # warm-up: first-call costs are not the machine's speed

    def time(self) -> float:
        times = []
        for _ in range(self.chunks):
            t = time.perf_counter()
            self.kernel.chunk()
            times.append(time.perf_counter() - t)
        return statistics.median(times)


class Sampler:
    """Chunks of a reference kernel interleaved with a round's work.

    A segment is the work a process did between two chunks; its speed is
    taken from the chunk that ends it.  ``collect`` returns the round's wall
    time, less the chunks' share of it, over the work-weighted harmonic mean
    of the chunk times.
    """

    def __init__(self, kind: str, log_dir: str):
        self.reference = Reference(kind)
        self.kernel = self.reference.kernel
        self.log_dir, self.period = log_dir, KERNELS[kind][1]
        shutil.rmtree(log_dir, ignore_errors=True)
        os.makedirs(log_dir)
        self._patches: list[tuple[object, str, object]] = []
        self._pid = os.getpid()
        self._mark = time.perf_counter()

    def install(self, module: str, name: str) -> None:
        """Wrap `module.name` wherever a chc module holds a reference to it."""
        original = getattr(sys.modules[module], name)

        def sampled(*args, **kwargs):
            out = original(*args, **kwargs)
            self._tick()
            return out

        for mod in [m for k, m in sys.modules.items() if k == "chc" or k.startswith("chc.")]:
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, sampled)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _tick(self) -> None:
        now = time.perf_counter()
        if os.getpid() != self._pid:  # a new pool worker: its first segment starts here
            self._pid, self._mark = os.getpid(), now
            return
        if now - self._mark < self.period:
            return
        self.kernel.chunk()
        end = time.perf_counter()
        self._log(now - self._mark, end - now)
        self._mark = end

    def _log(self, work: float, chunk: float) -> None:
        with open(os.path.join(self.log_dir, f"{os.getpid()}.log"), "a") as fh:
            fh.write(f"{work!r} {chunk!r}\n")

    def start_round(self) -> None:
        self._mark = time.perf_counter()

    def collect(self, wall: float, workers: int) -> float:
        """The round's relative time; call right after the round ends."""
        tail, tail_ref = time.perf_counter() - self._mark, self.reference.time()
        segments = []
        for path in glob.glob(os.path.join(self.log_dir, "*.log")):
            with open(path) as fh:
                segments += [tuple(map(float, line.split())) for line in fh]
            os.remove(path)
        chunks_s = sum(c for _, c in segments)
        if workers == 1 or not segments:  # the main process ran the work
            segments.append((tail, tail_ref))
        work = sum(w for w, _ in segments)
        r_eff = work / sum(w / c for w, c in segments)
        return (wall - chunks_s / workers) / r_eff
