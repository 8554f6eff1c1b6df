"""Exact eigenstructure of the Neumann Laplacian on intervals and rectangles.

The negative Neumann Laplacian A on an interval [0, L] has eigenpairs
lambda_m = (m pi / L)^2 with cosine eigenfunctions; on a rectangle the
eigenpairs are tensor products.  Fields expanded in this basis support
fractional norms and the fourth-order semigroup exp(-t A^2) exactly,
which is what makes them usable as oracles for the finite element scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DomainSpec",
    "EigenBasis",
    "SpectralField",
    "build_basis",
    "eval_phi",
    "norm_alpha",
    "semigroup_apply",
]


@dataclass(frozen=True)
class DomainSpec:
    """An interval [0, L] or a rectangle [0, Lx] x [0, Ly]."""

    kind: str  # "interval" | "rectangle"
    lengths: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ("interval", "rectangle"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        expected = 1 if self.kind == "interval" else 2
        if len(self.lengths) != expected:
            raise ValueError(
                f"{self.kind} needs {expected} length(s), got {len(self.lengths)}"
            )
        if any(L <= 0 for L in self.lengths):
            raise ValueError("domain lengths must be positive")

    @property
    def dim(self) -> int:
        return len(self.lengths)

    @property
    def measure(self) -> float:
        """Lebesgue measure |D| of the domain."""
        return float(np.prod(self.lengths))

    @staticmethod
    def interval(L: float) -> "DomainSpec":
        return DomainSpec("interval", (float(L),))

    @staticmethod
    def rectangle(Lx: float, Ly: float) -> "DomainSpec":
        return DomainSpec("rectangle", (float(Lx), float(Ly)))


@dataclass(frozen=True)
class EigenBasis:
    """The first J Neumann-Laplacian eigenpairs, eigenvalues nondecreasing.

    Ties between equal eigenvalues are broken by lexicographic order of the
    integer index tuples so that truncations are reproducible.
    """

    domain: DomainSpec
    indices: tuple[tuple[int, ...], ...]
    eigenvalues: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def J(self) -> int:
        return len(self.indices)


def build_basis(domain: DomainSpec, J: int) -> EigenBasis:
    """First J eigenpairs of the Neumann Laplacian, sorted by eigenvalue."""
    if J < 1:
        raise ValueError("J must be >= 1")
    if domain.kind == "interval":
        (L,) = domain.lengths
        idx = [(m,) for m in range(J)]
        lam = np.array([(m * np.pi / L) ** 2 for m in range(J)])
        return EigenBasis(domain, tuple(idx), lam)

    Lx, Ly = domain.lengths
    # Generate enough tensor modes to cover the J smallest eigenvalues.
    side = int(np.ceil(np.sqrt(J))) + 2
    while True:
        pairs = [
            ((m, n), (m * np.pi / Lx) ** 2 + (n * np.pi / Ly) ** 2)
            for m in range(side)
            for n in range(side)
        ]
        pairs.sort(key=lambda p: (p[1], p[0]))
        # The square of side indices is guaranteed to contain the J smallest
        # modes once the J-th eigenvalue is below the cheapest excluded one.
        cutoff = min((side * np.pi / Lx) ** 2, (side * np.pi / Ly) ** 2)
        if pairs[J - 1][1] < cutoff:
            break
        side += 2
    idx = tuple(p[0] for p in pairs[:J])
    lam = np.array([p[1] for p in pairs[:J]])
    return EigenBasis(domain, idx, lam)


def eval_phi(basis: EigenBasis, j: int, x) -> np.ndarray:
    """Pointwise values of the j-th L2-orthonormal eigenfunction.

    ``x`` is an array of shape (..., dim) in 2-D, or any array of
    coordinates in 1-D.
    """
    if not 0 <= j < basis.J:
        raise IndexError(f"mode index {j} out of range for J={basis.J}")
    dom = basis.domain
    x = np.asarray(x, dtype=float)
    if dom.kind == "interval":
        (L,) = dom.lengths
        (m,) = basis.indices[j]
        if m == 0:
            return np.full_like(x, 1.0 / np.sqrt(L))
        return np.sqrt(2.0 / L) * np.cos(m * np.pi * x / L)
    Lx, Ly = dom.lengths
    m, n = basis.indices[j]
    xs, ys = x[..., 0], x[..., 1]
    cx = np.full_like(xs, 1.0 / np.sqrt(Lx)) if m == 0 else np.sqrt(2.0 / Lx) * np.cos(
        m * np.pi * xs / Lx
    )
    cy = np.full_like(ys, 1.0 / np.sqrt(Ly)) if n == 0 else np.sqrt(2.0 / Ly) * np.cos(
        n * np.pi * ys / Ly
    )
    return cx * cy


@dataclass
class SpectralField:
    """A field represented by coefficients in an EigenBasis."""

    basis: EigenBasis
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.basis.J,):
            raise ValueError("coefficient vector length must equal J")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("non-finite spectral coefficients")

    @property
    def mean(self) -> float:
        """Spatial average, c_0 / sqrt(|D|)."""
        return float(self.coeffs[0] / np.sqrt(self.basis.domain.measure))

    def __call__(self, x) -> np.ndarray:
        """Evaluate the truncated expansion at points x."""
        out = None
        for j, c in enumerate(self.coeffs):
            if c == 0.0:
                continue
            term = c * eval_phi(self.basis, j, x)
            out = term if out is None else out + term
        if out is None:
            x = np.asarray(x, dtype=float)
            shape = x.shape[:-1] if self.basis.domain.dim == 2 else x.shape
            out = np.zeros(shape)
        return out

    def scaled(self, gamma: float) -> "SpectralField":
        return SpectralField(self.basis, gamma * self.coeffs)

    @staticmethod
    def single_mode(basis: EigenBasis, j: int, amplitude: float = 1.0) -> "SpectralField":
        c = np.zeros(basis.J)
        c[j] = amplitude
        return SpectralField(basis, c)


def norm_alpha(v: SpectralField, alpha: float, dotted: bool = True) -> float:
    """Fractional norm of order alpha.

    dotted=True gives |v|_alpha = (sum_{j>=1} lambda_j^alpha c_j^2)^(1/2),
    which ignores the constant mode; dotted=False additionally includes
    |c_0|^2 and requires alpha >= 0.
    """
    lam = v.basis.eigenvalues[1:]
    c = v.coeffs[1:]
    if alpha < 0:
        if not dotted:
            raise ValueError("full norm is only defined for alpha >= 0")
        if abs(v.coeffs[0]) > 1e-14:
            raise ValueError("negative-order seminorm requires a zero-mean field")
        nz = c != 0.0
        lam, c = lam[nz], c[nz]
    dotted_sq = float(np.sum(lam**alpha * c**2)) if len(c) else 0.0
    if dotted:
        return np.sqrt(dotted_sq)
    return np.sqrt(dotted_sq + v.coeffs[0] ** 2)


def semigroup_apply(v: SpectralField, t: float) -> SpectralField:
    """Apply E(t) = exp(-t A^2); the mean coefficient is untouched."""
    if t < 0:
        raise ValueError("t must be >= 0")
    factors = np.exp(-t * v.basis.eigenvalues**2)
    return SpectralField(v.basis, factors * v.coeffs)
