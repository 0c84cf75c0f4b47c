"""Problem instances: a constant magnetic 2-form on the n-sphere in normal form.

A model is the sphere dimension n together with the rotation rates
alpha_1..alpha_m (m = floor((n+1)/2)) of the 2-form written in plane
blocks.  Everything downstream is derived from the model exactly:

* hamiltonian_pert  H = K - S + U, where K is the rotational kinetic
  energy (`kinetic_energy`), S the momentum function of the magnetic
  rotation field and U the potential:

      S = (1/2) sum_i alpha_i (X_{2i-1} P_{2i} - X_{2i} P_{2i-1})
      U = (1/8) sum_i alpha_i^2 (X_{2i-1}^2 + X_{2i}^2)

The A-vector a_{2i-1} = a_{2i} = alpha_i^2 / 8 (and a_{n+1} = 0 for even
n) defines the accompanying Neumann-type potential; its level structure
(the partition of indices into blocks of equal a-value) drives the
construction of the commuting family.

`skew_normal_form` is the float-side front door: it block-diagonalizes an
arbitrary real skew matrix by an orthogonal change of frame, read off one
Hermitian eigendecomposition of i*Omega, and returns the alphas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InputError
from .exactpoly import (
    PhasePoly,
    _from_monomials,
    _unit,
    format_rational,
    parse_rational,
)

__all__ = [
    "MagneticModel",
    "ambient_units",
    "kinetic_energy",
    "hamiltonian_pert",
    "sigma_sharp",
    "gauge_shift",
    "SkewNormalForm",
    "skew_normal_form",
]


def _floats(values: Sequence, what: str) -> tuple:
    """Exact rationals as correctly rounded floats; one beyond the float
    range is an InputError that names `what`."""
    try:
        return tuple(float(v) for v in values)
    except OverflowError:
        raise InputError(f"a {what} is beyond the float range") from None


def level_blocks(values: Sequence, start: int = 0) -> tuple:
    """Indices (counted from `start`) grouped by equal value, as tuples
    ordered by their smallest index."""
    groups: dict = {}
    for idx, value in enumerate(values, start=start):
        groups.setdefault(value, []).append(idx)
    return tuple(tuple(blk) for blk in groups.values())


def ambient_units(n: int) -> tuple:
    """Coordinate units of R^{n+1}: the planes (2i-1, 2i), plus the
    unpaired index n+1 when n is even.  Indices are 1-based."""
    units = [(2 * i + 1, 2 * i + 2) for i in range((n + 1) // 2)]
    if (n + 1) % 2:
        units.append((n + 1,))
    return tuple(units)


@dataclass(frozen=True)
class MagneticModel:
    """Sphere dimension and exact rotation rates of the magnetic 2-form."""

    n: int
    alphas: tuple

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise InputError(f"sphere dimension must be an integer >= 2, got {self.n!r}")
        alphas = tuple(a if isinstance(a, Fraction) else Fraction(a) for a in self.alphas)
        m = (self.n + 1) // 2
        if len(alphas) != m:
            raise InputError(
                f"expected {m} rotation rates for n={self.n}, got {len(alphas)}"
            )
        if any(a < 0 for a in alphas):
            raise InputError("rotation rates must be nonnegative")
        object.__setattr__(self, "alphas", alphas)

    @cached_property
    def a(self) -> tuple:
        """Neumann coefficient vector: a_{2i-1} = a_{2i} = alpha_i^2/8."""
        coeffs = []
        for alpha in self.alphas:
            coeffs.extend([alpha * alpha / 8] * 2)
        if (self.n + 1) % 2:
            coeffs.append(Fraction(0))
        return tuple(coeffs)

    @cached_property
    def partition(self) -> tuple:
        """Blocks of 1-based indices with equal a-value."""
        return level_blocks(self.a, start=1)

    @cached_property
    def units(self) -> tuple:
        return ambient_units(self.n)

    @cached_property
    def hamiltonian(self) -> PhasePoly:
        """H = K - S + U, built once from the terms of K, -S and U, so its
        users share its cached partials."""
        return _from_monomials(self.n, (
            _kinetic_terms(self.n) + _sigma_terms(self, -1) + _x_square_terms(self.n, self.a)
        ))

    @property
    def pairs(self) -> tuple:
        """The coordinate planes (2i-1, 2i) only."""
        return tuple(u for u in self.units if len(u) == 2)

    def block_units(self, block: Sequence[int]) -> tuple:
        """Units wholly contained in the given index block, in unit order."""
        members = set(block)
        return tuple(u for u in self.units if members.issuperset(u))

    @cached_property
    def alpha_floats(self) -> tuple:
        return _floats(self.alphas, "rotation rate")

    @cached_property
    def two_a_floats(self) -> tuple:
        """Float coefficients 2a of the potential gradient 2a*X."""
        return _floats([2 * a for a in self.a], "potential coefficient alpha^2/4")

    def to_dict(self) -> dict:
        return {"n": self.n, "alphas": [format_rational(a) for a in self.alphas]}

    @classmethod
    def from_dict(cls, data) -> "MagneticModel":
        try:
            n, alphas = data["n"], data["alphas"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed model record: {exc}") from None
        # int() would read 4.5 and "4" as 4 and true as 1, and a string
        # would be read as one rate per character
        if type(n) is not int:
            raise InputError(f"malformed model record: 'n' must be an integer, got {n!r}")
        if not isinstance(alphas, list):
            raise InputError(f"malformed model record: 'alphas' must be a list, got {alphas!r}")
        try:
            rates = tuple(parse_rational(a) for a in alphas)
        except ValueError as exc:
            raise InputError(f"malformed model record: {exc}") from None
        return cls(n, rates)


# -- exact polynomial builders ----------------------------------------------
#
# Every polynomial here has closed-form terms, so each builder lists its
# (packed monomial, int numerator, positive int denominator) triples and
# sums them in one pass with `_from_monomials`.


def _killing_terms(i: int, j: int, n: int, p: int, q: int = 1) -> tuple:
    """The terms of (p/q) * (Xi Pj - Xj Pi), 1-based i < j, q > 0."""
    width = 2 * (n + 1)
    return (
        (_unit(width, i - 1) + _unit(width, n + j), p, q),
        (_unit(width, j - 1) + _unit(width, n + i), -p, q),
    )


def _killing_square_terms(i: int, j: int, n: int, p: int, q: int) -> tuple:
    """The terms of (p/q) * (Xi Pj - Xj Pi)^2, 1-based i < j, q > 0."""
    width = 2 * (n + 1)
    xi, xj = _unit(width, i - 1), _unit(width, j - 1)
    pi, pj = _unit(width, n + i), _unit(width, n + j)
    return (
        (2 * xi + 2 * pj, p, q),
        (xi + xj + pi + pj, -2 * p, q),
        (2 * xj + 2 * pi, p, q),
    )


def _x_square_terms(n: int, coeffs: Sequence) -> list:
    """The terms of sum_k c_k X_k^2 for the exact coefficients c_1..c_{n+1},
    zeros left out."""
    width = 2 * (n + 1)
    return [
        (2 * _unit(width, k), c.numerator, c.denominator)
        for k, c in enumerate(coeffs) if c
    ]


def _kinetic_terms(n: int) -> list:
    """The terms of K."""
    return [
        term
        for i in range(1, n + 2)
        for j in range(i + 1, n + 2)
        for term in _killing_square_terms(i, j, n, 1, 2)
    ]


def _sigma_terms(model: MagneticModel, sign: int) -> list:
    """The terms of sign * S."""
    return [
        term
        for k, alpha in enumerate(model.alphas) if alpha
        for term in _killing_terms(
            2 * k + 1, 2 * k + 2, model.n, sign * alpha.numerator, 2 * alpha.denominator)
    ]


def kinetic_energy(n: int) -> PhasePoly:
    """Rotational kinetic energy (1/2) sum_{i<j} (Xi Pj - Xj Pi)^2.

    On the unit cotangent structure |X| = 1, <X, P> = 0 this restricts to
    (1/2)|P|^2, the round-sphere kinetic energy.
    """
    return _from_monomials(n, _kinetic_terms(n))


def hamiltonian_pert(model: MagneticModel) -> PhasePoly:
    """H = K - S + U, the generator of the shifted-picture dynamics (the
    model's cached `hamiltonian`)."""
    return model.hamiltonian


def _plane_block(alphas: Sequence, d: int) -> list:
    """The d x d plane-block matrix: +alpha_k at (2k, 2k+1), -alpha_k at
    (2k+1, 2k), zero elsewhere.  Entries keep the type of the alphas
    (Fraction or float)."""
    zero = 0 * alphas[0] if len(alphas) else 0
    mat = [[zero] * d for _ in range(d)]
    for k, alpha in enumerate(alphas):
        mat[2 * k][2 * k + 1] = alpha
        mat[2 * k + 1][2 * k] = -alpha
    return mat


def sigma_sharp(model: MagneticModel, x: np.ndarray) -> np.ndarray:
    """Float evaluation of the magnetic covector field x @ (Omega/2); x may
    be one point (d,) or a stack of points (R, d).  Each component is one
    product: plane k of rate alpha_k gives -alpha_k/2 * x_{2k+1} in column
    2k and alpha_k/2 * x_{2k} in column 2k+1 (0-based), and zero-rate
    planes and the unpaired last coordinate give 0.  So no value depends
    on a BLAS kernel or on the other points."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for k, alpha in enumerate(model.alpha_floats):
        if alpha:
            half = 0.5 * alpha
            np.multiply(x[..., 2 * k + 1], -half, out=out[..., 2 * k])
            np.multiply(x[..., 2 * k], half, out=out[..., 2 * k + 1])
    return out


def gauge_shift(x: np.ndarray, p: np.ndarray, model: MagneticModel) -> np.ndarray:
    """Momenta shifted by the magnetic covector field: P + sigma#(X).

    x and p are one phase point (d,) or a stack of points (R, d).  Every
    point must sit on the unit sphere (checked to 1e-9); the shift
    preserves tangency because sigma(X) is orthogonal to X, and
    p - sigma_sharp(model, x) undoes it.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if x.shape != p.shape or x.ndim not in (1, 2) or x.shape[-1] != model.n + 1:
        raise InputError("phase point has wrong dimension for this model")
    if np.any(np.abs(np.linalg.norm(x, axis=-1) - 1.0) > 1e-9):
        raise InputError("gauge shift requires |X| = 1 within 1e-9")
    return p + sigma_sharp(model, x)


# -- skew normal form ---------------------------------------------------------


@dataclass(frozen=True)
class SkewNormalForm:
    """Orthogonal frame Q, plane rates alphas (descending) and the
    Frobenius residual of Q^T Omega Q against the plane-block matrix."""

    q: np.ndarray
    alphas: np.ndarray
    residual: float

    def block_matrix(self) -> np.ndarray:
        return np.array(_plane_block(self.alphas, self.q.shape[0]), dtype=float)

    def to_dict(self) -> dict:
        return {
            "Q": [[float(v) for v in row] for row in self.q],
            "alphas": [float(a) for a in self.alphas],
            "residual": float(self.residual),
        }


# A plane rate at most this fraction of the largest rate reads as 0.
ZERO_RATE_RTOL = 1e-4


def _fix_phase(cols: np.ndarray) -> np.ndarray:
    """Each column times the unit scalar that makes its first entry of
    largest modulus real and positive."""
    peak = cols[np.argmax(np.abs(cols), axis=0), np.arange(cols.shape[1])]
    return cols * (np.abs(peak) / peak)


def skew_normal_form(omega) -> SkewNormalForm:
    """Orthogonally block-diagonalize a real skew-symmetric matrix.

    i*Omega is Hermitian with eigenvalues +-alpha and zeros.  A unit
    eigenvector w = u + iv of +alpha > 0 has |u| = |v| = 1/sqrt(2),
    u orthogonal to v, Omega u = alpha v and Omega v = -alpha u, so the
    columns (sqrt(2) u, -sqrt(2) v) span one plane with +alpha above the
    diagonal of its 2x2 block (Ward & Gray, ACM TOMS 1978).  One `eigh`
    gives every plane, orthogonal to the others even when rates (nearly)
    repeat.  Each w is first turned so that its largest entry is real and
    positive, which fixes the rotation within its plane.  Alphas are
    reported in descending order; a rate at most ZERO_RATE_RTOL of the
    largest reads as 0, and an orthonormal basis of the complement of the
    planes fills the trailing zero blocks.  A skew matrix whose entries
    are all subnormal reads as the zero matrix.
    """
    om = np.asarray(omega, dtype=float)
    if om.ndim != 2 or om.shape[0] != om.shape[1]:
        raise InputError(f"matrix must be square, got shape {om.shape}")
    d = om.shape[0]
    if d < 1:
        raise InputError("empty matrix")
    if not np.all(np.isfinite(om)):
        raise InputError("matrix entries must be finite")
    # The Frobenius norm sums squared entries, so it overflows first; its
    # square is bounded by (d * max|entry|)^2.
    top = float(np.abs(om).max())
    if d * top >= np.sqrt(np.finfo(float).max):
        raise InputError("matrix entries are too large: the Frobenius norm would overflow")
    # Work on om / 2**e with max|entry| in [0.5, 1): the scaling is exact,
    # and the squares in the norms cannot underflow for tiny entries.
    exponent = math.frexp(top)[1]
    om = np.ldexp(om, -exponent)
    if np.linalg.norm(om + om.T) > 1e-12 * np.linalg.norm(om):
        raise InputError("matrix is not skew-symmetric within tolerance")
    m = d // 2
    if top < np.finfo(float).tiny:
        # Zero or subnormal entries only: they carry fewer than 53
        # significant bits, and such a matrix reads as the zero matrix.
        return SkewNormalForm(q=np.eye(d), alphas=np.zeros(m), residual=0.0)

    evals, evecs = np.linalg.eigh(1j * om)
    rates, w = evals[::-1][:m], evecs[:, ::-1][:, :m]
    alphas = np.where(rates > ZERO_RATE_RTOL * rates[0], rates, 0.0)
    w = np.sqrt(2.0) * _fix_phase(w[:, alphas > 0])
    planes = np.stack([w.real, -w.imag], axis=2).reshape(d, -1)
    complement = np.linalg.qr(np.column_stack([planes, np.eye(d)]))[0][:, planes.shape[1]:]
    q = np.column_stack([planes, _fix_phase(complement)])

    form = SkewNormalForm(q=q, alphas=alphas, residual=0.0)
    residual = float(np.linalg.norm(q.T @ om @ q - form.block_matrix()))
    return SkewNormalForm(
        q=q, alphas=np.ldexp(alphas, exponent), residual=math.ldexp(residual, exponent)
    )
