"""Exact sparse polynomial algebra on ambient phase space.

Phase space is R^{2(n+1)} with positions X1..X{n+1} and conjugate momenta
P1..P{n+1}.  Coefficients are exact rationals (`fractions.Fraction`), so
every identity established with these polynomials is an identity over Q,
not a numerical statement.

A monomial is an exponent tuple of length 2(n+1), X block first.  The
canonical term order is graded lexicographic on (total degree, exponent
tuple), X before P; the zero polynomial is the empty term map.  The
Poisson bracket uses the convention

    {f, g} = sum_i  df/dXi * dg/dPi  -  df/dPi * dg/dXi

so that {Xi, Pj} = delta_ij.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import InputError

__all__ = [
    "PhasePoly",
    "poisson_bracket",
    "compiled_evaluator",
    "x_var",
    "p_var",
    "parse_rational",
    "format_rational",
]

# Byte budget of the gathered factors that one chunk of rows of
# compiled_evaluator holds at a time.
EVAL_CHUNK_BYTES = 4 << 20

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' into an exact Fraction.

    Decimal and scientific notation are rejected on purpose: every number
    that enters the exact layer must already be a rational literal.
    """
    s = str(text).strip()
    if not _RATIONAL_RE.match(s):
        raise InputError(f"not an exact fraction literal: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise InputError(f"zero denominator: {text!r}") from None


def format_rational(value: Fraction) -> str:
    """Inverse of parse_rational: 'p' or 'p/q' in lowest terms."""
    return str(Fraction(value))


def _coerce_coeff(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return parse_rational(c)
    raise TypeError(
        f"coefficient must be exact (int, Fraction or 'p/q' string), got {type(c).__name__}"
    )


def _mono_key(expo: tuple) -> tuple:
    return (sum(expo), expo)


class PhasePoly:
    """Sparse polynomial in X1..X{n+1}, P1..P{n+1} over the rationals.

    `terms` maps exponent tuples (X block first, then P block) to nonzero
    Fraction coefficients.  Instances are treated as immutable; every
    operation returns a new polynomial in canonical form.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping | Iterable | None = None):
        if not isinstance(n, int) or n < 1:
            raise InputError(f"ambient sphere dimension must be an integer >= 1, got {n!r}")
        width = 2 * (n + 1)
        checked = []
        for expo, coeff in terms.items() if isinstance(terms, Mapping) else (terms or ()):
            expo = tuple(int(e) for e in expo)
            if len(expo) != width:
                raise InputError(
                    f"exponent tuple has length {len(expo)}, expected {width} for n={n}"
                )
            if any(e < 0 for e in expo):
                raise InputError(f"negative exponent in {expo}")
            c = _coerce_coeff(coeff)
            if c:
                checked.append((expo, c))
        canon = _accumulate({}, checked)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", canon)

    def __setattr__(self, name, value):
        raise AttributeError("PhasePoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, n: int, value) -> "PhasePoly":
        width = 2 * (n + 1)
        return cls(n, {(0,) * width: _coerce_coeff(value)})

    @classmethod
    def _unit(cls, n: int, slot: int) -> "PhasePoly":
        width = 2 * (n + 1)
        expo = [0] * width
        expo[slot] = 1
        return cls(n, {tuple(expo): Fraction(1)})

    # -- basic structure ---------------------------------------------------

    @property
    def width(self) -> int:
        return 2 * (self.n + 1)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def bidegree_profile(self) -> set:
        """Set of (X-degree, P-degree) pairs occurring among the terms."""
        half = self.n + 1
        return {(sum(e[:half]), sum(e[half:])) for e in self.terms}

    def p_degree_parts(self) -> dict:
        """Split into homogeneous components by momentum degree."""
        half = self.n + 1
        parts: dict = {}
        for expo, coeff in self.terms.items():
            parts.setdefault(sum(expo[half:]), {})[expo] = coeff
        return {d: PhasePoly(self.n, t) for d, t in sorted(parts.items())}

    def sorted_terms(self) -> list:
        """Terms in the canonical graded lexicographic order."""
        return sorted(self.terms.items(), key=lambda kv: _mono_key(kv[0]))

    # -- arithmetic --------------------------------------------------------

    def _require_same_space(self, other: "PhasePoly"):
        if self.n != other.n:
            raise InputError(f"mixed phase spaces: n={self.n} vs n={other.n}")

    def __add__(self, other):
        if not isinstance(other, PhasePoly):
            return NotImplemented
        self._require_same_space(other)
        return _raw(self.n, _accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        if not isinstance(other, PhasePoly):
            return NotImplemented
        self._require_same_space(other)
        negated = ((e, -c) for e, c in other.terms.items())
        return _raw(self.n, _accumulate(dict(self.terms), negated))

    def __neg__(self):
        return _raw(self.n, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, PhasePoly):
            self._require_same_space(other)
            acc: dict = {}
            _mul_into(acc, self.terms, other.terms, _ONE)
            return _raw(self.n, acc)
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                return PhasePoly(self.n)
            return _raw(self.n, {e: c * q for e, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = PhasePoly.constant(self.n, 1)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, PhasePoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    __hash__ = None

    # -- calculus ----------------------------------------------------------

    def _partial(self, slot: int) -> "PhasePoly":
        terms: dict = {}
        for expo, coeff in self.terms.items():
            k = expo[slot]
            if k:
                lowered = list(expo)
                lowered[slot] = k - 1
                terms[tuple(lowered)] = coeff * k
        return _raw(self.n, terms)

    def partial_x(self, i: int) -> "PhasePoly":
        """d/dXi, 1-based index."""
        self._check_index(i)
        return self._partial(i - 1)

    def partial_p(self, i: int) -> "PhasePoly":
        """d/dPi, 1-based index."""
        self._check_index(i)
        return self._partial(self.n + i)

    def _check_index(self, i: int):
        if not 1 <= i <= self.n + 1:
            raise InputError(f"variable index {i} out of range 1..{self.n + 1}")

    # -- evaluation --------------------------------------------------------

    def evaluate_exact(self, point: Sequence) -> Fraction:
        """Evaluate at a rational phase point (X1..X{n+1}, P1..P{n+1}),
        exactly.  Float points go through `compiled_evaluator`."""
        if len(point) != self.width:
            raise InputError(f"point has length {len(point)}, expected {self.width}")
        pt = [Fraction(z) for z in point]
        total = Fraction(0)
        for expo, coeff in self.terms.items():
            v = coeff
            for z, e in zip(pt, expo):
                if e:
                    v *= z ** e
            total += v
        return total

    # -- substitution ------------------------------------------------------

    def substitute(self, images: Sequence["PhasePoly"]) -> "PhasePoly":
        """Replace each variable by the given polynomial, slot by slot.

        `images` lists the replacement for X1..X{n+1} then P1..P{n+1}.
        """
        if len(images) != self.width:
            raise InputError(f"expected {self.width} images, got {len(images)}")
        for img in images:
            if img.n != self.n:
                raise InputError("substitution images live on a different phase space")
        cache: dict = {}

        def power(slot: int, k: int) -> PhasePoly:
            key = (slot, k)
            got = cache.get(key)
            if got is None:
                got = images[slot] ** k
                cache[key] = got
            return got

        acc = PhasePoly(self.n)
        for expo, coeff in self.terms.items():
            term = PhasePoly.constant(self.n, coeff)
            for slot, e in enumerate(expo):
                if e:
                    term = term * power(slot, e)
            acc = acc + term
        return acc

    def substitute_linear(self, q, p_shift: Sequence["PhasePoly"] | None = None) -> "PhasePoly":
        """Affine substitution X -> QX, P -> QP + s(X).

        `q` is an (n+1)x(n+1) matrix of exact rationals applied to both the
        X block and the P block; `p_shift`, when given, lists n+1
        polynomials added to the momentum images (the gauge-shift use
        case is Q = identity, s = the magnetic covector field).
        """
        d = self.n + 1
        rows = [list(row) for row in q]
        if len(rows) != d or any(len(r) != d for r in rows):
            raise InputError(f"substitution matrix must be {d}x{d}")
        images: list = []
        for i in range(d):
            img = PhasePoly(self.n)
            for j in range(d):
                c = _coerce_coeff(rows[i][j])
                if c:
                    img = img + c * x_var(j + 1, self.n)
            images.append(img)
        for i in range(d):
            img = PhasePoly(self.n)
            for j in range(d):
                c = _coerce_coeff(rows[i][j])
                if c:
                    img = img + c * p_var(j + 1, self.n)
            if p_shift is not None:
                img = img + p_shift[i]
            images.append(img)
        return self.substitute(images)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"c": format_rational(c), "e": list(e)} for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "PhasePoly":
        try:
            n = int(data["n"])
            raw = data["terms"]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed polynomial record: {exc}") from None
        terms = []
        for item in raw:
            try:
                terms.append((tuple(int(e) for e in item["e"]), parse_rational(item["c"])))
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError(f"malformed polynomial term: {exc}") from None
        return cls(n, terms)

    # -- debugging ---------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        half = self.n + 1
        chunks = []
        for expo, coeff in self.sorted_terms():
            factors = []
            for slot, e in enumerate(expo):
                if not e:
                    continue
                name = f"X{slot + 1}" if slot < half else f"P{slot - half + 1}"
                factors.append(name if e == 1 else f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                chunks.append(str(coeff))
            elif coeff == 1:
                chunks.append(body)
            elif coeff == -1:
                chunks.append(f"-{body}")
            else:
                chunks.append(f"{coeff}*{body}")
        out = " + ".join(chunks)
        return out.replace("+ -", "- ")


_ONE = Fraction(1)


def _raw(n: int, terms: dict) -> PhasePoly:
    """Internal constructor for already-canonical term dicts."""
    poly = PhasePoly.__new__(PhasePoly)
    object.__setattr__(poly, "n", n)
    object.__setattr__(poly, "terms", terms)
    return poly


def _accumulate(acc: dict, items) -> dict:
    """acc += items at the raw term-dict level, dropping terms that cancel.

    `items` yields (exponent, nonzero Fraction) pairs; this is the one loop
    that keeps a term dict free of zero coefficients.
    """
    get = acc.get
    for expo, c in items:
        c0 = get(expo)
        if c0 is None:
            acc[expo] = c
        else:
            c = c0 + c
            if c:
                acc[expo] = c
            else:
                del acc[expo]
    return acc


def _mul_into(acc: dict, left: dict, right: dict, scale: Fraction):
    """acc += scale * left * right, at the raw term-dict level."""
    if not left or not right:
        return
    right_items = list(right.items())
    scaled = [(el, cl * scale) for el, cl in left.items()]
    _accumulate(acc, (
        (tuple(a + b for a, b in zip(el, er)), cl * cr)
        for el, cl in scaled
        for er, cr in right_items
    ))


def x_var(i: int, n: int) -> PhasePoly:
    """The coordinate polynomial Xi (1-based)."""
    if not 1 <= i <= n + 1:
        raise InputError(f"variable index {i} out of range 1..{n + 1}")
    return PhasePoly._unit(n, i - 1)


def p_var(i: int, n: int) -> PhasePoly:
    """The momentum polynomial Pi (1-based)."""
    if not 1 <= i <= n + 1:
        raise InputError(f"variable index {i} out of range 1..{n + 1}")
    return PhasePoly._unit(n, n + i)


def poisson_bracket(f: PhasePoly, g: PhasePoly) -> PhasePoly:
    """Canonical Poisson bracket {f, g}, exact.

    Computed slot by slot as sum_i df/dXi dg/dPi - df/dPi dg/dXi with a
    single accumulator dict so no intermediate polynomials are built.
    """
    if f.n != g.n:
        raise InputError(f"mixed phase spaces: n={f.n} vs n={g.n}")
    n = f.n
    acc: dict = {}
    for i in range(n + 1):
        fx = f._partial(i).terms
        if fx:
            gp = g._partial(n + 1 + i).terms
            _mul_into(acc, fx, gp, _ONE)
        fp = f._partial(n + 1 + i).terms
        if fp:
            gx = g._partial(i).terms
            _mul_into(acc, fp, gx, -_ONE)
    return _raw(n, acc)


def compiled_evaluator(poly: PhasePoly):
    """Vectorized float evaluator: maps an (R, 2(n+1)) point array to (R,).

    The exact layer stays exact; this is the one float evaluator
    (trajectory diagnostics, rank sampling, bracket classification and the
    finite-difference oracle).  Each term is compiled to the slot
    indices of its factors (X1^2 gives [0, 0]), padded to a common length
    with a sentinel slot that reads a column of ones; a term's value is
    the product of its gathered factors.  Rows are evaluated in chunks of
    at most EVAL_CHUNK_BYTES of gathered factors, so the working memory
    does not grow with R.
    """
    import numpy as np

    width = poly.width
    if not poly.terms:
        def zero(points):
            points = np.asarray(points, dtype=float)
            return np.zeros(points.shape[0])
        return zero
    coeffs = np.array([float(c) for c in poly.terms.values()])
    factors = [[slot for slot, e in enumerate(expo) for _ in range(e)] for expo in poly.terms]
    depth = max(len(f) for f in factors)
    slots = np.array([f + [width] * (depth - len(f)) for f in factors], dtype=np.intp)
    chunk = max(1, EVAL_CHUNK_BYTES // (8 * len(factors) * max(depth, 1)))

    def evaluate(points):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != width:
            raise InputError(f"expected points of shape (R, {width})")
        rows = points.shape[0]
        out = np.empty(rows)
        padded = np.ones((min(chunk, rows), width + 1))
        for s in range(0, rows, chunk):
            block = padded[: min(chunk, rows - s)]
            block[:, :width] = points[s : s + chunk]
            out[s : s + chunk] = block[:, slots].prod(axis=2) @ coeffs
        return out

    return evaluate
