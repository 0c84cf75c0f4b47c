"""Exact sparse polynomial algebra on ambient phase space.

Phase space is R^{2(n+1)} with positions X1..X{n+1} and conjugate momenta
P1..P{n+1}.  Variables are numbered by slot, X block first: Xi is slot
i-1 and Pi is slot n+i.  Coefficients are exact rationals, so every
identity established with these polynomials is an identity over Q, not a
numerical statement.

A monomial is the sorted tuple of its factor slots: X1^2*P2 is
(0, 0, n+2) and the constant monomial is ().  The members of the
commuting family have degree at most 4, so these tuples are short
whatever n is.  A polynomial holds Python int numerators over one
positive common denominator, kept in lowest terms (the gcd of the
denominator and all numerators is 1), so equal polynomials have equal
representations.  Python ints never overflow, so this is the same
arithmetic over Q as with `Fraction` coefficients, without a gcd on
every operation: a product merges two factor tuples and multiplies ints,
a partial derivative drops one occurrence of a slot and multiplies by its
count, and a sum, product or bracket reduces by one gcd at the end (see
Monagan and Pearce, "Sparse polynomial multiplication and division in
Maple 14", 2009, for packed monomials with machine coefficients).

The constructor and the serialized form use exponent tuples of length
2(n+1), X block first.  The canonical term order is graded
lexicographic on (total degree, exponent tuple); the zero polynomial has
no terms.  The Poisson bracket uses the convention

    {f, g} = sum_i  df/dXi * dg/dPi  -  df/dPi * dg/dXi

so that {Xi, Pj} = delta_ij.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from fractions import Fraction
from itertools import groupby
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

# Largest total degree of one term that the constructor accepts.  A term
# holds one factor slot per unit of degree, so an unchecked exponent in a
# family file would become a tuple of that many entries.
MAX_TERM_DEGREE = 64

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


def _factors(expo: tuple) -> tuple:
    """Factor tuple of an exponent tuple: (2, 0, 1, 0) -> (0, 0, 2)."""
    return tuple(slot for slot, e in enumerate(expo) for _ in range(e))


def _exponents(factors: tuple, width: int) -> tuple:
    """Exponent tuple of a factor tuple, inverse of _factors."""
    expo = [0] * width
    for slot in factors:
        expo[slot] += 1
    return tuple(expo)


def _mono_key(expo: tuple) -> tuple:
    return (sum(expo), expo)


class PhasePoly:
    """Sparse polynomial in X1..X{n+1}, P1..P{n+1} over the rationals.

    `terms` maps factor tuples to nonzero int numerators and `den` is
    their positive common denominator, in lowest terms.  The constructor
    takes exponent tuples (X block first, then P block) with exact
    coefficients.  Instances are treated as immutable; every operation
    returns a new polynomial in canonical form.  The first partial
    derivatives are computed on first use and kept in `_derivs`, since
    one member is bracketed with every other.
    """

    __slots__ = ("n", "terms", "den", "_derivs")

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
            if sum(expo) > MAX_TERM_DEGREE:
                raise InputError(f"term {expo} has degree above {MAX_TERM_DEGREE}")
            c = _coerce_coeff(coeff)
            if c:
                checked.append((_factors(expo), c))
        _assign(self, n, *_lowest_terms(*_sum_items(checked)))

    def __setattr__(self, name, value):
        raise AttributeError("PhasePoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, n: int, value) -> "PhasePoly":
        width = 2 * (n + 1)
        return cls(n, {(0,) * width: _coerce_coeff(value)})

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
        return max(map(len, self.terms), default=-1)

    def bidegree_profile(self) -> set:
        """Set of (X-degree, P-degree) pairs occurring among the terms."""
        half = self.n + 1
        profile = set()
        for mono in self.terms:
            x_degree = bisect_left(mono, half)
            profile.add((x_degree, len(mono) - x_degree))
        return profile

    def p_degree_parts(self) -> dict:
        """Split into homogeneous components by momentum degree."""
        half = self.n + 1
        parts: dict = {}
        for mono, c in self.terms.items():
            parts.setdefault(len(mono) - bisect_left(mono, half), {})[mono] = c
        return {d: _raw(self.n, t, self.den) for d, t in sorted(parts.items())}

    def sorted_terms(self) -> list:
        """(exponent tuple, Fraction) pairs in the canonical graded
        lexicographic order."""
        width = self.width
        items = [(_exponents(m, width), Fraction(c, self.den)) for m, c in self.terms.items()]
        return sorted(items, key=lambda kv: _mono_key(kv[0]))

    # -- arithmetic --------------------------------------------------------

    def _require_same_space(self, other: "PhasePoly"):
        if self.n != other.n:
            raise InputError(f"mixed phase spaces: n={self.n} vs n={other.n}")

    def _combine(self, other: "PhasePoly", sign: int) -> "PhasePoly":
        """self + sign * other over the least common denominator."""
        self._require_same_space(other)
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        acc = {m: c * a for m, c in self.terms.items()}
        _accumulate(acc, ((m, c * b) for m, c in other.terms.items()))
        return _raw(self.n, acc, den)

    def __add__(self, other):
        if not isinstance(other, PhasePoly):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, PhasePoly):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self):
        return _raw(self.n, {m: -c for m, c in self.terms.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, PhasePoly):
            self._require_same_space(other)
            acc: dict = {}
            _mul_into(acc, self.terms.items(), other.terms.items())
            return _raw(self.n, acc, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                return PhasePoly(self.n)
            num = q.numerator
            return _raw(self.n, {m: c * num for m, c in self.terms.items()},
                        self.den * q.denominator)
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
        return self.n == other.n and self.den == other.den and self.terms == other.terms

    __hash__ = None

    # -- calculus ----------------------------------------------------------

    def _partial(self, slot: int) -> "PhasePoly":
        return _raw(self.n, dict(_partials(self).get(slot, ())), self.den)

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
        for mono, c in self.terms.items():
            v = Fraction(c)
            for slot in mono:
                v *= pt[slot]
            total += v
        return total / self.den

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
        for mono, c in self.terms.items():
            term = PhasePoly.constant(self.n, Fraction(c, self.den))
            for slot, run in groupby(mono):
                term = term * power(slot, len(list(run)))
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
        if not isinstance(raw, list):
            raise InputError("malformed polynomial record: 'terms' must be a list")
        terms = []
        for item in raw:
            try:
                expo, coeff = item["e"], parse_rational(item["c"])
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError(f"malformed polynomial term: {exc}") from None
            # int() would read 1.5, "2" and true as exponents; the
            # constructor rejects negative ones
            if not (isinstance(expo, list) and all(type(e) is int for e in expo)):
                raise InputError(
                    f"malformed polynomial term: exponents must be a list of "
                    f"integers, got {expo!r}"
                )
            terms.append((tuple(expo), coeff))
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


def _assign(poly: PhasePoly, n: int, terms: dict, den: int):
    object.__setattr__(poly, "n", n)
    object.__setattr__(poly, "terms", terms)
    object.__setattr__(poly, "den", den)


def _lowest_terms(terms: dict, den: int) -> tuple:
    """Divide an int term dict and its denominator by their common gcd."""
    if not terms:
        return terms, 1
    g = math.gcd(den, *terms.values())
    if g == 1:
        return terms, den
    return {m: c // g for m, c in terms.items()}, den // g


def _raw(n: int, terms: dict, den: int) -> PhasePoly:
    """Internal constructor: an int term dict without zero numerators over
    a positive denominator, reduced here to lowest terms."""
    poly = PhasePoly.__new__(PhasePoly)
    _assign(poly, n, *_lowest_terms(terms, den))
    return poly


def _sum_items(items: list) -> tuple:
    """(int term dict, common denominator) of the sum of (factor tuple,
    nonzero int or Fraction) pairs, added in order."""
    den = math.lcm(*(c.denominator for _, c in items))
    return _accumulate({}, ((m, c.numerator * (den // c.denominator)) for m, c in items)), den


def _from_factors(n: int, items) -> PhasePoly:
    """Polynomial of the sum of (factor tuple, nonzero exact coefficient)
    pairs; the factor tuples must be sorted and lie in 0..2n+1."""
    return _raw(n, *_sum_items(list(items)))


def _accumulate(acc: dict, items) -> dict:
    """acc += items at the raw term-dict level, dropping terms that cancel.

    `items` yields (monomial, nonzero coefficient) pairs; this is the one
    loop that keeps a term dict free of zero coefficients.
    """
    get = acc.get
    for mono, c in items:
        c0 = get(mono)
        if c0 is None:
            acc[mono] = c
        else:
            c = c0 + c
            if c:
                acc[mono] = c
            else:
                del acc[mono]
    return acc


def _mul_into(acc: dict, left, right):
    """acc += left * right, for collections of (factor tuple, int) pairs."""
    _accumulate(acc, (
        (tuple(sorted(ml + mr)), cl * cr)
        for ml, cl in left
        for mr, cr in right
    ))


def _partials(poly: PhasePoly) -> dict:
    """Every first partial derivative of poly over its denominator, in one
    pass over the terms and once per polynomial: slot -> list of (factor
    tuple, int) pairs, each list in term order.  A term with k factors of
    a slot gives k times the term with one factor of it dropped.  The
    lists are shared; callers must not change them."""
    out = getattr(poly, "_derivs", None)
    if out is None:
        out = {}
        for mono, c in poly.terms.items():
            prev = None
            for i, slot in enumerate(mono):
                if slot != prev:
                    prev = slot
                    out.setdefault(slot, []).append((mono[:i] + mono[i + 1:], c * mono.count(slot)))
        object.__setattr__(poly, "_derivs", out)
    return out


def x_var(i: int, n: int) -> PhasePoly:
    """The coordinate polynomial Xi (1-based)."""
    if not 1 <= i <= n + 1:
        raise InputError(f"variable index {i} out of range 1..{n + 1}")
    return _raw(n, {(i - 1,): 1}, 1)


def p_var(i: int, n: int) -> PhasePoly:
    """The momentum polynomial Pi (1-based)."""
    if not 1 <= i <= n + 1:
        raise InputError(f"variable index {i} out of range 1..{n + 1}")
    return _raw(n, {(n + i,): 1}, 1)


def poisson_bracket(f: PhasePoly, g: PhasePoly) -> PhasePoly:
    """Canonical Poisson bracket {f, g}, exact.

    The partial derivatives of f and g are taken on the integer
    numerators, once per polynomial; sum_i df/dXi dg/dPi - df/dPi dg/dXi
    accumulates integer products in a single dict over the denominator
    den(f) den(g), and one gcd reduces the result.
    """
    if f.n != g.n:
        raise InputError(f"mixed phase spaces: n={f.n} vs n={g.n}")
    n = f.n
    df, dg = _partials(f), _partials(g)
    acc: dict = {}
    for i in range(n + 1):
        fx, gp = df.get(i), dg.get(n + 1 + i)
        if fx and gp:
            _mul_into(acc, fx, gp)
        fp, gx = df.get(n + 1 + i), dg.get(i)
        if fp and gx:
            _mul_into(acc, [(m, -c) for m, c in fp], gx)
    return _raw(n, acc, f.den * g.den)


def compiled_evaluator(poly: PhasePoly):
    """Vectorized float evaluator: maps an (R, 2(n+1)) point array to (R,).

    The exact layer stays exact; this is the one float evaluator
    (trajectory diagnostics, bracket classification, and the tests' float
    rank and finite-difference oracles).  Each term's factor tuple (X1^2 gives
    (0, 0)) is padded to a common length with a sentinel slot that reads
    a column of ones; a term's value is the product of its gathered
    factors.  Each coefficient is its numerator divided by the
    denominator, an int division that rounds correctly.  Rows are
    evaluated in chunks of at most EVAL_CHUNK_BYTES of gathered factors,
    so the working memory does not grow with R.
    """
    import numpy as np

    width = poly.width
    coeffs = np.array([c / poly.den for c in poly.terms.values()])
    factors = list(poly.terms)
    depth = max(poly.degree(), 0)
    padded_factors = [m + (width,) * (depth - len(m)) for m in factors]
    slots = np.array(padded_factors, dtype=np.intp).reshape(len(factors), depth)
    chunk = max(1, EVAL_CHUNK_BYTES // max(1, 8 * len(factors) * max(depth, 1)))

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
