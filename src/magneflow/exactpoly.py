"""Exact sparse polynomial algebra on ambient phase space.

Phase space is R^{2(n+1)} with positions X1..X{n+1} and conjugate momenta
P1..P{n+1}.  Variables are numbered by slot, X block first: Xi is slot
i-1 and Pi is slot n+i.  Coefficients are exact rationals, so every
identity established with these polynomials is an identity over Q, not a
numerical statement.

A monomial is packed into one Python int with an 8-bit exponent field
per slot, slot 0 (X1) in the most significant byte: over w = 2(n+1)
slots the exponent of slot s sits at bit 8(w-1-s), so X1^2*P2 is
2*256^(w-1) + 256^(w-n-2) and the constant monomial is 0.  A product of
monomials is the sum of their keys, a first partial in slot s subtracts
that slot's unit 256^(w-1-s) and multiplies by the field's value, and
`key.to_bytes(w, "big")` reads the exponent tuple back.  A field holds
exponents up to MAX_EXPONENT = 255, so a product whose total degree
could pass it raises InputError instead of carrying into the next field;
each polynomial computes its degree once, so this check costs nothing
per term.  A polynomial holds Python int numerators over one positive
common denominator, kept in lowest terms (the gcd of the denominator and
all numerators is 1), so equal polynomials have equal representations.
Python ints never overflow, so this is the same arithmetic over Q as
with `Fraction` coefficients, without a gcd on every operation: a
product adds keys and multiplies ints, and a sum, product or bracket
reduces by one gcd at the end (see Monagan and Pearce, "Sparse
polynomial multiplication and division in Maple 14", 2009, for packed
monomials with machine coefficients).

The constructor and the serialized form use exponent tuples of length
2(n+1), X block first.  The canonical term order is graded
lexicographic on (total degree, exponent tuple), which is (total degree,
key) on packed keys; the zero polynomial has no terms.  The Poisson
bracket uses the convention

    {f, g} = sum_i  df/dXi * dg/dPi  -  df/dPi * dg/dXi

so that {Xi, Pj} = delta_ij.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Mapping

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

# Byte budget of the block of points that compiled_evaluator transposes
# into columns at a time: 16 384 rows at n = 4.  Smaller blocks pay
# numpy's per-call cost more often, and whole arrays fall out of cache.
EVAL_CHUNK_BYTES = 5 << 18

# Largest exponent that one 8-bit field of a packed monomial holds, and
# so the largest total degree of a product.
MAX_EXPONENT = 255

# Largest total degree of one term that the constructor accepts, which
# keeps the terms of a family file far below MAX_EXPONENT.
MAX_TERM_DEGREE = 64

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' into an exact Fraction.

    Decimal and scientific notation are rejected on purpose: every number
    that enters the exact layer must already be a rational literal.
    """
    return Fraction(*_parse_literal(text))


def _parse_literal(text) -> tuple:
    """(p, q) of the literal 'p' or 'p/q' (q = 1), not reduced; q > 0.
    The one parser of coefficient literals, behind parse_rational."""
    s = str(text).strip()
    if not _RATIONAL_RE.match(s):
        raise InputError(f"not an exact fraction literal: {text!r}")
    num, _, den = s.partition("/")
    den = int(den or 1)
    if not den:
        raise InputError(f"zero denominator: {text!r}")
    return int(num), den


def format_rational(value: Fraction) -> str:
    """Inverse of parse_rational: 'p' or 'p/q' in lowest terms."""
    return str(Fraction(value))


def _coerce_coeff(c) -> tuple:
    """(numerator, positive denominator) of an exact coefficient."""
    if isinstance(c, (int, Fraction)):
        return c.numerator, c.denominator
    if isinstance(c, str):
        return _parse_literal(c)
    raise TypeError(
        f"coefficient must be exact (int, Fraction or 'p/q' string), got {type(c).__name__}"
    )


def _unit(width: int, slot: int) -> int:
    """Packed monomial of the single variable in `slot`."""
    return 1 << 8 * (width - 1 - slot)


def _fields(mono: int, width: int):
    """(slot, exponent) of every nonzero exponent field of a packed
    monomial, in slot order: the top nonzero byte comes first."""
    while mono:
        shift = (mono.bit_length() - 1) & -8
        exponent = mono >> shift
        mono -= exponent << shift
        yield width - 1 - (shift >> 3), exponent


def _check_product_degree(degree: int):
    if degree > MAX_EXPONENT:
        raise InputError(
            f"a product of total degree {degree} could overflow an exponent "
            f"field; the limit is {MAX_EXPONENT}"
        )


class PhasePoly:
    """Sparse polynomial in X1..X{n+1}, P1..P{n+1} over the rationals.

    `terms` maps packed monomials to nonzero int numerators and `den` is
    their positive common denominator, in lowest terms.  The constructor
    takes exponent tuples (X block first, then P block) with exact
    coefficients.  Instances are treated as immutable; every operation
    returns a new polynomial in canonical form.  The total degree and the
    first partial derivatives are computed on first use and kept in
    `_degree` and `_derivs`, since one member is bracketed with every
    other.
    """

    __slots__ = ("n", "terms", "den", "_degree", "_derivs")

    def __init__(self, n: int, terms: Mapping | Iterable | None = None):
        items = terms.items() if isinstance(terms, Mapping) else (terms or ())
        _build(self, n, ((tuple(map(int, e)), c) for e, c in items), _coerce_coeff)

    def __setattr__(self, name, value):
        raise AttributeError("PhasePoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, n: int, value) -> "PhasePoly":
        return cls(n, {(0,) * (2 * (n + 1)): value})

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
        degree = getattr(self, "_degree", None)
        if degree is None:
            width = self.width
            degree = max((sum(m.to_bytes(width, "big")) for m in self.terms), default=-1)
            object.__setattr__(self, "_degree", degree)
        return degree

    def _graded(self) -> list:
        """(exponent bytes, int numerator) of every term in the canonical
        graded lexicographic order, (total degree, key)."""
        width, terms = self.width, self.terms
        order = sorted(terms, key=lambda m: (sum(m.to_bytes(width, "big")), m))
        return [(m.to_bytes(width, "big"), terms[m]) for m in order]

    def sorted_terms(self) -> list:
        """(exponent tuple, Fraction) pairs in the canonical graded
        lexicographic order."""
        return [(tuple(e), Fraction(c, self.den)) for e, c in self._graded()]

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
        return _raw(self.n, _mul_into(acc, other.terms.items(), ((0, b),)), den)

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
            degree = self.degree() + other.degree()
            _check_product_degree(degree)
            acc = _mul_into({}, self.terms.items(), other.terms.items())
            product = _raw(self.n, acc, self.den * other.den)
            if acc:  # Q[X, P] has no zero divisors, so no leading form cancels
                object.__setattr__(product, "_degree", degree)
            return product
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

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """The JSON form; each coefficient is printed from its numerator
        and the denominator as format_rational prints it, 'p' or 'p/q'."""
        den, terms = self.den, []
        for e, c in self._graded():
            g = math.gcd(c, den)
            text = f"{c // g}/{den // g}" if g != den else str(c // g)
            terms.append({"c": text, "e": list(e)})
        return {"n": self.n, "terms": terms}

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
        literals = {}  # each distinct literal is parsed once
        for item in raw:
            try:
                expo, text = item["e"], item["c"]
                # only str keys: True == 1, but the literal True is rejected
                coeff = literals.get(text) if type(text) is str else None
                if coeff is None:
                    coeff = literals[text] = _parse_literal(text)
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError(f"malformed polynomial term: {exc}") from None
            # int() would read 1.5, "2" and true as exponents, and bytes()
            # reads true; _build rejects negative ones
            if not (isinstance(expo, list) and set(map(type, expo)) <= {int}):
                raise InputError(
                    f"malformed polynomial term: exponents must be a list of "
                    f"integers, got {expo!r}"
                )
            terms.append((expo, coeff))
        poly = cls.__new__(cls)
        _build(poly, n, terms, tuple)  # each coefficient is already a (p, q) pair
        return poly

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


def _build(poly: PhasePoly, n: int, items, coerce):
    """Check n and the (exponent sequence of ints, coefficient) items, and
    make poly their sum over Q; `coerce` turns a coefficient into (p, q),
    q > 0.  bytes() packs an exponent sequence and rejects any exponent
    outside 0..255 in the same call."""
    if not isinstance(n, int) or n < 1:
        raise InputError(f"ambient sphere dimension must be an integer >= 1, got {n!r}")
    width = 2 * (n + 1)
    checked = []
    for expo, coeff in items:
        try:
            packed = bytes(expo)
        except ValueError:
            packed = b""
        if len(packed) != width or sum(packed) > MAX_TERM_DEGREE:
            _reject_exponents(tuple(expo), n)
        num, den = coerce(coeff)
        if num:
            checked.append((int.from_bytes(packed, "big"), num, den))
    _assign(poly, n, *_lowest_terms(*_sum_items(checked)))


def _reject_exponents(expo: tuple, n: int):
    """Raise the InputError that names what is wrong with an exponent
    tuple that _build could not pack or whose degree is too high."""
    width = 2 * (n + 1)
    if len(expo) != width:
        raise InputError(f"exponent tuple has length {len(expo)}, expected {width} for n={n}")
    if min(expo) < 0:
        raise InputError(f"negative exponent in {expo}")
    raise InputError(f"term {expo} has degree above {MAX_TERM_DEGREE}")


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
    """(int term dict, common denominator) of the sum of (packed monomial,
    nonzero int numerator, positive int denominator) triples, added in
    order over the lcm of the denominators."""
    den = math.lcm(*(q for _, _, q in items))
    terms = [(m, p * (den // q)) for m, p, q in items]
    return _mul_into({}, terms, ((0, 1),)), den


def _from_monomials(n: int, items) -> PhasePoly:
    """Polynomial of the sum of (packed monomial, nonzero int numerator,
    positive int denominator) triples, added in order; every exponent
    must fit its field.  The builders of closed-form polynomials list
    their terms and make them one polynomial here."""
    return _raw(n, *_sum_items(list(items)))


def _mul_into(acc: dict, left, right) -> dict:
    """acc += left * right at the raw term-dict level, for collections of
    (packed monomial, nonzero int) pairs whose degrees add up to at most
    MAX_EXPONENT, dropping terms that cancel.

    This is the one loop that keeps a term dict free of zero
    coefficients: a sum is the product with the single term ((0, scale),).
    """
    get = acc.get
    for ml, cl in left:
        for mr, cr in right:
            mono = ml + mr
            c0 = get(mono)
            if c0 is None:
                acc[mono] = cl * cr
            else:
                c = c0 + cl * cr
                if c:
                    acc[mono] = c
                else:
                    del acc[mono]
    return acc


def _partials(poly: PhasePoly) -> dict:
    """Every first partial derivative of poly over its denominator, in one
    pass over the terms and once per polynomial: slot -> list of (packed
    monomial, int) pairs, each list in term order.  A term with exponent
    k in a slot gives k times the term with that exponent lowered by one.
    The lists are shared; callers must not change them."""
    out = getattr(poly, "_derivs", None)
    if out is None:
        out = {}
        width = poly.width
        for mono, c in poly.terms.items():
            for slot, k in _fields(mono, width):
                out.setdefault(slot, []).append((mono - _unit(width, slot), c * k))
        object.__setattr__(poly, "_derivs", out)
    return out


def x_var(i: int, n: int) -> PhasePoly:
    """The coordinate polynomial Xi (1-based)."""
    if not 1 <= i <= n + 1:
        raise InputError(f"variable index {i} out of range 1..{n + 1}")
    return _raw(n, {_unit(2 * (n + 1), i - 1): 1}, 1)


def p_var(i: int, n: int) -> PhasePoly:
    """The momentum polynomial Pi (1-based)."""
    if not 1 <= i <= n + 1:
        raise InputError(f"variable index {i} out of range 1..{n + 1}")
    return _raw(n, {_unit(2 * (n + 1), n + i): 1}, 1)


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
    _check_product_degree(f.degree() + g.degree() - 2)
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

    The exact layer stays exact; this is the one float evaluator (the
    trajectory diagnostics of `flow`, and the tests' float oracles).  Each
    term's value is its coefficient times its factors, multiplied left to
    right in slot order (X1^2*P2 is c * X1 * X1 * P2), and the terms are
    added into the output in the insertion order of `poly.terms`.  The
    coefficient is its numerator divided by the denominator, an int
    division that rounds correctly; one beyond the float range raises
    InputError.  Rows are taken in blocks of at most EVAL_CHUNK_BYTES of
    points, each transposed once into contiguous columns, and every
    operation is an elementwise IEEE multiply or add on those columns: no
    gathered tensor, no reduction and no BLAS.  So each value depends on
    its own row only, bit for bit, and not on the block size, on the other
    rows of the call or on the BLAS build; a loop over Python floats in
    the same order gives the same bits.
    """
    import numpy as np

    width = poly.width
    try:
        terms = [
            (c / poly.den, [slot for slot, k in _fields(m, width) for _ in range(k)])
            for m, c in poly.terms.items()
        ]
    except OverflowError:
        raise InputError("a polynomial coefficient is beyond the float range") from None
    block_rows = max(1, EVAL_CHUNK_BYTES // (8 * width))

    def evaluate(points):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != width:
            raise InputError(f"expected points of shape (R, {width})")
        rows = points.shape[0]
        out = np.zeros(rows)
        if not terms or not rows:
            return out
        cols = np.empty((width, min(block_rows, rows)))
        term = np.empty(cols.shape[1])
        for s in range(0, rows, block_rows):
            acc = out[s : s + block_rows]
            size = acc.size
            block, value = cols[:, :size], term[:size]
            block[...] = points[s : s + size].T
            columns = list(block)
            for k, (coeff, factors) in enumerate(terms):
                target = value if k else acc
                if factors:
                    np.multiply(columns[factors[0]], coeff, out=target)
                    for slot in factors[1:]:
                        np.multiply(target, columns[slot], out=target)
                else:
                    target.fill(coeff)
                if k:
                    acc += value
        return out

    return evaluate
