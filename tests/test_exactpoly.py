"""Exact polynomial layer: arithmetic, calculus, bracket, serialization."""

import json
import math
import random
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magneflow import (
    InputError,
    MagneticModel,
    PhasePoly,
    commuting_basis,
    compiled_evaluator,
    format_rational,
    hamiltonian_pert,
    kinetic_energy,
    parse_rational,
    poisson_bracket,
)
from magneflow import exactpoly
from oracles import (
    evaluate_exact,
    fd_bracket_oracle,
    p_var,
    partial,
    partial_p,
    partial_x,
    reference_from_dict,
    reference_to_dict,
    scalar_evaluate,
    substitute_linear,
    x_var,
)

N = 2
WIDTH = 2 * (N + 1)


def build_poly(n, raw_terms):
    width = 2 * (n + 1)
    terms = {}
    for slots, coeff in raw_terms:
        expo = [0] * width
        for s in slots:
            expo[s] += 1
        key = tuple(expo)
        terms[key] = terms.get(key, F(0)) + coeff
    return PhasePoly(n, terms)


def polys(max_degree=2, max_terms=3):
    coeffs = st.fractions(min_value=F(-3), max_value=F(3), max_denominator=4)
    term = st.tuples(
        st.lists(st.integers(0, WIDTH - 1), max_size=max_degree), coeffs
    )
    return st.builds(lambda raw: build_poly(N, raw), st.lists(term, max_size=max_terms))


def points(lo=-0.9, hi=0.9):
    coord = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    return st.lists(coord, min_size=WIDTH, max_size=WIDTH)


# -- rational literals ----------------------------------------------------


def test_parse_rational_accepts_fraction_strings():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7") == F(-7)
    assert parse_rational(" 2/6 ") == F(1, 3)


@pytest.mark.parametrize("bad", ["0.5", "1e-3", "1/0", "", "a/b", "1/2/3"])
def test_parse_rational_rejects_non_rationals(bad):
    with pytest.raises(InputError):
        parse_rational(bad)


def test_format_rational_round_trip():
    for value in (F(0), F(5), F(-3, 7), F(22, 4)):
        assert parse_rational(format_rational(value)) == value


# -- arithmetic -----------------------------------------------------------


def test_addition_cancels():
    x1, px1 = x_var(1, N), p_var(1, N)
    assert (x1 + px1) + (x1 - px1) == 2 * x1


def test_multiplication_by_zero_is_empty():
    zero = PhasePoly(N)
    prod = x_var(1, N) * zero
    assert prod.is_zero and prod.num_terms == 0


def test_rotation_momentum_square_expands():
    m12 = x_var(1, N) * p_var(2, N) - x_var(2, N) * p_var(1, N)
    sq = m12 * m12
    x1, x2, p1, p2 = x_var(1, N), x_var(2, N), p_var(1, N), p_var(2, N)
    expected = x1 * x1 * p2 * p2 - 2 * (x1 * x2 * p1 * p2) + x2 * x2 * p1 * p1
    assert sq == expected


def test_mixed_dimension_rejected():
    with pytest.raises(InputError):
        x_var(1, 2) + x_var(1, 3)


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        PhasePoly(N, {(0,) * WIDTH: 0.5})


@given(polys(), polys())
def test_product_degree_bound(f, g):
    prod = f * g
    if f.is_zero or g.is_zero:
        assert prod.is_zero
    else:
        assert prod.degree() <= f.degree() + g.degree()


def test_power_matches_repeated_product():
    f = x_var(1, N) + 2 * p_var(3, N)
    assert f ** 3 == f * f * f
    assert f ** 0 == PhasePoly.constant(N, 1)


# -- partial derivatives --------------------------------------------------


def test_partial_x_basic():
    f = x_var(1, N) ** 2 * p_var(2, N)
    assert partial_x(f, 1) == 2 * (x_var(1, N) * p_var(2, N))


def test_partial_p_of_pure_position_is_zero():
    assert partial_p(x_var(1, N) ** 2, 1).is_zero


def test_partial_p_of_rotation_momentum():
    m12 = x_var(1, N) * p_var(2, N) - x_var(2, N) * p_var(1, N)
    assert partial_p(m12, 2) == x_var(1, N)


# -- bracket --------------------------------------------------------------


def test_canonical_pairings():
    for i in range(1, N + 2):
        for j in range(1, N + 2):
            br = poisson_bracket(x_var(i, N), p_var(j, N))
            expected = PhasePoly.constant(N, 1) if i == j else PhasePoly(N)
            assert br == expected
            assert poisson_bracket(x_var(i, N), x_var(j, N)).is_zero
            assert poisson_bracket(p_var(i, N), p_var(j, N)).is_zero


def test_rotation_momentum_preserves_radius():
    m12 = x_var(1, N) * p_var(2, N) - x_var(2, N) * p_var(1, N)
    radius = x_var(1, N) ** 2 + x_var(2, N) ** 2
    assert poisson_bracket(m12, radius).is_zero


@given(polys(), polys())
def test_bracket_antisymmetry(f, g):
    assert (poisson_bracket(f, g) + poisson_bracket(g, f)).is_zero


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_bracket_leibniz(f, g, h):
    left = poisson_bracket(f, g * h)
    right = poisson_bracket(f, g) * h + g * poisson_bracket(f, h)
    assert (left - right).is_zero


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_bracket_jacobi(f, g, h):
    total = (
        poisson_bracket(f, poisson_bracket(g, h))
        + poisson_bracket(g, poisson_bracket(h, f))
        + poisson_bracket(h, poisson_bracket(f, g))
    )
    assert total.is_zero


@given(polys(), polys(), points())
@settings(max_examples=60, deadline=None)
def test_bracket_matches_finite_differences(f, g, point):
    symbolic = float(evaluate_exact(poisson_bracket(f, g), point))
    numeric = fd_bracket_oracle(f, g, point)
    assert abs(symbolic - numeric) <= 1e-6 * max(1.0, abs(symbolic))


# -- exact reference: dense exponent tuples over Fraction ------------------


def reference_partial(terms, slot):
    """d/d(slot) of an {exponent tuple: Fraction} dict."""
    out = {}
    for expo, coeff in terms.items():
        k = expo[slot]
        if k:
            lowered = list(expo)
            lowered[slot] = k - 1
            out[tuple(lowered)] = coeff * k
    return out


def reference_mul_into(acc, left, right, scale):
    for el, cl in left.items():
        for er, cr in right.items():
            expo = tuple(a + b for a, b in zip(el, er))
            c = acc.get(expo, F(0)) + scale * cl * cr
            if c:
                acc[expo] = c
            else:
                acc.pop(expo, None)


def reference_bracket(f, g):
    """{f, g} as an {exponent tuple: Fraction} dict, computed on exponent
    tuples with Fraction coefficients, slot by slot."""
    n = f.n
    fd, gd = dict(f.sorted_terms()), dict(g.sorted_terms())
    acc = {}
    for i in range(n + 1):
        reference_mul_into(acc, reference_partial(fd, i), reference_partial(gd, n + 1 + i), 1)
        reference_mul_into(acc, reference_partial(fd, n + 1 + i), reference_partial(gd, i), -1)
    return acc


def assert_canonical(poly):
    """Packed monomials that fit the width, nonzero int numerators, a
    positive denominator, and no common factor left."""
    assert isinstance(poly.den, int) and poly.den > 0
    for mono, c in poly.terms.items():
        assert type(mono) is int and 0 <= mono < 1 << 8 * poly.width
        assert isinstance(c, int) and c != 0
    assert math.gcd(poly.den, *poly.terms.values()) == 1
    assert poly.terms or poly.den == 1


def wide_coeffs():
    """Exact coefficients with small, huge, negative and large-denominator
    numerators and denominators."""
    big = st.integers(-10**40, 10**40)
    return st.one_of(
        st.integers(-3, 3),
        big,
        st.builds(F, big, st.integers(1, 10**30)),
        st.fractions(min_value=F(-3), max_value=F(3), max_denominator=12),
    )


def wide_polys(n, max_degree=3, max_terms=6):
    width = 2 * (n + 1)
    term = st.tuples(st.lists(st.integers(0, width - 1), max_size=max_degree), wide_coeffs())
    return st.lists(term, max_size=max_terms).map(lambda raw: build_poly(n, raw))


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(wide_polys(n), wide_polys(n))))
@settings(max_examples=150, deadline=None)
def test_bracket_matches_fraction_reference(pair):
    f, g = pair
    bracket = poisson_bracket(f, g)
    assert_canonical(bracket)
    assert dict(bracket.sorted_terms()) == reference_bracket(f, g)
    assert bracket.is_zero == (not reference_bracket(f, g))


@given(st.integers(1, 2).flatmap(lambda n: st.tuples(wide_polys(n), wide_polys(n))))
@settings(max_examples=100, deadline=None)
def test_arithmetic_matches_fraction_reference(pair):
    f, g = pair
    fd, gd = dict(f.sorted_terms()), dict(g.sorted_terms())
    for poly in (f, g, f + g, f - g, f * g, -f, F(-7, 10**12) * f):
        assert_canonical(poly)
    total = dict(fd)
    for expo, c in gd.items():
        total[expo] = total.get(expo, F(0)) + c
    assert dict((f + g).sorted_terms()) == {e: c for e, c in total.items() if c}
    product = {}
    reference_mul_into(product, fd, gd, 1)
    assert dict((f * g).sorted_terms()) == product
    for slot in range(f.width):
        assert dict(partial(f, slot).sorted_terms()) == reference_partial(fd, slot)
    assert PhasePoly(f.n, fd) == f


def monomial_power(n, slot, k):
    """The variable in `slot` to the power k, through `**`."""
    var = x_var(slot + 1, n) if slot <= n else p_var(slot - n, n)
    return var ** k


def reference_power_term(width, slot, k):
    return {tuple(k if s == slot else 0 for s in range(width)): F(1)}


@st.composite
def high_degree_pair(draw):
    """(n, f, g, their reference dicts): f and g are small wide polynomials
    times one variable to a high power, so one exponent field nears the
    limit (up to 249 in a slot) while every product and bracket of f and
    g stays within it.  n runs up to 21, a 44-byte key."""
    n = draw(st.sampled_from([1, 2, 5, 21]) | st.integers(1, 21))
    width = 2 * (n + 1)
    a = draw(st.just(249) | st.integers(0, 249))
    b = draw(st.just(249 - a) | st.integers(0, 249 - a))
    out = [n]
    refs = []
    for k in (a, b):
        base = draw(wide_polys(n, max_degree=3, max_terms=4))
        slot = draw(st.integers(0, width - 1))
        ref = {}
        reference_mul_into(ref, dict(base.sorted_terms()), reference_power_term(width, slot, k), 1)
        out.append(base * monomial_power(n, slot, k))
        refs.append(ref)
    return (*out, *refs)


@given(high_degree_pair())
@settings(max_examples=60, deadline=None)
def test_packed_keys_match_fraction_reference_at_the_field_limit(case):
    n, f, g, fd, gd = case
    width = 2 * (n + 1)
    assert dict(f.sorted_terms()) == fd and dict(g.sorted_terms()) == gd
    assert f.degree() == max((sum(e) for e in fd), default=-1)
    for poly in (f, g, f * g, poisson_bracket(f, g)):
        assert_canonical(poly)
    product = {}
    reference_mul_into(product, fd, gd, 1)
    assert dict((f * g).sorted_terms()) == product
    assert dict(poisson_bracket(f, g).sorted_terms()) == reference_bracket(f, g)
    # {f, Pi} = df/dXi and {Xi, f} = df/dPi
    for i in range(1, n + 2):
        assert dict(poisson_bracket(f, p_var(i, n)).sorted_terms()) == reference_partial(fd, i - 1)
        assert dict(poisson_bracket(x_var(i, n), f).sorted_terms()) == reference_partial(fd, n + i)
    cube = {tuple([0] * width): F(1)}
    for _ in range(3):
        step = {}
        reference_mul_into(step, cube, gd, 1)
        cube = step
    if 3 * max(g.degree(), 0) <= exactpoly.MAX_EXPONENT:
        assert dict((g ** 3).sorted_terms()) == cube


def test_product_past_the_field_limit_raises():
    x1, x2, p1 = x_var(1, N), x_var(2, N), p_var(1, N)
    top = x1 ** 255
    assert top.degree() == 255
    assert top.sorted_terms() == [((255,) + (0,) * (WIDTH - 1), F(1))]
    # without the check, X2^256 would carry into the field of X1
    for product in (lambda: x1 ** 256, lambda: top * x2, lambda: x2 ** 200 * x2 ** 56):
        with pytest.raises(InputError, match="exponent field"):
            product()
    with pytest.raises(InputError, match="exponent field"):
        poisson_bracket(x1 ** 130 * p1, x2 ** 128 * p1)
    assert poisson_bracket(x1 ** 129 * p1, x2 ** 126 * p1).degree() == 255


def test_float_coefficients_are_correctly_rounded():
    """Coefficients over a shared denominator reach the float evaluator as
    numerator / denominator, rounded once: at the unit vectors a linear
    polynomial returns float() of each exact coefficient."""
    rng = random.Random(11)
    coeffs = [F(rng.randint(-10**25, 10**25), rng.randint(1, 10**22)) for _ in range(WIDTH)]
    coeffs[0] = F(1, 3)
    poly = PhasePoly(N, {tuple(int(i == k) for i in range(WIDTH)): c for k, c in enumerate(coeffs)})
    assert poly.den > max(c.denominator for c in coeffs)
    values = compiled_evaluator(poly)(np.eye(WIDTH))
    assert values.tolist() == [float(c) for c in coeffs]


# -- evaluation -----------------------------------------------------------


def test_evaluate_rotation_momentum():
    m12 = x_var(1, N) * p_var(2, N) - x_var(2, N) * p_var(1, N)
    assert evaluate_exact(m12, [1, 0, 0, 0, 1, 0]) == 1


def test_evaluate_zero_polynomial():
    assert evaluate_exact(PhasePoly(N), [F(3, 10)] * WIDTH) == 0


def test_evaluate_exact_is_exact():
    f = x_var(1, N) ** 2
    value = evaluate_exact(f, [F(3, 5), F(4, 5), 0, 0, 0, 0])
    assert value == F(9, 25)


# -- compiled float evaluator ------------------------------------------------------


def random_poly(rng, n, terms, max_exponent=4):
    width = 2 * (n + 1)
    raw = {}
    for _ in range(terms):
        expo = [0] * width
        for slot in rng.sample(range(width), rng.randint(0, 2)):
            expo[slot] = rng.randint(1, max_exponent)
        raw[tuple(expo)] = F(rng.randint(-40, 40), rng.randint(1, 9))
    return PhasePoly(n, raw)


def dyadic_points(rng, rows, width):
    """Rational points with power-of-two denominators, so that converting
    them to float is exact."""
    return [[F(rng.randint(-96, 96), 64) for _ in range(width)] for _ in range(rows)]


def assert_matches_exact(poly, rational_points):
    """compiled_evaluator against evaluate_exact, to 1e-13 of the sum of
    the absolute term values (the scale rounding errors are relative to)."""
    magnitude = PhasePoly(poly.n, {e: abs(c) for e, c in poly.sorted_terms()})
    values = compiled_evaluator(poly)(np.array(rational_points, dtype=float))
    assert values.shape == (len(rational_points),)
    for got, z in zip(values, rational_points):
        exact = evaluate_exact(poly, z)
        scale = evaluate_exact(magnitude, [abs(c) for c in z])
        assert abs(F(got) - exact) <= F(1e-13) * max(scale, F(1))


def test_compiled_evaluator_matches_exact_values():
    rng = random.Random(5)
    for n in (1, 2, 4):
        for terms in (1, 3, 12):
            poly = random_poly(rng, n, terms)
            assert_matches_exact(poly, dyadic_points(rng, 20, poly.width))
    # every exponent 1..4 in one slot, next to a mixed term of degree 4
    x1, p2 = x_var(1, N), p_var(2, N)
    poly = x1 + F(-2, 3) * x1 ** 2 + F(5) * x1 ** 3 + F(1, 7) * x1 ** 4 + x1 ** 2 * p2 ** 2
    assert_matches_exact(poly, dyadic_points(rng, 20, WIDTH))


def test_compiled_evaluator_zero_and_constant():
    pts = np.random.default_rng(1).standard_normal((7, WIDTH))
    assert np.array_equal(compiled_evaluator(PhasePoly(N))(pts), np.zeros(7))
    assert np.array_equal(compiled_evaluator(PhasePoly.constant(N, F(-5, 4)))(pts),
                          np.full(7, -1.25))
    assert_matches_exact(PhasePoly.constant(N, F(3, 8)), dyadic_points(random.Random(2), 3, WIDTH))


def test_compiled_evaluator_rejects_bad_shapes_and_takes_no_rows():
    for poly in (x_var(1, N) * p_var(2, N), PhasePoly(N)):
        f = compiled_evaluator(poly)
        assert f(np.empty((0, WIDTH))).shape == (0,)
        with pytest.raises(InputError):
            f(np.zeros((3, WIDTH + 1)))
        with pytest.raises(InputError):
            f(np.zeros(WIDTH))


def test_compiled_evaluator_chunks_are_invariant(monkeypatch):
    rng = random.Random(9)
    poly = random_poly(rng, 3, 10)
    chunk = 7
    monkeypatch.setattr(exactpoly, "EVAL_CHUNK_BYTES", 8 * poly.width * chunk)
    f = compiled_evaluator(poly)
    rational = dyadic_points(rng, 5 * chunk + 3, poly.width)  # ragged last chunk
    assert_matches_exact(poly, rational)
    pts = np.array(rational, dtype=float)
    whole = f(pts)
    pieces = np.concatenate([f(pts[s : s + chunk]) for s in range(0, len(pts), chunk)])
    assert whole.tobytes() == pieces.tobytes()


def simulate_polys():
    """F1..F4, H and H_kin at (4; 1,2): the series `simulate` evaluates."""
    model = MagneticModel(n=4, alphas=(F(1), F(2)))
    return commuting_basis(model).members() + [hamiltonian_pert(model), kinetic_energy(4)]


def test_compiled_evaluator_values_depend_on_their_row_only(monkeypatch):
    """On standard normal rows, where products and sums round, the whole
    array, slices of 256 and 7 rows, single rows (every tenth row, for
    time) and blocks of 37 rows give the same bits."""
    pts = np.random.default_rng(20).standard_normal((20_001, 10))
    polys = simulate_polys()

    def by_slices(f, rows, size):
        return np.concatenate([f(rows[s : s + size]) for s in range(0, len(rows), size)])

    whole = []
    for poly in polys:
        f = compiled_evaluator(poly)
        values = f(pts)
        for size in (256, 7):
            assert by_slices(f, pts, size).tobytes() == values.tobytes()
        assert by_slices(f, pts[::10], 1).tobytes() == values[::10].tobytes()
        whole.append(values)
    monkeypatch.setattr(exactpoly, "EVAL_CHUNK_BYTES", 8 * 10 * 37)
    for poly, values in zip(polys, whole):
        assert compiled_evaluator(poly)(pts).tobytes() == values.tobytes()


FLOATS = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-1e3, 1e3)


@st.composite
def polys_and_rows(draw):
    """A polynomial with n = 1..5 (constant terms, exponents up to 3 in a
    slot, denominators above 1) and a few rows that hold signed zeros."""
    n = draw(st.integers(1, 5))
    width = 2 * (n + 1)
    terms = []
    for slots in draw(st.lists(st.lists(st.integers(0, width - 1), max_size=3), max_size=10)):
        expo = [0] * width
        for slot in slots:
            expo[slot] += 1
        terms.append((expo, F(draw(st.integers(-10**6, 10**6)), draw(st.integers(1, 10**4)))))
    rows = draw(st.lists(st.lists(FLOATS, min_size=width, max_size=width),
                         min_size=1, max_size=6))
    return PhasePoly(n, terms), rows


@given(polys_and_rows())
@settings(max_examples=200, deadline=None)
def test_compiled_evaluator_matches_scalar_oracle_bit_for_bit(case):
    poly, rows = case
    got = compiled_evaluator(poly)(np.array(rows, dtype=float))
    want = np.array([scalar_evaluate(poly, row) for row in rows])
    assert got.tobytes() == want.tobytes()


def test_compiled_evaluator_memory_is_bounded():
    poly = hamiltonian_pert(MagneticModel(n=4, alphas=(F(1), F(2))))
    pts = np.random.default_rng(3).standard_normal((200_000, poly.width))
    f = compiled_evaluator(poly)
    tracemalloc.start()
    try:
        values = f(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (200_000,)
    assert peak < 16 * 2**20


# -- substitution ---------------------------------------------------------


def identity_matrix(d):
    return [[F(1) if i == j else F(0) for j in range(d)] for i in range(d)]


def test_identity_substitution_is_noop():
    f = x_var(1, N) * p_var(2, N) + 3 * x_var(3, N) ** 2
    assert substitute_linear(f, identity_matrix(N + 1)) == f


def test_momentum_shift_substitution():
    shift = [x_var(2, N), PhasePoly(N), PhasePoly(N)]
    image = substitute_linear(p_var(1, N), identity_matrix(N + 1), p_shift=shift)
    assert image == p_var(1, N) + x_var(2, N)


def test_substitution_agrees_with_shifted_evaluation():
    # f(x, p + s(x)) computed by substitution must equal evaluating f at
    # the explicitly shifted point, exactly over the rationals.
    rng = np.random.default_rng(7)
    f = (
        x_var(1, N) * p_var(2, N)
        - x_var(2, N) * p_var(1, N)
        + p_var(3, N) ** 2
        + 2 * x_var(3, N)
    )
    shift = [F(1, 2) * x_var(2, N), F(-1, 2) * x_var(1, N), PhasePoly(N)]
    composed = substitute_linear(f, identity_matrix(N + 1), p_shift=shift)
    for _ in range(20):
        z = [F(int(v), 8) for v in rng.integers(-8, 9, size=WIDTH)]
        x, p = z[: N + 1], z[N + 1 :]
        shifted = list(x) + [
            p[0] + F(1, 2) * x[1],
            p[1] - F(1, 2) * x[0],
            p[2],
        ]
        assert evaluate_exact(composed, z) == evaluate_exact(f, shifted)


def test_orthogonal_substitution_preserves_bracket():
    # rotating both blocks by the same orthogonal matrix is canonical, so
    # brackets commute with the substitution
    c, s = F(3, 5), F(4, 5)
    q = [[c, -s, F(0)], [s, c, F(0)], [F(0), F(0), F(1)]]
    f = x_var(1, N) * p_var(2, N) + x_var(3, N) ** 2
    g = p_var(1, N) ** 2 - x_var(2, N) * p_var(3, N)
    lhs = poisson_bracket(substitute_linear(f, q), substitute_linear(g, q))
    rhs = substitute_linear(poisson_bracket(f, g), q)
    assert (lhs - rhs).is_zero


# -- serialization --------------------------------------------------------


def test_json_round_trip():
    f = (
        F(22, 7) * x_var(1, N) * p_var(3, N) ** 2
        - x_var(2, N)
        + PhasePoly.constant(N, F(-5, 3))
    )
    data = f.to_dict()
    assert data["n"] == N
    assert all(set(item) == {"c", "e"} for item in data["terms"])
    assert PhasePoly.from_dict(data) == f


def test_serialized_terms_are_sorted():
    f = x_var(3, N) + x_var(1, N) ** 2 + PhasePoly.constant(N, 1)
    degrees = [sum(item["e"]) for item in f.to_dict()["terms"]]
    assert degrees == sorted(degrees)


@given(polys())
def test_json_round_trip_random(f):
    assert PhasePoly.from_dict(f.to_dict()) == f


def draw_literal(draw, p, q):
    """A literal of p/q in one of the forms the JSON form accepts: 'p',
    'p/q' with q > 1, not reduced ('2/4'), with a sign ('+3', '-0') or
    surrounding white space, or a JSON int."""
    k = draw(st.sampled_from([1, 1, 2, 3, 10**9]))
    text = f"{p * k}/{q * k}" if q * k > 1 else str(p)
    style = draw(st.sampled_from(["plain", "plain", "sign", "space", "int"]))
    if style == "sign":
        return ("+" if p > 0 else "-" if p == 0 else "") + text
    if style == "space":
        return f" {text}\n"
    if style == "int" and q * k == 1:
        return p
    return text


@st.composite
def poly_records(draw):
    """The JSON form of a random polynomial at n = 1..7, out of canonical
    order, with repeated monomials and negated copies of some terms, so
    that terms cancel."""
    n = draw(st.integers(1, 7))
    width = 2 * (n + 1)
    expo = st.lists(st.integers(0, 3), min_size=width, max_size=width)
    coeff = st.tuples(st.integers(-10**20, 10**20) | st.integers(-6, 6),
                      st.integers(1, 12) | st.integers(1, 10**18))
    raw = draw(st.lists(st.tuples(expo, coeff), max_size=8))
    for e, (p, q) in draw(st.lists(st.sampled_from(raw), max_size=4)) if raw else ():
        raw.insert(draw(st.integers(0, len(raw))), (e, (-p, q)))
    return {"n": n, "terms": [{"c": draw_literal(draw, p, q), "e": e} for e, (p, q) in raw]}


@given(poly_records())
@settings(max_examples=300, deadline=None)
def test_int_json_form_matches_fraction_reference(data):
    poly, ref = PhasePoly.from_dict(data), reference_from_dict(data)
    assert poly == ref and poly.den == ref.den
    # term insertion order fixes the coefficient order of compiled_evaluator
    assert list(poly.terms.items()) == list(ref.terms.items())
    assert poly.to_dict() == reference_to_dict(poly)
    text = json.dumps(poly.to_dict(), sort_keys=True)
    assert text == json.dumps(reference_to_dict(ref), sort_keys=True)
    assert PhasePoly.from_dict(poly.to_dict()) == poly


@given(st.integers(1, 3).flatmap(wide_polys))
@settings(max_examples=100, deadline=None)
def test_to_dict_of_wide_coefficients_matches_fraction_reference(poly):
    assert poly.to_dict() == reference_to_dict(poly)
    again = PhasePoly.from_dict(poly.to_dict())
    assert list(again.terms.items()) == list(reference_from_dict(poly.to_dict()).terms.items())


@pytest.mark.parametrize("c", ["1/0", "1.5", "1e3", "", "a/b", "1/2/3", "3/-4", "0x10",
                               "1_000", True, None, 1.5, [1], {"p": 1}])
def test_from_dict_rejects_literals_as_the_fraction_reference_does(c):
    data = {"n": 1, "terms": [{"c": "1", "e": [1, 0, 0, 0]}, {"c": c, "e": [0, 0, 1, 0]}]}
    with pytest.raises(InputError) as want:
        reference_from_dict(data)
    with pytest.raises(InputError) as got:
        PhasePoly.from_dict(data)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("n", [1.9, 1.0, "1", True, None])
def test_from_dict_rejects_n_as_the_fraction_reference_does(n):
    # int() would read each of the first four as 1
    data = {"n": n, "terms": [{"c": "1", "e": [1, 0, 0, 0]}]}
    with pytest.raises(InputError) as want:
        reference_from_dict(data)
    with pytest.raises(InputError) as got:
        PhasePoly.from_dict(data)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("expo, message", [
    ([-1, 0, 0, 0, 0, 0], "negative exponent in (-1, 0, 0, 0, 0, 0)"),
    ([0, 0, 0, 0, 0, -10**30], "negative exponent in (0, 0, 0, 0, 0, -1000000000000000000000000000000)"),
    ([256, 0, 0, 0, 0, 0], "term (256, 0, 0, 0, 0, 0) has degree above 64"),
    ([300, -1, 0, 0, 0, 0], "negative exponent in (300, -1, 0, 0, 0, 0)"),
    ([65, 0, 0, 0, 0, 0], "term (65, 0, 0, 0, 0, 0) has degree above 64"),
    ([33, 0, 0, 32, 0, 0], "term (33, 0, 0, 32, 0, 0) has degree above 64"),
    ([-1, 0, 0], "exponent tuple has length 3, expected 6 for n=2"),
    ([256] * 7, "exponent tuple has length 7, expected 6 for n=2"),
])
def test_out_of_range_exponents_are_named(expo, message):
    # the JSON reader and the constructor give the same message
    with pytest.raises(InputError) as got:
        PhasePoly.from_dict({"n": 2, "terms": [{"c": "1", "e": expo}]})
    assert str(got.value) == message
    with pytest.raises(InputError) as got:
        PhasePoly(2, [(expo, 1)])
    assert str(got.value) == message


@pytest.mark.parametrize("bad", [True, False, 1.0, 1.5, "2", None])
def test_from_dict_names_exponents_that_are_not_ints(bad):
    expo = [0, 0, bad, 0, 0, 0]
    with pytest.raises(InputError) as got:
        PhasePoly.from_dict({"n": 2, "terms": [{"c": "1", "e": expo}]})
    assert str(got.value) == (
        f"malformed polynomial term: exponents must be a list of integers, got {expo!r}")


def test_from_dict_accepts_the_largest_term_degree():
    poly = PhasePoly.from_dict({"n": 2, "terms": [{"c": "1", "e": [0, 0, 64, 0, 0, 0]}]})
    assert poly == x_var(3, 2) ** 64 and poly.degree() == 64


def test_from_dict_parses_each_literal_by_its_type():
    # a parsed literal is reused for an equal string only: True == 1,
    # but the literal true is rejected after a JSON int 1 is read
    terms = [{"c": 1, "e": [1, 0, 0, 0]}, {"c": True, "e": [0, 1, 0, 0]}]
    with pytest.raises(InputError, match="not an exact fraction literal: True"):
        PhasePoly.from_dict({"n": 1, "terms": terms})
    terms = [{"c": c, "e": e} for c, e in [("1/2", [1, 0, 0, 0]), (1, [0, 1, 0, 0]),
                                            ("1/2", [0, 0, 1, 0]), ("1/2", [1, 0, 0, 0])]]
    assert PhasePoly.from_dict({"n": 1, "terms": terms}) == PhasePoly(
        1, {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): F(1, 2)})


def test_from_dict_rejects_garbage():
    with pytest.raises(InputError):
        PhasePoly.from_dict({"n": 2})
    with pytest.raises(InputError):
        PhasePoly.from_dict({"n": 2, "terms": [{"c": "0.5", "e": [0] * 6}]})
    with pytest.raises(InputError):
        PhasePoly.from_dict({"n": 2, "terms": [{"c": "1", "e": [0] * 4}]})
    with pytest.raises(InputError):
        PhasePoly.from_dict({"n": 2, "terms": 5})
    with pytest.raises(InputError):
        PhasePoly.from_dict({"n": 2, "terms": [{"c": "1", "e": [10**9] + [0] * 5}]})
    # an exponent is a non-negative int, not anything int() accepts
    for bad in (1.5, 1.0, "2", True, -1, None):
        with pytest.raises(InputError):
            PhasePoly.from_dict({"n": 2, "terms": [{"c": "1", "e": [bad] + [0] * 5}]})
    for expo in ([1.5, 0, 0, 0, 0, "2"], "000000", {"0": 0}):
        with pytest.raises(InputError):
            PhasePoly.from_dict({"n": 2, "terms": [{"c": "1", "e": expo}]})
