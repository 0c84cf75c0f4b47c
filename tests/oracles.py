"""Oracles of the exact and float layers, used only by the tests.

- The coordinate polynomials `x_var` and `p_var`, which no command
  builds, on the public `PhasePoly` constructor.
- The `PhasePoly` operations that no command needs: exact evaluation at
  a rational point, partial derivatives, the split by momentum degree,
  the bidegree profile and (linear) substitution.  They are written on
  `sorted_terms()` and the public constructor, so they do not depend on
  how `PhasePoly` keys its monomials.
- Scalar float oracles of the fixed-order float paths:
  `scalar_evaluate` (`compiled_evaluator` on one row), `scalar_dot` (the
  constraint residuals of `flow`) and `scalar_sigma_sharp` (`sigma_sharp`
  at one point), each a loop over Python floats in the order of the
  vectorized code, so the two agree bit for bit.
- The magnetic covector field as exact data: `omega_matrix`,
  `sigma_coefficient_matrix` and `sigma_sharp_polys`.
- `reference_to_dict` and `reference_from_dict`: the JSON form of a
  `PhasePoly` as it was written on `Fraction` coefficients, the reference
  of the int path of `PhasePoly.to_dict` and `from_dict`.
- The closed-form polynomials of `build` and `verify` (rotation momenta,
  S, U, K, H, the Neumann/Uhlenbeck quadratics, the membership columns
  and the probe candidates) built through generic `PhasePoly`
  arithmetic, as `src` built them before it listed their terms: the
  references of the term builders, down to the insertion order of the
  terms.  `src` builds S and U only as terms of H, so
  `reference_sigma_linear` and `reference_potential` are the tests' S
  and U.
- `reference_commutation`: the pair results of `check_commutation` with
  every member bracketed with H, as `verify` took them before it derived
  those brackets from H's membership, and with each nonzero bracket
  classified by `float_classify_nonzero`, the float test that `verify`
  used before its exact remainder: peaks at COMMUTATION_POINTS seeded
  points of the |P| = 1 shell against ON_CONSTRAINT_RTOL.
- `fd_bracket_oracle`: a central-difference estimate of a Poisson
  bracket, the independent cross-check of the exact bracket engine.
- `potential_compatibility`: the exact mixed-degree commutation test
  {K1,U2} + {U1,K2} = 0.
- The float rank path that `verify` used before its independence
  certificate over F_p: the member gradients at seeded float points of
  the constraint set, projected tangentially, ranked by SVD against
  RANK_THRESHOLD_REL, and judged full rank at FULL_RANK_QUOTA of the
  points.  `float_independence` and `float_probe_verdicts` are the
  float counterparts of `functional_independence` and the probe's
  `raises_rank`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from magneflow import (
    InputError,
    PhasePoly,
    compiled_evaluator,
    hamiltonian_pert,
    poisson_bracket,
    sampling,
)
from magneflow.magnetic_model import _plane_block
from magneflow.verify import PairResult

RANK_THRESHOLD_REL = 1e-8
FULL_RANK_QUOTA = 0.95
FD_STEP = 1e-5

# The substreams the float bracket classification and the float probe
# drew their points from.
STREAM_COMMUTATION = 1
STREAM_FLOAT_PROBE = 3

ON_CONSTRAINT_RTOL = 1e-10
# Float points at which a nonzero bracket is classified.
COMMUTATION_POINTS = 50


# -- exact PhasePoly operations ------------------------------------------------


def _variable(slot: int, i: int, n: int) -> PhasePoly:
    if not 1 <= i <= n + 1:
        raise InputError(f"variable index {i} out of range 1..{n + 1}")
    expo = [0] * (2 * (n + 1))
    expo[slot] = 1
    return PhasePoly(n, {tuple(expo): 1})


def x_var(i: int, n: int) -> PhasePoly:
    """The coordinate polynomial Xi (1-based)."""
    return _variable(i - 1, i, n)


def p_var(i: int, n: int) -> PhasePoly:
    """The momentum polynomial Pi (1-based)."""
    return _variable(n + i, i, n)


def evaluate_exact(poly: PhasePoly, point) -> Fraction:
    """Value of poly at a rational phase point (X1..X{n+1}, P1..P{n+1})."""
    if len(point) != poly.width:
        raise InputError(f"point has length {len(point)}, expected {poly.width}")
    pt = [Fraction(z) for z in point]
    total = Fraction(0)
    for expo, c in poly.sorted_terms():
        for z, k in zip(pt, expo):
            c *= z ** k
        total += c
    return total


def partial(poly: PhasePoly, slot: int) -> PhasePoly:
    """d/d(slot) of poly; slot i-1 is Xi and slot n+i is Pi."""
    terms = []
    for expo, c in poly.sorted_terms():
        k = expo[slot]
        if k:
            terms.append((expo[:slot] + (k - 1,) + expo[slot + 1:], c * k))
    return PhasePoly(poly.n, terms)


def partial_x(poly: PhasePoly, i: int) -> PhasePoly:
    """d/dXi, 1-based index."""
    return partial(poly, i - 1)


def partial_p(poly: PhasePoly, i: int) -> PhasePoly:
    """d/dPi, 1-based index."""
    return partial(poly, poly.n + i)


def p_degree_parts(poly: PhasePoly) -> dict:
    """Momentum degree -> the homogeneous component of poly of that degree."""
    half = poly.n + 1
    parts: dict = {}
    for expo, c in poly.sorted_terms():
        parts.setdefault(sum(expo[half:]), []).append((expo, c))
    return {d: PhasePoly(poly.n, terms) for d, terms in sorted(parts.items())}


def bidegree_profile(poly: PhasePoly) -> set:
    """Set of (X-degree, P-degree) pairs occurring among the terms."""
    half = poly.n + 1
    return {(sum(expo[:half]), sum(expo[half:])) for expo, _ in poly.sorted_terms()}


def substitute(poly: PhasePoly, images) -> PhasePoly:
    """Replace each variable by a polynomial: `images` lists the
    replacements of X1..X{n+1} then P1..P{n+1}."""
    if len(images) != poly.width:
        raise InputError(f"expected {poly.width} images, got {len(images)}")
    total = PhasePoly(poly.n)
    for expo, c in poly.sorted_terms():
        term = PhasePoly.constant(poly.n, c)
        for image, k in zip(images, expo):
            if k:
                term = term * image ** k
        total = total + term
    return total


def substitute_linear(poly: PhasePoly, q, p_shift=None) -> PhasePoly:
    """Affine substitution X -> QX, P -> QP + s(X): the (n+1)x(n+1)
    rational matrix q acts on both blocks, and `p_shift`, when given,
    lists the n+1 polynomials added to the momentum images (the gauge
    shift is Q = identity, s = the magnetic covector field)."""
    n = poly.n
    if len(q) != n + 1 or any(len(row) != n + 1 for row in q):
        raise InputError(f"substitution matrix must be {n + 1}x{n + 1}")

    def image(row, var):
        total = PhasePoly(n)
        for j, c in enumerate(row):
            if c:
                total = total + Fraction(c) * var(j + 1, n)
        return total

    xs = [image(row, x_var) for row in q]
    ps = [image(row, p_var) for row in q]
    if p_shift is not None:
        ps = [img + shift for img, shift in zip(ps, p_shift)]
    return substitute(poly, xs + ps)


# -- scalar float oracles --------------------------------------------------------


def scalar_evaluate(poly: PhasePoly, row) -> float:
    """Value of poly at one float row, on Python floats in the order of
    `compiled_evaluator`: each term is its coefficient (numerator /
    denominator) times its factors, left to right in slot order, and the
    terms are added in the insertion order of `poly.terms`, starting
    from the first term's value; the zero polynomial is 0.0."""
    width = poly.width
    row = [float(v) for v in row]
    total = None
    for mono, c in poly.terms.items():
        value = c / poly.den
        for slot, k in enumerate(mono.to_bytes(width, "big")):
            for _ in range(k):
                value = value * row[slot]
        total = value if total is None else total + value
    return 0.0 if total is None else total


def scalar_dot(u, v) -> float:
    """u0*v0 + u1*v1 + ... on Python floats, left to right."""
    total = float(u[0]) * float(v[0])
    for a, b in zip(u[1:], v[1:]):
        total = total + float(a) * float(b)
    return total


def scalar_sigma_sharp(model, x) -> list:
    """sigma(x) = x @ (Omega/2) at one point, a Python-float loop over the
    planes: plane k of rate alpha gives -alpha/2 * x[2k+1] and
    alpha/2 * x[2k]."""
    out = [0.0] * len(x)
    for k, alpha in enumerate(model.alpha_floats):
        if alpha:
            out[2 * k] = float(x[2 * k + 1]) * -(alpha / 2)
            out[2 * k + 1] = float(x[2 * k]) * (alpha / 2)
    return out


# -- the magnetic covector field as exact data -------------------------------------


def omega_matrix(model) -> list:
    """Exact matrix of the magnetic 2-form: Omega[2i-1][2i] = alpha_i."""
    return _plane_block(model.alphas, model.n + 1)


def sigma_coefficient_matrix(model) -> list:
    """Exact matrix C = -Omega/2 with sigma_a = sum_b C[a][b] X_b
    (0-based rows/cols)."""
    return [[-v / 2 for v in row] for row in omega_matrix(model)]


def sigma_sharp_polys(model) -> list:
    """Components sigma_a = sum_b C[a][b] X_b of the magnetic covector
    field as polynomials in X."""
    n = model.n
    return [
        sum((c * x_var(b + 1, n) for b, c in enumerate(row) if c), PhasePoly(n))
        for row in sigma_coefficient_matrix(model)
    ]


# -- the Fraction-based JSON form ----------------------------------------------

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def reference_parse_rational(text) -> Fraction:
    """The literal 'p' or 'p/q' read by Fraction(str)."""
    s = str(text).strip()
    if not _RATIONAL_RE.match(s):
        raise InputError(f"not an exact fraction literal: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise InputError(f"zero denominator: {text!r}") from None


def reference_to_dict(poly: PhasePoly) -> dict:
    """{"n", "terms"}: every term as its Fraction printed by str and its
    exponent list, sorted by (total degree, exponent tuple)."""
    width = poly.width
    terms = sorted(
        (tuple(m.to_bytes(width, "big")), Fraction(c, poly.den)) for m, c in poly.terms.items()
    )
    terms.sort(key=lambda t: sum(t[0]))
    return {"n": poly.n, "terms": [{"c": str(c), "e": list(e)} for e, c in terms]}


def reference_from_dict(data) -> PhasePoly:
    """Read the JSON form with one Fraction per term, through the public
    constructor."""
    try:
        n, raw = data["n"], data["terms"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed polynomial record: {exc}") from None
    if type(n) is not int:
        raise InputError(f"malformed polynomial record: 'n' must be an integer, got {n!r}")
    if not isinstance(raw, list):
        raise InputError("malformed polynomial record: 'terms' must be a list")
    terms = []
    for item in raw:
        try:
            expo, coeff = item["e"], reference_parse_rational(item["c"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed polynomial term: {exc}") from None
        if not (isinstance(expo, list) and all(type(e) is int for e in expo)):
            raise InputError(
                f"malformed polynomial term: exponents must be a list of "
                f"integers, got {expo!r}"
            )
        terms.append((tuple(expo), coeff))
    return PhasePoly(n, terms)


# -- closed-form polynomials through generic arithmetic ------------------------


def reference_killing(i: int, j: int, n: int) -> PhasePoly:
    """M_ij = Xi Pj - Xj Pi."""
    return x_var(i, n) * p_var(j, n) - x_var(j, n) * p_var(i, n)


def reference_kinetic_energy(n: int) -> PhasePoly:
    """K = (1/2) sum_{i<j} M_ij^2."""
    poly = PhasePoly(n)
    for i in range(1, n + 2):
        for j in range(i + 1, n + 2):
            m_ij = reference_killing(i, j, n)
            poly = poly + Fraction(1, 2) * (m_ij * m_ij)
    return poly


def reference_sigma_linear(model) -> PhasePoly:
    """S = (1/2) sum_i alpha_i M_{2i-1,2i}."""
    n = model.n
    poly = PhasePoly(n)
    for k, alpha in enumerate(model.alphas):
        if alpha:
            poly = poly + alpha / 2 * reference_killing(2 * k + 1, 2 * k + 2, n)
    return poly


def _x_squares(n: int, coeffs) -> PhasePoly:
    poly = PhasePoly(n)
    for idx, c in enumerate(coeffs, start=1):
        if c:
            poly = poly + c * (x_var(idx, n) ** 2)
    return poly


def reference_potential(model) -> PhasePoly:
    """U = sum_k a_k X_k^2."""
    return _x_squares(model.n, model.a)


def reference_hamiltonian(model) -> PhasePoly:
    """H = K - S + U."""
    return (reference_kinetic_energy(model.n) - reference_sigma_linear(model)
            + reference_potential(model))


def reference_neumann_quadratic(n: int, lam, mu) -> PhasePoly:
    """(1/2) sum_{l<m, lam_l != lam_m} (mu_l - mu_m)/(lam_l - lam_m) M_lm^2
    with one Fraction coefficient per pair."""
    idxs = list(lam)
    poly = PhasePoly(n)
    for ai, l in enumerate(idxs):
        for m in idxs[ai + 1:]:
            if lam[l] == lam[m]:
                continue
            coeff = (Fraction(mu[l]) - mu[m]) / (Fraction(lam[l]) - lam[m]) / 2
            if coeff:
                m_lm = reference_killing(l, m, n)
                poly = poly + coeff * (m_lm * m_lm)
    return poly


def reference_degenerate_integral(a, b) -> PhasePoly:
    """F_B without the pairs inside a level block of a."""
    n = len(a) - 1
    quad = reference_neumann_quadratic(n, dict(enumerate(a, 1)), dict(enumerate(b, 1)))
    return quad + _x_squares(n, b)


def tagged(family, tag: str) -> list:
    """The polynomials of the family's members with this tag, in order."""
    return [item.poly for item in family.integrals if item.tag == tag]


def reference_membership_columns(family) -> list:
    """The members, the squares of the linear members, |X|^2 and 1."""
    n = family.model.n
    return (
        family.members()
        + [poly * poly for poly in tagged(family, "linear")]
        + [_x_squares(n, [1] * (n + 1)), PhasePoly.constant(n, 1)]
    )


def reference_residual_is_zero(target: PhasePoly, solution, columns) -> bool:
    """Whether the recomposed sum of c_k columns[k] equals target."""
    recomposed = PhasePoly(target.n)
    for c, col in zip(solution, columns):
        if c:
            recomposed = recomposed + c * col
    return (recomposed - target).is_zero


def reference_probe_candidates(model) -> list:
    """(block, kind, label, polynomial, cross_pair) of every probe
    candidate, as `verify._probe_candidates` lists them."""
    n = model.n
    out = []
    for block in model.partition:
        planes = [u for u in model.block_units(block) if len(u) == 2]
        if len(planes) < 2:
            continue
        plane_of = {idx: unit for unit in planes for idx in unit}
        for ai, l in enumerate(block):
            for m in block[ai + 1:]:
                cross = plane_of.get(l) != plane_of.get(m)
                out.append((block, "generator", f"M({l},{m})", reference_killing(l, m, n), cross))
        for pi, (a, b) in enumerate(planes):
            for c, d in planes[pi + 1:]:
                out.append((block, "pair_sum", f"M({a},{c})+M({b},{d})",
                            reference_killing(a, c, n) + reference_killing(b, d, n), True))
                out.append((block, "pair_diff", f"M({a},{d})-M({b},{c})",
                            reference_killing(a, d, n) - reference_killing(b, c, n), True))
    return out


# -- commutation with every bracket taken ------------------------------------


def float_classify_nonzero(f, g, bracket, points) -> str:
    """`zero_on_constraints` when the bracket's peak at the float points
    is at most ON_CONSTRAINT_RTOL times the larger of 1 and the peaks of
    f and g, `nonzero` otherwise."""
    def peak(poly):
        return float(np.max(np.abs(compiled_evaluator(poly)(points))))

    if peak(bracket) <= ON_CONSTRAINT_RTOL * max(1.0, peak(f), peak(g)):
        return "zero_on_constraints"
    return "nonzero"


def commutation_points(n: int, seed: int = 0) -> np.ndarray:
    """The float points at which `float_classify_nonzero` was applied."""
    rng = sampling.generator(seed, STREAM_COMMUTATION)
    return sampling.constrained_points(rng, n, COMMUTATION_POINTS)


def reference_commutation(family, seed: int = 0) -> list:
    """The pair results of `check_commutation` with every (F_i, H) pair
    bracketed directly and each nonzero bracket classified on floats: the
    reference of the rule that derives {F_i, H} from H's membership and
    the member pairs, and the float cross-check of the exact remainder."""
    members = family.members() + [hamiltonian_pert(family.model)]
    labels = family.labels() + ["H"]
    points = None
    results = []
    for i in range(len(members) - 1):
        results.append(PairResult(labels[i], labels[i], "zero_polynomial", 0))
        for j in range(i + 1, len(members)):
            bracket = poisson_bracket(members[i], members[j])
            if bracket.is_zero:
                results.append(PairResult(labels[i], labels[j], "zero_polynomial", 0))
                continue
            if points is None:
                points = commutation_points(family.model.n, seed)
            status = float_classify_nonzero(members[i], members[j], bracket, points)
            results.append(PairResult(labels[i], labels[j], status, bracket.num_terms))
    return results


# -- finite-difference oracle -------------------------------------------------


def fd_bracket_oracle(f: PhasePoly, g: PhasePoly, point) -> float:
    """Central-difference estimate of {f, g} at a float point, with step
    FD_STEP.

    Uses only the float evaluator, never the symbolic bracket, so it serves
    as an independent cross-check of the exact engine.  The points shifted
    by +FD_STEP and -FD_STEP in each slot are stacked into one array, so f
    and g are evaluated once each.
    """
    width = f.width
    z = np.asarray(point, dtype=float)
    if z.shape != (width,):
        raise InputError(f"point has shape {z.shape}, expected ({width},)")
    shifts = FD_STEP * np.eye(width)
    stencil = np.concatenate([z + shifts, z - shifts])

    def central_differences(poly):
        values = compiled_evaluator(poly)(stencil)
        return (values[:width] - values[width:]) / (2.0 * FD_STEP)

    df, dg = central_differences(f), central_differences(g)
    d = f.n + 1
    return float(df[:d] @ dg[d:] - df[d:] @ dg[:d])


# -- mixed-degree commutation ---------------------------------------------------


def potential_compatibility(k1: PhasePoly, u1: PhasePoly, k2: PhasePoly, u2: PhasePoly) -> bool:
    """Exact check of the mixed commutation condition {K1,U2} + {U1,K2} = 0,
    the momentum-degree-1 component of {K1+U1, K2+U2}."""
    for poly, want, what in ((k1, 2, "K1"), (k2, 2, "K2"), (u1, 0, "U1"), (u2, 0, "U2")):
        degrees = set(p_degree_parts(poly))
        if degrees - {want}:
            raise InputError(f"{what} must be homogeneous of momentum degree {want}")
    mixed = poisson_bracket(k1, u2) + poisson_bracket(u1, k2)
    return mixed.is_zero


# -- float rank path --------------------------------------------------------------


@dataclass
class RankStats:
    """The projected rank at each sample point; a point is full rank when
    its rank reaches `expected_rank`."""

    expected_rank: int
    ranks: list

    @property
    def samples(self) -> int:
        return len(self.ranks)

    @property
    def failures(self) -> list:
        """(sample index, rank) of every point below full rank."""
        return [(i, r) for i, r in enumerate(self.ranks) if r < self.expected_rank]

    @property
    def full_rank_count(self) -> int:
        return self.samples - len(self.failures)

    @property
    def full_rank_fraction(self) -> float:
        return self.full_rank_count / self.samples if self.samples else 0.0

    @property
    def full_rank(self) -> bool:
        """The quota verdict: full rank at FULL_RANK_QUOTA of the points."""
        return self.full_rank_fraction >= FULL_RANK_QUOTA

    def histogram(self) -> dict:
        hist: dict = {}
        for r in self.ranks:
            hist[r] = hist.get(r, 0) + 1
        return {str(k): v for k, v in sorted(hist.items())}


def gradient_tensor(members, points: np.ndarray) -> np.ndarray:
    """Ambient gradients of each member at each point: (R, k, 2d).  Only
    the nonzero partials are evaluated; every other slot stays 0."""
    grads = np.zeros((points.shape[0], len(members), points.shape[1]))
    for k, poly in enumerate(members):
        for slot in range(points.shape[1]):
            derivative = partial(poly, slot)
            if not derivative.is_zero:
                grads[:, k, slot] = compiled_evaluator(derivative)(points)
    return grads


def projected_ranks(grads: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Rank of each point's member gradients, (R, k, 2d) -> (R,), projected
    tangentially to the constraint set {|X|^2 = 1, <X,P> = 0}."""
    d = points.shape[1] // 2
    x, p = points[:, :d], points[:, d:]
    e1 = np.concatenate([x, np.zeros_like(x)], axis=1)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    v2 = np.concatenate([p, x], axis=1)
    v2 -= np.einsum("rw,rw->r", e1, v2)[:, None] * e1
    e2 = v2 / np.linalg.norm(v2, axis=1, keepdims=True)
    proj = grads.copy()
    for e in (e1, e2):
        proj -= (grads @ e[:, :, None]) * e[:, None, :]
    svals = np.linalg.svd(proj, compute_uv=False)
    return np.sum(svals > RANK_THRESHOLD_REL * svals[:, :1], axis=1)


def rank_points(n: int, samples: int, seed: int, stream: int) -> np.ndarray:
    return sampling.constrained_points(sampling.generator(seed, stream), n, samples)


def float_independence(members, n: int, samples: int = 100, seed: int = 0) -> RankStats:
    """Numeric rank of the member differentials restricted to the unit
    cotangent structure, at seeded random points; a point is full rank when
    the rank equals the number of members."""
    members = list(members)
    points = rank_points(n, samples, seed, sampling.STREAM_INDEPENDENCE)
    ranks = projected_ranks(gradient_tensor(members, points), points)
    return RankStats(len(members), ranks.tolist())


def float_probe_verdicts(family, candidates, samples: int = 100, seed: int = 0) -> list:
    """The float quota verdict of each candidate polynomial: whether the
    members plus the candidate have full rank n+1 at FULL_RANK_QUOTA of
    the seeded probe points."""
    n = family.model.n
    points = rank_points(n, samples, seed, STREAM_FLOAT_PROBE)
    member_grads = gradient_tensor(family.members(), points)
    verdicts = []
    for poly in candidates:
        grads = np.concatenate([member_grads, gradient_tensor([poly], points)], axis=1)
        verdicts.append(RankStats(n + 1, projected_ranks(grads, points).tolist()).full_rank)
    return verdicts


# -- exact rank reference ------------------------------------------------------------


def fraction_rank(rows) -> int:
    """Rank over Q of a matrix of ints or Fractions, by Gaussian elimination."""
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def float_report_dict(report, family, samples: int, seed: int) -> dict:
    """`report.to_dict()` as the float rank path wrote it: with the seed
    and samples it ran with, the independence certificate replaced by the
    float RankStats of the members at those points, each probe
    candidate's `raises_rank` by its float full-rank fraction at the probe
    points, and the verdicts `is_additional_integral` and `passed` taken
    with the float quota in place of the certificate."""
    from magneflow.verify import _probe_candidates

    n = family.model.n
    data = {**report.to_dict(), "seed": seed, "samples": samples}
    stats = float_independence(family.members(), n, samples=samples, seed=seed)
    del data["independence"]
    data["rank_stats"] = {
        "samples": stats.samples,
        "expected_rank": stats.expected_rank,
        "histogram": stats.histogram(),
        "full_rank_count": stats.full_rank_count,
        "threshold_rel": RANK_THRESHOLD_REL,
        "failures": [{"sample": i, "rank": r} for i, r in stats.failures],
    }
    points = rank_points(n, samples, seed, STREAM_FLOAT_PROBE)
    member_grads = gradient_tensor(family.members(), points)
    candidates = [c[3] for c in _probe_candidates(family.model)]
    for probe, poly in zip(data["probe_results"], candidates, strict=True):
        grads = np.concatenate([member_grads, gradient_tensor([poly], points)], axis=1)
        probe_stats = RankStats(n + 1, projected_ranks(grads, points).tolist())
        del probe["raises_rank"]
        probe["full_rank_fraction"] = probe_stats.full_rank_fraction
        probe["is_additional_integral"] = (
            probe["commutes_with_hamiltonian"]
            and probe["commutes_with_indicator_quads"]
            and probe_stats.full_rank
        )
    pairs_ok = all(p["status"] == "zero_polynomial" for p in data["pair_results"])
    data["passed"] = pairs_ok and stats.full_rank and data["membership"]["ok"]
    return data
