"""Verification of the integral family: exact brackets, independence, membership.

The criterion everywhere is exactness: a bracket counts as zero only
when the polynomial is identically zero over Q.  A nonzero bracket that
vanishes on the constraint set T*S^n is classified as
`zero_on_constraints`, which is still a failure.  That is decided by its
remainder modulo G = {|X|^2 - 1, <X,P>}: in lex order with P{n+1} > X1 >
the rest, the leading monomials X1^2 and X{n+1}P{n+1} are coprime, so G
is a Groebner basis (Buchberger's first criterion; Cox, Little and
O'Shea, *Ideals, Varieties, and Algorithms*, ch. 2), the remainder is
unique, and as the ideal is prime with Zariski-dense real points, it is
zero exactly when the bracket vanishes on T*S^n.
A member's bracket with H is derived rather than taken when H's
membership holds (H = sum c_k F_k + sum d_l L_l^2 + c_s |X|^2 + c_0
over Q, each L_l a member) and the member's brackets with every other
member and with |X|^2 are the zero polynomial: by bilinearity and the
Leibniz rule {F, L^2} = 2 L {F, L}, {F, H} is then the zero polynomial
over Q too.

Functional independence is certified exactly too.  At a seeded rational
point of the constraint set, the member gradients and the two constraint
normals are reduced modulo the prime PRIME = 2^61 - 1 into one echelon
form; full rank there implies a nonzero minor over Q, which proves
independence (Schwartz 1980 and Zippel 1979 bound the chance that a
random point misses it; for modular rank see von zur Gathen and Gerhard,
*Modern Computer Algebra*, ch. 5).  The probe reduces each candidate's
gradient against the same echelon form.  Its points, drawn from the seed
through a substream of `sampling`, are the only randomness, and verify
evaluates no float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import sampling
from .errors import InputError
from .exactpoly import (
    PhasePoly,
    _from_monomials,
    _mul_into,
    _partials,
    _raw,
    _unit,
    compiled_evaluator,  # not called here; the bench tracer wraps verify.compiled_evaluator
    format_rational,
    poisson_bracket,
)
from .integral_family import IntegralFamily, killing
from .magnetic_model import MagneticModel, _killing_terms, _x_square_terms, hamiltonian_pert

__all__ = [
    "PairResult",
    "check_commutation",
    "IndependenceCertificate",
    "functional_independence",
    "MembershipResult",
    "hamiltonian_membership",
    "ProbeResult",
    "superintegrability_probe",
    "VerificationReport",
    "run_verification",
]

# The modulus of the independence certificate, 2^61 - 1.
PRIME = (1 << 61) - 1


# -- pairwise commutation ------------------------------------------------------


@dataclass
class PairResult:
    left: str
    right: str
    status: str  # zero_polynomial | zero_on_constraints | nonzero
    witness_terms: int

    def to_dict(self) -> dict:
        # the fields hold immutable values, so a shallow copy shares nothing
        return dict(vars(self))


def _constraint_remainder(poly: PhasePoly) -> PhasePoly:
    """The remainder of poly modulo the Groebner basis G of the module
    docstring: X1^2 -> 1 - sum_{i>=2} Xi^2 and X{n+1}P{n+1} ->
    -sum_{i<=n} XiPi rewrite terms, each into lex-smaller ones, until
    none is divisible by X1^2 or X{n+1}P{n+1}."""
    n, width = poly.n, poly.width
    top = 8 * (width - 1)  # the shift of X1, the most significant byte
    sphere = [(0, 1)] + [(2 * _unit(width, s), -1) for s in range(1, n + 1)]
    dilation = [(_unit(width, s) + _unit(width, n + 1 + s), -1) for s in range(n)]
    xp = _unit(width, n) + 1  # X{n+1}P{n+1}; P{n+1} is the lowest byte
    pending, out = dict(poly.terms), {}
    while pending:
        mono, c = pending.popitem()
        if mono >> top >= 2:
            _mul_into(pending, ((mono - (2 << top), c),), sphere)
        elif mono & 255 and (mono >> 8 * (n + 1)) & 255:
            _mul_into(pending, ((mono - xp, c),), dilation)
        else:
            _mul_into(out, ((mono, c),), ((0, 1),))
    return _raw(n, out, poly.den)


def _sphere_square(n: int) -> PhasePoly:
    """|X|^2 = X1^2 + ... + X{n+1}^2."""
    return _from_monomials(n, _x_square_terms(n, [1] * (n + 1)))


def check_commutation(membership: MembershipResult) -> list:
    """Exact brackets of all member pairs of the membership's family and
    of each member with the Hamiltonian, in the order (F_i, F_i),
    (F_i, F_j) for j > i, (F_i, H).
    A self pair is reported as the zero polynomial without a bracket: the
    canonical bracket is antisymmetric, so {F, F} = 0 over Q for every F.
    A nonzero bracket is `zero_on_constraints` when its remainder modulo
    {|X|^2 - 1, <X,P>} is zero and `nonzero` otherwise.

    (F_i, H) is derived rather than bracketed when the membership holds,
    every {F_i, F_j} with j != i is the zero polynomial and so is
    {F_i, |X|^2}.  Then H = sum c_k F_k + sum d_l L_l^2 + c_s |X|^2 + c_0
    with every L_l a member, and bilinearity and the Leibniz rule
    {F_i, L^2} = 2 L {F_i, L} make {F_i, H} the zero polynomial over Q.
    When a premise fails, (F_i, H) is bracketed directly."""
    family = membership.family
    members = family.members()
    labels = family.labels()
    h = None  # built by the first row that brackets with it
    x_square = _sphere_square(family.model.n)
    # derivable[i]: whether the premises of the rule hold for row i so far
    derivable = [membership.ok] * len(members)

    def result(i, right, bracket):
        if bracket.is_zero:
            return PairResult(labels[i], right, "zero_polynomial", 0)
        on_constraints = _constraint_remainder(bracket).is_zero
        status = "zero_on_constraints" if on_constraints else "nonzero"
        return PairResult(labels[i], right, status, bracket.num_terms)

    results = []
    for i, f in enumerate(members):
        results.append(PairResult(labels[i], labels[i], "zero_polynomial", 0))
        for j in range(i + 1, len(members)):
            bracket = poisson_bracket(f, members[j])
            if not bracket.is_zero:
                derivable[i] = derivable[j] = False
            results.append(result(i, labels[j], bracket))
        if derivable[i] and poisson_bracket(f, x_square).is_zero:
            results.append(PairResult(labels[i], "H", "zero_polynomial", 0))
        else:
            if h is None:
                h = hamiltonian_pert(family.model)
            results.append(result(i, "H", poisson_bracket(f, h)))
    return results


# -- functional independence ---------------------------------------------------


@dataclass
class IndependenceCertificate:
    """The tangential rank mod PRIME of the differentials of the family's
    members at each exact rational point tried,
    rank[(2X, 0); (P, X); dF_1..dF_k] - 2;
    `x` and `p` are the last point tried, `residues` its coordinates mod
    PRIME, and `echelon` the echelon form of the normals and member
    gradients there, against which the probe reduces candidate gradients.
    Rank k at one point certifies independence, a smaller rank proves
    nothing."""

    family: IntegralFamily = field(repr=False, compare=False)
    ranks: list
    x: list
    p: list
    echelon: list = field(repr=False)
    residues: list = field(repr=False)

    @property
    def expected_rank(self) -> int:
        return len(self.family.integrals)

    @property
    def certified(self) -> bool:
        return self.ranks[-1] == self.expected_rank

    def to_dict(self) -> dict:
        return {
            "point": {"x": [format_rational(v) for v in self.x],
                      "p": [format_rational(v) for v in self.p]},
            "prime": PRIME,
            "rank": self.ranks[-1],
            "expected_rank": self.expected_rank,
            "points_tried": len(self.ranks),
            "certified": self.certified,
        }


def _gradient_row(poly: PhasePoly, residues: list) -> list:
    """den(poly) times the gradient of poly mod PRIME at the point whose
    coordinates have these residues.  Scaling a row leaves ranks unchanged."""
    row = [0] * poly.width
    # byte b of a packed monomial, counted from the least significant,
    # is the exponent field of slot width - 1 - b (exactpoly._fields)
    by_byte = residues[::-1]
    for slot, terms in _partials(poly).items():
        total = 0
        for mono, c in terms:
            while mono:
                shift = (mono.bit_length() - 1) & -8
                k = mono >> shift
                mono -= k << shift
                c *= by_byte[shift >> 3] ** k
            total += c
        row[slot] = total % PRIME
    return row


def _reduce(row: list, echelon: list) -> list:
    """row minus its combination of the echelon rows, mod PRIME: zero in
    every pivot column, and zero everywhere iff row lies in their span."""
    for col, pivot in echelon:
        factor = row[col]
        if factor:
            row = [(a - factor * b) % PRIME for a, b in zip(row, pivot)]
    return row


def _echelon(rows) -> list:
    """Echelon form mod PRIME of the rows, as (pivot column, row with a 1
    there and a 0 in every earlier pivot column) pairs; its length is the
    rank mod PRIME."""
    echelon = []
    for row in rows:
        row = _reduce(row, echelon)
        col = next((i for i, v in enumerate(row) if v), None)
        if col is not None:
            inverse = pow(row[col], -1, PRIME)
            echelon.append((col, [v * inverse % PRIME for v in row]))
    return echelon


def functional_independence(
    family: IntegralFamily, samples: int = 100, seed: int = 0
) -> IndependenceCertificate:
    """Exact certificate that the family's members are functionally
    independent on the unit cotangent structure: their tangential rank mod
    PRIME reaches the member count at one of at most `samples` seeded
    rational points.

    Points come from the STREAM_INDEPENDENCE substream of the seed; one
    whose coordinates have a denominator divisible by PRIME is skipped and
    does not count."""
    if samples < 1:
        raise InputError(f"samples must be at least 1, got {samples}")
    n, members = family.model.n, family.members()
    rng = sampling.generator(seed, sampling.STREAM_INDEPENDENCE)
    ranks = []
    while len(ranks) < samples and (not ranks or ranks[-1] < len(members)):
        x, p = sampling.rational_point(rng, n)
        if any(v.denominator % PRIME == 0 for v in x + p):
            continue
        residues = [v.numerator * pow(v.denominator, -1, PRIME) % PRIME for v in x + p]
        rx, rp = residues[: n + 1], residues[n + 1:]
        normals = [[2 * v % PRIME for v in rx] + [0] * (n + 1), rp + rx]
        echelon = _echelon(normals + [_gradient_row(poly, residues) for poly in members])
        ranks.append(len(echelon) - 2)
    return IndependenceCertificate(family, ranks, x, p, echelon, residues)


# -- membership of the Hamiltonian ---------------------------------------------


@dataclass
class MembershipResult:
    family: IntegralFamily = field(repr=False, compare=False)
    ok: bool
    coefficients: dict | None

    def to_dict(self) -> dict:
        if not self.ok:
            return {"ok": False, "coefficients": "not representable"}
        return {
            "ok": True,
            "coefficients": {k: format_rational(v) for k, v in self.coefficients.items()},
        }


def _solve_exact(columns, target: PhasePoly):
    """Solve target = sum_k c_k columns[k] exactly over Q; None if impossible.

    Fraction-free Gauss-Jordan elimination on the integer numerators (one
    row per monomial): the unknowns are y_k = c_k den(target) / den(k),
    a row is combined with the pivot row by integer multipliers and then
    divided by the gcd of its entries, and rows with a zero in the pivot
    column are not touched.  The pivot of a column is the first remaining
    row with a nonzero in it, and free unknowns are 0.  The reduced
    row-echelon form is unique, so the solution is the one that rational
    Gauss-Jordan elimination gives.  A row is a sparse dict from column
    (the target is column len(columns)) to its nonzero entry, combined by
    `_mul_into`: a monomial sits in only a few of the columns, so a
    combination touches only the nonzeros of the two rows.
    """
    polys = list(columns) + [target]
    by_mono: dict = {}
    for k, poly in enumerate(polys):
        for mono, c in poly.terms.items():
            by_mono.setdefault(mono, {})[k] = c
    rows = [by_mono[m] for m in sorted(by_mono)]
    ncols = len(columns)

    pivot_cols = []
    rank = 0
    for col in range(ncols):
        hits = [r for r, row in enumerate(rows) if col in row]
        pivot = next((r for r in hits if r >= rank), None)
        if pivot is None:
            continue
        pivot_row = rows[pivot]
        lead = pivot_row[col]
        for r in hits:
            if r == pivot:
                continue
            entry = rows[r][col]
            g = math.gcd(lead, entry)
            a, b = lead // g, entry // g
            row = _mul_into({k: a * u for k, u in rows[r].items()}, pivot_row.items(), ((0, -b),))
            content = math.gcd(*row.values())
            rows[r] = {k: u // content for k, u in row.items()} if content > 1 else row
        rows[rank], rows[pivot] = pivot_row, rows[rank]
        pivot_cols.append(col)
        rank += 1
    if any(ncols in row for row in rows[rank:]):
        return None
    solution = [Fraction(0)] * ncols
    for row, col in zip(rows, pivot_cols):
        solution[col] = Fraction(row.get(ncols, 0) * columns[col].den, row[col] * target.den)
    return solution


def _residual_is_zero(target: PhasePoly, solution, columns) -> bool:
    """Whether target - sum_k solution[k] columns[k] is the zero
    polynomial, accumulated in one dict over a common denominator."""
    used = [(c, col) for c, col in zip(solution, columns) if c]
    den = math.lcm(target.den, *(c.denominator * col.den for c, col in used))
    acc = {m: c * (den // target.den) for m, c in target.terms.items()}
    for c, col in used:
        scale = c.numerator * (den // (c.denominator * col.den))
        _mul_into(acc, col.terms.items(), ((0, -scale),))
    return not acc


def _membership_columns(family: IntegralFamily) -> tuple:
    """(names, columns) of the membership solve: the members F_k, the
    squares L_i^2 of the linear members, |X|^2 and the constant 1.  A
    family file may carry any linear member, so L_i^2 is its product
    with itself; the other columns are listed from their terms."""
    n = family.model.n
    labels = family.labels()
    linears = [(label, item.poly) for label, item in zip(labels, family.integrals)
               if item.tag == "linear"]
    names = labels + [f"{label}^2" for label, _ in linears] + ["|X|^2", "1"]
    columns = (
        family.members()
        + [poly * poly for _, poly in linears]
        + [_sphere_square(n), _from_monomials(n, [(0, 1, 1)])]
    )
    return names, columns


def hamiltonian_membership(family: IntegralFamily) -> MembershipResult:
    """Express H exactly in the family.

    Solves H = sum c_k F_k + sum d_i L_i^2 + c_s |X|^2 + c_0 over Q, where
    F_k runs over all members and L_i over the linear members.  The
    squares of the linear members are required: the rotational kinetic
    energy contains (1/2) M_{2i-1,2i}^2 for every plane, and no linear
    combination of the members alone produces those terms.  Since squares
    of members are functions of members, the family remains the generating
    set.  The residual must be the empty polynomial; anything else is
    reported as not representable.
    """
    h = hamiltonian_pert(family.model)
    names, columns = _membership_columns(family)
    solution = _solve_exact(columns, h)
    if solution is None or not _residual_is_zero(h, solution, columns):
        return MembershipResult(family, ok=False, coefficients=None)
    return MembershipResult(family, ok=True, coefficients=dict(zip(names, solution)))


# -- superintegrability probe ----------------------------------------------------


@dataclass
class ProbeResult:
    block: tuple
    kind: str  # generator | pair_sum | pair_diff
    label: str
    cross_pair: bool
    commutes_with_hamiltonian: bool
    commutes_with_indicator_quads: bool
    raises_rank: bool
    is_additional_integral: bool

    def to_dict(self) -> dict:
        # the fields hold immutable values, so a shallow copy shares nothing
        return dict(vars(self))


def _probe_candidates(model: MagneticModel):
    """(block, kind, label, polynomial, cross_pair) of every probe
    candidate, block by block: the generators M_lm first, then the
    pair_sum and pair_diff of each pair of planes.  Blocks with fewer
    than two coordinate planes give none."""
    n = model.n
    for block in model.partition:
        planes = [u for u in model.block_units(block) if len(u) == 2]
        if len(planes) < 2:
            continue
        plane_of = {idx: unit for unit in planes for idx in unit}
        for ai, l in enumerate(block):  # a block is an ascending tuple
            for m in block[ai + 1:]:
                cross = plane_of.get(l) != plane_of.get(m)
                yield block, "generator", f"M({l},{m})", killing(l, m, n), cross
        for pi, (a, b) in enumerate(planes):
            for c, d in planes[pi + 1:]:
                pair_sum = _killing_terms(a, c, n, 1) + _killing_terms(b, d, n, 1)
                pair_diff = _killing_terms(a, d, n, 1) + _killing_terms(b, c, n, -1)
                yield (block, "pair_sum", f"M({a},{c})+M({b},{d})",
                       _from_monomials(n, pair_sum), True)
                yield (block, "pair_diff", f"M({a},{d})-M({b},{c})",
                       _from_monomials(n, pair_diff), True)


def superintegrability_probe(certificate: IndependenceCertificate) -> list:
    """Search blocks with at least two coordinate planes for extra integrals.

    Candidates are the single rotation momenta M_lm with l, m in the
    block, and for each pair of planes the two plane-symmetric
    combinations M_ac + M_bd and M_ad - M_bc (planes (a,b) and (c,d)).
    A candidate qualifies when its bracket with H and with every
    indicator quadratic is identically zero and it raises the rank of
    the family to n+1.  The family is the certificate's, from
    `functional_independence`; each candidate's gradient at its
    certifying point is reduced against the members' echelon form, and a
    nonzero remainder proves that the candidate raises the rank.  When
    the members are not certified, no candidate does.
    """
    family = certificate.family
    candidates = list(_probe_candidates(family.model))
    if not candidates:
        return []
    h = hamiltonian_pert(family.model)
    indicator_quads = [
        item.poly for item in family.integrals
        if item.tag == "quad" and item.provenance.get("kind") == "indicator"
    ]
    results = []
    for block, kind, label, poly, cross in candidates:
        commutes_h = poisson_bracket(poly, h).is_zero
        commutes_ind = all(poisson_bracket(poly, q).is_zero for q in indicator_quads)
        raises = certificate.certified and any(
            _reduce(_gradient_row(poly, certificate.residues), certificate.echelon))
        results.append(ProbeResult(
            block=block,
            kind=kind,
            label=label,
            cross_pair=cross,
            commutes_with_hamiltonian=commutes_h,
            commutes_with_indicator_quads=commutes_ind,
            raises_rank=raises,
            is_additional_integral=commutes_h and commutes_ind and raises,
        ))
    return results


# -- report ---------------------------------------------------------------------


@dataclass
class VerificationReport:
    pair_results: list
    independence: IndependenceCertificate
    membership: MembershipResult
    probe_results: list

    @property
    def passed(self) -> bool:
        pairs_ok = all(p.status == "zero_polynomial" for p in self.pair_results)
        return pairs_ok and self.independence.certified and self.membership.ok

    def to_dict(self) -> dict:
        return {
            "model": self.membership.family.model.to_dict(),
            "pair_results": [p.to_dict() for p in self.pair_results],
            "independence": self.independence.to_dict(),
            "membership": self.membership.to_dict(),
            "probe_results": [p.to_dict() for p in self.probe_results],
            "passed": self.passed,
        }


def run_verification(
    family: IntegralFamily, samples: int = 100, seed: int = 0
) -> VerificationReport:
    """Full verification pass over a family: exact commutation, certified
    independence at up to `samples` rational points, exact membership of
    H, and the extra-integral probe, which reuses the certificate."""
    membership = hamiltonian_membership(family)
    pair_results = check_commutation(membership)
    independence = functional_independence(family, samples=samples, seed=seed)
    return VerificationReport(
        pair_results=pair_results,
        independence=independence,
        membership=membership,
        probe_results=superintegrability_probe(independence),
    )
