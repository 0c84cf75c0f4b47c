"""Verification of the integral family: exact brackets, independence, membership.

The primary criterion everywhere is exactness: a bracket counts as zero
only when the polynomial is identically zero over Q.  A bracket that
merely vanishes numerically on the constraint set is classified as
`zero_on_constraints`; that tier exists to make failures informative and
is still a failure.

Functional independence and the probe share one numeric rank path:
seeded points on the constraint set, the ambient gradients of the members
at those points (evaluated from each member's nonzero first partials
only), their ranks after projection tangential to the constraint set, and
a `RankStats` derived from those ranks.  All randomness comes from one
seed through the named substreams of `sampling`, so reports are
reproducible from the seed alone.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import sampling
from .errors import InputError
from .exactpoly import (
    PhasePoly,
    _partials,
    compiled_evaluator,
    format_rational,
    poisson_bracket,
    x_var,
)
from .integral_family import IntegralFamily, killing
from .magnetic_model import MagneticModel, hamiltonian_pert

__all__ = [
    "fd_bracket_oracle",
    "PairResult",
    "check_commutation",
    "potential_compatibility",
    "RankStats",
    "functional_independence",
    "MembershipResult",
    "hamiltonian_membership",
    "ProbeResult",
    "superintegrability_probe",
    "VerificationReport",
    "run_verification",
]

ON_CONSTRAINT_RTOL = 1e-10
RANK_THRESHOLD_REL = 1e-8
FULL_RANK_QUOTA = 0.95
FD_STEP = 1e-5


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


# -- pairwise commutation ------------------------------------------------------


@dataclass
class PairResult:
    left: str
    right: str
    status: str  # zero_polynomial | zero_on_constraints | nonzero
    witness_terms: int

    def to_dict(self) -> dict:
        return asdict(self)


def _classify_bracket(f, g, bracket, points) -> tuple:
    if bracket.is_zero:
        return "zero_polynomial", 0

    def peak(poly):
        return float(np.max(np.abs(compiled_evaluator(poly)(points))))

    if peak(bracket) <= ON_CONSTRAINT_RTOL * max(1.0, peak(f), peak(g)):
        return "zero_on_constraints", bracket.num_terms
    return "nonzero", bracket.num_terms


def check_commutation(family: IntegralFamily, seed: int = 0) -> list:
    """Exact brackets of all member pairs (self pairs included) and of each
    member with the Hamiltonian."""
    members = family.members() + [hamiltonian_pert(family.model)]
    labels = family.labels() + ["H"]
    rng = sampling.generator(seed, sampling.STREAM_COMMUTATION)
    points = sampling.constrained_points(rng, family.model.n, 50)

    results = []
    for i in range(len(members) - 1):  # no (H, H) self pair
        for j in range(i, len(members)):
            bracket = poisson_bracket(members[i], members[j])
            status, witness = _classify_bracket(members[i], members[j], bracket, points)
            results.append(PairResult(labels[i], labels[j], status, witness))
    return results


def potential_compatibility(k1: PhasePoly, u1: PhasePoly, k2: PhasePoly, u2: PhasePoly) -> bool:
    """Exact check of the mixed commutation condition {K1,U2} + {U1,K2} = 0,
    the momentum-degree-1 component of {K1+U1, K2+U2}."""
    for poly, want, what in ((k1, 2, "K1"), (k2, 2, "K2"), (u1, 0, "U1"), (u2, 0, "U2")):
        degrees = set(poly.p_degree_parts())
        if degrees - {want}:
            raise InputError(f"{what} must be homogeneous of momentum degree {want}")
    mixed = poisson_bracket(k1, u2) + poisson_bracket(u1, k2)
    return mixed.is_zero


# -- functional independence ---------------------------------------------------


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

    def histogram(self) -> dict:
        hist: dict = {}
        for r in self.ranks:
            hist[r] = hist.get(r, 0) + 1
        return {str(k): v for k, v in sorted(hist.items())}

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "expected_rank": self.expected_rank,
            "histogram": self.histogram(),
            "full_rank_count": self.full_rank_count,
            "threshold_rel": RANK_THRESHOLD_REL,
            "failures": [{"sample": i, "rank": r} for i, r in self.failures],
        }


def _gradient_tensor(members, points: np.ndarray) -> np.ndarray:
    """Ambient gradients of each member at each point: (R, k, 2d).  Only
    the nonzero partials are evaluated; every other slot stays 0."""
    grads = np.zeros((points.shape[0], len(members), points.shape[1]))
    for k, poly in enumerate(members):
        for slot in _partials(poly):
            grads[:, k, slot] = compiled_evaluator(poly._partial(slot))(points)
    return grads


def _projected_ranks(grads: np.ndarray, points: np.ndarray) -> np.ndarray:
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


def _rank_points(n: int, samples: int, seed: int, stream: int) -> np.ndarray:
    return sampling.constrained_points(sampling.generator(seed, stream), n, samples)


def functional_independence(members, n: int, samples: int = 100, seed: int = 0) -> RankStats:
    """Numeric rank of the member differentials restricted to the unit
    cotangent structure, at seeded random points; a point is full rank when
    the rank equals the number of members."""
    members = list(members)
    points = _rank_points(n, samples, seed, sampling.STREAM_INDEPENDENCE)
    ranks = _projected_ranks(_gradient_tensor(members, points), points)
    return RankStats(len(members), ranks.tolist())


# -- membership of the Hamiltonian ---------------------------------------------


@dataclass
class MembershipResult:
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
    Gauss-Jordan elimination gives.
    """
    polys = list(columns) + [target]
    monos = set()
    for poly in polys:
        monos.update(poly.terms)
    rows = [[poly.terms.get(m, 0) for poly in polys] for m in sorted(monos)]
    ncols = len(columns)

    pivot_cols = []
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pivot_row = rows[rank]
        lead = pivot_row[col]
        for r, row in enumerate(rows):
            entry = row[col]
            if entry and r != rank:
                g = math.gcd(lead, entry)
                a, b = lead // g, entry // g
                row = [a * u - b * v for u, v in zip(row, pivot_row)]
                content = math.gcd(*row)
                rows[r] = [u // content for u in row] if content > 1 else row
        pivot_cols.append(col)
        rank += 1
    if any(row[ncols] for row in rows[rank:]):
        return None
    solution = [Fraction(0)] * ncols
    for row, col in zip(rows, pivot_cols):
        solution[col] = Fraction(row[ncols] * columns[col].den, row[col] * target.den)
    return solution


def hamiltonian_membership(
    family: IntegralFamily, hamiltonian: PhasePoly | None = None
) -> MembershipResult:
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
    model = family.model
    n = model.n
    h = hamiltonian if hamiltonian is not None else hamiltonian_pert(model)
    labels = family.labels()
    columns = []
    names = []
    for label, poly in zip(labels, family.members()):
        columns.append(poly)
        names.append(label)
    for label, poly in zip(labels[len(family.quads):], family.linears):
        columns.append(poly * poly)
        names.append(f"{label}^2")
    sphere = PhasePoly(n)
    for i in range(1, n + 2):
        sphere = sphere + x_var(i, n) ** 2
    columns.append(sphere)
    names.append("|X|^2")
    columns.append(PhasePoly.constant(n, 1))
    names.append("1")

    solution = _solve_exact(columns, h)
    if solution is None:
        return MembershipResult(ok=False, coefficients=None)
    recomposed = PhasePoly(n)
    for c, col in zip(solution, columns):
        if c:
            recomposed = recomposed + c * col
    if not (recomposed - h).is_zero:
        return MembershipResult(ok=False, coefficients=None)
    return MembershipResult(ok=True, coefficients=dict(zip(names, solution)))


# -- superintegrability probe ----------------------------------------------------


@dataclass
class ProbeResult:
    block: tuple
    kind: str  # generator | pair_sum | pair_diff
    label: str
    cross_pair: bool
    commutes_with_hamiltonian: bool
    commutes_with_indicator_quads: bool
    full_rank_fraction: float
    is_additional_integral: bool

    def to_dict(self) -> dict:
        return asdict(self)


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
                yield (block, "pair_sum", f"M({a},{c})+M({b},{d})",
                       killing(a, c, n) + killing(b, d, n), True)
                yield (block, "pair_diff", f"M({a},{d})-M({b},{c})",
                       killing(a, d, n) - killing(b, c, n), True)


def superintegrability_probe(family: IntegralFamily, samples: int = 100, seed: int = 0) -> list:
    """Search blocks with at least two coordinate planes for extra integrals.

    Candidates are the single rotation momenta M_lm with l, m in the
    block, and for each pair of planes the two plane-symmetric
    combinations M_ac + M_bd and M_ad - M_bc (planes (a,b) and (c,d)).
    A candidate qualifies when its bracket with H and with every
    indicator quadratic is identically zero and it raises the numeric
    rank of the family to n+1 at the sampled points.  Every candidate is
    rank-tested at the same seeded points next to the same member
    gradients.
    """
    candidates = list(_probe_candidates(family.model))
    if not candidates:
        return []
    n = family.model.n
    h = hamiltonian_pert(family.model)
    indicator_quads = [
        q for q, prov in zip(family.quads, family.quad_provenance)
        if prov.get("kind") == "indicator"
    ]
    points = _rank_points(n, samples, seed, sampling.STREAM_PROBE)
    member_grads = _gradient_tensor(family.members(), points)
    results = []
    for block, kind, label, poly, cross in candidates:
        commutes_h = poisson_bracket(poly, h).is_zero
        commutes_ind = all(poisson_bracket(poly, q).is_zero for q in indicator_quads)
        grads = np.concatenate([member_grads, _gradient_tensor([poly], points)], axis=1)
        stats = RankStats(n + 1, _projected_ranks(grads, points).tolist())
        results.append(ProbeResult(
            block=block,
            kind=kind,
            label=label,
            cross_pair=cross,
            commutes_with_hamiltonian=commutes_h,
            commutes_with_indicator_quads=commutes_ind,
            full_rank_fraction=stats.full_rank_fraction,
            is_additional_integral=(
                commutes_h and commutes_ind and stats.full_rank_fraction >= FULL_RANK_QUOTA
            ),
        ))
    return results


# -- report ---------------------------------------------------------------------


@dataclass
class VerificationReport:
    model: MagneticModel
    seed: int
    samples: int
    pair_results: list
    rank_stats: RankStats
    membership: MembershipResult
    probe_results: list

    @property
    def passed(self) -> bool:
        pairs_ok = all(p.status == "zero_polynomial" for p in self.pair_results)
        rank_ok = self.rank_stats.full_rank_fraction >= FULL_RANK_QUOTA
        return pairs_ok and rank_ok and self.membership.ok

    def to_dict(self) -> dict:
        return {
            "model": self.model.to_dict(),
            "seed": self.seed,
            "samples": self.samples,
            "pair_results": [p.to_dict() for p in self.pair_results],
            "rank_stats": self.rank_stats.to_dict(),
            "membership": self.membership.to_dict(),
            "probe_results": [p.to_dict() for p in self.probe_results],
            "passed": self.passed,
        }


def run_verification(
    family: IntegralFamily, samples: int = 100, seed: int = 0
) -> VerificationReport:
    """Full verification pass over a family: exact commutation, numeric
    independence, exact membership of H, and the extra-integral probe."""
    model = family.model
    return VerificationReport(
        model=model,
        seed=seed,
        samples=samples,
        pair_results=check_commutation(family, seed=seed),
        rank_stats=functional_independence(family.members(), model.n, samples=samples, seed=seed),
        membership=hamiltonian_membership(family),
        probe_results=superintegrability_probe(family, samples=samples, seed=seed),
    )
