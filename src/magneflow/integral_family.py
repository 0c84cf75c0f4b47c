"""Construction of the commuting integral family.

Three building blocks, all exact:

* `killing(i, j, n)` the rotation momentum M_ij = Xi Pj - Xj Pi;
* `degenerate_integral(a, b)` the classical Neumann-system integrals
  F_B = (1/2) sum_{i<j} (b_i - b_j)/(a_i - a_j) M_ij^2 + sum b_i X_i^2
  with all pairs of equal a-value removed, defined whenever b is
  constant on the level blocks of a (for pairwise distinct a no pair is
  removed, and F_B is Uhlenbeck's integral);
* `limit_integral` the within-block quadratics that survive a
  one-parameter splitting of a degenerate block.

`commuting_basis(model)` assembles n = dim S^n functions: one degenerate
integral per indicator of the first s-1 blocks, block-splitting limit
integrals, and the plane rotation momenta M_{2i-1,2i}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .errors import InputError
from .exactpoly import PhasePoly, _from_monomials, format_rational
from .magnetic_model import (
    MagneticModel,
    _killing_square_terms,
    _killing_terms,
    _x_square_terms,
    ambient_units,
    level_blocks,
)

__all__ = [
    "killing",
    "degenerate_integral",
    "limit_integral",
    "Integral",
    "IntegralFamily",
    "commuting_basis",
]


def killing(i: int, j: int, n: int) -> PhasePoly:
    """Rotation momentum M_ij = Xi Pj - Xj Pi, 1-based, i < j."""
    if not 1 <= i < j <= n + 1:
        raise InputError(f"need 1 <= i < j <= {n + 1}, got ({i}, {j})")
    return _from_monomials(n, _killing_terms(i, j, n, 1))


def _coerce_vector(values: Sequence, n: int, what: str) -> list:
    vec = [v if isinstance(v, Fraction) else Fraction(v) for v in values]
    if len(vec) != n + 1:
        raise InputError(f"{what} must have length {n + 1}, got {len(vec)}")
    return vec


def _numerators(values: Mapping) -> tuple:
    """(index -> int numerator, common denominator) of a map of rationals."""
    den = math.lcm(*(v.denominator for v in values.values()))
    return {i: v.numerator * (den // v.denominator) for i, v in values.items()}, den


def _neumann_quadratic(n: int, lam: Mapping, mu: Mapping) -> list:
    """The terms of

        (1/2) sum_{l<m, lam_l != lam_m} (mu_l - mu_m)/(lam_l - lam_m) * M_lm^2,

    where lam and mu map the same ascending 1-based indices to Fractions.
    With lam = L/dl and mu = N/dm on common denominators, the coefficient
    of M_lm^2 is (N_l - N_m) dl / (2 dm (L_l - L_m)); pairs with equal lam
    or equal mu have none."""
    lnum, dl = _numerators(lam)
    mnum, dm = _numerators(mu)
    idxs = list(lam)
    terms = []
    for ai, l in enumerate(idxs):
        lam_l, mu_l = lnum[l], mnum[l]
        for m in idxs[ai + 1:]:
            dmu, dlam = mu_l - mnum[m], lam_l - lnum[m]
            if dmu and dlam:
                if dlam < 0:
                    dmu, dlam = -dmu, -dlam
                terms.extend(_killing_square_terms(l, m, n, dmu * dl, 2 * dm * dlam))
    return terms


def degenerate_integral(a: Sequence, b: Sequence) -> PhasePoly:
    """F_B for a with repeated values: pairs inside a level block of a are
    omitted from the kinetic sum.  b must be constant on each block."""
    n = len(a) - 1
    if n < 1:
        raise InputError("need at least two coordinates")
    av = _coerce_vector(a, n, "a")
    bv = _coerce_vector(b, n, "b")
    for block in level_blocks(av):
        vals = {bv[i] for i in block}
        if len(vals) != 1:
            raise InputError(
                "b must be constant on each level block of a; "
                f"block {[i + 1 for i in block]} carries values {sorted(vals)}"
            )
    terms = _neumann_quadratic(n, dict(enumerate(av, 1)), dict(enumerate(bv, 1)))
    return _from_monomials(n, terms + _x_square_terms(n, bv))


def limit_integral(n: int, group: Sequence[int], lam: Mapping, mu: Mapping) -> PhasePoly:
    """Within-group quadratic that survives splitting a degenerate block:

        (1/2) sum_{l<m in group, lam_l != lam_m}
              (mu_l - mu_m)/(lam_l - lam_m) * M_lm^2

    lam and mu map 1-based indices of `group` to rationals and must be
    constant on every coordinate pair contained in the group; lam must
    take distinct values on distinct units (else the splitting would
    leave part of the block degenerate).
    """
    idxs = sorted(set(int(i) for i in group))
    if len(idxs) != len(tuple(group)):
        raise InputError("group indices must be distinct")
    if not idxs or idxs[0] < 1 or idxs[-1] > n + 1:
        raise InputError(f"group indices must lie in 1..{n + 1}")

    def lookup(mapping: Mapping, what: str) -> dict:
        out = {}
        for i in idxs:
            if i not in mapping:
                raise InputError(f"{what} is missing index {i}")
            v = mapping[i]
            out[i] = v if isinstance(v, Fraction) else Fraction(v)
        return out

    lam_v = lookup(lam, "lambda")
    mu_v = lookup(mu, "mu")
    members = set(idxs)
    group_units = [u for u in ambient_units(n) if members.issuperset(u)]
    for unit in group_units:
        if len(unit) == 2:
            i, j = unit
            if lam_v[i] != lam_v[j] or mu_v[i] != mu_v[j]:
                raise InputError(
                    f"lambda and mu must be constant on coordinate pair {unit}"
                )
    unit_lams = [lam_v[u[0]] for u in group_units]
    if len(set(unit_lams)) != len(unit_lams):
        raise InputError("lambda must take distinct values on distinct units")
    return _from_monomials(n, _neumann_quadratic(n, lam_v, mu_v))


class Integral(NamedTuple):
    """One member of a family: its tag ("quad" or "linear"), the record of
    how it was built, and its polynomial."""

    tag: str
    provenance: dict
    poly: PhasePoly


@dataclass(frozen=True)
class IntegralFamily:
    """The n candidate integrals for a model: quadratics first, then the
    plane rotation momenta."""

    model: MagneticModel
    integrals: tuple

    def members(self) -> list:
        return [item.poly for item in self.integrals]

    def labels(self) -> list:
        return [f"F{k + 1}" for k in range(len(self.integrals))]

    def to_dict(self) -> dict:
        integrals = []
        for tag, prov, poly in self.integrals:
            integrals.append({"tag": tag, "provenance": prov, "poly": poly.to_dict()})
        return {"model": self.model.to_dict(), "integrals": integrals}

    @classmethod
    def from_dict(cls, data) -> "IntegralFamily":
        try:
            model = MagneticModel.from_dict(data["model"])
            raw = data["integrals"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed family record: {exc}") from None
        if not isinstance(raw, list):
            raise InputError("malformed family record: 'integrals' must be a list")
        integrals = []
        for item in raw:
            try:
                tag = item["tag"]
                poly = PhasePoly.from_dict(item["poly"])
                prov = item.get("provenance", {})
            except (KeyError, TypeError, AttributeError) as exc:
                raise InputError(f"malformed integral record: {exc}") from None
            if not isinstance(prov, dict):
                raise InputError("malformed integral record: 'provenance' must be an object")
            if poly.n != model.n:
                raise InputError("integral polynomial does not match the model dimension")
            if tag not in ("quad", "linear"):
                raise InputError(f"unknown integral tag {tag!r}")
            integrals.append(Integral(tag, prov, poly))
        if len(integrals) != model.n:
            raise InputError(
                f"a family on S^{model.n} has {model.n} integrals, got {len(integrals)}"
            )
        integrals.sort(key=lambda item: item.tag != "quad")  # stable: quadratics first
        return cls(model=model, integrals=tuple(integrals))


def _indicator(block: Sequence[int], n: int) -> list:
    vec = [Fraction(0)] * (n + 1)
    for idx in block:
        vec[idx - 1] = Fraction(1)
    return vec


def commuting_basis(model: MagneticModel) -> IntegralFamily:
    """Assemble the n-member family for a model.

    Quadratics: one degenerate integral per indicator vector of the first
    s-1 level blocks, then for each block containing u >= 2 units, u-1
    limit integrals (lambda = unit ordinal ladder, mu = indicator of one
    unit).  Linears: the plane momenta M_{2i-1,2i}.  Counting the unpaired
    index n+1 (even n) as a unit of its block makes the quadratic count
    come out to floor(n/2) for every admissible alpha, including zero
    rates.
    """
    n = model.n
    integrals: list = []
    blocks = model.partition
    for block in blocks[:-1]:
        b = _indicator(block, n)
        integrals.append(Integral("quad", {
            "kind": "indicator",
            "block": list(block),
            "b": [format_rational(v) for v in b],
        }, degenerate_integral(model.a, b)))
    for block in blocks:
        units = model.block_units(block)
        if len(units) < 2:
            continue
        lam = {}
        for ordinal, unit in enumerate(units, start=1):
            for idx in unit:
                lam[idx] = Fraction(ordinal)
        for lead in units[:-1]:
            mu = {idx: Fraction(1) if idx in lead else Fraction(0) for idx in block}
            integrals.append(Integral("quad", {
                "kind": "limit",
                "group": list(block),
                "lam": {str(i): format_rational(v) for i, v in sorted(lam.items())},
                "mu": {str(i): format_rational(v) for i, v in sorted(mu.items())},
            }, limit_integral(n, block, lam, mu)))
    if len(integrals) != n // 2:
        raise AssertionError(
            f"family construction is inconsistent: {len(integrals)} quadratics, expected {n // 2}"
        )
    for i, j in model.pairs:
        integrals.append(Integral("linear", {"kind": "killing", "pair": [i, j]}, killing(i, j, n)))
    return IntegralFamily(model=model, integrals=tuple(integrals))
