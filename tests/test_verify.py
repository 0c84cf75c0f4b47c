"""Verification layer: commutation tiers, independence, membership, probe."""

import dataclasses
import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magneflow import (
    InputError,
    Integral,
    IntegralFamily,
    MagneticModel,
    PhasePoly,
    check_commutation,
    commuting_basis,
    functional_independence,
    hamiltonian_membership,
    hamiltonian_pert,
    killing,
    kinetic_energy,
    poisson_bracket,
    potential,
    run_verification,
    superintegrability_probe,
    uhlenbeck_integral,
    x_var,
    p_var,
)
from magneflow import sampling, verify
from magneflow.verify import (
    PRIME,
    _constraint_remainder,
    _echelon,
    _probe_candidates,
    _solve_exact,
)
from oracles import (
    RANK_THRESHOLD_REL,
    commutation_points,
    evaluate_exact,
    fd_bracket_oracle,
    float_classify_nonzero,
    float_independence,
    float_probe_verdicts,
    fraction_rank,
    gradient_tensor,
    p_degree_parts,
    potential_compatibility,
    projected_ranks,
    rank_points,
    reference_commutation,
    tagged,
)


CI_MATRIX = [
    (2, "1"), (3, "1,2"), (3, "1,1"), (4, "1,2"), (4, "1,1"), (5, "1,2,3"),
    (5, "1,1,2"), (5, "1,1,1"), (6, "1,1,1"), (7, "1,2,3,4"), (7, "1,1,2,2"),
]


def model_of(n, *alphas):
    return MagneticModel(n=n, alphas=tuple(F(a) for a in alphas))


def sphere_poly(n):
    total = PhasePoly(n)
    for i in range(1, n + 2):
        total = total + x_var(i, n) ** 2
    return total


def dilation(n):
    total = PhasePoly(n)
    for i in range(1, n + 2):
        total = total + x_var(i, n) * p_var(i, n)
    return total


# -- finite-difference oracle -------------------------------------------------


def test_oracle_canonical_pairing():
    f, g = x_var(1, 2), p_var(1, 2)
    value = fd_bracket_oracle(f, g, [0.3, -0.2, 0.9, 0.1, 0.5, -0.7])
    assert abs(value - 1.0) < 1e-9


def test_oracle_rotation_invariance():
    m12 = killing(1, 2, 2)
    radius = x_var(1, 2) ** 2 + x_var(2, 2) ** 2
    rng = np.random.default_rng(0)
    z = rng.normal(size=6) * 0.5
    assert abs(fd_bracket_oracle(m12, radius, z)) < 1e-8


# -- commutation check ----------------------------------------------------------


def test_family_pairs_all_identically_zero():
    fam = commuting_basis(model_of(2, 1))
    results = check_commutation(hamiltonian_membership(fam))
    # 3 member pairs (self pairs included) + 2 Hamiltonian pairs
    assert len(results) == 5
    assert all(r.status == "zero_polynomial" for r in results)
    assert {r.right for r in results if r.right == "H"} == {"H"}


def test_self_pairs_are_zero_by_antisymmetry(monkeypatch):
    # check_commutation reports (F, F) without a bracket; this keeps the
    # identity it relies on, {F, F} = 0 over Q, tested on the real bracket
    calls = []

    def bracket(f, g):
        calls.append((f, g))
        return poisson_bracket(f, g)

    monkeypatch.setattr(verify, "poisson_bracket", bracket)
    for n, alpha in CI_MATRIX:
        fam = commuting_basis(model_of(n, *alpha.split(",")))
        for member in fam.members():
            assert poisson_bracket(member, member).is_zero
        calls.clear()
        results = check_commutation(hamiltonian_membership(fam))
        assert not any(f is g for f, g in calls)
        labels = fam.labels() + ["H"]
        expected = [(a, b) for i, a in enumerate(labels[:-1]) for b in labels[i:]]
        assert [(r.left, r.right) for r in results] == expected
        for r in results:
            if r.left == r.right:
                assert r.status == "zero_polynomial" and r.witness_terms == 0


def family_of(model, quads, linears):
    return IntegralFamily(model=model, integrals=tuple(
        [Integral("quad", {"kind": "test"}, poly) for poly in quads]
        + [Integral("linear", {"kind": "test"}, poly) for poly in linears]
    ))


def tampered_family():
    """The family of (2; 1) with X1*P1 for its linear member, for which
    {X1*P1, |X|^2} = -2 X1^2."""
    fam = commuting_basis(model_of(2, 1))
    return family_of(fam.model, tagged(fam, "quad"), [x_var(1, 2) * p_var(1, 2)])


def three_tier_family():
    defect = sphere_poly(2) - PhasePoly.constant(2, 1)
    return family_of(model_of(2, 1), [defect * defect], [dilation(2)])


def perturbed_member_family():
    fam = commuting_basis(model_of(4, 1, 2))
    quads = tagged(fam, "quad")
    bent = quads[0] + x_var(1, 4) * p_var(2, 4)
    return family_of(fam.model, [bent] + quads[1:], tagged(fam, "linear"))


def rate_swapped_family():
    """The members of (4; 1,3) under the model (4; 1,2), whose H is not in
    their algebra: {F1, H} and {F2, H} are nonzero."""
    members = commuting_basis(model_of(4, 1, 3)).integrals
    return IntegralFamily(model=model_of(4, 1, 2), integrals=members)


def test_commutation_distinguishes_all_three_tiers():
    # hand-built family: the squared sphere defect commutes with nothing
    # except on the constraint set, and the dilation function fails
    # against the potential term of H outright
    fam = three_tier_family()
    results = {(r.left, r.right): r for r in check_commutation(hamiltonian_membership(fam))}
    assert results[("F1", "F1")].status == "zero_polynomial"
    assert results[("F1", "F2")].status == "zero_on_constraints"
    assert results[("F1", "F2")].witness_terms > 0
    assert results[("F1", "H")].status == "zero_polynomial"
    assert results[("F2", "H")].status == "nonzero"


def test_tampered_family_detected():
    results = check_commutation(hamiltonian_membership(tampered_family()))
    assert any(r.status == "nonzero" for r in results)


def test_verify_evaluates_no_float(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify evaluated a float")

    monkeypatch.setattr(verify, "compiled_evaluator", refuse)
    monkeypatch.setattr(sampling, "constrained_points", refuse)
    monkeypatch.setattr(sampling, "constrained_point", refuse)
    three_tier = run_verification(three_tier_family(), samples=20)
    tampered = run_verification(tampered_family(), samples=20)
    assert [r.status for r in three_tier.pair_results] == [
        "zero_polynomial", "zero_on_constraints", "zero_polynomial", "zero_polynomial", "nonzero"]
    assert any(r.status == "nonzero" for r in tampered.pair_results)
    assert not three_tier.passed and not tampered.passed


def p_square(n):
    total = PhasePoly(n)
    for i in range(1, n + 2):
        total = total + p_var(i, n) ** 2
    return total


@pytest.mark.parametrize("f1, f2", [
    ((sphere_poly(2) - PhasePoly.constant(2, 1)) ** 2 + F(1, 10**12) * x_var(1, 2) ** 2,
     dilation(2)),
    ((p_square(2) - PhasePoly.constant(2, 1)) ** 2, x_var(1, 2)),
], ids=["sphere-defect-plus-1e-12", "momentum-shell-defect"])
def test_float_tier_misses_are_nonzero(f1, f2):
    """Two brackets that the float tier called zero_on_constraints: one is
    2e-12 X1^2 on the constraint set, the other -4 P1 (|P|^2 - 1), which
    vanishes on the |P| = 1 shell of the float points but not on T*S^n."""
    fam = family_of(model_of(2, 1), [f1], [f2])
    results = {(r.left, r.right): r for r in check_commutation(hamiltonian_membership(fam))}
    assert results[("F1", "F2")].status == "nonzero"
    bracket = poisson_bracket(f1, f2)
    verdict = float_classify_nonzero(f1, f2, bracket, commutation_points(2))
    assert verdict == "zero_on_constraints"


# -- remainder modulo the constraints ---------------------------------------------


@st.composite
def remainder_cases(draw):
    """A polynomial with n = 2..4 and small rational coefficients, and a
    seed for the rational constraint points it is evaluated at."""
    n = draw(st.integers(2, 4))
    coeffs = st.fractions(min_value=F(-3), max_value=F(3), max_denominator=4)
    term = st.tuples(st.lists(st.integers(0, 2 * n + 1), max_size=5), coeffs)
    return _poly_from_slots(n, draw(st.lists(term, max_size=6))), draw(st.integers(0, 2**32))


@given(remainder_cases())
@settings(max_examples=100, deadline=None)
def test_constraint_remainder_is_the_normal_form(case):
    poly, seed = case
    n = poly.n
    remainder = _constraint_remainder(poly)
    assert _constraint_remainder(remainder) == remainder
    for expo, _ in remainder.sorted_terms():
        assert expo[0] < 2 and not (expo[n] and expo[2 * n + 1]), expo
    rng = sampling.generator(seed)
    for _ in range(3):
        x, p = sampling.rational_point(rng, n)
        assert evaluate_exact(remainder, x + p) == evaluate_exact(poly, x + p)


def test_constraint_remainder_fixed_cases():
    three_tier = three_tier_family()
    assert _constraint_remainder(poisson_bracket(*three_tier.members())).is_zero
    for n in (2, 5, 9):
        assert _constraint_remainder(kinetic_energy(n) - F(1, 2) * p_square(n)).is_zero
    h = hamiltonian_pert(model_of(2, 1))
    assert _constraint_remainder(poisson_bracket(dilation(2), h)).num_terms == 2


RULE_MODELS = CI_MATRIX + [(9, "1,1,1,1,1"), (11, "1,2,3,4,5,6"), (15, "1,2,3,4,5,6,7,8")]


@pytest.mark.parametrize("n, alpha", RULE_MODELS)
def test_derived_hamiltonian_pairs_match_bracketing_every_pair(n, alpha):
    # every premise holds, so each (F_i, H) is derived from H's membership
    fam = commuting_basis(model_of(n, *alpha.split(",")))
    assert hamiltonian_membership(fam).ok
    results = check_commutation(hamiltonian_membership(fam))
    assert all(r.status == "zero_polynomial" for r in results)
    assert results == reference_commutation(fam, seed=0)


@pytest.mark.parametrize("make", [tampered_family, three_tier_family, perturbed_member_family,
                                  rate_swapped_family])
@pytest.mark.parametrize("seed", [0, 3])
def test_commutation_matches_bracketing_every_pair_when_membership_fails(make, seed):
    fam = make()
    assert not hamiltonian_membership(fam).ok
    results = check_commutation(hamiltonian_membership(fam))
    assert any(r.right == "H" and r.status == "nonzero" for r in results)
    assert results == reference_commutation(fam, seed=seed)


CLAIMED = {"ok": True, "coefficients": {}}


@pytest.mark.parametrize("quads, linears, membership", [
    # only membership fails: functions of X commute with each other and with |X|^2
    ([x_var(1, 2) ** 2], [x_var(2, 2) ** 2], None),
    # only a member pair fails: M_13 commutes with |X|^2 but not with F1
    (tagged(commuting_basis(model_of(2, 1)), "quad"), [killing(1, 3, 2)], CLAIMED),
    # only {F, |X|^2} fails: X2*P2 and X1*P1 commute with each other
    ([x_var(2, 2) * p_var(2, 2)], [x_var(1, 2) * p_var(1, 2)], CLAIMED),
])
def test_each_premise_of_the_derived_pair_rule_blocks_it_alone(quads, linears, membership):
    """A family in which exactly one premise of the rule fails; where that
    is not membership, membership is claimed instead of solved.  The rule
    must not derive (F2, H), whose bracket is nonzero."""
    fam = family_of(model_of(2, 1), quads, linears)
    if membership is None:
        membership = hamiltonian_membership(fam)
    else:
        membership = verify.MembershipResult(fam, **membership)
    results = check_commutation(membership)
    assert [r.status for r in results if r.right == "H"][-1] == "nonzero"
    assert results == reference_commutation(fam, seed=0)


def test_passing_family_brackets_no_member_with_the_hamiltonian(monkeypatch):
    fam = commuting_basis(model_of(7, 1, 2, 3, 4))
    h = hamiltonian_pert(fam.model)
    brackets, memberships = [], []
    solve = verify.hamiltonian_membership

    def bracket(f, g):
        brackets.append((f, g))
        return poisson_bracket(f, g)

    def membership(*args, **kwargs):
        memberships.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(verify, "poisson_bracket", bracket)
    monkeypatch.setattr(verify, "hamiltonian_membership", membership)
    results = check_commutation(solve(fam))
    assert brackets and not any(h in pair for pair in brackets)
    report = run_verification(fam, samples=20, seed=0)
    assert report.passed and report.pair_results == results
    assert len(memberships) == 1


# -- potential compatibility ------------------------------------------------------


def split_kinetic_potential(poly):
    parts = p_degree_parts(poly)
    n = poly.n
    return parts.get(2, PhasePoly(n)), parts.get(0, PhasePoly(n))


def test_compatibility_of_function_with_itself():
    k, u = split_kinetic_potential(uhlenbeck_integral([1, 2, 3], [1, 0, 0]))
    assert potential_compatibility(k, u, k, u)


def test_compatibility_across_the_commuting_pair():
    f1 = uhlenbeck_integral([1, 2, 3], [1, 0, 0])
    f2 = uhlenbeck_integral([1, 2, 3], [0, 1, 0])
    k1, u1 = split_kinetic_potential(f1)
    k2, u2 = split_kinetic_potential(f2)
    # the full bracket vanishes, so both graded pieces vanish separately
    assert poisson_bracket(f1, f2).is_zero
    assert poisson_bracket(k1, k2).is_zero
    assert potential_compatibility(k1, u1, k2, u2)


def test_compatibility_rotation_with_invariant_potential():
    model = model_of(2, 1)
    k = kinetic_energy(2)
    u = potential(model)  # depends on X1^2 + X2^2 only
    m12 = killing(1, 2, 2)
    assert potential_compatibility(k, u, m12 * m12, PhasePoly(2))


def test_compatibility_detects_failure():
    k = kinetic_energy(2)
    m12 = killing(1, 2, 2)
    bad_u = x_var(1, 2) ** 2  # not rotation invariant in the (1,2) plane
    assert not potential_compatibility(m12 * m12, PhasePoly(2), k, bad_u)


def test_compatibility_validates_degrees():
    k = kinetic_energy(2)
    with pytest.raises(InputError):
        potential_compatibility(k, p_var(1, 2), k, PhasePoly(2))
    with pytest.raises(InputError):
        potential_compatibility(x_var(1, 2), PhasePoly(2), k, PhasePoly(2))


# -- functional independence -------------------------------------------------------


def test_healthy_family_has_full_rank():
    fam = commuting_basis(model_of(2, 1))
    cert = functional_independence(fam, samples=50, seed=42)
    assert cert.expected_rank == 2
    assert cert.ranks == [2]
    assert cert.certified
    data = cert.to_dict()
    assert data["prime"] == PRIME == 2**61 - 1
    assert (data["rank"], data["expected_rank"], data["points_tried"]) == (2, 2, 1)
    assert [F(v) for v in data["point"]["x"]] == cert.x
    assert [F(v) for v in data["point"]["p"]] == cert.p
    stats = float_independence(fam.members(), 2, samples=50, seed=42)
    assert stats.expected_rank == 2
    assert stats.full_rank_count == 50
    assert stats.histogram() == {"2": 50}
    assert stats.failures == []


def test_repeated_member_drops_rank_everywhere():
    fam = commuting_basis(model_of(2, 1))
    members = [tagged(fam, "quad")[0]] * 2
    cert = functional_independence(family_of(fam.model, members, []), samples=25, seed=42)
    assert cert.ranks == [1] * 25
    assert not cert.certified
    assert cert.to_dict()["points_tried"] == 25
    stats = float_independence(members, 2, samples=25, seed=42)
    assert all(rank <= 1 for rank in stats.ranks)
    assert stats.full_rank_count == 0
    assert len(stats.failures) == 25


def test_rank_can_exceed_family_size_with_extra_function():
    fam = commuting_basis(model_of(4, 1, 1))
    extra = killing(1, 3, 4) + killing(2, 4, 4)
    extended = family_of(fam.model, tagged(fam, "quad"), tagged(fam, "linear") + [extra])
    cert = functional_independence(extended, samples=40, seed=7)
    assert cert.expected_rank == 5
    assert cert.certified
    stats = float_independence(fam.members() + [extra], 4, samples=40, seed=7)
    assert stats.expected_rank == 5
    assert stats.full_rank_count >= 38


def test_independence_rejects_no_samples():
    fam = commuting_basis(model_of(2, 1))
    with pytest.raises(InputError, match="samples"):
        functional_independence(fam, samples=0)


@pytest.mark.parametrize("n", [1, 2, 5, 21])
def test_rational_point_lies_exactly_on_the_constraint_set(n):
    rng = sampling.generator(3, sampling.STREAM_INDEPENDENCE)
    for _ in range(5):
        x, p = sampling.rational_point(rng, n)
        assert len(x) == len(p) == n + 1
        assert all(type(v) is F for v in x + p)
        assert sum(v * v for v in x) == 1
        assert sum(a * b for a, b in zip(x, p)) == 0
        assert any(p)


_SMALL = st.integers(1, 5).flatmap(lambda cols: st.lists(
    st.lists(st.integers(-4, 4), min_size=cols, max_size=cols), min_size=1, max_size=6))


@given(_SMALL)
@settings(max_examples=200, deadline=None)
@example([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
@example([[0, 0], [0, 0]])
@example([[3, -1, 2], [-6, 2, -4], [0, 5, 5], [3, 4, 7]])
def test_modular_rank_matches_fraction_rank(matrix):
    residues = [[v % PRIME for v in row] for row in matrix]
    assert len(_echelon(residues)) == fraction_rank(matrix)


def test_independence_is_seed_deterministic():
    fam = commuting_basis(model_of(3, 1, 2))
    s1 = functional_independence(fam, samples=30, seed=11)
    s2 = functional_independence(fam, samples=30, seed=11)
    assert s1 == s2
    assert functional_independence(fam, samples=30, seed=12).x != s1.x


def projected_rank_oracle(grad, x, p):
    """Scalar reference for one point: rank of the (k, 2d) member gradients
    projected tangentially to {|X|^2 = 1, <X,P> = 0}."""
    d = x.size
    v1 = np.concatenate([x, np.zeros(d)])
    v2 = np.concatenate([p, x])
    e1 = v1 / np.linalg.norm(v1)
    v2 = v2 - (e1 @ v2) * e1
    e2 = v2 / np.linalg.norm(v2)
    proj = grad - np.outer(grad @ e1, e1) - np.outer(grad @ e2, e2)
    svals = np.linalg.svd(proj, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > RANK_THRESHOLD_REL * svals[0]))


def oracle_ranks(grads, points):
    d = points.shape[1] // 2
    return [projected_rank_oracle(g, z[:d], z[d:]) for g, z in zip(grads, points)]


@pytest.mark.parametrize("n, alpha", CI_MATRIX)
def test_batched_ranks_match_scalar_oracle(n, alpha):
    fam = commuting_basis(model_of(n, *alpha.split(",")))
    points = rank_points(n, 40, 3, 2)
    grads = gradient_tensor(fam.members(), points)
    ranks = projected_ranks(grads, points)
    assert ranks.tolist() == oracle_ranks(grads, points)
    assert ranks.tolist() == [n] * 40
    # a duplicated member and a vanishing gradient lower the rank alike
    dup = np.concatenate([grads, grads[:, :1]], axis=1)
    assert projected_ranks(dup, points).tolist() == oracle_ranks(dup, points) == [n] * 40
    flat = np.concatenate([grads, np.zeros_like(grads[:, :1])], axis=1)
    assert projected_ranks(flat, points).tolist() == oracle_ranks(flat, points) == [n] * 40


def test_batched_ranks_of_zero_gradients_are_zero():
    points = rank_points(3, 10, 0, 2)
    zeros = np.zeros((10, 3, 8))
    assert projected_ranks(zeros, points).tolist() == oracle_ranks(zeros, points) == [0] * 10
    mixed = np.random.default_rng(4).standard_normal((10, 3, 8))
    mixed[::2] = 0.0
    assert projected_ranks(mixed, points).tolist() == oracle_ranks(mixed, points)
    assert projected_ranks(mixed, points)[::2].tolist() == [0] * 5
    # the differentials of |X|^2 and <X,P> are projected away, down to
    # round-off far below the threshold next to one generic gradient
    x, p = points[:, :4], points[:, 4:]
    generic = np.random.default_rng(5).standard_normal((10, 8))
    normals = np.stack([np.hstack([x, 0 * x]), np.hstack([p, x]), generic], axis=1)
    assert projected_ranks(normals, points).tolist() == oracle_ranks(normals, points) == [1] * 10


def check_certificate_against_float_oracle(n, alpha):
    fam = commuting_basis(model_of(n, *alpha.split(",")))
    cert = functional_independence(fam, samples=100, seed=42)
    assert cert.certified == float_independence(fam.members(), n, samples=100, seed=42).full_rank
    assert cert.certified
    probe = superintegrability_probe(cert)
    polys = [poly for _, _, _, poly, _ in _probe_candidates(fam.model)]
    verdicts = float_probe_verdicts(fam, polys, samples=100, seed=42)
    assert [r.raises_rank for r in probe] == verdicts
    return probe


FLOAT_ORACLE_MODELS = CI_MATRIX + [(9, "1,1,1,1,1"), (11, "1,2,3,4,5,6"), (15, "1,2,3,4,5,6,7,8")]


@pytest.mark.parametrize("n, alpha", FLOAT_ORACLE_MODELS)
def test_certificate_agrees_with_float_oracle(n, alpha):
    check_certificate_against_float_oracle(n, alpha)


@pytest.mark.slow
def test_certificate_agrees_with_float_oracle_at_n21():
    probe = check_certificate_against_float_oracle(21, ",".join(["1"] * 11))
    assert len(probe) == 341
    assert sum(r.is_additional_integral for r in probe) == 110


# -- membership of the Hamiltonian ---------------------------------------------------


def test_membership_small_sphere_exact_coefficients():
    fam = commuting_basis(model_of(2, 1))
    result = hamiltonian_membership(fam)
    assert result.ok
    assert result.coefficients == {
        "F1": F(1, 8),
        "F2": F(-1, 2),
        "F2^2": F(1, 2),
        "|X|^2": F(0),
        "1": F(0),
    }
    assert result.to_dict()["coefficients"] == {
        "F1": "1/8",
        "F2": "-1/2",
        "F2^2": "1/2",
        "|X|^2": "0",
        "1": "0",
    }


def test_membership_zero_rates_pure_geodesic():
    fam = commuting_basis(model_of(2, 0))
    result = hamiltonian_membership(fam)
    assert result.ok
    # recompose and compare exactly
    recomposed = PhasePoly(2)
    (quad,), (lin,) = tagged(fam, "quad"), tagged(fam, "linear")
    columns = {
        "F1": quad,
        "F2": lin,
        "F2^2": lin * lin,
        "|X|^2": sphere_poly(2),
        "1": PhasePoly.constant(2, 1),
    }
    for label, coeff in result.coefficients.items():
        recomposed = recomposed + coeff * columns[label]
    assert recomposed == kinetic_energy(2)


def test_membership_linear_coefficient_magnitude_tracks_rate():
    fam = commuting_basis(model_of(3, 1, 2))
    result = hamiltonian_membership(fam)
    assert result.ok
    labels = fam.labels()
    lin_labels = labels[len(tagged(fam, "quad")):]
    magnitudes = [abs(result.coefficients[lbl]) for lbl in lin_labels]
    assert magnitudes == [F(1, 2), F(1)]


def test_perturbed_hamiltonian_not_representable(monkeypatch):
    fam = commuting_basis(model_of(2, 1))
    h_bad = hamiltonian_pert(fam.model) + x_var(1, 2) ** 2
    monkeypatch.setattr(verify, "hamiltonian_pert", lambda model: h_bad)
    result = hamiltonian_membership(fam)
    assert not result.ok
    assert result.coefficients is None
    assert result.to_dict() == {"ok": False, "coefficients": "not representable"}


def reference_solve(columns, target):
    """Gauss-Jordan elimination over Fraction, one row per exponent tuple:
    the exact oracle of the fraction-free solver."""
    views = [dict(col.sorted_terms()) for col in columns]
    goal = dict(target.sorted_terms())
    monos = set(goal)
    for view in views:
        monos.update(view)
    rows = [[view.get(e, F(0)) for view in views] + [goal.get(e, F(0))] for e in sorted(monos)]
    ncols = len(columns)
    pivot_cols = []
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [v / lead for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        pivot_cols.append(col)
        rank += 1
    if any(rows[r][ncols] for r in range(rank, len(rows))):
        return None
    solution = [F(0)] * ncols
    for r, col in enumerate(pivot_cols):
        solution[col] = rows[r][ncols]
    return solution


def _poly_from_slots(n, raw):
    total = PhasePoly(n)
    for slots, coeff in raw:
        term = PhasePoly.constant(n, coeff)
        for s in slots:
            term = term * (x_var(s + 1, n) if s <= n else p_var(s - n, n))
        total = total + term
    return total


_BIG = st.integers(-10**30, 10**30)
_COEFFS = st.one_of(st.integers(-3, 3), _BIG, st.builds(F, _BIG, st.integers(1, 10**20)))


@st.composite
def membership_systems(draw, n=2):
    """Columns with large and large-denominator coefficients, sometimes a
    dependent column, and a target in their span or off it."""
    term = st.tuples(st.lists(st.integers(0, 2 * n + 1), max_size=2), _COEFFS)
    polys = st.lists(term, max_size=4).map(lambda raw: _poly_from_slots(n, raw))
    columns = draw(st.lists(polys, min_size=1, max_size=5))
    weights = draw(st.lists(_COEFFS, min_size=len(columns), max_size=len(columns)))
    combination = PhasePoly(n)
    for w, col in zip(weights, columns):
        combination = combination + w * col
    if draw(st.booleans()):
        columns.insert(draw(st.integers(0, len(columns))), combination)
    extra = draw(polys) if draw(st.booleans()) else PhasePoly(n)
    return columns, combination + extra


@given(membership_systems())
@settings(max_examples=150, deadline=None)
def test_solve_exact_matches_fraction_gauss_jordan(system):
    columns, target = system
    assert _solve_exact(columns, target) == reference_solve(columns, target)


@pytest.mark.parametrize("n, alpha", [(4, "1,1"), (6, "1,1,1"), (7, "1,2,3,4"), (9, "1,1,2,2,3")])
def test_membership_solution_matches_fraction_gauss_jordan(n, alpha):
    fam = commuting_basis(model_of(n, *alpha.split(",")))
    columns = fam.members() + [lin * lin for lin in tagged(fam, "linear")]
    columns += [sphere_poly(n), PhasePoly.constant(n, 1)]
    h = hamiltonian_pert(fam.model)
    solution = _solve_exact(columns, h)
    assert solution == reference_solve(columns, h)
    assert list(hamiltonian_membership(fam).coefficients.values()) == solution


# -- superintegrability probe ----------------------------------------------------------


def test_probe_empty_without_merged_blocks():
    fam = commuting_basis(model_of(4, 1, 2))
    assert superintegrability_probe(functional_independence(fam, samples=20, seed=0)) == []


def test_probe_single_generators_fail_hamiltonian_commutation():
    model = model_of(4, 1, 1)
    fam = commuting_basis(model)
    h = hamiltonian_pert(model)
    m13, m14, m23 = killing(1, 3, 4), killing(1, 4, 4), killing(2, 3, 4)
    # the bracket is a definite nonzero rotation momentum combination
    assert poisson_bracket(m13, h) == F(1, 2) * (m23 + m14)
    results = superintegrability_probe(functional_independence(fam, samples=30, seed=1))
    singles = [r for r in results if r.kind == "generator" and r.cross_pair]
    assert len(singles) == 4
    assert all(not r.commutes_with_hamiltonian for r in singles)
    # they do commute with every indicator quadratic, exactly
    assert all(r.commutes_with_indicator_quads for r in singles)
    assert all(not r.is_additional_integral for r in singles)


def test_probe_pair_combinations_are_additional_integrals():
    model = model_of(4, 1, 1)
    fam = commuting_basis(model)
    h = hamiltonian_pert(model)
    combo_sum = killing(1, 3, 4) + killing(2, 4, 4)
    combo_diff = killing(1, 4, 4) - killing(2, 3, 4)
    assert poisson_bracket(combo_sum, h).is_zero
    assert poisson_bracket(combo_diff, h).is_zero
    results = superintegrability_probe(functional_independence(fam, samples=50, seed=2))
    combos = [r for r in results if r.kind in ("pair_sum", "pair_diff")]
    assert len(combos) == 2
    for r in combos:
        assert r.commutes_with_hamiltonian
        assert r.commutes_with_indicator_quads
        assert r.raises_rank
        assert r.is_additional_integral


def test_probe_in_plane_generators_commute_but_add_no_rank():
    model = model_of(4, 1, 1)
    fam = commuting_basis(model)
    results = superintegrability_probe(functional_independence(fam, samples=20, seed=3))
    in_plane = [r for r in results if r.kind == "generator" and not r.cross_pair]
    assert len(in_plane) == 2
    for r in in_plane:
        assert r.commutes_with_hamiltonian  # they are family members
        assert not r.raises_rank  # duplicates cannot raise rank
        assert not r.is_additional_integral


def candidate_poly(label, n):
    """The probe candidate that a label such as 'M(1,3)+M(2,4)' names."""
    total = PhasePoly(n)
    for sign, l, m in re.findall(r"([+-]?)M\((\d+),(\d+)\)", label):
        term = killing(int(l), int(m), n)
        total = total - term if sign == "-" else total + term
    return total


@pytest.mark.parametrize("n, alpha", [(4, "1,1"), (6, "1,1,1"), (7, "1,1,2,2")])
def test_probe_ranks_match_standalone_independence(n, alpha):
    model = model_of(n, *alpha.split(","))
    fam = commuting_basis(model)
    results = superintegrability_probe(functional_independence(fam, samples=30, seed=5))
    assert results
    # the standalone certificate of members plus candidate tries the same
    # points; up to the members' last one it certifies exactly there
    tried = len(functional_independence(fam, samples=30, seed=5).ranks)
    for r in results:
        linears = tagged(fam, "linear") + [candidate_poly(r.label, n)]
        cert = functional_independence(family_of(model, tagged(fam, "quad"), linears),
                                       samples=tried, seed=5)
        assert r.raises_rank == cert.certified


def test_probe_raises_no_rank_without_certified_members():
    fam = commuting_basis(model_of(4, 1, 1))
    first, second, *linears = fam.integrals
    twin = second._replace(poly=first.poly)
    dup = IntegralFamily(model=fam.model, integrals=(first, twin, *linears))
    cert = functional_independence(dup, samples=10, seed=0)
    assert not cert.certified
    results = superintegrability_probe(cert)
    assert len(results) == 8
    assert not any(r.raises_rank or r.is_additional_integral for r in results)


# -- full report --------------------------------------------------------------------


def test_full_verification_passes_for_healthy_model():
    fam = commuting_basis(model_of(2, 1))
    report = run_verification(fam, samples=50, seed=42)
    assert report.passed
    data = report.to_dict()
    assert data["passed"] is True
    assert len(data["pair_results"]) == 5
    assert data["membership"]["ok"] is True


def test_full_verification_fails_for_tampered_family():
    report = run_verification(tampered_family(), samples=50, seed=42)
    assert not report.passed


def test_full_verification_fails_for_members_of_other_rates():
    report = run_verification(rate_swapped_family(), samples=50, seed=42)
    with_h = {r.left: r.status for r in report.pair_results if r.right == "H"}
    assert with_h == {"F1": "nonzero", "F2": "nonzero",
                      "F3": "zero_polynomial", "F4": "zero_polynomial"}
    assert not report.passed


def test_passed_requires_certified_independence():
    fam = commuting_basis(model_of(3, 1, 2))
    report = run_verification(fam, samples=5, seed=42)
    assert report.passed
    repeated = family_of(fam.model, [tagged(fam, "quad")[0]] * 3, [])
    uncertified = functional_independence(repeated, samples=5, seed=42)
    assert not uncertified.certified
    data = dataclasses.replace(report, independence=uncertified).to_dict()
    assert data["independence"]["certified"] is False
    assert data["passed"] is False


def test_verify_certifies_the_members_once(monkeypatch):
    """run_verification hands its independence certificate to the probe,
    which then gives the verdicts it gives with a freshly made one."""
    calls = []
    certify = verify.functional_independence

    def counted(*args, **kwargs):
        calls.append(args)
        return certify(*args, **kwargs)

    fam = commuting_basis(model_of(4, 1, 1))
    monkeypatch.setattr(verify, "functional_independence", counted)
    report = run_verification(fam, samples=20, seed=3)
    assert len(calls) == 1
    assert report.probe_results
    assert report.probe_results == superintegrability_probe(
        verify.functional_independence(fam, samples=20, seed=3))
    assert len(calls) == 2
