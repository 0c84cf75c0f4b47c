"""Integral builders: rotation momenta, Neumann-type quadratics, limits."""

import hashlib
import json
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magneflow import (
    InputError,
    IntegralFamily,
    MagneticModel,
    PhasePoly,
    commuting_basis,
    degenerate_integral,
    hamiltonian_pert,
    killing,
    kinetic_energy,
    limit_integral,
    poisson_bracket,
    potential,
    run_verification,
    sigma_linear,
    uhlenbeck_integral,
    x_var,
)
from magneflow import sampling
from magneflow.verify import _membership_columns, _probe_candidates, _residual_is_zero, _solve_exact
from oracles import (
    evaluate_exact,
    fd_bracket_oracle,
    float_report_dict,
    p_degree_parts,
    reference_degenerate_integral,
    reference_hamiltonian,
    reference_killing,
    reference_kinetic_energy,
    reference_membership_columns,
    reference_neumann_quadratic,
    reference_potential,
    reference_probe_candidates,
    reference_residual_is_zero,
    reference_sigma_linear,
    tagged,
)


def sphere_poly(n):
    total = PhasePoly(n)
    for i in range(1, n + 2):
        total = total + x_var(i, n) ** 2
    return total


def model_of(n, *alphas):
    return MagneticModel(n=n, alphas=tuple(F(a) for a in alphas))


def model_ids(cases):
    """The id `n-alpha` of each (n, alpha, digest) case, so that a moved
    digest leaves the name of its case as it was."""
    return [f"{n}-{alpha}" for n, alpha, _ in cases]


# -- rotation momenta -------------------------------------------------------


def test_killing_point_value():
    assert evaluate_exact(killing(1, 2, 2), [1, 0, 0, 0, 1, 0]) == 1


def test_killing_index_validation():
    with pytest.raises(InputError):
        killing(2, 2, 3)
    with pytest.raises(InputError):
        killing(0, 1, 3)
    with pytest.raises(InputError):
        killing(3, 5, 3)


def test_disjoint_rotations_commute():
    assert poisson_bracket(killing(1, 2, 3), killing(3, 4, 3)).is_zero


def test_overlapping_rotations_close_with_minus_sign():
    # {M12, M23} = -M13 under this bracket convention, checked against
    # finite differences before trusting the expansion
    n = 3
    m12, m23, m13 = killing(1, 2, n), killing(2, 3, n), killing(1, 3, n)
    rng = sampling.generator(1, 99)
    pts = sampling.constrained_points(rng, n, 10)
    for z in pts:
        numeric = fd_bracket_oracle(m12, m23, z)
        assert abs(numeric - (-float(evaluate_exact(m13, z)))) < 1e-8
    assert poisson_bracket(m12, m23) == -m13
    assert poisson_bracket(m12, m13) == killing(2, 3, n)


# -- nondegenerate quadratics ------------------------------------------------


def test_uhlenbeck_all_ones_collapses_to_radius():
    f = uhlenbeck_integral([1, 2, 3], [1, 1, 1])
    assert f == sphere_poly(2)


def test_uhlenbeck_at_its_own_coefficients_is_the_neumann_hamiltonian():
    a = [F(1), F(2), F(3)]
    f = uhlenbeck_integral(a, a)
    u = PhasePoly(2)
    for i, ai in enumerate(a, start=1):
        u = u + ai * x_var(i, 2) ** 2
    assert f == kinetic_energy(2) + u


def test_uhlenbeck_basis_vector_expansion():
    f = uhlenbeck_integral([1, 2, 3], [1, 0, 0])
    m12, m13 = killing(1, 2, 2), killing(1, 3, 2)
    expected = (
        x_var(1, 2) ** 2
        - F(1, 2) * (m12 * m12)
        - F(1, 4) * (m13 * m13)
    )
    assert f == expected


def test_uhlenbeck_family_commutes_fd_oracle_first():
    # the oracle: central differences of the two evaluators at random
    # constrained points, before any symbolic bracket is trusted
    f1 = uhlenbeck_integral([1, 2, 3], [1, 0, 0])
    f2 = uhlenbeck_integral([1, 2, 3], [0, 1, 0])
    rng = sampling.generator(2, 99)
    for z in sampling.constrained_points(rng, 2, 10):
        assert abs(fd_bracket_oracle(f1, f2, z)) < 1e-8
    assert poisson_bracket(f1, f2).is_zero


def test_uhlenbeck_rejects_repeated_coefficients():
    with pytest.raises(InputError):
        uhlenbeck_integral([1, 1, 2], [1, 0, 0])


def test_uhlenbeck_linearity():
    a = [1, 2, 3, 5]
    b1 = [F(1), F(-2), F(0), F(3)]
    b2 = [F(2), F(2), F(1), F(-1)]
    b12 = [u + v for u, v in zip(b1, b2)]
    lhs = uhlenbeck_integral(a, b1) + uhlenbeck_integral(a, b2)
    assert lhs == uhlenbeck_integral(a, b12)


# -- degenerate quadratics ----------------------------------------------------


def test_degenerate_all_merged_is_scaled_radius():
    f = degenerate_integral([2, 2, 2, 2], [3, 3, 3, 3])
    assert f == 3 * sphere_poly(3)


def test_degenerate_two_block_expansion():
    f = degenerate_integral([1, 1, 2, 2], [0, 0, 1, 1])
    cross = PhasePoly(3)
    for i in (1, 2):
        for j in (3, 4):
            mij = killing(i, j, 3)
            cross = cross + mij * mij
    expected = F(1, 2) * cross + x_var(3, 3) ** 2 + x_var(4, 3) ** 2
    assert f == expected
    assert poisson_bracket(f, killing(1, 2, 3)).is_zero
    assert poisson_bracket(f, killing(3, 4, 3)).is_zero


def test_degenerate_matches_nondegenerate_when_distinct():
    a = [1, 2, 3]
    b = [F(1, 2), F(0), F(-1)]
    assert degenerate_integral(a, b) == uhlenbeck_integral(a, b)


def test_degenerate_rejects_non_block_constant_weights():
    with pytest.raises(InputError):
        degenerate_integral([1, 1, 2], [1, 0, 0])


def test_degenerate_linearity():
    a = [1, 1, 4, 4, 9]
    b1 = [F(1), F(1), F(0), F(0), F(2)]
    b2 = [F(0), F(0), F(3), F(3), F(-1)]
    b12 = [u + v for u, v in zip(b1, b2)]
    lhs = degenerate_integral(a, b1) + degenerate_integral(a, b2)
    assert lhs == degenerate_integral(a, b12)


def test_whole_set_indicator_commutes_with_rotations():
    radius = degenerate_integral([1, 1, 1, 1], [1, 1, 1, 1])
    assert radius == sphere_poly(3)
    for i in range(1, 4):
        for j in range(i + 1, 5):
            assert poisson_bracket(radius, killing(i, j, 3)).is_zero


# -- within-block limit quadratics ---------------------------------------------


def test_limit_single_pair_group_is_zero():
    lam = {1: F(1), 2: F(1)}
    mu = {1: F(1), 2: F(1)}
    assert limit_integral(3, (1, 2), lam, mu).is_zero


def test_limit_two_pair_group_expansion():
    lam = {1: 1, 2: 1, 3: 2, 4: 2}
    mu = {1: 1, 2: 1, 3: 0, 4: 0}
    f = limit_integral(3, (1, 2, 3, 4), lam, mu)
    cross = PhasePoly(3)
    for i in (1, 2):
        for j in (3, 4):
            mij = killing(i, j, 3)
            cross = cross + mij * mij
    assert f == F(-1, 2) * cross
    assert poisson_bracket(f, killing(1, 2, 3)).is_zero
    assert poisson_bracket(f, killing(3, 4, 3)).is_zero


def test_limit_with_equal_weights_is_group_kinetic_energy():
    lam = {1: 1, 2: 1, 3: 2, 4: 2}
    f = limit_integral(3, (1, 2, 3, 4), lam, lam)
    cross = PhasePoly(3)
    for i in (1, 2):
        for j in (3, 4):
            mij = killing(i, j, 3)
            cross = cross + mij * mij
    assert f == F(1, 2) * cross


def test_limit_validates_inputs():
    with pytest.raises(InputError):
        limit_integral(3, (1, 2, 3, 4), {1: 1, 2: 2, 3: 3, 4: 4}, {i: 0 for i in range(1, 5)})
    with pytest.raises(InputError):
        limit_integral(3, (1, 2, 3, 4), {1: 1, 2: 1, 3: 1, 4: 1}, {i: 0 for i in range(1, 5)})
    with pytest.raises(InputError):
        limit_integral(3, (1, 2, 2), {1: 1, 2: 1}, {1: 0, 2: 0})
    with pytest.raises(InputError):
        limit_integral(3, (1, 2, 9), {1: 1, 2: 1, 9: 2}, {1: 0, 2: 0, 9: 0})
    with pytest.raises(InputError):
        limit_integral(3, (1, 2, 3, 4), {1: 1, 2: 1, 3: 2}, {i: 0 for i in range(1, 5)})


# -- assembled family -----------------------------------------------------------


def test_family_counts_simple_models():
    fam2 = commuting_basis(model_of(2, 1))
    assert [item.tag for item in fam2.integrals] == ["quad", "linear"]
    assert fam2.integrals[0].provenance["kind"] == "indicator"

    fam5 = commuting_basis(model_of(5, 1, 2, 3))
    assert [item.tag for item in fam5.integrals] == ["quad"] * 2 + ["linear"] * 3
    assert all(item.provenance["kind"] == "indicator" for item in fam5.integrals[:2])


def test_family_with_repeated_rates_contains_limit_quadratic():
    fam = commuting_basis(model_of(4, 1, 1))
    assert [item.tag for item in fam.integrals] == ["quad"] * 2 + ["linear"] * 2
    kinds = sorted(item.provenance["kind"] for item in fam.integrals[:2])
    assert kinds == ["indicator", "limit"]


def test_family_member_degrees():
    fam = commuting_basis(model_of(5, 1, 1, 2))
    for quad in tagged(fam, "quad"):
        assert set(p_degree_parts(quad)) <= {0, 2}
        assert 2 in p_degree_parts(quad)
    for lin in tagged(fam, "linear"):
        assert set(p_degree_parts(lin)) == {1}


def test_family_labels_and_size():
    fam = commuting_basis(model_of(3, 1, 2))
    assert fam.labels() == ["F1", "F2", "F3"]
    assert len(fam.members()) == 3


def test_family_json_round_trip():
    fam = commuting_basis(model_of(4, 1, 1))
    data = fam.to_dict()
    assert {item["tag"] for item in data["integrals"]} == {"quad", "linear"}
    again = IntegralFamily.from_dict(data)
    assert again.model == fam.model
    assert again.members() == fam.members()
    assert again.integrals == fam.integrals
    # a file may list the linear members first; they are read after the
    # quadratics, each tag in file order
    data["integrals"] = data["integrals"][2:] + data["integrals"][:2]
    assert IntegralFamily.from_dict(data).integrals == fam.integrals


# sha256 of json.dumps(family.to_dict(), sort_keys=True) for the model matrix
# of scripts/run_ci_matrix.py plus (9, all rates 1) and the two largest models
# of the verify benchmark, (11, 1..6) and (15, 1..8).  The family is exact
# (Fraction coefficients, canonically sorted terms), so the digests do not
# depend on the platform; any change to the builders that alters a single
# term or provenance record changes them.
FAMILY_DIGESTS = (
    (2, "1", "a2c81feb62c2ac79981a4cdf9ac1bb0fd0b887376df580766e8076228b645aa8"),
    (3, "1,2", "b1bf0f202e6b58ff1601df7335690573be687f90fbbfef7bb088ed52eaa2b47f"),
    (3, "1,1", "c1956e545a117af43789a09641acead3a6b8d0a91bf0315d31e3980d5fd87263"),
    (4, "1,2", "703d93383f773a4c2ab0e02177b2adc46ef02c9a856404f60dcaa59b4bd25e12"),
    (4, "1,1", "f71282d469b6be116aa9f7d7de17eed002fe1c14369d75b4833a39a571ecc337"),
    (5, "1,2,3", "201ee226bea880c8ce0eaf8171ef5f4f98ccc33127549028538d53376532ca5d"),
    (5, "1,1,2", "45ac65e5b37c621f08179fcf009140eee49d113562748ca76850ef4e2fbbb306"),
    (5, "1,1,1", "ceeea5e7ee033d7baa85e913546682a366dac31eb06c6f0a7ebfea39c616bbe4"),
    (6, "1,1,1", "3e0c6723960a9a77698bf41a99f079e1bbfa2d414fbbcfb19e2a0d2d8e83b1b2"),
    (7, "1,2,3,4", "5cdb5f766ba5dd18096fdffeb0f35813cb7d56d4b7bbbb63933fbdb1b5883ca2"),
    (7, "1,1,2,2", "3de08516078d28f872c4b5a7e76612a79dbef9daa80ecd2729a127b1fe87c297"),
    (9, "1,1,1,1,1", "328c6e5e55a482a64b60703d024d70511dd3f50ba7d40a58359e0f1fbbaba1cb"),
    (11, "1,2,3,4,5,6", "4219ef0cd540e272c45d69e4096e44b059d0126dba935afb401663d0a0715181"),
    (15, "1,2,3,4,5,6,7,8", "b4deac35c1b9c0a48b945135f89c9879a4b75992f96f6736022c3f2ee7bb5ede"),
)


@pytest.mark.parametrize("n, alpha, digest", FAMILY_DIGESTS, ids=model_ids(FAMILY_DIGESTS))
def test_family_matches_golden_digest(n, alpha, digest):
    fam = commuting_basis(model_of(n, *alpha.split(",")))
    text = json.dumps(fam.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of json.dumps(report.to_dict(), sort_keys=True) for a verification
# run with samples=100, seed=42 over the same models.  A report is exact,
# its independence certificate included (a rational point and ranks mod a
# prime), so a change to the certificate or to the probe that alters one
# rank, one candidate or one key changes these digests.  They moved when
# the report stopped repeating the seed and samples of the artifact's config.
CERTIFIED_REPORT_DIGESTS = (
    (2, "1", "3504f0411183490f19044961b80385bf9810b77e96579d27e342917caddf4a08"),
    (3, "1,2", "db1cc3d4592f3f40e28cc102bcd662e7f04b4b443597051a5fa3b4825ed559c8"),
    (3, "1,1", "90ffa4827a02e8c7c112bd44244cc1b19a2d94bcd12de3a5eca7ac01a08ad9d7"),
    (4, "1,2", "e0b9cbb08ad787b83be02d6f877d2cb8e83f3f2f7bebe42a190192dcac1cd2db"),
    (4, "1,1", "1881cf8940ca7b0c1391bdf5daab833f072fc4d0aa42b4f17140a18ebf734f31"),
    (5, "1,2,3", "e7356b6028579b7f2b9fe21844008163e7afc4eeed75fafba8ef0c8caafdc9fc"),
    (5, "1,1,2", "ed3c5c1a271af73db8f7d1eabaca1ac611cb56e75e41642916681cb681baa8f5"),
    (5, "1,1,1", "2cb7347f1733ddbdea7c8c5d552392c8bd861fc92475e52d89766933daae35df"),
    (6, "1,1,1", "5b2085cc09c1c59e6ae422ca0ba4e59fbe09e30ce2d87b07b2b22b97f8314fda"),
    (7, "1,2,3,4", "f232945e205771879c4905459063ab0eed8a15f2f2677d8babf2d92e1273f3e5"),
    (7, "1,1,2,2", "e5423fafced8dc423ea21e7bfa45974531823e6f55dc9643ad75870d96370096"),
    (9, "1,1,1,1,1", "0ef0018620f734e493b08a126e22f181938ea5dc0fac7cb3da11fb14b8801f68"),
    (11, "1,2,3,4,5,6", "3690ef695cdaec03ca994213cf6041ee08f104afe4f849f0514fcd44bfdeb6a9"),
    (15, "1,2,3,4,5,6,7,8", "02f20329b740816ba5c54cb672d9c4e3f45a6c468f1ea0c7088a185e4c0754d2"),
)


@pytest.mark.parametrize("n, alpha, digest", CERTIFIED_REPORT_DIGESTS,
                         ids=model_ids(CERTIFIED_REPORT_DIGESTS))
def test_verify_report_matches_certified_digest(n, alpha, digest):
    report = run_verification(commuting_basis(model_of(n, *alpha.split(","))), samples=100, seed=42)
    text = json.dumps(report.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of the same reports as the float rank path wrote them, taken
# before the independence certificate replaced it.  `float_report_dict`
# swaps the certificate and the probe's raises_rank for the float rank
# statistics of tests/oracles.py, so these digests pin every exact part of
# the report (brackets, membership, probe candidates and their brackets)
# to what it was, and the float reference to the ranks it gave.
REPORT_DIGESTS = (
    (2, "1", "595915906a429427dff97b67c20b2314fda80fce4fae9c8a77962833d68f4569"),
    (3, "1,2", "ff9120c0de9cf9c1f967aa2fe09c03829ff83be88bf48f72f598ccbfc7ad14f7"),
    (3, "1,1", "81f1248ea62bd9fe8141b7e7b0adad1259d8da91715418ad11bc7aa613515737"),
    (4, "1,2", "953c04c0a3ecfcf0f64bb64c9de084e8e36bb9dfbd7da4efa5ec61842ff80f88"),
    (4, "1,1", "d3cef0392edbd6abd5abba606b6fd509e7b42302bf2f15b57590db359ce1e417"),
    (5, "1,2,3", "5c760b506a8d086b2be69641ccdb7ac31237f8a0e1981f2af46dbd4f824f177c"),
    (5, "1,1,2", "dfc39a93988b51eca7d553f50f6b9d287806ba420543ce581c917a9099c6d388"),
    (5, "1,1,1", "af97b6f9f23c3949ba3a98366de7dfa1dba0d4124620a9fbd942ab658d7b7c12"),
    (6, "1,1,1", "2430dc9bad9c885892f1309afff787d7565085838cec1c30b58b50fc5a94db83"),
    (7, "1,2,3,4", "5c7c014f01717f18962bed2c47ba1801fa53dc9d2aeaf5f6c32503053322f44b"),
    (7, "1,1,2,2", "07879fc19998117c5bcb30583cc2e4e55bb6ccb0427843cf8f35a3dc2044dcb2"),
    (9, "1,1,1,1,1", "edf3bdbe95d6de0725d5bb8183fd511c5d0dae32448acc04cfcd9481414f9988"),
)


@pytest.mark.parametrize("n, alpha, digest", REPORT_DIGESTS, ids=model_ids(REPORT_DIGESTS))
def test_verify_report_matches_golden_digest(n, alpha, digest):
    family = commuting_basis(model_of(n, *alpha.split(",")))
    report = run_verification(family, samples=100, seed=42)
    text = json.dumps(float_report_dict(report, family, samples=100, seed=42), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_family_from_dict_rejects_mismatched_dimension():
    fam = commuting_basis(model_of(2, 1))
    data = fam.to_dict()
    data["model"] = {"n": 3, "alphas": ["1", "1"]}
    with pytest.raises(InputError):
        IntegralFamily.from_dict(data)


def test_family_from_dict_rejects_wrong_member_count():
    data = commuting_basis(model_of(3, 1, 2)).to_dict()
    data["integrals"].pop(0)
    with pytest.raises(InputError, match="has 3 integrals, got 2"):
        IntegralFamily.from_dict(data)


def test_family_from_dict_ignores_a_stored_hamiltonian_expansion():
    fam = commuting_basis(model_of(2, 1))
    data = fam.to_dict()
    data["hamiltonian_coeffs"] = {"F1": "1/8"}
    assert IntegralFamily.from_dict(data).to_dict() == fam.to_dict()


def test_family_from_dict_rejects_unknown_tag():
    fam = commuting_basis(model_of(2, 1))
    data = fam.to_dict()
    data["integrals"][0]["tag"] = "cubic"
    with pytest.raises(InputError):
        IntegralFamily.from_dict(data)


@pytest.mark.parametrize("path, value", [
    (("integrals",), None),
    (("integrals",), 2),
    (("integrals", 0, "provenance"), 1.5),
    (("integrals", 0, "provenance"), ["kind"]),
    (("integrals", 0, "poly", "terms"), True),
])
def test_family_from_dict_rejects_malformed_containers(path, value):
    data = commuting_basis(model_of(2, 1)).to_dict()
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(InputError, match="malformed"):
        IntegralFamily.from_dict(data)


# -- deformation consistency -----------------------------------------------------

T_SAMPLES = [F(1, 2), F(1, 3), F(-1, 5), F(2, 7), F(-3, 4)]


def test_splitting_a_merged_block_reproduces_the_limit_quadratic():
    # one block of two planes: perturbing the level values by t*lambda
    # (constant on planes) splits the block; the kinetic part of the
    # split integral is exactly the within-block limit quadratic, for
    # every admissible t, because the coefficient ratios are t-free.
    a = [F(1, 8)] * 4
    b = [F(1)] * 4
    lam = {1: F(1), 2: F(1), 3: F(2), 4: F(2)}
    mu = {1: F(1), 2: F(1), 3: F(0), 4: F(0)}
    limit_part = limit_integral(3, (1, 2, 3, 4), lam, mu)
    for t in T_SAMPLES:
        a_t = [a[i] + t * lam[i + 1] for i in range(4)]
        b_t = [b[i] + t * mu[i + 1] for i in range(4)]
        f_t = degenerate_integral(a_t, b_t)
        for lin in (killing(1, 2, 3), killing(3, 4, 3)):
            assert poisson_bracket(f_t, lin).is_zero
        potential_part = PhasePoly(3)
        for i, b_val in enumerate(b_t, start=1):
            potential_part = potential_part + b_val * x_var(i, 3) ** 2
        assert f_t == limit_part + potential_part


def coefficient_of_pair_square(poly, i, j, n):
    # M_ij^2 is the only term family containing the monomial Xi^2 Pj^2
    width = 2 * (n + 1)
    expo = [0] * width
    expo[i - 1] = 2
    expo[n + 1 + j - 1] = 2
    return dict(poly.sorted_terms()).get(tuple(expo), F(0))


def test_two_block_deformation_limit_by_cleared_denominators():
    # two separated blocks, per-index deformation: the nondegenerate
    # integral is defined for t != 0 and its cross-block coefficients
    # satisfy the cleared-denominator relation
    #     2 c_ij(t) (da + t dl) = db + t dm
    # whose t=0 instance is the degenerate coefficient; in-block
    # coefficients reduce to dm/dl with no t anywhere.
    a = [F(1), F(1), F(2), F(2)]
    b = [F(3), F(3), F(1), F(1)]
    lam = [F(1), F(2), F(5), F(7)]
    mu = [F(1), F(1), F(0), F(0)]
    f0 = degenerate_integral(a, b)
    # positive t keeps all four deformed values distinct (collisions sit
    # at negative t = -da/dl)
    for t in [F(1, 2), F(1, 3), F(2, 7), F(3, 4), F(1, 9)]:
        a_t = [ai + t * li for ai, li in zip(a, lam)]
        b_t = [bi + t * mi for bi, mi in zip(b, mu)]
        f_t = uhlenbeck_integral(a_t, b_t)  # defined: all four values distinct
        for i in range(1, 5):
            for j in range(i + 1, 5):
                c_t = coefficient_of_pair_square(f_t, i, j, 3)
                da = a[i - 1] - a[j - 1]
                db = b[i - 1] - b[j - 1]
                dl = lam[i - 1] - lam[j - 1]
                dm = mu[i - 1] - mu[j - 1]
                assert 2 * c_t * (da + t * dl) == db + t * dm
                if da != 0:
                    # the t=0 instance of the relation is the coefficient
                    # of the degenerate integral
                    assert coefficient_of_pair_square(f0, i, j, 3) * 2 * da == db
                else:
                    assert 2 * c_t == dm / dl


def test_family_brackets_vanish_for_representative_models():
    for n, alphas in [(2, (1,)), (4, (1, 1)), (5, (1, 2, 3))]:
        model = MagneticModel(n=n, alphas=tuple(F(a) for a in alphas))
        fam = commuting_basis(model)
        members = fam.members()
        assert len(members) == n
        for i in range(n):
            for j in range(i + 1, n):
                assert poisson_bracket(members[i], members[j]).is_zero
        h = hamiltonian_pert(model)
        for f in members:
            assert poisson_bracket(f, h).is_zero


# -- closed-form builders against generic arithmetic ------------------------

# Rates with zeros, repeats (a small range) and non-integer rationals.
RATES = st.one_of(st.integers(0, 3).map(F), st.fractions(0, 3, max_denominator=7))


@st.composite
def models_with_block_weights(draw):
    """A model on S^2..S^21 and a weight vector b that is constant on each
    level block of its a-vector."""
    n = draw(st.integers(2, 21))
    model = MagneticModel(n, tuple(draw(st.lists(RATES, min_size=(n + 1) // 2,
                                                 max_size=(n + 1) // 2))))
    b = [F(0)] * (n + 1)
    for block in model.partition:
        weight = draw(st.fractions(-3, 3, max_denominator=7))
        for idx in block:
            b[idx - 1] = weight
    return model, b


def assert_same_poly(poly, ref):
    """Equal terms and denominator, and the same term insertion order, which
    fixes the summation order of compiled_evaluator."""
    assert poly == ref
    assert list(poly.terms) == list(ref.terms)


@given(models_with_block_weights())
@settings(max_examples=40, deadline=None)
def test_closed_form_builders_match_generic_arithmetic(case):
    model, b = case
    n = model.n
    assert_same_poly(sigma_linear(model), reference_sigma_linear(model))
    assert_same_poly(potential(model), reference_potential(model))
    assert_same_poly(kinetic_energy(n), reference_kinetic_energy(n))
    assert_same_poly(model.hamiltonian, reference_hamiltonian(model))
    assert_same_poly(degenerate_integral(model.a, b), reference_degenerate_integral(model.a, b))

    family = commuting_basis(model)
    for _, prov, poly in [item for item in family.integrals if item.tag == "quad"]:
        if prov["kind"] == "indicator":
            ref = reference_degenerate_integral(model.a, [F(v) for v in prov["b"]])
        else:
            lam = {int(i): F(v) for i, v in prov["lam"].items()}
            mu = {int(i): F(v) for i, v in prov["mu"].items()}
            ref = reference_neumann_quadratic(n, lam, mu)
            assert_same_poly(limit_integral(n, prov["group"], lam, mu), ref)
        assert_same_poly(poly, ref)
    for poly, (i, j) in zip(tagged(family, "linear"), model.pairs):
        assert_same_poly(poly, reference_killing(i, j, n))

    # A family read from a file lists each member's terms in sorted order.
    for fam in (family, IntegralFamily.from_dict(family.to_dict())):
        columns = _membership_columns(fam)[1]
        refs = reference_membership_columns(fam)
        assert len(columns) == len(refs)
        for col, ref in zip(columns, refs):
            assert_same_poly(col, ref)
        h = model.hamiltonian
        solution = _solve_exact(columns, h)
        if solution is not None:
            off = solution[:-1] + [solution[-1] + 1]
            for sol in (solution, off):
                assert _residual_is_zero(h, sol, columns) == reference_residual_is_zero(h, sol, refs)

    candidates = list(_probe_candidates(model))
    refs = reference_probe_candidates(model)
    assert [c[:3] + c[4:] for c in candidates] == [r[:3] + r[4:] for r in refs]
    for cand, ref in zip(candidates, refs):
        assert_same_poly(cand[3], ref[3])
