"""Acceptance gate.

Ten checks covering exact commutation, family structure, energy
membership, independence, the nondegenerate quadratic-family oracle,
conservation along the constrained flow, picture equivalence, the
integrator's order, the superintegrability probe, and skew normal-form
recovery.  Each check prints one `[acceptance NN] name: PASS/FAIL`
line (run with `-s` to see them all).
"""

import time
from fractions import Fraction as F
from functools import lru_cache

import numpy as np

from magneflow import (
    MagneticModel,
    check_commutation,
    commuting_basis,
    drift_report,
    functional_independence,
    hamiltonian_membership,
    hamiltonian_pert,
    integrate,
    killing,
    kinetic_energy,
    picture_map,
    poisson_bracket,
    skew_normal_form,
    superintegrability_probe,
    uhlenbeck_integral,
    x_var,
)
from magneflow import sampling
from oracles import float_independence

CI_MATRIX = (
    (2, ("1",)),
    (3, ("1", "2")),
    (3, ("1", "1")),
    (4, ("1", "2")),
    (4, ("1", "1")),
    (5, ("1", "2", "3")),
    (5, ("1", "1", "2")),
    (5, ("1", "1", "1")),
    (6, ("1", "1", "1")),
    (7, ("1", "2", "3", "4")),
    (7, ("1", "1", "2", "2")),
)

DRIFT_TOL = 1e-5
CONSTRAINT_TOL = 1e-10
SEED = 42


@lru_cache(maxsize=None)
def family_for(n, alphas):
    model = MagneticModel(n=n, alphas=tuple(F(a) for a in alphas))
    return commuting_basis(model)


def seeded_state(n):
    rng = sampling.generator(SEED, sampling.STREAM_SIMULATE)
    return sampling.constrained_point(rng, n)


def verdict(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {name}: {status}")
    assert ok, detail or name


def test_01_pairwise_brackets_vanish_exactly():
    start = time.perf_counter()
    bad = []
    for n, alphas in CI_MATRIX:
        for pair in check_commutation(hamiltonian_membership(family_for(n, alphas))):
            if pair.status != "zero_polynomial":
                bad.append((n, alphas, pair.left, pair.right, pair.status))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 300.0
    verdict(1, "exact pairwise commutation", ok,
            f"nonzero brackets {bad}, wall time {elapsed:.1f}s")


def test_02_family_counts():
    bad = []
    for n, alphas in CI_MATRIX:
        fam = family_for(n, alphas)
        tags = [item.tag for item in fam.integrals]
        counts = (tags.count("quad"), tags.count("linear"))
        if counts != (n // 2, n - n // 2):
            bad.append((n, alphas, *counts))
    verdict(2, "quadratic and linear member counts", not bad, f"wrong counts {bad}")


def test_03_energy_membership():
    bad = []
    for n, alphas in CI_MATRIX:
        fam = family_for(n, alphas)
        result = hamiltonian_membership(fam)
        if not result.ok:
            bad.append((n, alphas, "not representable"))
            continue
        q = [item.tag for item in fam.integrals].count("quad")
        for k, (i, j) in enumerate(fam.model.pairs):
            coeff = result.coefficients[f"F{q + 1 + k}"]
            expected = fam.model.alphas[k] / 2
            if abs(coeff) != expected:
                bad.append((n, alphas, f"M({i},{j})", str(coeff), str(expected)))
    verdict(3, "energy lies in the span of the family", not bad,
            f"membership defects {bad}")


def test_04_functional_independence():
    bad = []
    for n, alphas in CI_MATRIX:
        fam = family_for(n, alphas)
        stats = float_independence(fam.members(), n, samples=100, seed=SEED)
        if stats.full_rank_count < 95:
            bad.append((n, alphas, stats.histogram()))
    verdict(4, "rank n at 95 of 100 sample points", not bad, f"rank defects {bad}")


def test_04_functional_independence_is_certified_exactly():
    bad = []
    for n, alphas in CI_MATRIX:
        fam = family_for(n, alphas)
        cert = functional_independence(fam, samples=100, seed=SEED)
        if not (cert.certified and cert.expected_rank == n):
            bad.append((n, alphas, cert.ranks))
    verdict(4, "rank n mod 2^61-1 at an exact rational point", not bad, f"rank defects {bad}")


def test_05_nondegenerate_quadratic_family_oracle():
    bad = []
    for a in ((F(0), F(1), F(3)), (F(0), F(1), F(3), F(7))):
        dim = len(a)
        n = dim - 1
        basis = []
        for i in range(dim):
            b = tuple(F(1) if k == i else F(0) for k in range(dim))
            basis.append(uhlenbeck_integral(a, b))
        for i in range(dim):
            for j in range(i + 1, dim):
                if not poisson_bracket(basis[i], basis[j]).is_zero:
                    bad.append((dim, i + 1, j + 1))
        total = uhlenbeck_integral(a, tuple(F(1) for _ in range(dim)))
        sum_sq = sum((x_var(i, n) ** 2 for i in range(1, dim + 1)),
                     start=basis[0] - basis[0])
        if total != sum_sq:
            bad.append((dim, "sum rule"))
    verdict(5, "distinct-level quadratic family brute force", not bad,
            f"oracle defects {bad}")


def test_06_conservation_along_the_flow():
    bad = []
    for n, alphas in CI_MATRIX:
        fam = family_for(n, alphas)
        x0, p0 = seeded_state(n)
        rec = integrate(fam.model, x0, p0, dt=1e-3, steps=10_000,
                        record_every=10, family=fam)
        report = drift_report(rec)
        worst = max(entry["max_rel_drift"] for entry in report["series"].values())
        c_max = max(report["constraints"]["max_sphere_residual"],
                    report["constraints"]["max_tangency_residual"])
        if worst > DRIFT_TOL or c_max > CONSTRAINT_TOL:
            bad.append((n, alphas, worst, c_max))
    verdict(6, "drift within tolerance for every model", not bad,
            f"drift defects {bad}")


def test_07_picture_equivalence():
    fam = family_for(2, ("1",))
    x0, p0 = seeded_state(2)
    rec = integrate(fam.model, x0, p0, dt=1e-3, steps=10_000, record_every=10)
    shifted = picture_map(rec, fam.model)
    drift = drift_report(shifted)["series"]["H_kin"]["max_rel_drift"]
    verdict(7, "shifted picture conserves kinetic energy", drift <= DRIFT_TOL,
            f"kinetic drift {drift:.3e}")


def test_08_second_order_drift_scaling():
    fam = family_for(2, ("1",))
    x0, p0 = seeded_state(2)

    def h_drift(dt, steps):
        rec = integrate(fam.model, x0, p0, dt=dt, steps=steps, record_every=10)
        return drift_report(rec)["series"]["H"]["max_abs_drift"]

    ratio = h_drift(1e-3, 10_000) / h_drift(5e-4, 20_000)
    verdict(8, "halving dt reduces drift by 3x to 5x", 3.0 <= ratio <= 5.0,
            f"drift ratio {ratio:.3f}")


def cross_pair_brackets(model):
    """Map each cross-pair generator label to (M(l,m), closed form of {M(l,m), H}).

    For planes (a,b) and (c,d) of common rate alpha, only the magnetic term
    S of H = K - S + U fails to commute with M(l,m):
    {M_ac, H} = (alpha/2)(M_bc + M_ad), {M_ad, H} = {M_bc, H} =
    (alpha/2)(M_bd - M_ac) and {M_bd, H} = -(alpha/2)(M_bc + M_ad).
    """
    n = model.n
    rated = list(zip(model.pairs, model.alphas))
    brackets = {}
    for k, ((a, b), alpha) in enumerate(rated):
        for (c, d), beta in rated[k + 1:]:
            if alpha != beta:
                continue
            half = alpha / 2
            m_ac, m_ad = killing(a, c, n), killing(a, d, n)
            m_bc, m_bd = killing(b, c, n), killing(b, d, n)
            brackets[f"M({a},{c})"] = (m_ac, half * (m_bc + m_ad))
            brackets[f"M({a},{d})"] = (m_ad, half * (m_bd - m_ac))
            brackets[f"M({b},{c})"] = (m_bc, half * (m_bd - m_ac))
            brackets[f"M({b},{d})"] = (m_bd, -half * (m_bc + m_ad))
    return brackets


def test_09_single_generator_superintegrability_probe():
    bad = []
    for (n, alphas), count in (((4, ("1", "1")), 4), ((6, ("1", "1", "1")), 12)):
        fam = family_for(n, alphas)
        h = hamiltonian_pert(fam.model)
        oracle = cross_pair_brackets(fam.model)
        probes = superintegrability_probe(functional_independence(fam, samples=100, seed=SEED))
        singles = [r for r in probes if r.kind == "generator" and r.cross_pair]
        if len(singles) != count or sorted(r.label for r in singles) != sorted(oracle):
            bad.append((n, alphas, "candidates", [r.label for r in singles]))
            continue
        for r in singles:
            generator, bracket = oracle[r.label]
            if poisson_bracket(generator, h) != bracket:
                bad.append((n, alphas, r.label, "bracket"))
            if r.commutes_with_hamiltonian or r.is_additional_integral:
                bad.append((n, alphas, r.label, "probe verdict"))
    verdict(9, "no single cross-pair generator extends the family", not bad,
            "each single cross-pair generator M(l,m) must have the closed-form "
            "nonzero bracket with H and be reported as no additional integral; "
            f"defects {bad}")


def test_09_companion_pair_combinations_extend_the_family():
    for (n, alphas), count in (((4, ("1", "1")), 2), ((6, ("1", "1", "1")), 6)):
        fam = family_for(n, alphas)
        probes = superintegrability_probe(functional_independence(fam, samples=100, seed=SEED))
        combos = [r for r in probes if r.kind in ("pair_sum", "pair_diff")]
        assert len(combos) == count, (n, alphas, [r.label for r in combos])
        for r in combos:
            assert r.commutes_with_hamiltonian, (n, alphas, r.label)
            assert r.is_additional_integral, (n, alphas, r.label)


def test_10_skew_normal_form_recovery():
    rng = np.random.default_rng(SEED)
    bad = []
    for trial in range(200):
        m = int(rng.integers(3, 10))
        raw = rng.normal(size=(m, m))
        omega = raw - raw.T
        scale = np.linalg.norm(omega)
        form = skew_normal_form(omega)
        if form.residual > 1e-9 * scale:
            bad.append((trial, m, "residual", form.residual))
            continue
        evals = np.linalg.eigvalsh(omega.T @ omega)[::-1]
        oracle = np.sqrt(np.maximum(evals[0::2][: m // 2], 0.0))
        if np.max(np.abs(np.array(form.alphas) - oracle)) > 1e-9:
            bad.append((trial, m, "alphas"))
    verdict(10, "normal form reconstruction on random skew matrices", not bad,
            f"recovery defects {bad[:5]}")
