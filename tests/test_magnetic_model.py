"""Model construction, exact field/potential builders, skew normal form."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magneflow import (
    InputError,
    MagneticModel,
    PhasePoly,
    gauge_shift,
    hamiltonian_pert,
    kinetic_energy,
    omega_matrix,
    poisson_bracket,
    potential,
    sigma_linear,
    skew_normal_form,
    x_var,
    p_var,
)
from magneflow.magnetic_model import (
    ambient_units,
    sigma_coefficient_matrix,
    sigma_sharp,
    sigma_sharp_polys,
)
from magneflow.verify import _constraint_remainder
from oracles import bidegree_profile, evaluate_exact, substitute_linear


def model_of(n, *alphas):
    return MagneticModel(n=n, alphas=tuple(F(a) for a in alphas))


def rotation_momentum(i, j, n):
    return x_var(i, n) * p_var(j, n) - x_var(j, n) * p_var(i, n)


# -- model structure -------------------------------------------------------


def test_model_validates_shape():
    with pytest.raises(InputError):
        MagneticModel(n=1, alphas=(F(1),))
    with pytest.raises(InputError):
        MagneticModel(n=2, alphas=(F(1), F(2)))
    with pytest.raises(InputError):
        MagneticModel(n=2, alphas=(F(-1),))


def test_neumann_coefficients_pairing():
    model = model_of(4, 2, 1)
    assert model.a == (F(1, 2), F(1, 2), F(1, 8), F(1, 8), F(0))
    assert model.m == 2


def test_partition_groups_equal_coefficients():
    assert model_of(4, 1, 1).partition == ((1, 2, 3, 4), (5,))
    assert model_of(4, 1, 2).partition == ((1, 2), (3, 4), (5,))
    assert model_of(5, 1, 1, 2).partition == ((1, 2, 3, 4), (5, 6))
    # zero rate merges its plane with the unpaired zero coordinate
    assert model_of(4, 1, 0).partition == ((1, 2), (3, 4, 5))


def test_units_cover_all_coordinates():
    assert ambient_units(4) == ((1, 2), (3, 4), (5,))
    assert ambient_units(5) == ((1, 2), (3, 4), (5, 6))
    model = model_of(4, 1, 1)
    assert model.block_units((1, 2, 3, 4)) == ((1, 2), (3, 4))
    assert model.block_units((5,)) == ((5,),)


def test_model_json_round_trip():
    model = model_of(5, "1/3", 2, 0)
    again = MagneticModel.from_dict(model.to_dict())
    assert again == model


# -- exact builders --------------------------------------------------------


def test_rotation_generator_small_sphere():
    model = model_of(2, 1)
    expected = F(1, 2) * rotation_momentum(1, 2, 2)
    assert sigma_linear(model) == expected


def test_rotation_generator_zero_rates():
    assert sigma_linear(model_of(2, 0)).is_zero


def test_rotation_generator_is_alpha_linear():
    model = model_of(4, 1, 3)
    expected = F(1, 2) * rotation_momentum(1, 2, 4) + F(3, 2) * rotation_momentum(3, 4, 4)
    assert sigma_linear(model) == expected


def test_potential_small_sphere():
    model = model_of(2, 2)
    expected = F(1, 2) * (x_var(1, 2) ** 2 + x_var(2, 2) ** 2)
    assert potential(model) == expected
    assert potential(model_of(2, 0)).is_zero


def test_potential_constant_on_sphere_when_rates_equal():
    model = model_of(3, 1, 1)
    u = potential(model)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.normal(size=4)
        x /= np.linalg.norm(x)
        value = float(evaluate_exact(u, list(x) + [0.0] * 4))
        assert abs(value - 0.125) < 1e-12


def test_hamiltonian_zero_rates_is_pure_kinetic():
    model = model_of(3, 0, 0)
    assert hamiltonian_pert(model) == kinetic_energy(3)


def test_hamiltonian_point_value():
    model = model_of(2, 1)
    h = hamiltonian_pert(model)
    value = evaluate_exact(h, [1, 0, 0, 0, 1, 0])
    assert value == F(1, 8)  # 1/2 - 1/2 + 1/8


def test_hamiltonian_is_built_once_per_model():
    model = model_of(4, 1, 2)
    h = hamiltonian_pert(model)
    assert hamiltonian_pert(model) is h
    assert h == kinetic_energy(4) - sigma_linear(model) + potential(model)
    assert hamiltonian_pert(model_of(4, 1, 2)) == h


def test_hamiltonian_bidegree_profile():
    model = model_of(2, 1)
    assert bidegree_profile(hamiltonian_pert(model)) == {(2, 2), (1, 1), (2, 0)}


def test_kinetic_energy_equals_momentum_square_on_constraints():
    k = kinetic_energy(2)
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        p = rng.normal(size=3)
        p -= (x @ p) * x
        assert abs(float(evaluate_exact(k, list(x) + list(p))) - 0.5 * p @ p) < 1e-12


# -- magnetic covector field ------------------------------------------------


def test_field_is_orthogonal_to_position_exactly():
    for n, alphas in [(2, (1,)), (4, (2, 3)), (5, (1, 0, 2))]:
        model = MagneticModel(n=n, alphas=tuple(F(a) for a in alphas))
        comps = sigma_sharp_polys(model)
        pairing = PhasePoly(n)
        for i, comp in enumerate(comps, start=1):
            pairing = pairing + x_var(i, n) * comp
        assert pairing.is_zero


def test_exterior_derivative_recovers_two_form():
    for n, alphas in [(2, (1,)), (5, (1, 2, 3)), (4, ("1/2", 0))]:
        model = MagneticModel(n=n, alphas=tuple(F(a) for a in alphas))
        c = sigma_coefficient_matrix(model)
        omega = omega_matrix(model)
        d = n + 1
        for i in range(d):
            for j in range(d):
                assert c[j][i] - c[i][j] == omega[i][j]


def test_field_generates_rotation_flow():
    # the bracket of S with coordinates must be the plane rotation field
    model = model_of(2, 1)
    s = sigma_linear(model)
    assert poisson_bracket(x_var(1, 2), s) == F(-1, 2) * x_var(2, 2)
    assert poisson_bracket(x_var(2, 2), s) == F(1, 2) * x_var(1, 2)
    assert poisson_bracket(x_var(3, 2), s).is_zero


# -- gauge shift -------------------------------------------------------------


def test_gauge_shift_zero_rates_is_identity():
    model = model_of(2, 0)
    x = np.array([1.0, 0.0, 0.0])
    p = np.array([0.0, 0.3, -0.1])
    x2, p2 = gauge_shift(x, p, +1, model)
    assert np.array_equal(x2, x) and np.array_equal(p2, p)


def test_gauge_shift_round_trip():
    model = model_of(4, 1, "7/3")
    rng = np.random.default_rng(5)
    x = rng.normal(size=5)
    x /= np.linalg.norm(x)
    p = rng.normal(size=5)
    _, p_shifted = gauge_shift(x, p, +1, model)
    _, p_back = gauge_shift(x, p_shifted, -1, model)
    assert np.max(np.abs(p_back - p)) < 1e-15
    # a stack of points shifts row by row, bit for bit
    xs = rng.normal(size=(7, 5))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    ps = rng.normal(size=(7, 5))
    for direction in (+1, -1):
        xs_out, ps_out = gauge_shift(xs, ps, direction, model)
        assert np.array_equal(xs_out, xs)
        for r in range(xs.shape[0]):
            _, row = gauge_shift(xs[r], ps[r], direction, model)
            assert np.array_equal(ps_out[r], row)


def test_gauge_shift_point_value():
    model = model_of(2, 1)
    x = np.array([1.0, 0.0, 0.0])
    p = np.zeros(3)
    _, p_shifted = gauge_shift(x, p, +1, model)
    assert np.allclose(p_shifted, [0.0, 0.5, 0.0], atol=1e-15)


def test_gauge_shift_rejects_off_sphere_points():
    model = model_of(2, 1)
    with pytest.raises(InputError):
        gauge_shift(np.array([1.1, 0.0, 0.0]), np.zeros(3), +1, model)
    with pytest.raises(InputError):
        gauge_shift(np.array([1.0, 0.0, 0.0]), np.zeros(3), +2, model)
    batch = np.array([[1.0, 0.0, 0.0], [0.0, 1.1, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(InputError):
        gauge_shift(batch, np.zeros((3, 3)), +1, model)
    with pytest.raises(InputError):
        gauge_shift(batch, np.zeros(3), +1, model)


def test_gauge_shift_preserves_tangency():
    model = model_of(3, 1, 2)
    rng = np.random.default_rng(9)
    x = rng.normal(size=4)
    x /= np.linalg.norm(x)
    p = rng.normal(size=4)
    p -= (x @ p) * x
    _, p_shifted = gauge_shift(x, p, +1, model)
    assert abs(x @ p_shifted) < 1e-14
    assert abs(x @ sigma_sharp(model, x)) < 1e-15


def test_kinetic_energy_composed_with_shift():
    # K(x, p + s(x)) = K + S|X|^2 + U|X|^2 as an exact identity; on the
    # sphere this is the conserved quantity carried to the other picture.
    # Modulo the constraints it is H + 2S and not H - 2S: an exact oracle
    # of --check-picture.
    for n, alphas in [(2, (1,)), (3, (1, 2)), (4, (1, 2)), (5, (1, 1, 2)),
                      (7, (1, F(3, 2), 3, 4)), (6, (0, 1, 1))]:
        model = MagneticModel(n=n, alphas=tuple(F(a) for a in alphas))
        k = kinetic_energy(n)
        sphere = PhasePoly(n)
        for i in range(1, n + 2):
            sphere = sphere + x_var(i, n) ** 2
        ident = [[F(int(i == j)) for j in range(n + 1)] for i in range(n + 1)]
        composed = substitute_linear(k, ident, p_shift=sigma_sharp_polys(model))
        expected = k + sigma_linear(model) * sphere + potential(model) * sphere
        assert (composed - expected).is_zero
        h, s = hamiltonian_pert(model), sigma_linear(model)
        assert _constraint_remainder(composed - h - 2 * s).is_zero
        assert not _constraint_remainder(composed - h + 2 * s).is_zero


# -- skew normal form ---------------------------------------------------------


def canonical_block(alphas, dim):
    block = np.zeros((dim, dim))
    for k, alpha in enumerate(alphas):
        block[2 * k, 2 * k + 1] = alpha
        block[2 * k + 1, 2 * k] = -alpha
    return block


def test_normal_form_of_canonical_matrix():
    omega = canonical_block([1.0], 3)
    form = skew_normal_form(omega)
    assert np.allclose(form.q, np.eye(3), atol=1e-12)
    assert np.allclose(form.alphas, [1.0], atol=1e-12)
    assert form.residual < 1e-12


def test_normal_form_of_zero_matrix():
    form = skew_normal_form(np.zeros((5, 5)))
    assert np.array_equal(form.q, np.eye(5))
    assert np.array_equal(form.alphas, np.zeros(2))
    assert form.residual == 0.0


def test_normal_form_recovers_rotated_rates():
    rng = np.random.default_rng(17)
    block = canonical_block([2.0, 1.0], 4)
    q_rand, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    omega = q_rand @ block @ q_rand.T
    form = skew_normal_form(omega)
    # oracle: singular values of omega, i.e. sqrt of eigenvalues of its Gram matrix
    oracle = np.sqrt(np.sort(np.linalg.eigvalsh(omega.T @ omega))[::-1][::2])
    assert np.allclose(form.alphas, [2.0, 1.0], atol=1e-10)
    assert np.allclose(form.alphas, oracle, atol=1e-10)
    assert np.linalg.norm(form.q.T @ form.q - np.eye(4)) < 1e-10
    assert form.residual <= 1e-9 * np.linalg.norm(omega)


def test_normal_form_handles_repeated_rates():
    rng = np.random.default_rng(23)
    block = canonical_block([3.0, 3.0, 1.0], 7)
    q_rand, _ = np.linalg.qr(rng.normal(size=(7, 7)))
    omega = q_rand @ block @ q_rand.T
    form = skew_normal_form(omega)
    assert np.allclose(form.alphas, [3.0, 3.0, 1.0], atol=1e-9)
    assert form.residual <= 1e-9 * np.linalg.norm(omega)
    assert np.linalg.norm(form.q.T @ form.q - np.eye(7)) < 1e-10


def test_normal_form_positive_sign_above_diagonal():
    rng = np.random.default_rng(29)
    block = canonical_block([2.0], 2)
    q_rand, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    omega = q_rand @ block @ q_rand.T
    form = skew_normal_form(omega)
    transformed = form.q.T @ omega @ form.q
    assert transformed[0, 1] > 0


_RATES = st.one_of(
    st.floats(0.1, 10.0),                          # distinct
    st.sampled_from([1.0, 2.0]),                   # repeated
    st.just(0.0),                                  # zero
    st.floats(0.0, 1e-9).map(lambda e: 1.0 + e),   # within 1e-9 of each other
)


@st.composite
def rotated_plane_blocks(draw):
    """(Omega, its rates): Q B Q^T for plane rates B and a random
    orthogonal Q (or Q = I, which leaves zero planes exactly zero), at
    scale 1 or 2^-+500, plus a skew perturbation of denormal entries."""
    d = draw(st.integers(2, 22))
    rates = np.array(draw(st.lists(_RATES, min_size=d // 2, max_size=d // 2)))
    rates *= draw(st.sampled_from([1.0, 2.0 ** -500, 2.0 ** 500]))
    q = np.eye(d)
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2 ** 32 - 1))
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    ints = np.array(draw(st.lists(st.integers(-3, 3), min_size=d * d, max_size=d * d)))
    noise = 5e-324 * (ints.reshape(d, d) - ints.reshape(d, d).T)
    omega = q @ canonical_block(rates, d) @ q.T
    return (omega - omega.T) / 2 + noise, rates


@given(rotated_plane_blocks())
@settings(max_examples=150, deadline=None)
def test_normal_form_property(case):
    omega, rates = case
    d = omega.shape[0]
    form = skew_normal_form(omega)
    top = rates.max()
    assert np.all(np.diff(form.alphas) <= 0)
    assert np.all(np.abs(form.alphas - np.sort(rates)[::-1]) <= 1e-12 * top)
    assert np.linalg.norm(form.q.T @ form.q - np.eye(d)) <= 1e-12
    transformed = form.q.T @ omega @ form.q
    for k, alpha in enumerate(form.alphas):
        if alpha:
            assert transformed[2 * k, 2 * k + 1] > 0
    assert form.residual <= 1e-12 * np.linalg.norm(omega)


def test_normal_form_of_tiny_matrices():
    """Entries near 1e-170 square to below the smallest double, so the
    norms must see the matrix scaled by a power of two: the skew matrix
    keeps its rate and the symmetric one is still rejected."""
    form = skew_normal_form([[0.0, 1e-170], [-1e-170, 0.0]])
    assert form.alphas.tolist() == [1e-170]
    assert np.array_equal(form.q, np.eye(2))
    assert form.residual == 0.0
    with pytest.raises(InputError, match="not skew-symmetric"):
        skew_normal_form([[0.0, 1e-170], [1e-170, 0.0]])


def test_normal_form_rejects_non_skew():
    with pytest.raises(InputError):
        skew_normal_form(np.eye(3))
    with pytest.raises(InputError):
        skew_normal_form(np.zeros((2, 3)))
