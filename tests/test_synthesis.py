"""POVM synthesis into retrodictable measurements and its factorisations."""

from __future__ import annotations

import numpy as np
import pytest

from retroq import (
    BadBasisError,
    InvalidOperatorSetError,
    Povm,
    ShapeMismatchError,
    TooManyOutcomesError,
    b_factor,
    build_retrodictor,
    check_perfect,
    dilated_kraus,
    povm_of,
    standard_basis,
    synthesize,
)
from retroq.catalog import trine_povm
from retroq.linalg import DEFAULT_TOL, Tolerance, eigh_descending, psd_eig
from retroq.rand import random_povm, random_projective_povm, random_unitary


def dag(m):
    return np.conj(m).T


def _povm_distance(p: Povm, q: Povm) -> float:
    return max(np.linalg.norm(a - b) for a, b in zip(p.elements, q.elements))


# ---------------------------------------------------------------- synthesize

def test_trine_synthesis_satisfies_both_conditions():
    result = synthesize(trine_povm().povm, d_out=3)
    m = result.measurement
    # group sums reproduce the POVM elements
    for k, element in enumerate(trine_povm().povm.elements):
        total = sum(dag(a) @ a for a in m.outcomes[k])
        assert np.linalg.norm(total - element) < 1e-10
    # cross products between outcomes vanish
    assert check_perfect(m).max_residual < 1e-10


def test_projective_povm_synthesis_is_rank_one():
    povm = Povm(2, [np.diag([1.0, 0.0 + 0j]), np.diag([0.0 + 0j, 1.0])])
    result = synthesize(povm, d_out=2)
    for k, group in enumerate(result.measurement.outcomes):
        assert len(group) == 1
        # A_k = |x_k><pi_k| is rank one with unit norm
        assert np.linalg.norm(group[0]) == pytest.approx(1.0, abs=1e-12)
    retro = build_retrodictor(result.measurement)
    for k, x in enumerate(result.x_basis):
        assert np.linalg.norm(retro.projectors[k] - np.outer(x, x.conj())) < 1e-10


def test_too_many_outcomes_is_rejected():
    four = Povm(2, [np.eye(2) / 4.0] * 4)
    with pytest.raises(TooManyOutcomesError):
        synthesize(four, d_out=2)


def test_bad_basis_is_rejected():
    povm = trine_povm().povm
    skew = [np.array([1.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0]) / np.sqrt(2),
            np.array([0.0, 0.0, 1.0])]
    with pytest.raises(BadBasisError):
        synthesize(povm, d_out=3, x_basis=skew)
    with pytest.raises(BadBasisError):
        synthesize(povm, d_out=3, x_basis=standard_basis(2, 3))
    mixed = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0]), np.array([0.0, 0.0, 1.0])]
    with pytest.raises(BadBasisError, match="dimension 2"):
        synthesize(povm, d_out=3, x_basis=mixed)


def test_basis_orthonormality_is_decided_as_the_pairwise_gram_did(rng):
    # reference: the Gram matrix from n^2 vdot calls, at the same threshold
    povm, u = trine_povm().povm, random_unitary(3, rng)
    verdicts = set()
    for eps in (0.0, 1e-9, 1.2e-9, 1.3e-9, 2e-9, 2.2e-9, 3e-9, 1e-6):  # the threshold is near 1.22e-9
        tilted = u[:, 1] + eps * u[:, 0]
        basis = [u[:, 0], tilted / np.linalg.norm(tilted), u[:, 2]]
        gram = np.array([[np.vdot(xi, xj) for xj in basis] for xi in basis])
        rejected = np.linalg.norm(gram - np.eye(3)) > DEFAULT_TOL.eq_residual * np.sqrt(3)
        verdicts.add(rejected)
        if rejected:
            with pytest.raises(BadBasisError, match="^reference vectors are not orthonormal$"):
                synthesize(povm, 3, basis)
        else:
            assert check_perfect(synthesize(povm, 3, basis).measurement).max_residual < 1e-8
    assert verdicts == {False, True}


def test_basis_orthonormality_is_decided_at_the_scale_of_the_identity():
    # ||Gram - I||_F against eq_residual * ||I||_F = eq_residual * sqrt(n), as the completeness
    # check decides; this deviation, sqrt(2) * 2.1e-9 = 2.97e-9, lies between that scale, 2e-9,
    # and eq_residual * n = 4e-9
    eye = np.eye(4, dtype=complex)
    basis = [eye[0], eye[1] + 2.1e-9 * eye[0], eye[2], eye[3]]
    deviation = np.linalg.norm(np.conj(np.array(basis)) @ np.array(basis).T - np.eye(4))
    assert 2e-9 < deviation < 4e-9
    povm = Povm(4, [np.diag(row) for row in eye.real])
    with pytest.raises(BadBasisError, match="^reference vectors are not orthonormal$"):
        synthesize(povm, 4, basis)
    with pytest.raises(BadBasisError, match="^reference vectors are not orthonormal$"):
        b_factor(povm, 4, basis)


def test_synthesis_with_custom_basis(rng):
    povm = random_povm(2, 3, rng)
    u = random_unitary(4, rng)
    basis = [u[:, j] for j in range(3)]
    result = synthesize(povm, d_out=4, x_basis=basis)
    assert check_perfect(result.measurement).retrodictable
    assert _povm_distance(povm_of(result.measurement), povm) < 1e-10


def _outer_groups(povm: Povm, basis, tol=DEFAULT_TOL):
    """The synthesised groups built one eigen-term at a time, as ``sqrt(w) |x_k><v|``."""
    groups = []
    for k, element in enumerate(povm.elements):
        w, v = psd_eig(element, tol)
        kept = [r for r in range(w.size) if float(w[r]) > tol.rank_rel * float(w[0])]
        groups.append([np.sqrt(float(w[r])) * np.outer(basis[k], np.conj(v[:, r])) for r in kept])
    return groups


def test_synthesised_groups_equal_the_per_eigenvector_outer_products(rng):
    cases = []
    for _ in range(10):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(2, d + 1))
        cases.append((random_povm(d, n, rng), d + 1, None))
        # projectors are rank-deficient: their rounding-level eigen-terms are dropped
        cases.append((random_projective_povm(d, n, rng), d, list(random_unitary(d, rng).T)))
    for povm, d_out, basis in cases:
        result = synthesize(povm, d_out, x_basis=basis)
        groups = _outer_groups(povm, result.x_basis)
        assert [len(g) for g in result.measurement.outcomes] == [len(g) for g in groups]
        for got, expected in zip(result.measurement.outcomes, groups):
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))
    # each projective POVM keeps d of its n * d eigen-terms, n >= 2
    projective = [povm for povm, _, _ in cases[1::2]]
    assert all(sum(map(len, synthesize(p, p.d).measurement.outcomes)) == p.d for p in projective)


def test_synthesis_leaves_element_faults_to_the_checks_of_the_povm_and_measurement():
    # a zero element is a valid POVM element: its outcome keeps no eigen-term
    with pytest.raises(InvalidOperatorSetError) as info:
        synthesize(Povm(2, [np.eye(2), np.zeros((2, 2))]), 2)
    assert str(info.value) == "outcome 1 has no Kraus operators"
    # a POVM admitted at a looser floor is realised from its eigen-terms above zero,
    # which then fail to resolve the identity at the default tolerance
    loose = Povm(2, [np.diag([1.1, 0.5]), np.diag([-0.1, 0.5])], Tolerance(psd_floor=0.5))
    with pytest.raises(InvalidOperatorSetError) as info:
        synthesize(loose, 2)
    assert str(info.value) == "Kraus operators do not resolve the identity (deviation 1.000e-01)"


def test_synthesis_reads_the_decomposition_that_checked_the_povm(rng, monkeypatch):
    # synthesize and b_factor sort the Povm's held eigh descending and decompose nothing
    # again; the references decompose each element afresh: psd_eig per element for the
    # Kraus groups, the batched eigh_descending for the factors
    povms = [random_povm(4, 3, rng), random_projective_povm(4, 3, rng), random_povm(3, 3, rng),
             trine_povm().povm]
    expected = []
    for p in povms:
        w, v = eigh_descending(p.elements)
        x = np.eye(max(p.n_outcomes, p.d), dtype=complex)[:, :p.d]
        factors = x @ (np.sqrt(np.maximum(w, 0.0))[:, :, None] * np.conj(v).swapaxes(1, 2))
        expected.append((_outer_groups(p, standard_basis(p.n_outcomes, 5)), factors))

    def refuse(*args, **kwargs):
        raise AssertionError("a checked POVM was decomposed again")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for p, (groups, factors) in zip(povms, expected):
        got = synthesize(p, 5).measurement.kraus
        assert got.tobytes() == np.array([a for g in groups for a in g]).tobytes()
        assert np.array(b_factor(p)).tobytes() == factors.tobytes()


def test_the_synthesised_stack_is_held_read_only_and_apart_from_the_povm(rng):
    given = [np.array(e) for e in random_povm(3, 3, rng).elements]  # the caller's, writable
    povm = Povm(3, given)
    first = synthesize(povm, 4).measurement
    dilated = dilated_kraus(b_factor(povm), None)
    for m in (first, dilated):
        with pytest.raises(ValueError, match="read-only"):
            m.kraus[0, 0, 0] = 1.0
        assert not any(np.shares_memory(m.kraus, a) for a in [povm.elements, *povm.eig, *given])
    for own in given:
        own[:] = np.eye(3)
    again = synthesize(povm, 4).measurement
    assert again.kraus.tobytes() == first.kraus.tobytes()
    assert np.array_equal(again.starts, first.starts)


def test_synthesis_peaks_within_one_point_six_kraus_stacks(traced_peak):
    # 16 full-rank elements at d = 16: 256 Kraus operators, a 1 MB stack; the measurement
    # holds the stack it was built in, so it is never live twice
    povm = random_povm(16, 16, np.random.default_rng(5))
    result, peak = traced_peak(lambda: synthesize(povm, 16))
    kraus = result.measurement.kraus
    assert kraus.shape == (256, 16, 16)
    assert peak <= 1.6 * kraus.nbytes


@pytest.mark.parametrize("build", [
    lambda p: synthesize(p, True),
    lambda p: synthesize(p, np.True_),
    lambda p: synthesize(p, 2.0),
    lambda p: synthesize(p, 1.0),
    lambda p: synthesize(p, np.float64(3.0)),
    lambda p: b_factor(p, True),
    lambda p: b_factor(p, 2.0),
], ids=["synthesize_bool", "synthesize_numpy_bool", "synthesize_float", "synthesize_small_float",
        "synthesize_numpy_float",
        "b_factor_bool", "b_factor_float"])
def test_boolean_and_fractional_output_dimensions_are_refused(build):
    # the one integer rule, before any count is compared with the dimension
    povm = Povm(2, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    with pytest.raises(TypeError, match="^d_out must be an integer, not a boolean$|"
                                        "object cannot be interpreted as an integer"):
        build(povm)


def test_round_trip_and_support_markers(rng):
    # equivalence-class membership and |x_k><x_k| supports, random instances
    for _ in range(5):
        d = int(rng.integers(2, 4))
        d_out = int(rng.integers(2, 5))
        n = int(rng.integers(1, d_out + 1))
        povm = random_povm(d, n, rng)
        result = synthesize(povm, d_out=d_out)
        assert _povm_distance(povm_of(result.measurement), povm) < 1e-10
        assert check_perfect(result.measurement).retrodictable
        retro = build_retrodictor(result.measurement)
        for k, x in enumerate(result.x_basis):
            assert np.linalg.norm(retro.projectors[k] - np.outer(x, x.conj())) < 1e-10


# ------------------------------------------------------------------ b_factor

def _b_factor_reference(povm: Povm, d_out: int) -> list[np.ndarray]:
    """``B_k = sum_r sqrt(w_r) |e_r><v_r|`` one element and one eigen-term at a time."""
    factors = []
    for element in povm.elements:
        w, v = psd_eig(element)
        b = np.zeros((d_out, povm.d), dtype=complex)
        for r in range(povm.d):
            b += np.sqrt(max(float(w[r]), 0.0)) * np.outer(np.eye(d_out)[r], np.conj(v[:, r]))
        factors.append(b)
    return factors


def test_b_factor_reproduces_elements(rng):
    povms = [trine_povm().povm]
    for d, n in [(2, 2), (3, 3), (3, 2), (4, 5), (5, 3)]:
        povms += [random_povm(d, n, rng), random_projective_povm(d, min(n, d), rng)]
    for povm in povms:
        d_out = max(povm.n_outcomes, povm.d) + 1
        factors = b_factor(povm, d_out)
        # the same values as the per-term sums; np.array_equal ignores the sign of zero
        assert np.array_equal(factors, _b_factor_reference(povm, d_out))
        for b, element in zip(factors, povm.elements):
            assert np.linalg.norm(dag(b) @ b - element) < 1e-12


def test_b_factor_projective_is_partial_isometry():
    povm = Povm(2, [np.diag([1.0, 0.0 + 0j]), np.diag([0.0 + 0j, 1.0])])
    for b, element in zip(b_factor(povm), povm.elements):
        assert np.linalg.norm(dag(b) @ b - element) < 1e-12
        # B restricted to its support preserves norms
        s = np.linalg.svd(b, compute_uv=False)
        assert np.allclose(s[s > 1e-12], 1.0, atol=1e-12)


def test_b_factor_identity_povm_is_unitary():
    povm = Povm(3, [np.eye(3, dtype=complex)])
    (b,) = b_factor(povm)
    assert b.shape == (3, 3)
    assert np.linalg.norm(dag(b) @ b - np.eye(3)) < 1e-12


def test_b_factor_short_basis_is_rejected():
    povm = Povm(3, [np.eye(3, dtype=complex)])
    with pytest.raises(BadBasisError):
        b_factor(povm, d_out=3, x_basis=standard_basis(1, 3))


# -------------------------------------------------------------- dilated_kraus

def _dilated_reference(factors, basis) -> list[list[np.ndarray]]:
    """The groups ``|x_k><x_r| B_k`` one candidate at a time, the vanishing ones dropped."""
    groups = []
    for k, b in enumerate(factors):
        candidates = [np.outer(basis[k], np.conj(basis[r]) @ b) for r in range(b.shape[1])]
        weights = [np.linalg.norm(a) ** 2 for a in candidates]
        groups.append([a for a, w in zip(candidates, weights) if w > DEFAULT_TOL.rank_rel * max(weights)])
    return groups


def test_dilated_kraus_matches_synthesis(rng):
    for i in range(10):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(1, d + 1))
        povm = (random_povm if i % 2 else random_projective_povm)(d, n, rng)
        d_out = max(n, d)
        basis = standard_basis(d_out, d_out)
        factors = b_factor(povm, d_out=d_out, x_basis=basis)
        m = dilated_kraus(factors, basis)
        want = _dilated_reference(factors, basis)
        assert [len(g) for g in m.outcomes] == [len(g) for g in want]
        assert np.array_equal(m.kraus, [a for g in want for a in g])
        result = synthesize(povm, d_out=d_out, x_basis=basis[:n])
        assert check_perfect(m).retrodictable
        # identical nonzero Kraus operators up to ordering within each group
        for g1, g2 in zip(m.outcomes, result.measurement.outcomes):
            assert len(g1) == len(g2)
            for a in g1:
                assert min(np.linalg.norm(a - b) for b in g2) < 1e-10


def test_dilated_kraus_coerces_its_factors():
    povm = trine_povm().povm
    basis = standard_basis(3, 3)
    factors = b_factor(povm, x_basis=basis)
    for given in ([b.tolist() for b in factors], np.array(factors)):  # nested lists, one stack
        assert np.array_equal(dilated_kraus(given, basis).kraus, dilated_kraus(factors, basis).kraus)
    with pytest.raises(ShapeMismatchError, match="mixed operator shapes"):
        dilated_kraus([np.eye(2), np.eye(3)], None)
    factors[1][0, 0] = np.nan
    with pytest.raises(ValueError, match="entries must be finite"):
        dilated_kraus(factors, basis)


def test_dilated_kraus_refuses_factors_the_output_cannot_hold():
    # as b_factor does: more factors than output dimensions, or an input wider than the output
    with pytest.raises(TooManyOutcomesError, match="3 outcomes exceed output dimension 2"):
        dilated_kraus([np.eye(2) / np.sqrt(3)] * 3, None)
    wide = [np.eye(2, 3) / np.sqrt(2), np.eye(2, 3) / np.sqrt(2)]
    with pytest.raises(BadBasisError, match="output dimension 2 cannot hold 3 orthonormal vectors"):
        dilated_kraus(wide, None)
    with pytest.raises(BadBasisError, match="output dimension 2 cannot hold 3 orthonormal vectors"):
        dilated_kraus(wide, standard_basis(2, 2))


def test_dilated_kraus_identity_povm():
    povm = Povm(2, [np.eye(2, dtype=complex)])
    basis = standard_basis(2, 2)
    m = dilated_kraus(b_factor(povm, x_basis=basis), basis)
    assert m.n_outcomes == 1
    assert check_perfect(m).retrodictable


def test_dilated_kraus_projective_single_term_per_outcome():
    povm = Povm(2, [np.diag([1.0, 0.0 + 0j]), np.diag([0.0 + 0j, 1.0])])
    basis = standard_basis(2, 2)
    m = dilated_kraus(b_factor(povm, x_basis=basis), basis)
    assert [len(g) for g in m.outcomes] == [1, 1]


def test_projective_round_trip_through_dilation(rng):
    povm = random_projective_povm(3, 3, rng)
    basis = standard_basis(3, 3)
    m = dilated_kraus(b_factor(povm, x_basis=basis), basis)
    assert _povm_distance(povm_of(m), povm) < 1e-10


def test_dilated_kraus_needs_a_factor():
    with pytest.raises(InvalidOperatorSetError, match="^need at least one factor$"):
        dilated_kraus([], None)
