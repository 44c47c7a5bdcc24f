"""Linear / local-linear dependence analysis and the bundled operator examples."""

from __future__ import annotations

import numpy as np
import pytest

from retroq import (
    BadMuError,
    ShapeMismatchError,
    check_linear_independence,
    check_lld,
    check_lld_n2_exact,
    check_lli,
    classify_operators,
    fock_shift_example,
)
from retroq.catalog import PAULI, counterexample_3d, rank_one_pair, two_to_four
from retroq.dependence import LLI_SIGMA_FLOOR
from retroq.rand import ginibre, random_nonsingular_pair, random_pure_state

PAULI_OPS = [PAULI[s] for s in ("I", "X", "Y", "Z")]


# ------------------------------------------------- check_linear_independence

def test_pauli_operators_are_independent():
    independent, beta = check_linear_independence(PAULI_OPS)
    assert independent and beta is None


def test_counterexample_set_dependence_certificate():
    ops = counterexample_3d().measurement.kraus
    independent, beta = check_linear_independence(ops)
    assert not independent
    # the fourth operator is the sum of the first two
    want = np.array([1.0, 1.0, 0.0, -1.0]) / np.sqrt(3.0)
    assert abs(np.vdot(want, beta)) == pytest.approx(1.0, abs=1e-10)
    combo = sum(b * a for b, a in zip(beta, ops))
    assert np.linalg.norm(combo) < 1e-9


def test_single_nonzero_operator_is_independent():
    independent, _ = check_linear_independence([PAULI["X"]])
    assert independent


def test_shape_mismatch_is_rejected():
    with pytest.raises(ShapeMismatchError):
        check_linear_independence([np.eye(2), np.eye(3)])


# ---------------------------------------------------------------- check_lld

def test_pauli_set_is_lld_by_pigeonhole():
    verdict, witness = check_lld(PAULI_OPS)
    assert verdict == "yes" and witness is None


def test_rank_one_pair_is_lld_probabilistically():
    verdict, _ = check_lld(rank_one_pair().measurement.kraus)
    assert verdict == "yes_probabilistic"


def test_two_to_four_pair_is_not_lld():
    ops = two_to_four().measurement.kraus
    verdict, psi = check_lld(ops)
    assert verdict == "no"
    images = np.column_stack([a @ psi for a in ops])
    s = np.linalg.svd(images, compute_uv=False)
    assert s[-1] > 1e-8  # witness point has full-rank images


# ------------------------------------------------------- check_lld_n2_exact

def test_n2_scalar_multiple_is_dependent():
    a = ginibre(3, 3, np.random.default_rng(5))
    assert check_lld_n2_exact(a, 2.0 * a) == (True, "linearly_dependent")


def test_n2_shared_rank_one_range():
    ops = rank_one_pair().measurement.kraus
    assert check_lld_n2_exact(ops[0], ops[1]) == (True, "shared_rank_one_range")


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_n2_shared_range_verdict_survives_scaling_either_member(d):
    # rank-one A_k = u_k x_k^dag with ranges eps apart (the sine of the angle between them):
    # each divided by its norm, [A_1 | A_2] has singular values about sqrt(2) and eps / sqrt(2)
    rng = np.random.default_rng(d)
    u, w, x1, x2 = (random_pure_state(d, rng) for _ in range(4))
    w -= np.vdot(u, w) * u
    w /= np.linalg.norm(w)
    first = np.outer(u, np.conj(x1))
    pairs = [(first, np.outer(u + 1e-12 * w, np.conj(x2)), (True, "shared_rank_one_range")),
             (first, np.outer(u + 1e-8 * w, np.conj(x2)), (False, "not_lld"))]
    if d == 2:
        pairs.append((*rank_one_pair().measurement.kraus, (True, "shared_rank_one_range")))
    for a1, a2, want in pairs:
        for s1, s2 in ((1.0, 1.0), (1e-6, 1.0), (1e6, 1.0), (1.0, 1e-6), (1.0, 1e6)):
            assert check_lld_n2_exact(s1 * a1, s2 * a2) == want, (s1, s2)


def test_n2_identity_and_flip_are_not_lld():
    assert check_lld_n2_exact(PAULI["I"], PAULI["X"]) == (False, "not_lld")


def test_n2_agrees_with_sampling_on_random_pairs(rng):
    for i in range(100):
        kind = i % 4
        if kind == 0:
            a1, a2 = ginibre(2, 2, rng), ginibre(2, 2, rng)
        elif kind == 1:
            a1, a2 = ginibre(3, 2, rng), ginibre(3, 2, rng)
        elif kind == 2:
            a1 = ginibre(2, 2, rng)
            z = rng.standard_normal() + 1j * rng.standard_normal()
            a2 = z * a1
        else:
            phi = ginibre(3, 1, rng).ravel()
            a1 = np.outer(phi, ginibre(2, 1, rng).ravel().conj())
            a2 = np.outer(phi, ginibre(2, 1, rng).ravel().conj())
        exact, _ = check_lld_n2_exact(a1, a2)
        sampled, _ = check_lld([a1, a2], seed=i)
        if exact:
            assert sampled in ("yes", "yes_probabilistic")
        else:
            assert sampled == "no"


# ---------------------------------------------------------------- check_lli

def test_two_to_four_is_lli_with_constant_sigma():
    ops = two_to_four().measurement.kraus
    verdict, min_sigma, witness = check_lli(ops)
    assert verdict == "yes_probabilistic" and witness is None
    # both image columns have norm 1/sqrt(2) and stay orthogonal for every input
    assert min_sigma == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-3)


def test_identity_and_flip_have_eigenvector_witness():
    verdict, min_sigma, (psi, alpha) = check_lli([PAULI["I"], PAULI["X"]])
    assert verdict == "no" and min_sigma == 0.0
    lam = -alpha[0] / alpha[1]
    assert abs(abs(lam) - 1.0) < 1e-9  # flip eigenvalues are +-1
    combo = (-lam * PAULI["I"] + PAULI["X"]) @ psi
    assert np.linalg.norm(combo) < 1e-10


def test_pauli_set_is_not_lli():
    verdict, _, witness = check_lli(PAULI_OPS)
    assert verdict == "no"
    psi, alpha = witness
    images = np.column_stack([a @ psi for a in PAULI_OPS])
    assert np.linalg.norm(images @ alpha) < 1e-6


def test_singular_member_gives_kernel_witness():
    singular = np.diag([1.0, 0.0 + 0j])
    verdict, _, (psi, alpha) = check_lli([singular, PAULI["X"]])
    assert verdict == "no"
    assert np.linalg.norm(singular @ psi) < 1e-10
    assert np.argmax(np.abs(alpha)) == 0
    # of several singular members, the first one gives the witness
    other = np.diag([0.0 + 0j, 1.0])
    verdict, _, (psi, alpha) = check_lli([PAULI["X"], other, singular])
    assert verdict == "no" and np.flatnonzero(alpha).tolist() == [1]
    assert np.linalg.norm(other @ psi) < 1e-10


def test_random_nonsingular_square_pairs_are_never_lli(rng):
    for d in (2, 3, 4):
        for _ in range(5):
            a1, a2 = random_nonsingular_pair(d, rng)
            verdict, _, (psi, alpha) = check_lli([a1, a2])
            assert verdict == "no"
            lam = -alpha[0] / alpha[1]
            assert np.linalg.norm((-lam * a1 + a2) @ psi) < 1e-8


def test_single_invertible_operator_is_lli(rng):
    a = PAULI["X"] + 3.0 * np.eye(2)
    verdict, min_sigma, _ = check_lli([a])
    assert verdict == "yes_probabilistic"
    assert min_sigma == pytest.approx(np.linalg.svd(a, compute_uv=False)[-1], abs=1e-6)


def test_more_operators_than_output_dimensions_are_never_lli(rng):
    # four C^2 -> C^3 operators: every 3 x 4 image matrix has a kernel
    ops = [ginibre(3, 2, rng) for _ in range(4)]
    v = classify_operators(ops)
    assert v.lld == "yes" and v.lld_reason == "pigeonhole"
    assert v.lli == "no" and v.min_sigma == 0.0
    psi, alpha = v.not_lli_witness
    assert np.linalg.norm(psi) == pytest.approx(1.0)
    assert np.linalg.norm(alpha) == pytest.approx(1.0)
    assert np.linalg.norm(sum(ak * a for ak, a in zip(alpha, ops)) @ psi) <= 1e-10


# Minima found by the Nelder-Mead search (scipy, 32 starts) that the LLI check used
# before the alternating descent, on seeded random triples: seed, d_in, d_out, min_sigma.
_PINNED_MINIMA = [
    (0, 3, 7, 0.5002744693595318),
    (2, 3, 7, 0.5211178481050298),
    (3, 3, 7, 0.4086120286169181),
    (0, 4, 6, 0.12397309154501168),
    (4, 4, 6, 0.18837667567222985),
    (5, 4, 6, 0.08808408961089202),
]


@pytest.mark.parametrize("seed,d_in,d_out,want", _PINNED_MINIMA)
def test_lli_search_reaches_pinned_minimum(seed, d_in, d_out, want):
    rng = np.random.default_rng(seed)
    ops = [ginibre(d_out, d_in, rng) for _ in range(3)]
    verdict, min_sigma, witness = check_lli(ops)
    assert verdict == "yes_probabilistic" and witness is None
    assert min_sigma == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("seed,n,d_in,d_out,want", [
    (5, 2, 2, 4, "yes_probabilistic"),  # sigma = 0.888 at scale 1
    (7, 3, 2, 3, "no"),  # sigma ~ 1e-16 at scale 1: every such set has a product kernel vector
])
@pytest.mark.parametrize("scale", [1e-7, 1.0, 1e11])  # an absolute floor flips 1e-7 and 1e11
def test_lli_verdict_does_not_depend_on_the_scale_of_the_operators(seed, n, d_in, d_out, want, scale):
    rng = np.random.default_rng(seed)
    ops = [ginibre(d_out, d_in, rng) for _ in range(n)]
    verdict, min_sigma, _ = check_lli([scale * a for a in ops])
    assert verdict == want
    assert min_sigma == pytest.approx(scale * check_lli(ops)[1], rel=1e-6, abs=1e-12 * scale)


def test_lli_search_is_exact_on_two_to_four():
    _, min_sigma, _ = check_lli(two_to_four().measurement.kraus)
    assert min_sigma == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)


def test_lli_search_is_exact_on_orthogonal_output_blocks(rng):
    # A_k writes B_k into the k-th of three orthogonal 3-dimensional output
    # blocks, so the image columns stay orthogonal and the minimum sigma is
    # min_k sigma_min(B_k).
    blocks = [ginibre(3, 2, rng) for _ in range(3)]
    ops = []
    for k, b in enumerate(blocks):
        a = np.zeros((9, 2), dtype=complex)
        a[3 * k:3 * k + 3] = b
        ops.append(a)
    want = min(np.linalg.svd(b, compute_uv=False)[-1] for b in blocks)
    verdict, min_sigma, _ = check_lli(ops)
    assert verdict == "yes_probabilistic"
    assert min_sigma == pytest.approx(want, rel=1e-12)


# --------------------------------------------------------- classify_operators

def test_classify_pauli_set():
    v = classify_operators(PAULI_OPS)
    assert v.linearly_independent
    assert v.lld == "yes" and v.lld_reason == "pigeonhole"
    assert v.lli == "no"


def test_classify_rank_one_pair_uses_exact_criterion():
    v = classify_operators(rank_one_pair().measurement.kraus)
    assert v.linearly_independent
    assert v.lld == "yes" and v.lld_reason == "shared_rank_one_range"
    assert v.lli == "no"


def test_classify_two_to_four_chain():
    v = classify_operators(two_to_four().measurement.kraus)
    # strict implication chain: LLI => not LLD => linearly independent
    assert v.lli == "yes_probabilistic"
    assert v.lld == "no"
    assert v.linearly_independent
    assert v.min_sigma == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-3)


def test_classify_dependent_set_is_exactly_lld():
    v = classify_operators(counterexample_3d().measurement.kraus)
    assert not v.linearly_independent
    assert v.lld == "yes" and v.lld_reason == "linear_dependence"
    assert v.dependence is not None


# --------------------------------------------------------- fock_shift_example

def test_fock_shift_structure():
    a1, a2, valid_dim = fock_shift_example(8, 0.5)
    assert valid_dim == 7
    assert np.allclose(a1, 0.5 * np.eye(8, k=-1))
    assert np.allclose(a2, np.sqrt(0.75) * np.eye(8))


def test_fock_shift_lowest_level_identity():
    # the lowest occupied level survives only through the identity part
    d, mu = 8, 0.5
    a1, a2, _ = fock_shift_example(d, mu)
    psi = np.zeros(d, dtype=complex)
    psi[3] = 1.0
    alpha = (0.0, 1.0)
    combo = alpha[0] * a1 + alpha[1] * a2
    lhs = complex(combo[3, :] @ psi)
    rhs = alpha[1] * np.sqrt(1 - abs(mu) ** 2) * psi[3]
    assert abs(lhs - rhs) < 1e-12


def test_fock_shift_raising_part_survives():
    d, mu = 8, 0.5
    a1, _, _ = fock_shift_example(d, mu)
    psi = np.zeros(d, dtype=complex)
    psi[0] = 1.0
    assert np.linalg.norm(a1 @ psi) == pytest.approx(abs(mu), abs=1e-15)
    assert complex((a1 @ psi)[1]) == pytest.approx(mu * psi[0], abs=1e-15)


def test_fock_shift_completeness_deficit_on_top_level():
    d, mu = 8, 0.5
    a1, a2, _ = fock_shift_example(d, mu)
    total = np.conj(a1).T @ a1 + np.conj(a2).T @ a2
    deficit = np.eye(d) - total
    want = np.zeros((d, d))
    want[d - 1, d - 1] = abs(mu) ** 2
    assert np.linalg.norm(deficit - want) < 1e-12


def test_fock_shift_bad_mu():
    with pytest.raises(BadMuError):
        fock_shift_example(8, 1.0)
    with pytest.raises(BadMuError):
        fock_shift_example(8, 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ill_conditioned_square_pair_is_decided_by_the_search(seed):
    # cond(A_1) = 1e9 is past the eigen-witness's limit of 1e8, so the descent decides, and its
    # witness leaves a residual far below the floor
    mats = np.array([np.diag([1.0, 1e-9]).astype(complex), ginibre(2, 2, seed)])
    verdict, _, (psi, alpha) = check_lli(mats)
    assert verdict == "no"
    residual = np.linalg.norm(np.einsum("k,kij,j->i", alpha, mats, psi))
    assert residual <= LLI_SIGMA_FLOOR * np.linalg.norm(mats, 2, axis=(1, 2)).max()
