"""Core linear-algebra kernel: decompositions, supports, ranks, tensor ops."""

from __future__ import annotations

import numpy as np
import pytest

from retroq import (
    DEFAULT_TOL,
    DimensionMismatchError,
    NotHermitianError,
    NotPsdError,
    NotSquareError,
    Tolerance,
    herm_eig,
    numeric_rank,
    partial_trace,
    schmidt,
    schmidt_rank,
    support_projector,
)
from retroq.rand import ginibre, random_psd, random_unitary

PAULI = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def dag(m):
    return np.conj(m).T


# ---------------------------------------------------------------- herm_eig

def test_herm_eig_diagonal():
    w, v = herm_eig(np.diag([2.0, 1.0]))
    assert np.allclose(w, [2.0, 1.0])
    assert np.allclose(np.abs(v), np.eye(2))


def test_herm_eig_pauli_x_spectrum():
    w, v = herm_eig(PAULI[1])
    assert np.allclose(w, [1.0, -1.0])
    # eigenvectors (1, +-1)/sqrt(2) up to phase
    for col, expect in zip(v.T, [np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)]):
        overlap = abs(np.vdot(expect, col))
        assert overlap == pytest.approx(1.0, abs=1e-12)


def test_herm_eig_matches_known_spectrum(rng):
    # oracle: build H from a known unitary and spectrum, then recover both
    spectrum = np.sort(rng.standard_normal(4))[::-1]
    w0 = random_unitary(4, rng)
    h = (w0 * spectrum) @ dag(w0)
    w, v = herm_eig(h)
    assert np.allclose(w, spectrum, atol=1e-12)
    recon = (v * w) @ dag(v)
    assert np.linalg.norm(recon - h) / np.linalg.norm(h) < 1e-12
    assert np.linalg.norm(dag(v) @ v - np.eye(4)) < 1e-12


def test_herm_eig_reconstruction_over_scales(rng):
    for scale in (1e-3, 1.0, 1e3):
        g = ginibre(5, 5, rng)
        h = (g + dag(g)) * scale
        w, v = herm_eig(h)
        resid = np.linalg.norm((v * w) @ dag(v) - h)
        assert resid <= DEFAULT_TOL.eq_residual * max(np.linalg.norm(h), 1.0)


def test_herm_eig_rejects_non_square():
    with pytest.raises(NotSquareError):
        herm_eig(np.ones((2, 3)))


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ------------------------------------------------------- support_projector

def test_support_of_diagonal_projector():
    p = support_projector(np.diag([1.0, 0.0]))
    assert np.allclose(p, np.diag([1.0, 0.0]))


def test_projector_is_its_own_support():
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert np.allclose(support_projector(plus), plus, atol=1e-14)


def test_support_of_zero_matrix_is_zero():
    assert np.allclose(support_projector(np.zeros((3, 3))), np.zeros((3, 3)))


def test_support_projector_properties(rng):
    for _ in range(10):
        g = random_psd(4, rng)
        p = support_projector(g)
        assert np.linalg.norm(p @ p - p) < 1e-10
        assert np.linalg.norm(p - dag(p)) < 1e-12
        assert np.linalg.norm(p @ g - g) < 1e-10 * np.linalg.norm(g)
        assert np.linalg.norm(g @ p - g) < 1e-10 * np.linalg.norm(g)


def test_support_projector_rank_matches_construction(rng):
    # rank-2 PSD on a 4-dim space
    a = ginibre(4, 2, rng)
    g = a @ dag(a)
    p = support_projector(g)
    assert int(round(np.trace(p).real)) == 2


def test_support_projector_rejects_indefinite():
    with pytest.raises(NotPsdError):
        support_projector(np.diag([1.0, -1.0]))


# ------------------------------------------------------------ numeric_rank

def test_rank_identity():
    assert numeric_rank(np.eye(3)) == 3


def test_rank_repeated_columns():
    assert numeric_rank(np.array([[1.0, 1.0], [2.0, 2.0]])) == 1


def test_rank_zero_matrix():
    assert numeric_rank(np.zeros((4, 4))) == 0


def test_rank_of_vectorised_pauli_stack():
    stack = np.stack([p.ravel() for p in PAULI])
    assert numeric_rank(stack) == 4


def test_rank_invariant_under_unitaries(rng):
    for _ in range(10):
        a = ginibre(4, 3, rng)
        r = numeric_rank(a)
        u = random_unitary(4, rng)
        w = random_unitary(3, rng)
        assert numeric_rank(u @ a) == r
        assert numeric_rank(a @ w) == r


# ---------------------------------------------------------------- schmidt

def test_schmidt_product_state():
    e2 = np.eye(2)
    v = np.kron(e2[:, 0], e2[:, 1])
    c, left, right = schmidt(v, 2, 2)
    assert c[0] == pytest.approx(1.0, abs=1e-12)
    assert schmidt_rank(c) == 1
    assert abs(np.vdot(left[:, 0], e2[:, 0])) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(right[:, 0], e2[:, 1])) == pytest.approx(1.0, abs=1e-12)


def test_schmidt_maximally_entangled():
    v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    c, _, _ = schmidt(v, 2, 2)
    assert np.allclose(c, [1 / np.sqrt(2)] * 2, atol=1e-12)
    assert schmidt_rank(c) == 2


def test_schmidt_reconstruction_and_svd_oracle(rng):
    v = ginibre(6, 1, rng).ravel()
    v /= np.linalg.norm(v)
    c, left, right = schmidt(v, 3, 2)
    # coefficients are the singular values of the reshaped vector (oracle)
    s = np.linalg.svd(v.reshape(3, 2), compute_uv=False)
    assert np.max(np.abs(np.sort(c)[::-1] - np.sort(s)[::-1])) < 1e-10
    assert np.sum(c ** 2) == pytest.approx(1.0, abs=1e-12)
    recon = sum(c[j] * np.kron(left[:, j], right[:, j]) for j in range(c.size))
    assert np.linalg.norm(recon - v) < 1e-12
    for basis in (left, right):
        gram = dag(basis) @ basis
        assert np.linalg.norm(gram - np.eye(gram.shape[0])) < 1e-12


def test_schmidt_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        schmidt(np.ones(5) / np.sqrt(5), 2, 2)


# ------------------------------------------------------------ partial_trace

def _direct_partial_trace(rho, dl, dr, keep):
    # summation oracle, independent of the reshape implementation
    if keep == 0:
        out = np.zeros((dl, dl), dtype=complex)
        for i in range(dl):
            for k in range(dl):
                out[i, k] = sum(rho[i * dr + j, k * dr + j] for j in range(dr))
    else:
        out = np.zeros((dr, dr), dtype=complex)
        for j in range(dr):
            for l in range(dr):
                out[j, l] = sum(rho[i * dr + j, i * dr + l] for i in range(dl))
    return out


def test_partial_trace_product_state(rng):
    rho = random_psd(2, rng)
    rho /= np.trace(rho)
    sigma = random_psd(3, rng)
    sigma /= np.trace(sigma)
    joint = np.kron(rho, sigma)
    assert np.allclose(partial_trace(joint, (2, 3), keep=0), rho, atol=1e-12)
    assert np.allclose(partial_trace(joint, (2, 3), keep=1), sigma, atol=1e-12)


def test_partial_trace_maximally_entangled():
    v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    rho = np.outer(v, v.conj())
    assert np.allclose(partial_trace(rho, (2, 2), keep=0), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_against_summation_oracle(rng):
    rho = random_psd(6, rng)
    for keep in (0, 1):
        got = partial_trace(rho, (2, 3), keep)
        want = _direct_partial_trace(rho, 2, 3, keep)
        assert np.linalg.norm(got - want) < 1e-12
    assert np.trace(partial_trace(rho, (2, 3), 0)) == pytest.approx(np.trace(rho), abs=1e-12)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        partial_trace(np.eye(5), (2, 3), keep=0)


# ---------------------------------------------------------------- Tolerance

def test_tolerance_defaults_and_validation():
    assert DEFAULT_TOL.eq_residual == 1e-9
    assert DEFAULT_TOL.rank_rel == 1e-10
    assert DEFAULT_TOL.psd_floor == 1e-9
    with pytest.raises(ValueError):
        Tolerance(eq_residual=0.0)
    with pytest.raises(ValueError):
        Tolerance(rank_rel=1.5)
