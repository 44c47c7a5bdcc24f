"""Core linear-algebra kernel: decompositions, supports, ranks, tolerances."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from retroq import (
    DEFAULT_TOL,
    NotHermitianError,
    NotPsdError,
    NotSquareError,
    Tolerance,
    numeric_rank,
    support_projector,
)
from retroq.linalg import as_matrix, as_vector, dagger, eigh_descending, operator_stack, psd_eig
from retroq.measurement import Measurement, Retrodictor
from retroq.rand import ginibre, random_psd, random_unitary

PAULI = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def dag(m):
    return np.conj(m).T


# ------------------------------------------------ psd_eig and eigh_descending

def test_herm_eig_diagonal():
    w, v = psd_eig(np.diag([2.0, 1.0]))
    assert w.tolist() == [2.0, 1.0]  # descending
    assert np.allclose(np.abs(v), np.eye(2))


def test_herm_eig_pauli_x_spectrum():
    w, v = eigh_descending(PAULI[1])
    assert np.allclose(w, [1.0, -1.0])
    # eigenvectors (1, +-1)/sqrt(2) up to phase
    for col, expect in zip(v.T, [np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)]):
        overlap = abs(np.vdot(expect, col))
        assert overlap == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(NotPsdError):
        psd_eig(PAULI[1])


def test_herm_eig_matches_known_spectrum(rng):
    # oracle: build H from a known unitary and spectrum, then recover both
    spectrum = np.sort(rng.standard_normal(4))[::-1]
    w0 = random_unitary(4, rng)
    h = (w0 * spectrum) @ dag(w0)
    w, v = eigh_descending(h)
    assert np.allclose(w, spectrum, atol=1e-12)
    recon = (v * w) @ dag(v)
    assert np.linalg.norm(recon - h) / np.linalg.norm(h) < 1e-12
    assert np.linalg.norm(dag(v) @ v - np.eye(4)) < 1e-12


def test_herm_eig_reconstruction_over_scales(rng):
    for scale in (1e-3, 1.0, 1e3):
        g = ginibre(5, 5, rng)
        hermitian, psd = (g + dag(g)) * scale, random_psd(5, rng) * scale
        for decompose, h in ((eigh_descending, hermitian), (psd_eig, psd)):
            w, v = decompose(h)
            assert np.all(np.diff(w) <= 0.0)
            resid = np.linalg.norm((v * w) @ dag(v) - h)
            assert resid <= DEFAULT_TOL.eq_residual * max(np.linalg.norm(h), 1.0)


def test_herm_eig_rejects_non_square():
    with pytest.raises(NotSquareError):
        psd_eig(np.ones((2, 3)))


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        psd_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


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
    rank = numeric_rank(np.eye(3))
    assert rank == 3 and type(rank) is int


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


# ------------------------------------------------------------- stack forms

def test_dagger_of_a_stack_is_the_adjoint_of_each_matrix(rng):
    stack = np.stack([ginibre(3, 5, rng) for _ in range(4)])
    got = dagger(stack)
    assert got.shape == (4, 5, 3)
    for a, g in zip(stack, got):
        assert g.tobytes() == np.ascontiguousarray(np.conj(a).T).tobytes()


def test_eigh_descending_of_a_stack_matches_herm_eig_of_each_matrix(rng):
    u = random_unitary(4, rng)
    mats = [random_psd(4, rng), (u * [2.0, 2.0, 1.0, 1.0]) @ dag(u),  # repeated eigenvalues
            np.eye(4), np.diag([0.0, 1.0, 0.0, 1.0]), np.zeros((4, 4))]
    for _ in range(3):
        g = ginibre(4, 4, rng)
        mats.append(g + dag(g))
    w, v = eigh_descending(np.stack(mats))
    for k, m in enumerate(mats):
        wk, vk = eigh_descending(np.asarray(m, dtype=complex))  # a real matrix takes eigh's real path
        assert w[k].tobytes() == wk.tobytes() and v[k].tobytes() == np.ascontiguousarray(vk).tobytes()
        # descending, and exact ties (the identity, the diagonal projector) in eigh's order
        w0, v0 = np.linalg.eigh((m + dag(m)) / 2.0)
        order = np.argsort(-w0, kind="stable")
        assert np.array_equal(w[k], w0[order]) and np.array_equal(v[k], v0[:, order])


def test_numeric_rank_of_a_stack_matches_each_matrix(rng):
    u, v = random_unitary(4, rng), random_unitary(3, rng)
    near = (u[:, :3] * [1.0, 1e-2, 1e-5]) @ v  # rank 3 at the default cutoff, 2 at 1e-3
    mats = [ginibre(4, 3, rng), ginibre(4, 2, rng) @ ginibre(2, 3, rng), np.zeros((4, 3)), near,
            1e-12 * ginibre(4, 3, rng)]  # each cut is relative to its own matrix
    for tol in (DEFAULT_TOL, Tolerance(rank_rel=1e-3)):
        ranks = numeric_rank(np.stack(mats), tol)
        assert ranks.tolist() == [numeric_rank(m, tol) for m in mats]
        assert numeric_rank(np.zeros((0, 3)), tol) == 0
        assert numeric_rank(np.zeros((2, 0, 3)), tol).tolist() == [0, 0]
    assert numeric_rank(np.stack(mats)).tolist() == [3, 2, 0, 3, 3]
    assert numeric_rank(np.stack(mats), Tolerance(rank_rel=1e-3)).tolist() == [3, 2, 0, 2, 3]


def test_numeric_rank_refuses_a_stack_with_a_nan():
    stack = np.zeros((3, 2, 2))
    stack[2, 1, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        numeric_rank(stack)


# ---------------------------------------------------------------- finite entries

NON_FINITE = {"nan": complex(np.nan, 0.0), "i nan": complex(0.0, np.nan), "inf": complex(np.inf, 0.0),
              "-inf": complex(-np.inf, 0.0), "i inf": complex(0.0, np.inf), "-i inf": complex(0.0, -np.inf)}


# each intake: the shape it takes and its message for a NaN or Inf entry
INTAKES = {
    "as_matrix": (as_matrix, (2, 2), "matrix entries must be finite"),
    "as_vector": (as_vector, (4,), "vector entries must be finite"),
    "operator_stack": (lambda a: operator_stack(list(a)), (2, 2, 2), "matrix entries must be finite"),
    "from_stack": (lambda a: Measurement.from_stack(2, 2, a, [1, 1]), (2, 2, 2), "matrix entries must be finite"),
    "from_factor": (Retrodictor.from_factor, (2, 2, 2), "factor entries must be finite"),
}


def valid(shape, zero: complex = 0.0) -> np.ndarray:
    """Entries each intake accepts: the stack ``diag(1, 0), diag(0, 1)`` is a measurement and a
    retrodictor factor, and its first matrix and first four entries are a matrix and a vector."""
    stack = np.full((2, 2, 2), zero, dtype=complex)
    stack[0, 0, 0] = stack[1, 1, 1] = 1.0
    return stack.reshape(-1)[:int(np.prod(shape))].reshape(shape)


@pytest.mark.parametrize("intake", INTAKES)
@pytest.mark.parametrize("bad", NON_FINITE.values(), ids=NON_FINITE.keys())
@pytest.mark.parametrize("at", ["first", "middle", "last"])
def test_every_intake_refuses_a_non_finite_real_or_imaginary_part(intake, bad, at):
    take, shape, message = INTAKES[intake]
    entries = valid(shape).copy()
    flat = entries.reshape(-1)
    flat[{"first": 0, "middle": flat.size // 2, "last": flat.size - 1}[at]] = bad
    with pytest.raises(ValueError, match=f"^{message}$"):
        take(entries)


@pytest.mark.parametrize("intake", INTAKES)
def test_negative_zeros_are_finite(intake):
    take, shape, _ = INTAKES[intake]
    take(valid(shape, zero=-0.0 - 0.0j))


def test_the_largest_magnitudes_are_finite():
    huge = np.full((2, 2), 1e308 - 1e308j)
    assert as_matrix(huge)[1, 1] == 1e308 - 1e308j and as_vector(huge[0])[0] == 1e308 - 1e308j
    assert operator_stack([huge, -huge])[1, 0, 0] == -1e308 + 1e308j


# ---------------------------------------------------------------- Tolerance

def test_tolerance_defaults_and_validation():
    assert DEFAULT_TOL.eq_residual == 1e-9
    assert DEFAULT_TOL.rank_rel == 1e-10
    assert DEFAULT_TOL.psd_floor == 1e-9
    with pytest.raises(ValueError):
        Tolerance(eq_residual=0.0)
    with pytest.raises(ValueError):
        Tolerance(rank_rel=1.5)


def test_every_traced_name_exists_in_its_layer():
    # the benchmark's tracer wraps these by name; read its two tables without importing it
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py").read_text())
    tables = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id in ("FUNCTIONS", "CLASSES")}
    assert sorted(tables) == ["CLASSES", "FUNCTIONS"]
    traced = [(layer, name) for table in tables.values() for layer, names in table.items()
              for name in names]
    assert traced
    assert [(layer, name) for layer, name in traced
            if not hasattr(importlib.import_module(f"retroq.{layer}"), name)] == []


def test_public_surface_resolves_without_the_removed_helpers():
    import retroq
    import retroq.linalg

    assert [name for name in retroq.__all__ if not hasattr(retroq, name)] == []
    for gone in ("partial_trace", "schmidt", "schmidt_rank", "herm_eig"):
        assert not hasattr(retroq, gone) and not hasattr(retroq.linalg, gone)
    assert not hasattr(retroq.Measurement, "all_kraus")
    assert not hasattr(retroq.Retrodictor, "conclusive_elements")
    assert not hasattr(retroq, "UnambiguousRetrodictor") and not hasattr(retroq.ProjectiveRetrodictor, "d_out")
    assert not hasattr(retroq.QuantumState, "is_bipartite")
