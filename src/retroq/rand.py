"""Seeded random generators for states, unitaries, POVMs and measurements."""

from __future__ import annotations

import numpy as np

from .dependence import check_linear_independence
from .linalg import DEFAULT_TOL, Tolerance, above_cut, dagger, numeric_rank, psd_eig
from .measurement import Measurement, Povm

MAX_COND = 1e4


def ginibre(d_out: int, d_in: int, rng) -> np.ndarray:
    """Complex Gaussian matrix."""
    rng = np.random.default_rng(rng)
    return (rng.standard_normal((d_out, d_in)) + 1j * rng.standard_normal((d_out, d_in))) / np.sqrt(2.0)


def random_unitary(d: int, rng) -> np.ndarray:
    """Haar-distributed unitary (QR of a Ginibre matrix with phase fixing)."""
    q, r = np.linalg.qr(ginibre(d, d, rng))
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_pure_state(d: int, rng) -> np.ndarray:
    v = ginibre(d, 1, rng).ravel()
    return v / np.linalg.norm(v)


def random_psd(d: int, rng) -> np.ndarray:
    g = ginibre(d, d, rng)
    return g @ dagger(g)


def psd_inv_sqrt(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Inverse square root of a positive definite matrix: ``above_cut``, the cut at which
    ``numeric_rank`` counts a rank, must keep every eigenvalue."""
    w, v = psd_eig(m, tol)
    if not above_cut(w, tol).all():
        raise ValueError("matrix must be positive definite")
    return (v * (1.0 / np.sqrt(w))) @ dagger(v)


def random_povm(d: int, n: int, rng, tol: Tolerance = DEFAULT_TOL) -> Povm:
    """POVM from n random PSD operators conjugated by the inverse root of their sum."""
    rng = np.random.default_rng(rng)
    qs = [random_psd(d, rng) for _ in range(n)]
    root = psd_inv_sqrt(sum(qs), tol)
    return Povm(d, [root @ q @ root for q in qs], tol)


def random_projective_povm(d: int, n: int, rng, tol: Tolerance = DEFAULT_TOL) -> Povm:
    """Complete orthogonal projectors from a random partition of a Haar basis."""
    if not 1 <= n <= d:
        raise ValueError(f"need 1 <= n <= {d}, got {n}")
    rng = np.random.default_rng(rng)
    u = random_unitary(d, rng)
    # every part nonempty: seed one column each, assign the rest at random
    owner = np.concatenate([np.arange(n), rng.integers(0, n, d - n)])
    rng.shuffle(owner)
    return Povm(d, [(cols := u[:, owner == k]) @ dagger(cols) for k in range(n)], tol)


def random_fine_grained(d_in: int, d_out: int, n: int, rng,
                        tol: Tolerance = DEFAULT_TOL) -> Measurement:
    """Generic fine-grained measurement (Kraus operators normalised to completeness)."""
    rng = np.random.default_rng(rng)
    gs = np.array([ginibre(d_out, d_in, rng) for _ in range(n)])
    root = psd_inv_sqrt(sum(dagger(g) @ g for g in gs), tol)
    return Measurement.__new__(Measurement)._hold(d_in, d_out, gs @ root, [1] * n, tol)


def random_nonsingular_independent(d: int, n: int, rng,
                                   tol: Tolerance = DEFAULT_TOL) -> Measurement:
    """Fine-grained measurement with non-singular, linearly independent Kraus operators."""
    if n > d * d:
        raise ValueError(f"at most {d * d} independent operators exist on dimension {d}")
    rng = np.random.default_rng(rng)
    while True:
        m = random_fine_grained(d, d, n, rng, tol)
        if np.all(numeric_rank(m.kraus, tol) == d) and check_linear_independence(m.kraus, tol)[0]:
            return m


def random_nonsingular_dependent(d: int, n: int, rng,
                                 tol: Tolerance = DEFAULT_TOL) -> Measurement:
    """Fine-grained measurement with non-singular but linearly dependent Kraus operators."""
    if n < 2:
        raise ValueError("need at least two operators for a dependence")
    rng = np.random.default_rng(rng)
    while True:
        gs = [ginibre(d, d, rng) for _ in range(n - 1)]
        coeffs = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
        gs = np.array([*gs, sum(c * g for c, g in zip(coeffs, gs))])
        if np.any(numeric_rank(gs, tol) < d):
            continue
        root = psd_inv_sqrt(sum(dagger(g) @ g for g in gs), tol)
        ops = gs @ root
        if np.all(numeric_rank(ops, tol) == d):
            return Measurement.__new__(Measurement)._hold(d, d, ops, [1] * n, tol)


def random_nonsingular_pair(d: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Two square operators of condition number below ``MAX_COND`` (image-independence witnesses)."""
    rng = np.random.default_rng(rng)
    while True:
        a1, a2 = ginibre(d, d, rng), ginibre(d, d, rng)
        if np.linalg.cond(a1) < MAX_COND and np.linalg.cond(a2) < MAX_COND:
            return a1, a2
