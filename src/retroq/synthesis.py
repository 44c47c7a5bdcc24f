"""Construct perfectly retrodictable measurements realising a given POVM.

Any POVM with no more outcomes than output dimensions admits a Kraus
decomposition whose outcome can be retrodicted for every input: diagonalise
each element, route all of its eigenvector weights onto one member ``x_k``
of an orthonormal reference family in the output space.  Distinct outcomes
then write into orthogonal one-dimensional slots.  All elements are
diagonalised in one batched decomposition, and every kept eigen-term
``sqrt(w) |x_k><v|`` is written straight into one Kraus stack, which the
measurement takes as it is, with the number of terms of each outcome.

The same spectral data also yields single-operator factors
``B_k = sum_r sqrt(w_kr) |x_r><pi_kr|`` with ``B_k^dag B_k`` equal to the
POVM element, and the Kraus family ``|x_k><x_r| B_k`` of the measure-copy-swap
realisation built from those factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (BadBasisError, InvalidOperatorSetError, NotHermitianError, NotPsdError,
                     TooManyOutcomesError)
from .linalg import DEFAULT_TOL, Tolerance, as_matrix, as_vector, dagger, eigh_descending, finite
from .measurement import Measurement, Povm


@dataclass
class SynthesisResult:
    """Synthesised measurement plus the data it was assembled from.

    ``x_basis`` holds the orthonormal output-space vectors marking each
    outcome; ``spectral_data[k]`` lists the kept ``(weight, eigenvector)``
    pairs of POVM element ``k``.
    """

    measurement: Measurement
    x_basis: list[np.ndarray]
    spectral_data: list[list[tuple[float, np.ndarray]]]


def standard_basis(n: int, dim: int) -> list[np.ndarray]:
    """First ``n`` standard basis vectors of a ``dim``-dimensional space."""
    eye = np.eye(dim, dtype=complex)
    return [eye[:, j].copy() for j in range(n)]


def _checked_basis(x_basis, n: int, dim: int, tol: Tolerance) -> list[np.ndarray]:
    if x_basis is None:
        return standard_basis(n, dim)
    basis = [as_vector(x) for x in x_basis]
    if len(basis) < n:
        raise BadBasisError(f"need {n} reference vectors, got {len(basis)}")
    for x in basis:
        if x.size != dim:
            raise BadBasisError(f"reference vector of dimension {x.size}; expected {dim}")
    gram = np.array([[np.vdot(xi, xj) for xj in basis] for xi in basis])
    if np.linalg.norm(gram - np.eye(len(basis))) > tol.eq_residual * len(basis):
        raise BadBasisError("reference vectors are not orthonormal")
    return basis


def synthesize(p: Povm, d_out: int, x_basis=None,
               tol: Tolerance = DEFAULT_TOL) -> SynthesisResult:
    """Measurement in the equivalence class of ``p`` with retrodictable outcomes.

    Requires the number of outcomes not to exceed ``d_out``; this bound is
    also necessary, since more outcomes than output dimensions cannot have
    orthogonal post-measurement supports.  Eigen-terms below
    ``tol.rank_rel`` of each element's largest eigenvalue are dropped.
    """
    n = p.n_outcomes
    if n > d_out:
        raise TooManyOutcomesError(f"{n} outcomes exceed output dimension {d_out}")
    basis = _checked_basis(x_basis, n, d_out, tol)
    stack = finite(np.stack(p.elements))
    w, v = eigh_descending(stack)
    # psd_eig's checks, in its order, for the first element failing any of them
    skew = np.linalg.norm(stack - dagger(stack), axis=(1, 2))
    failed = [skew > tol.eq_residual * np.linalg.norm(stack, axis=(1, 2)),
              w[:, -1] < -tol.psd_floor, w[:, 0] <= 0.0]
    bad = np.flatnonzero(np.any(failed, axis=0))
    if bad.size:
        k = bad[0]
        if failed[0][k]:
            raise NotHermitianError("matrix is not Hermitian within tolerance")
        if failed[1][k]:
            raise NotPsdError(f"most negative eigenvalue {w[k, -1]:.3e} below the admissible floor")
        raise InvalidOperatorSetError(f"POVM element {k} is numerically zero")
    keep = w > tol.rank_rel * w[:, :1]
    ks, rs = np.nonzero(keep)
    # sqrt(w_r) |x_k><v_r| for every kept eigen-term of every element at once
    kraus = np.sqrt(w[ks, rs])[:, None, None] * (np.array(basis[:n])[ks][:, :, None]
                                                 * np.conj(v[ks, :, rs])[:, None, :])
    measurement = Measurement.from_stack(p.d, d_out, kraus, keep.sum(axis=1), tol)
    spectral = [[(float(w[k, r]), v[k, :, r]) for r in np.flatnonzero(keep[k])] for k in range(n)]
    return SynthesisResult(measurement, basis, spectral)


def b_factor(p: Povm, d_out: int | None = None, x_basis=None,
             tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Single-operator factors ``B_k`` with ``B_k^dag B_k`` equal to element ``k``.

    Each factor carries the eigenbasis of its element onto the reference
    family, so the family needs ``max(n_outcomes, p.d)`` vectors; by default
    the first that many standard basis vectors of a ``max(n, p.d)``
    dimensional output space are used.  The elements were checked when ``p`` was made,
    so they are diagonalised in one batched decomposition without further checks.
    """
    n = p.n_outcomes
    need = max(n, p.d)
    if d_out is None:
        d_out = need
    if n > d_out:
        raise TooManyOutcomesError(f"{n} outcomes exceed output dimension {d_out}")
    if d_out < need:
        raise BadBasisError(f"output dimension {d_out} cannot hold {need} orthonormal vectors")
    x = np.array(_checked_basis(x_basis, need, d_out, tol)[:p.d]).T  # columns x_r
    w, v = eigh_descending(np.array(p.elements))
    return list(x @ (np.sqrt(np.maximum(w, 0.0))[:, :, None] * dagger(v)))  # X sqrt(w) V^dag


def dilated_kraus(factors: list[np.ndarray], x_basis,
                  tol: Tolerance = DEFAULT_TOL) -> Measurement:
    """Kraus operators ``|x_k><x_r| B_k`` induced by the two-ancilla realisation.

    ``factors`` must be POVM factors in the sense of :func:`b_factor`, with
    ranges inside the span of the reference family.  Numerically vanishing
    operators are dropped from each group.
    """
    if not len(factors):
        raise InvalidOperatorSetError("need at least one factor")
    b = np.array([as_matrix(f) for f in factors])
    n, d_out, d_in = b.shape
    x = np.array(_checked_basis(x_basis, max(n, d_in), d_out, tol))  # rows x_j
    rows = np.conj(x[:d_in]) @ b  # rows[k, r] = x_r^dag B_k
    weights = np.linalg.norm(rows, axis=2) ** 2  # ||x_k x_r^dag B_k||_F^2, x_k being a unit vector
    keep = weights > tol.rank_rel * weights.max(axis=1, keepdims=True)
    kraus = x[:n, None, :, None] * rows[:, :, None, :]  # |x_k><x_r| B_k for every k and r
    return Measurement.from_stack(d_in, d_out, kraus[keep], keep.sum(axis=1), tol)
