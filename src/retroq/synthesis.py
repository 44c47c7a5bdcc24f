"""Construct perfectly retrodictable measurements realising a given POVM.

Any POVM with no more outcomes than output dimensions admits a Kraus
decomposition whose outcome can be retrodicted for every input: diagonalise
each element, route all of its eigenvector weights onto one member ``x_k``
of an orthonormal reference family in the output space.  Distinct outcomes
then write into orthogonal one-dimensional slots.  The eigendecomposition is
the one that checked the POVM, and every kept eigen-term ``sqrt(w) |x_k><v|``
is written straight into one Kraus stack, which the measurement holds as it
is built, with the number of terms of each outcome.

The same spectral data also yields single-operator factors
``B_k = sum_r sqrt(w_kr) |x_r><pi_kr|`` with ``B_k^dag B_k`` equal to the
POVM element, and the Kraus family ``|x_k><x_r| B_k`` of the measure-copy-swap
realisation built from those factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadBasisError, InvalidOperatorSetError, TooManyOutcomesError
from .linalg import DEFAULT_TOL, Tolerance, _descending, as_index, as_vector, dagger, operator_stack
from .measurement import Measurement, Povm


@dataclass
class SynthesisResult:
    """Synthesised measurement plus the orthonormal output-space vectors ``x_basis``
    marking each outcome."""

    measurement: Measurement
    x_basis: list[np.ndarray]


def standard_basis(n: int, dim: int) -> list[np.ndarray]:
    """First ``n`` standard basis vectors of a ``dim``-dimensional space."""
    eye = np.eye(dim, dtype=complex)
    return [eye[:, j].copy() for j in range(n)]


def _checked_basis(x_basis, n_outcomes: int, n: int, dim: int, tol: Tolerance) -> np.ndarray:
    """``n`` reference vectors for ``n_outcomes`` outcomes in dimension ``dim``, as the rows of
    one array, after refusing a ``dim`` that is no integer (``as_index``) or below either count:
    the first ``n`` standard basis vectors by default, else ``x_basis`` once checked to hold
    ``n`` orthonormal vectors."""
    dim = as_index(dim, "d_out")
    if n_outcomes > dim:
        raise TooManyOutcomesError(f"{n_outcomes} outcomes exceed output dimension {dim}")
    if n > dim:
        raise BadBasisError(f"output dimension {dim} cannot hold {n} orthonormal vectors")
    if x_basis is None:
        return np.array(standard_basis(n, dim))
    basis = [as_vector(x) for x in x_basis]
    if len(basis) < n:
        raise BadBasisError(f"need {n} reference vectors, got {len(basis)}")
    for x in basis:
        if x.size != dim:
            raise BadBasisError(f"reference vector of dimension {x.size}; expected {dim}")
    stacked = np.array(basis)
    gram = np.conj(stacked) @ stacked.T  # entry (i, j) is <x_i|x_j>
    if np.linalg.norm(gram - np.eye(len(basis))) > tol.eq_residual * np.sqrt(len(basis)):  # ||I||_F
        raise BadBasisError("reference vectors are not orthonormal")
    return stacked


def synthesize(p: Povm, d_out: int, x_basis=None,
               tol: Tolerance = DEFAULT_TOL) -> SynthesisResult:
    """Measurement in the equivalence class of ``p`` with retrodictable outcomes.

    Requires the number of outcomes not to exceed ``d_out``; this bound is
    also necessary, since more outcomes than output dimensions cannot have
    orthogonal post-measurement supports.  ``p`` was checked when it was made, and the
    ``eigh`` that checked it, ``p.eig``, is read sorted descending.  Eigen-terms below
    ``tol.rank_rel`` of each element's largest eigenvalue are dropped; the measurement
    checks the Kraus stack that is left and holds it as built.
    """
    n = p.n_outcomes
    basis = _checked_basis(x_basis, n, n, d_out, tol)
    w, v = _descending(*p.eig)
    keep = w > tol.rank_rel * w[:, :1]
    ks, rs = np.nonzero(keep)
    vt = v.swapaxes(1, 2)  # row r of vt[k] is eigenvector r of element k
    # sqrt(w_r) |x_k><v_r| for every kept eigen-term of every element at once
    kraus = basis[ks][:, :, None] * np.conj(vt[ks, rs])[:, None, :]
    np.multiply(np.sqrt(w[ks, rs])[:, None, None], kraus, out=kraus)
    measurement = Measurement.__new__(Measurement)._hold(p.d, d_out, kraus, keep.sum(axis=1), tol)
    return SynthesisResult(measurement, list(basis))


def b_factor(p: Povm, d_out: int | None = None, x_basis=None,
             tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Single-operator factors ``B_k`` with ``B_k^dag B_k`` equal to element ``k``.

    Each factor carries the eigenbasis of its element onto the reference
    family, so the family needs ``max(n_outcomes, p.d)`` vectors; by default
    the first that many standard basis vectors of a ``max(n, p.d)``
    dimensional output space are used.  The elements were checked when ``p`` was made, by
    the ``eigh`` read here, ``p.eig``, sorted descending.
    """
    n = p.n_outcomes
    need = max(n, p.d)
    x = _checked_basis(x_basis, n, need, need if d_out is None else d_out, tol)[:p.d].T  # columns x_r
    w, v = _descending(*p.eig)
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
    b = operator_stack(factors)
    n, d_out, d_in = b.shape
    x = _checked_basis(x_basis, n, max(n, d_in), d_out, tol)  # rows x_j
    rows = np.conj(x[:d_in]) @ b  # rows[k, r] = x_r^dag B_k
    weights = np.linalg.norm(rows, axis=2) ** 2  # ||x_k x_r^dag B_k||_F^2, x_k being a unit vector
    keep = weights > tol.rank_rel * weights.max(axis=1, keepdims=True)
    kraus = x[:n, None, :, None] * rows[:, :, None, :]  # |x_k><x_r| B_k for every k and r
    return Measurement.__new__(Measurement)._hold(d_in, d_out, kraus[keep], keep.sum(axis=1), tol)
