"""Dense complex linear-algebra kernel: tolerances, coercion, Hermitian eigendecompositions, the
one relative cut ``above_cut`` of every rank and support, supports and numerical ranks.  ``psd_eig``
checks a matrix (square, Hermitian, positive) at its own spectral scale, ``eigh_descending``
nothing; ``dagger``, ``eigh_descending``, ``above_cut`` and ``numeric_rank`` also take a stack."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import NotHermitianError, NotPsdError, NotSquareError, ShapeMismatchError


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds used for all equality / rank / positivity decisions.

    eq_residual: relative Frobenius-norm threshold for matrix equations.
    rank_rel:    relative singular-value (or eigenvalue) cutoff for ranks and supports, and the
                 probability below which an outcome counts as zero.
    psd_floor:   most-negative admissible eigenvalue, relative to the spectral scale.
    """

    eq_residual: float = 1e-9
    rank_rel: float = 1e-10
    psd_floor: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("eq_residual", "rank_rel", "psd_floor"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie strictly between 0 and 1, got {value!r}")


DEFAULT_TOL = Tolerance()


def as_2d(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array without checking its entries (see ``finite``)."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ShapeMismatchError(f"expected a matrix, got array of dimension {m.ndim}")
    return m


def finite(x: np.ndarray, what: str = "matrix") -> np.ndarray:
    """``x`` itself; raises ``ValueError`` if an entry is NaN or Inf."""
    if not np.isfinite(x).all():
        raise ValueError(f"{what} entries must be finite")
    return x


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting NaN/Inf entries."""
    return finite(as_2d(a))


def operator_stack(ops) -> np.ndarray:
    """``ops`` as one new ``(n, d_out, d_in)`` complex stack.  No operator, a non-matrix or
    mixed shapes raise ``ShapeMismatchError``; a NaN or Inf entry ``ValueError``."""
    mats = [as_2d(a) for a in ops]
    if not mats:
        raise ShapeMismatchError("need at least one operator")
    other = next((a.shape for a in mats if a.shape != mats[0].shape), None)
    if other is not None:
        raise ShapeMismatchError(f"mixed operator shapes {mats[0].shape} and {other}")
    return finite(np.array(mats))


def as_index(value, what: str) -> int:
    """``value`` as a Python ``int``; a boolean or a non-integral value raises ``TypeError``."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{what} must be an integer, not a boolean")
    return operator.index(value)


def as_seed(seed) -> int:
    """``seed`` as a Python ``int`` (``as_index``); a negative seed raises ``ValueError``."""
    seed = as_index(seed, "seed")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return seed


def as_vector(a) -> np.ndarray:
    """Coerce to a 1-D complex128 array, rejecting NaN/Inf entries."""
    v = np.asarray(a, dtype=complex)
    if v.ndim != 1:
        raise ShapeMismatchError(f"expected a vector, got array of dimension {v.ndim}")
    return finite(v, "vector")


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(m).swapaxes(-1, -2)


def fro(m: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(m))


def eigh_descending(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unchecked ``eigh`` of the Hermitian part(s) of ``m``, descending, ties in ``eigh``'s order."""
    return _descending(*np.linalg.eigh((m + dagger(m)) / 2.0))


def _descending(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """New arrays: ``eigh``'s ``(w, v)``, ``w`` ascending, sorted descending, ties in ``eigh``'s order."""
    order = np.argsort(-w, axis=-1, kind="stable")
    return np.take_along_axis(w, order, -1), np.take_along_axis(v, order[..., None, :], -1)


def psd_eig(m, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """``eigh_descending`` of a square matrix, checked Hermitian to ``tol.eq_residual`` relative
    to its norm and PSD to ``tol.psd_floor`` relative to its own spectral magnitude.  Operators
    bounded by the identity, POVM elements and density matrices, are checked at scale 1 where
    they are held, not here."""
    m = as_matrix(m)
    rows, cols = m.shape
    if rows != cols:
        raise NotSquareError(f"expected a square matrix, got shape {m.shape}")
    if fro(m - dagger(m)) > tol.eq_residual * fro(m):
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    w, v = eigh_descending(m)
    if w.size:
        if float(w[-1]) < -tol.psd_floor * max(float(w[0]), -float(w[-1])):
            raise NotPsdError(
                f"most negative eigenvalue {w[-1]:.3e} below the admissible floor"
            )
    return w, v


def above_cut(x: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Mask of the entries of ``x`` above ``tol.rank_rel`` times the largest of their last axis,
    that largest taken as 0 where it is negative or the axis is empty, so that such an axis keeps
    nothing: the one relative cut of every rank and support."""
    return x > tol.rank_rel * x.max(axis=-1, keepdims=True, initial=0.0)


def support_projector(g, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto the span of the eigenvectors of PSD ``g`` whose eigenvalues
    ``above_cut`` keeps.  The zero matrix has empty support and maps to the zero matrix."""
    w, v = psd_eig(g, tol)
    vk = v[:, above_cut(w, tol)]
    return vk @ dagger(vk)


def numeric_rank(m, tol: Tolerance = DEFAULT_TOL) -> int | np.ndarray:
    """Number of singular values ``above_cut`` keeps (0 for the zero matrix): an ``int`` for a
    matrix, an int array for a stack."""
    m = as_matrix(m) if np.ndim(m) <= 2 else finite(np.asarray(m, dtype=complex))
    rank = np.count_nonzero(above_cut(np.linalg.svd(m, compute_uv=False), tol), axis=-1)
    return int(rank) if m.ndim == 2 else rank
