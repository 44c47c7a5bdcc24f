"""Dense complex linear-algebra kernel: tolerances, coercion, Hermitian eigendecompositions,
supports and numerical ranks, consumed by every other module.  ``psd_eig`` checks a matrix
(square, Hermitian, positive) at its own spectral scale and ``eigh_descending`` checks nothing;
``dagger``, ``eigh_descending`` and ``numeric_rank`` also take a stack of matrices."""

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
    norm = fro(m)
    if norm > 0.0 and fro(m - dagger(m)) > tol.eq_residual * norm:
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    w, v = eigh_descending(m)
    if w.size:
        if float(w[-1]) < -tol.psd_floor * max(float(w[0]), -float(w[-1])):
            raise NotPsdError(
                f"most negative eigenvalue {w[-1]:.3e} below the admissible floor"
            )
    return w, v


def support_projector(g, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto the span of nonzero-eigenvalue eigenvectors of PSD ``g``.

    The zero matrix has empty support and maps to the zero matrix.
    """
    w, v = psd_eig(g, tol)
    lam_max = float(w[0]) if w.size else 0.0
    if lam_max <= 0.0:
        return np.zeros((w.size, w.size), dtype=complex)
    keep = w > tol.rank_rel * lam_max
    vk = v[:, keep]
    return vk @ dagger(vk)


def numeric_rank(m, tol: Tolerance = DEFAULT_TOL) -> int | np.ndarray:
    """Number of singular values above ``tol.rank_rel`` times the largest (0 for the zero matrix):
    an ``int`` for a matrix, an int array for a stack."""
    m = as_matrix(m) if np.ndim(m) <= 2 else finite(np.asarray(m, dtype=complex))
    s = np.linalg.svd(m, compute_uv=False)
    rank = np.count_nonzero(s > tol.rank_rel * s[..., :1], axis=-1)
    return int(rank) if m.ndim == 2 else rank
