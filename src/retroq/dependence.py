"""Linear, local-linear dependence and independence analysis for operator sets.

A set of operators is *locally linearly dependent* (LLD) when the image
vectors ``A_1 psi, ..., A_N psi`` are linearly dependent for every ``psi``,
and *locally linearly independent* (LLI) when they are independent for
every nonzero ``psi``.  The two notions are not complementary, and both
differ from plain linear (in)dependence of the operators themselves.

Plain dependence and several structural situations admit exact decisions:
more operators than output dimensions force LLD by pigeonhole; for two
operators LLD holds exactly when they are linearly dependent or share a
common one-dimensional range; a singular member or an output space no
larger than the input space rules out LLI, with an explicit witness built
from an eigenvector of ``A_1^{-1} A_2``.  The remaining cases are decided
by seeded sampling (a single full-rank image point refutes LLD, since the
rank-deficiency locus is the common zero set of polynomials) and by
minimising the smallest image singular value, the minimum of
``||(sum_k alpha_k A_k) psi||`` over unit ``alpha``, on the unit sphere by
alternating descent: one SVD solves for ``alpha``, the next for ``psi``.
Every entry point that takes a seed checks it with ``linalg.as_seed``
before any work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadMuError
from .linalg import DEFAULT_TOL, Tolerance, as_matrix, as_seed, numeric_rank, operator_stack

# Smallest image singular value regarded as genuinely positive, relative to the largest
# operator norm, so that scaling a set keeps its verdict; values below are indistinguishable
# from optimisation noise at double precision.
LLI_SIGMA_FLOOR = 1e-6

# Points sampled by the LLD probe and random starts of the LLI descent.
_N_SAMPLES = 64
_N_STARTS = 32

# A descent start ends when a sweep lowers sigma by less than _SWEEP_RTOL, relative.
_SWEEP_RTOL = 1e-12
_MAX_SWEEPS = 200

_ILL_CONDITIONED = 1e8


@dataclass
class DependenceVerdict:
    """Combined classification of an operator set.

    ``lld`` is one of ``"yes"``, ``"no"``, ``"yes_probabilistic"``;
    ``lli`` is ``"yes_probabilistic"`` or ``"no"``.  Probabilistic labels
    mark sampling-based conclusions; exact structural criteria are reported
    without the suffix.  Certificates: ``dependence`` is a unit coefficient
    vector combining the operators to zero; ``not_lld_witness`` is a vector
    with full-rank images; ``not_lli_witness`` is a pair ``(psi, alpha)``
    of unit vectors with ``(sum_k alpha_k A_k) psi ~ 0``.
    """

    linearly_independent: bool
    lld: str
    lli: str
    min_sigma: float
    dependence: np.ndarray | None = None
    not_lld_witness: np.ndarray | None = None
    not_lli_witness: tuple[np.ndarray, np.ndarray] | None = None
    lld_reason: str | None = None


def _image_matrix(ops: np.ndarray, psi: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray((ops @ psi).T)  # C order: _eigen_witness's residuals depend on it


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def check_linear_independence(ops, tol: Tolerance = DEFAULT_TOL
                              ) -> tuple[bool, np.ndarray | None]:
    """Linear independence of the operators as vectors.

    Returns ``(True, None)`` when independent, otherwise ``(False, beta)``
    with a unit coefficient vector satisfying ``sum_k beta_k ops[k] ~ 0``.
    """
    mats = operator_stack(ops)
    stack = mats.reshape(len(mats), -1)
    if numeric_rank(stack, tol) == len(mats):
        return True, None
    return False, _kernel_vector(stack.T)  # beta spans the null space of the transposed stack


def check_lld(ops, tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> tuple[str, np.ndarray | None]:
    """Local linear dependence by pigeonhole plus randomised rank probing.

    Returns ``("yes", None)`` exactly when there are more operators than
    output dimensions; ``("no", psi)`` with a witness whose images have full
    rank; otherwise ``("yes_probabilistic", None)`` after all ``_N_SAMPLES``
    sampled points came out rank-deficient.
    """
    seed = as_seed(seed)
    mats = operator_stack(ops)
    n, d_out, d_in = mats.shape
    if n > d_out:
        return "yes", None
    rng = np.random.default_rng(seed)
    for _ in range(_N_SAMPLES):
        psi = _random_unit(rng, d_in)
        if numeric_rank(_image_matrix(mats, psi), tol) == n:
            return "no", psi
    return "yes_probabilistic", None


def check_lld_n2_exact(a1, a2, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, str]:
    """Exact two-operator local linear dependence criterion.

    Two operators are LLD precisely when they are linearly dependent or
    both have rank one with the same range, that is when ``[A_1 | A_2]`` has
    rank one; each is divided by its Frobenius norm first, so that scaling
    either keeps the verdict.  The reason string is one of
    ``"linearly_dependent"``, ``"shared_rank_one_range"``, ``"not_lld"``.
    """
    a1, a2 = as_matrix(a1), as_matrix(a2)
    independent, _ = check_linear_independence([a1, a2], tol)
    if not independent:
        return True, "linearly_dependent"
    # independent, so neither is zero
    if numeric_rank(np.hstack([a1 / np.linalg.norm(a1), a2 / np.linalg.norm(a2)]), tol) == 1:
        return True, "shared_rank_one_range"
    return False, "not_lld"


def _kernel_vector(a: np.ndarray) -> np.ndarray:
    _, _, vh = np.linalg.svd(a)
    return np.conj(vh[-1, :])


def _eigen_witness(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Witness from an eigenvector of ``A_1^{-1} A_2`` (square, non-singular case)."""
    a1, a2 = mats[0], mats[1]
    if np.linalg.cond(a1) >= _ILL_CONDITIONED:
        return None
    pencil = np.linalg.solve(a1, a2)
    lams, vecs = np.linalg.eig(pencil)
    best: tuple[np.ndarray, np.ndarray] | None = None
    best_res = np.inf
    for lam, vec in zip(lams, vecs.T):
        psi = vec / np.linalg.norm(vec)
        alpha = np.zeros(len(mats), dtype=complex)
        alpha[:2] = -lam, 1.0
        alpha /= np.linalg.norm(alpha)
        res = np.linalg.norm(_image_matrix(mats, psi) @ alpha)
        if res < best_res:
            best_res = res
            best = (psi, alpha)
    return best


def _minimise_sigma(mats: np.ndarray, seed: int) -> tuple[float, np.ndarray]:
    """Multi-start alternating descent for the smallest image singular value on the sphere."""
    d_in = mats.shape[2]
    rng = np.random.default_rng(seed)
    best_val, best_psi = np.inf, None
    for _ in range(_N_STARTS):
        psi = _random_unit(rng, d_in)
        sigma = np.inf
        for _ in range(_MAX_SWEEPS):
            alpha = _kernel_vector(_image_matrix(mats, psi))
            _, s, vh = np.linalg.svd(np.tensordot(alpha, mats, axes=1), full_matrices=False)
            prev, sigma, psi = sigma, float(s[-1]), np.conj(vh[-1, :])
            # written so that the first sweep (prev = inf) never stops the start
            if sigma >= (1.0 - _SWEEP_RTOL) * prev:
                break
        if sigma < best_val:
            best_val, best_psi = sigma, psi
    s = np.linalg.svd(_image_matrix(mats, best_psi), compute_uv=False)
    return float(s[-1]), best_psi


def check_lli(ops, tol: Tolerance = DEFAULT_TOL, seed: int = 0
              ) -> tuple[str, float, tuple[np.ndarray, np.ndarray] | None]:
    """Local linear independence with exact impossibility shortcuts.

    A singular member yields a kernel witness outright.  Two or more
    operators on an output space no larger than the input space cannot be
    LLI: an eigenvector of ``A_1^{-1} A_2`` with eigenvalue ``lam`` gives
    ``(-lam A_1 + A_2) psi = 0``.  More operators than output dimensions
    leave every image matrix with a kernel (pigeonhole); the witness pairs
    the first basis vector with a kernel vector of its image matrix.
    Otherwise alternating descent from ``_N_STARTS`` random starts minimises
    the smallest image singular value on the unit sphere: ``alpha`` becomes
    the smallest right singular vector of the image matrix, then ``psi`` that
    of ``sum_k alpha_k A_k``, so no sweep raises it.  A minimum above
    ``LLI_SIGMA_FLOOR`` times the largest operator norm ``max_k ||A_k||_2`` is reported
    as ``"yes_probabilistic"``; ``min_sigma`` itself is not rescaled.

    Returns ``(verdict, min_sigma, witness)`` with witness ``(psi, alpha)``
    normalised to unit length when the verdict is ``"no"``.
    """
    seed = as_seed(seed)
    mats = operator_stack(ops)
    n, d_out, d_in = mats.shape
    singular = np.flatnonzero(numeric_rank(mats, tol) < d_in)
    if singular.size:
        alpha = np.zeros(n, dtype=complex)
        alpha[singular[0]] = 1.0
        return "no", 0.0, (_kernel_vector(mats[singular[0]]), alpha)
    if n >= 2 and d_out <= d_in:
        witness = _eigen_witness(mats)
        if witness is not None:
            return "no", 0.0, witness
        # ill-conditioned leading operator: fall through to the search
    if n > d_out:
        psi = np.zeros(d_in, dtype=complex)
        psi[0] = 1.0
        return "no", 0.0, (psi, _kernel_vector(_image_matrix(mats, psi)))
    min_sigma, psi = _minimise_sigma(mats, seed)
    if min_sigma > LLI_SIGMA_FLOOR * np.linalg.norm(mats, 2, axis=(1, 2)).max():
        return "yes_probabilistic", min_sigma, None
    alpha = _kernel_vector(_image_matrix(mats, psi))
    return "no", min_sigma, (psi, alpha)


def classify_operators(ops, tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> DependenceVerdict:
    """Full dependence classification with exact criteria overriding sampling."""
    seed = as_seed(seed)
    mats = operator_stack(ops)
    n, d_out, _ = mats.shape
    independent, beta = check_linear_independence(mats, tol)

    not_lld_witness = None
    if not independent:
        lld, lld_reason = "yes", "linear_dependence"
    elif n > d_out:
        lld, lld_reason = "yes", "pigeonhole"
    elif n == 2:
        is_lld, lld_reason = check_lld_n2_exact(mats[0], mats[1], tol)
        lld = "yes" if is_lld else "no"
        if not is_lld:
            lld_reason = "two_operator_criterion"
            _, not_lld_witness = check_lld(mats, tol, seed)
    else:
        lld, not_lld_witness = check_lld(mats, tol, seed)
        lld_reason = "sampling"

    lli, min_sigma, lli_witness = check_lli(mats, tol, seed)
    return DependenceVerdict(
        linearly_independent=independent,
        lld=lld,
        lli=lli,
        min_sigma=min_sigma,
        dependence=beta,
        not_lld_witness=not_lld_witness,
        not_lli_witness=lli_witness,
        lld_reason=lld_reason,
    )


def fock_shift_example(d: int, mu: complex) -> tuple[np.ndarray, np.ndarray, int]:
    """Truncated bosonic shift pair: a weighted raising operator and a scaled identity.

    ``A1 = mu * sum_n |n+1><n|`` (levels 0..d-2) and
    ``A2 = sqrt(1 - |mu|^2) * I`` on a ``d``-level truncation.  On states
    supported on the lowest ``d - 1`` levels the pair acts exactly as its
    untruncated counterpart, for which the images are independent for every
    state: the lowest occupied level survives only through ``A2``.  Returns
    ``(A1, A2, d - 1)`` where the last entry is the dimension of that
    validity subspace.  The truncation leaves a completeness deficit on the
    top level only.
    """
    if d < 2:
        raise ValueError(f"need at least two levels, got {d}")
    mu = complex(mu)
    if not 0.0 < abs(mu) < 1.0:
        raise BadMuError(f"|mu| must lie strictly between 0 and 1, got {abs(mu)!r}")
    a1 = mu * np.eye(d, k=-1).astype(complex)
    a2 = np.sqrt(1.0 - abs(mu) ** 2) * np.eye(d, dtype=complex)
    return a1, a2, d - 1
