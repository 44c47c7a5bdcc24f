"""Unambiguous (zero-error, possibly inconclusive) outcome retrodiction.

Linearly independent pure states admit an error-free discriminating POVM
built from their reciprocal (dual) family: the detection operator for state
``k`` is proportional to the projector onto the dual vector, which by
construction responds to no other state.  One shared scale, as high as
positivity of the inconclusive remainder allows, and the failure
probability come from one thin SVD of the states.

For a fine-grained measurement on one half of an entangled input, the
post-measurement states inherit linear independence from the Kraus
operators whenever the input has maximal Schmidt rank, which makes the
outcome unambiguously retrodictable; for non-singular Kraus operators
independence is also necessary.  Discriminating unitaries drawn with known
priors is the special case with Kraus operators ``sqrt(p_k) U_k``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DependentFinalStatesError,
    DimensionMismatchError,
    LinearlyDependentStatesError,
    NonUnitaryInputError,
    NotFineGrainedError,
    ZeroProbabilityOutcomeError,
)
from .linalg import DEFAULT_TOL, Tolerance, as_vector, dagger, fro, numeric_rank, operator_stack
from .measurement import Measurement, QuantumState, Retrodictor, _probabilities, images


@dataclass
class RetrodictionAssessment:
    """Feasibility of unambiguous retrodiction for some (entangled) input.

    ``feasible`` is ``"yes"``, ``"no"`` or ``"undecided"``; the last is
    reported for linearly dependent families containing singular members,
    where specific known inputs may still reveal the outcome.  When
    feasible, ``recommended_state`` is a maximally entangled input (all
    Schmidt coefficients equal) and ``p_inconclusive`` the failure
    probability achieved on it.
    """

    feasible: str
    recommended_state: QuantumState | None = None
    p_inconclusive: float | None = None


def _dual_family(s: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """The ``(n, L, 1)`` factor ``W_k = sqrt(q_k) dual_k`` of the unambiguous retrodictor for the
    unit columns of the ``(L, n)`` matrix ``S = U Sigma V^dag`` (thin SVD), and the success
    probabilities ``q_k = c / ||dual_k||^2``.  The duals are ``S G^-1 = U Sigma^-1 V^dag``
    (``G = S^dag S``), ``||dual_k||^2 = sum_j |V_kj|^2 / sigma_j^2``, and the scale is
    ``c = min(min_k ||dual_k||^2, 1 / ||N^1/2 V Sigma^-1||_2^2)``, where ``N = diag(1 / ||dual_k||^2)``:
    the largest that keeps the inconclusive remainder PSD and every ``q_k`` at most 1.
    G, whose condition number is the square of S's, is never formed."""
    u, sv, vh = np.linalg.svd(s, full_matrices=False)
    if sv.size < s.shape[1] or not sv[-1] > tol.rank_rel * sv[0]:
        raise LinearlyDependentStatesError(
            "states are linearly dependent and cannot be told apart without error"
        )
    w = dagger(vh) / sv  # V Sigma^-1, so that G^-1 = w w^dag
    norms2 = np.sum(np.abs(w) ** 2, axis=1)
    w /= np.sqrt(norms2)[:, None]
    lam_max = float(np.linalg.eigvalsh(w @ dagger(w))[-1])  # ||N^1/2 V Sigma^-1||_2^2
    q = min(float(np.min(norms2)), 1.0 / lam_max) / norms2
    return ((u / sv) @ vh * np.sqrt(q)).T[:, :, None], q


def build_ud_povm(states, tol: Tolerance = DEFAULT_TOL) -> Retrodictor:
    """Error-free discriminating POVM for linearly independent unit vectors.

    Element ``k >= 1`` is ``c |dual_k><dual_k| / ||dual_k||^2``; the duals'
    norms and the largest scale ``c`` that keeps the inconclusive remainder
    positive come from one thin SVD of the states.  Components
    outside their span are absorbed into the inconclusive element.  Only the
    factor ``W_k = sqrt(c / ||dual_k||^2) dual_k`` is formed and validated.
    States of another length than state 0's raise ``DimensionMismatchError``.
    """
    vecs = []
    for k, v in enumerate(states):
        v = as_vector(v)
        if vecs and v.size != vecs[0].size:
            raise DimensionMismatchError(f"state {k} has length {v.size}; state 0 has {vecs[0].size}")
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > tol.eq_residual:
            raise ValueError(f"state {k} must be a unit vector, got norm {nrm!r}")
        vecs.append(v)
    if not vecs:
        raise ValueError("need at least one state")
    return Retrodictor.from_factor(_dual_family(np.array(vecs).T, tol)[0], tol)


def maximally_entangled_state(d: int) -> QuantumState:
    """Equal-weight two-party state with full Schmidt rank on a d x d space."""
    vec = np.eye(d, dtype=complex).ravel() / np.sqrt(d)
    return QuantumState.pure(vec, factor_dims=(d, d))


def _final_family(m: Measurement, s: QuantumState, tol: Tolerance) -> tuple[np.ndarray, float]:
    """``_form_family(m, s, tol)``, held by ``m`` for the next call on the same ``s`` and ``tol``."""
    return m._held(s, tol, _form_family)


def _form_family(m: Measurement, s: QuantumState, tol: Tolerance) -> tuple[np.ndarray, float]:
    """The ``_dual_family`` factor of the normalised final states of ``m`` on the pure ``s``,
    and ``p_inconclusive = sum_k p_k (1 - q_k)``."""
    if s.kind != "pure":
        raise ValueError("retrodiction input must be a pure state")
    phis = images(m.kraus, s).reshape(m.n_outcomes, -1)
    p = _probabilities(phis, m.starts, tol)
    zero = np.flatnonzero(p == 0.0)  # the outcomes that _probabilities zeroed
    if zero.size:
        raise ZeroProbabilityOutcomeError(
            f"outcome {zero[0]} has zero probability for the supplied state")
    # np.linalg.norm's own formula, re.re + im.im, batched: each norm keeps its bits
    re, im = (part[:, None, :] for part in (phis.real, phis.imag))
    norms = np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2)).ravel())
    finals = phis / norms[:, None]
    try:
        factor, q = _dual_family(finals.T, tol)
    except LinearlyDependentStatesError as exc:
        raise DependentFinalStatesError(str(exc)) from exc
    return factor, float(np.clip(p @ (1.0 - q), 0.0, 1.0))


def assess_measurement(m: Measurement, tol: Tolerance = DEFAULT_TOL) -> RetrodictionAssessment:
    """Feasibility of unambiguous retrodiction over all (entangled) inputs.

    Linear independence of the Kraus operators is sufficient, with a
    maximally entangled input achieving it; for non-singular operators it
    is also necessary.  Dependent families with singular members are left
    undecided, because particular known inputs can still force an outcome.
    Independence (their rank), ``p_inconclusive`` and the scale come from the
    final states on that input and their thin SVD; no POVM is built.
    """
    if not m.fine_grained:
        raise NotFineGrainedError("assessment is defined for fine-grained measurements")
    state = maximally_entangled_state(m.d_in)
    try:
        return RetrodictionAssessment("yes", state, _final_family(m, state, tol)[1])
    except DependentFinalStatesError:
        singular = bool(np.any(numeric_rank(m.kraus, tol) < m.d_in))
        return RetrodictionAssessment("undecided" if singular else "no")


def retrodict_unambiguously(m: Measurement, s: QuantumState,
                            tol: Tolerance = DEFAULT_TOL
                            ) -> tuple[Retrodictor, float]:
    """Unambiguous retrodictor on the joint output space for a known pure input.

    All outcomes must have nonzero probability on ``s`` and the normalised
    post-measurement states must be linearly independent.  Returns the
    retrodictor together with the probability of an inconclusive result.
    """
    if not m.fine_grained:
        raise NotFineGrainedError("retrodiction POVM is built for fine-grained measurements")
    factor, p_inc = _final_family(m, s, tol)
    return Retrodictor.from_factor(factor, tol), p_inc


def discriminate_unitaries(unitaries, priors, s: QuantumState,
                           tol: Tolerance = DEFAULT_TOL
                           ) -> tuple[Retrodictor, float]:
    """Unambiguously identify which unitary acted, given prior probabilities.

    Reduces to outcome retrodiction of the fine-grained measurement with
    Kraus operators ``sqrt(p_k) U_k``; identification is possible precisely
    when the unitaries are linearly independent.  Returns the retrodictor
    and the success probability ``1 - p_inconclusive`` under the priors.
    """
    mats = operator_stack(unitaries)
    priors = np.asarray(priors, dtype=float)
    if len(mats) != priors.size:
        raise ValueError("need one prior per unitary")
    if not np.all(priors > 0.0) or abs(float(priors.sum()) - 1.0) > tol.eq_residual:
        raise ValueError("priors must be positive and sum to one")
    _, d, d_in = mats.shape
    eye = np.eye(d)
    if d != d_in:  # every operator has this shape, so operator 0 is the first to fail
        raise NonUnitaryInputError("operator 0 is not unitary within tolerance")
    bad = np.flatnonzero(np.linalg.norm(dagger(mats) @ mats - eye, axis=(1, 2))
                         > tol.eq_residual * fro(eye))
    if bad.size:
        raise NonUnitaryInputError(f"operator {bad[0]} is not unitary within tolerance")
    m = Measurement.__new__(Measurement)._hold(d, d, np.sqrt(priors)[:, None, None] * mats,
                                               [1] * len(mats), tol)
    retro, p_inc = retrodict_unambiguously(m, s, tol)
    return retro, 1.0 - p_inc
