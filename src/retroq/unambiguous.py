"""Unambiguous (zero-error, possibly inconclusive) outcome retrodiction.

Linearly independent pure states admit an error-free discriminating POVM
built from their reciprocal (dual) family: the detection operator for state
``k`` is proportional to the projector onto the dual vector, which by
construction responds to no other state.  One shared scale is pushed as
high as positivity of the leftover inconclusive element allows.

For a fine-grained measurement on one half of an entangled input, the
post-measurement states inherit linear independence from the Kraus
operators whenever the input has maximal Schmidt rank, which makes the
outcome unambiguously retrodictable; for non-singular Kraus operators
independence is also necessary.  Discriminating unitaries drawn with known
priors is the special case with Kraus operators ``sqrt(p_k) U_k``.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .dependence import check_linear_independence
from .errors import (
    DependentFinalStatesError,
    InvalidOperatorSetError,
    LinearlyDependentStatesError,
    NonUnitaryInputError,
    NotFineGrainedError,
    ZeroProbabilityOutcomeError,
)
from .linalg import DEFAULT_TOL, Tolerance, as_matrix, as_vector, dagger, fro, numeric_rank
from .measurement import (
    Measurement,
    QuantumState,
    Retrodictor,
    _apply_left,
    outcome_probabilities,
    povm_elements,
)


@dataclass
class UnambiguousRetrodictor(Retrodictor):
    """An ``N+1``-element POVM whose extra outcome signals an inconclusive attempt."""

    elements: list[np.ndarray]
    inconclusive_index: int = 0
    tol: InitVar[Tolerance | None] = None

    def __post_init__(self, tol: Tolerance | None) -> None:
        if not self.elements:
            raise InvalidOperatorSetError("need at least the inconclusive element")
        if not 0 <= self.inconclusive_index < len(self.elements):
            raise InvalidOperatorSetError("inconclusive index out of range")
        d = as_matrix(self.elements[0]).shape[0]
        self.elements = povm_elements(self.elements, d, tol or DEFAULT_TOL)


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


def _dual_family(states: list[np.ndarray], tol: Tolerance) -> np.ndarray:
    """Columns are dual vectors with <dual_k|state_j> = delta_kj on the span."""
    s = np.column_stack(states)
    if numeric_rank(s, tol) < len(states):
        raise LinearlyDependentStatesError(
            "states are linearly dependent and cannot be told apart without error"
        )
    gram = dagger(s) @ s
    return s @ np.linalg.inv(gram)


def build_ud_povm(states, tol: Tolerance = DEFAULT_TOL) -> UnambiguousRetrodictor:
    """Error-free discriminating POVM for linearly independent unit vectors.

    Element ``k >= 1`` is ``c |dual_k><dual_k| / ||dual_k||^2``.  The shared
    scale is the largest that keeps the inconclusive remainder
    ``I - c T`` positive, ``c = 1 / lambda_max(T)`` with ``T`` the sum of the
    rank-one terms, capped at ``min_k ||dual_k||^2``.  Components outside the
    span of the states are absorbed into the inconclusive element.
    """
    vecs = []
    for k, v in enumerate(states):
        v = as_vector(v)
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > tol.eq_residual:
            raise ValueError(f"state {k} must be a unit vector, got norm {nrm!r}")
        vecs.append(v)
    duals = _dual_family(vecs, tol)
    norms2 = np.linalg.norm(duals, axis=0) ** 2
    rank_one = [np.outer(duals[:, k], np.conj(duals[:, k])) / norms2[k]
                for k in range(len(vecs))]
    total = sum(rank_one)
    c = min(float(np.min(norms2)), 1.0 / float(np.linalg.eigvalsh(total)[-1]))
    conclusive = [c * r for r in rank_one]
    inconclusive = np.eye(duals.shape[0]) - sum(conclusive)
    return UnambiguousRetrodictor([inconclusive] + conclusive, 0, tol)


def maximally_entangled_state(d: int) -> QuantumState:
    """Equal-weight two-party state with full Schmidt rank on a d x d space."""
    vec = np.eye(d, dtype=complex).ravel() / np.sqrt(d)
    return QuantumState.pure(vec, factor_dims=(d, d))


def assess_measurement(m: Measurement, tol: Tolerance = DEFAULT_TOL) -> RetrodictionAssessment:
    """Feasibility of unambiguous retrodiction over all (entangled) inputs.

    Linear independence of the Kraus operators is sufficient, with a
    maximally entangled input achieving it; for non-singular operators it
    is also necessary.  Dependent families with singular members are left
    undecided, because particular known inputs can still force an outcome.
    """
    if not m.fine_grained:
        raise NotFineGrainedError("assessment is defined for fine-grained measurements")
    ops = [group[0] for group in m.outcomes]
    independent, _ = check_linear_independence(ops, tol)
    if independent:
        state = maximally_entangled_state(m.d_in)
        _, p_inc = retrodict_unambiguously(m, state, tol)
        return RetrodictionAssessment("yes", state, p_inc)
    if all(numeric_rank(a, tol) == m.d_in for a in ops):
        return RetrodictionAssessment("no")
    return RetrodictionAssessment("undecided")


def retrodict_unambiguously(m: Measurement, s: QuantumState,
                            tol: Tolerance = DEFAULT_TOL
                            ) -> tuple[UnambiguousRetrodictor, float]:
    """Unambiguous retrodictor on the joint output space for a known pure input.

    All outcomes must have nonzero probability on ``s`` and the normalised
    post-measurement states must be linearly independent.  Returns the
    retrodictor together with the probability of an inconclusive result.
    """
    if not m.fine_grained:
        raise NotFineGrainedError("retrodiction POVM is built for fine-grained measurements")
    if s.kind != "pure":
        raise ValueError("retrodiction input must be a pure state")
    d_anc = s.factor_dims[1] if s.factor_dims is not None else 1
    p = outcome_probabilities(m, s, tol)
    finals = []
    for k, group in enumerate(m.outcomes):
        if p[k] <= tol.rank_rel:
            raise ZeroProbabilityOutcomeError(
                f"outcome {k} has zero probability for the supplied state"
            )
        phi = _apply_left(group[0], s.data, d_anc)
        finals.append(phi / np.linalg.norm(phi))
    try:
        retro = build_ud_povm(finals, tol)
    except LinearlyDependentStatesError as exc:
        raise DependentFinalStatesError(str(exc)) from exc
    xi0 = retro.elements[retro.inconclusive_index]
    p_inc = sum(float(p[k]) * float(np.vdot(phi, xi0 @ phi).real)
                for k, phi in enumerate(finals))
    return retro, float(np.clip(p_inc, 0.0, 1.0))


def discriminate_unitaries(unitaries, priors, s: QuantumState,
                           tol: Tolerance = DEFAULT_TOL
                           ) -> tuple[UnambiguousRetrodictor, float]:
    """Unambiguously identify which unitary acted, given prior probabilities.

    Reduces to outcome retrodiction of the fine-grained measurement with
    Kraus operators ``sqrt(p_k) U_k``; identification is possible precisely
    when the unitaries are linearly independent.  Returns the retrodictor
    and the success probability ``1 - p_inconclusive`` under the priors.
    """
    mats = [as_matrix(u) for u in unitaries]
    priors = np.asarray(priors, dtype=float)
    if len(mats) != priors.size:
        raise ValueError("need one prior per unitary")
    if np.any(priors <= 0.0) or abs(float(priors.sum()) - 1.0) > 1e-9:
        raise ValueError("priors must be positive and sum to one")
    d = mats[0].shape[0]
    eye = np.eye(d)
    for k, u in enumerate(mats):
        if u.shape != (d, d) or fro(dagger(u) @ u - eye) > tol.eq_residual * fro(eye):
            raise NonUnitaryInputError(f"operator {k} is not unitary within tolerance")
    m = Measurement(d, d, [[np.sqrt(pk) * u] for pk, u in zip(priors, mats)], tol)
    retro, p_inc = retrodict_unambiguously(m, s, tol)
    return retro, 1.0 - p_inc
