"""Unambiguous retrodiction POVMs, feasibility assessment, unitary discrimination."""

from __future__ import annotations

import numpy as np
import pytest

import retroq.measurement as measurement
import retroq.unambiguous as unambiguous
from retroq import (
    DependentFinalStatesError,
    DimensionMismatchError,
    LinearlyDependentStatesError,
    Measurement,
    NonUnitaryInputError,
    NotFineGrainedError,
    QuantumState,
    Retrodictor,
    ShapeMismatchError,
    Tolerance,
    ZeroProbabilityOutcomeError,
    assess_measurement,
    build_retrodictor,
    build_ud_povm,
    discriminate_unitaries,
    maximally_entangled_state,
    outcome_probabilities,
    retrodict_unambiguously,
    run_trials,
    synthesize,
)
from retroq.catalog import PAULI, counterexample_3d
from retroq.linalg import DEFAULT_TOL, numeric_rank
from retroq.rand import (
    ginibre,
    psd_inv_sqrt,
    random_nonsingular_dependent,
    random_nonsingular_independent,
    random_povm,
    random_pure_state,
    random_unitary,
)


def dag(m):
    return np.conj(m).T


def pauli_measurement() -> Measurement:
    return Measurement(2, 2, [[PAULI[s] / 2.0] for s in ("I", "X", "Y", "Z")])


def _detection_matrix(ud, states) -> np.ndarray:
    """detection[k', k] = probability that element k'+1 fires on state k."""
    conclusive = np.delete(ud.elements, ud.inconclusive_index, 0)
    return np.array([[float(np.vdot(s, e @ s).real) for s in states] for e in conclusive])


# -------------------------------------------------------------- build_ud_povm

def test_orthonormal_states_get_projector_elements():
    e = np.eye(3, dtype=complex)
    states = [e[:, 0], e[:, 1]]
    ud = build_ud_povm(states)
    for k, s in enumerate(states):
        assert np.linalg.norm(ud.elements[k + 1] - np.outer(s, s.conj())) < 1e-12
    # inconclusive element is the projector on the unreached subspace
    assert np.linalg.norm(ud.elements[0] - np.outer(e[:, 2], e[:, 2].conj())) < 1e-12
    detection = _detection_matrix(ud, states)
    assert np.allclose(detection, np.eye(2), atol=1e-12)


def test_elements_sum_to_identity_and_stay_error_free(rng):
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        n = int(rng.integers(2, dim + 1))
        states = [random_pure_state(dim, rng) for _ in range(n)]
        try:
            ud = build_ud_povm(states)
        except LinearlyDependentStatesError:
            continue
        total = sum(ud.elements)
        assert np.linalg.norm(total - np.eye(dim)) < 1e-9
        detection = _detection_matrix(ud, states)
        off = detection - np.diag(np.diag(detection))
        assert np.max(np.abs(off)) < 1e-9


def test_dependent_states_are_rejected():
    e = np.eye(2, dtype=complex)
    plus = (e[:, 0] + e[:, 1]) / np.sqrt(2)
    with pytest.raises(LinearlyDependentStatesError):
        build_ud_povm([e[:, 0], e[:, 1], plus])


def test_build_ud_povm_names_its_input_errors():
    e = np.eye(3, dtype=complex)
    with pytest.raises(ValueError, match="^need at least one state$"):
        build_ud_povm([])
    with pytest.raises(DimensionMismatchError, match="^state 2 has length 3; state 0 has 2$"):
        build_ud_povm([e[:2, 0], e[:2, 1], e[:, 2]])
    with pytest.raises(DimensionMismatchError, match="^state 1 has length 2; state 0 has 3$"):
        build_ud_povm(iter([e[:, 0], e[:2, 1]]))


def _two_state_failure_oracle(psi1, psi2, steps=60) -> float:
    """Independent bisection/grid oracle for the uniform-scale two-state POVM."""
    s_mat = np.column_stack([psi1, psi2])
    # duals via least squares against the Kronecker condition
    duals = np.linalg.lstsq(dag(s_mat), np.eye(2), rcond=None)[0]
    norms2 = np.linalg.norm(duals, axis=0) ** 2
    total = sum(np.outer(duals[:, k], duals[:, k].conj()) / norms2[k] for k in range(2))
    eye = np.eye(psi1.size)

    def ok(c):
        return np.linalg.eigvalsh(eye - c * total)[0] >= -1e-12

    # coarse grid bracket, then bisection
    grid = np.linspace(0.0, float(np.min(norms2)), 101)
    lo = max(c for c in grid if ok(c))
    hi = min((c for c in grid if not ok(c)), default=float(np.min(norms2)))
    for _ in range(steps):
        mid = (lo + hi) / 2.0
        if ok(mid):
            lo = mid
        else:
            hi = mid
    xi0 = eye - lo * total
    rho_avg = (np.outer(psi1, psi1.conj()) + np.outer(psi2, psi2.conj())) / 2.0
    return float(np.trace(xi0 @ rho_avg).real)


def test_two_state_failure_matches_overlap_and_oracle():
    theta = 0.7
    s = np.cos(theta)
    e = np.eye(2, dtype=complex)
    psi1 = e[:, 0]
    psi2 = np.cos(theta) * e[:, 0] + np.sin(theta) * e[:, 1]
    ud = build_ud_povm([psi1, psi2])
    xi0 = ud.elements[0]
    failure = float(np.trace(xi0 @ (np.outer(psi1, psi1.conj())
                                    + np.outer(psi2, psi2.conj())) / 2.0).real)
    assert failure == pytest.approx(abs(s), abs=1e-6)
    assert failure == pytest.approx(_two_state_failure_oracle(psi1, psi2), abs=1e-6)


def test_two_state_failure_with_complex_overlap(rng):
    psi1 = random_pure_state(3, rng)
    psi2 = random_pure_state(3, rng)
    ud = build_ud_povm([psi1, psi2])
    xi0 = ud.elements[0]
    failure = float(np.trace(xi0 @ (np.outer(psi1, psi1.conj())
                                    + np.outer(psi2, psi2.conj())) / 2.0).real)
    assert failure == pytest.approx(abs(np.vdot(psi1, psi2)), abs=1e-6)
    assert failure == pytest.approx(_two_state_failure_oracle(psi1, psi2), abs=1e-6)


def test_shared_scale_keeps_the_remainder_psd_and_is_maximal(rng):
    # orthonormal sets also sit on the cap min_k ||dual_k||^2 = 1; others reach the singular bound
    e = np.eye(4, dtype=complex)
    cases = [[e[:, 0], e[:, 2]], list(e.T)]
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        cases.append([random_pure_state(dim, rng) for _ in range(int(rng.integers(1, dim + 1)))])
    for states in cases:
        ud = build_ud_povm(states)
        lowest = np.linalg.eigvalsh(ud.elements[0])[0]
        assert lowest >= -1e-12
        s_mat = np.column_stack(states)
        duals = s_mat @ np.linalg.inv(dag(s_mat) @ s_mat)
        cap = float(np.min(np.linalg.norm(duals, axis=0) ** 2))
        scale = float(np.trace(ud.elements[1]).real)
        assert scale <= cap * (1.0 + 1e-12)
        assert lowest <= 1e-12 or scale == pytest.approx(cap, rel=1e-12)


# ---------------------------------------------------------- assess_measurement

def test_pauli_measurement_needs_and_gets_entanglement():
    assessment = assess_measurement(pauli_measurement())
    assert assessment.feasible == "yes"
    state = assessment.recommended_state
    assert state.factor_dims == (2, 2)
    assert assessment.p_inconclusive == pytest.approx(0.0, abs=1e-9)


def test_nonsingular_dependent_measurement_is_infeasible(rng):
    m = random_nonsingular_dependent(2, 3, rng)
    assessment = assess_measurement(m)
    assert assessment.feasible == "no"
    # final states stay dependent for every bipartite input
    ops = [g[0] for g in m.outcomes]
    for _ in range(50):
        psi = random_pure_state(4, rng)
        finals = np.column_stack([np.kron(a, np.eye(2)) @ psi for a in ops])
        rank = np.linalg.matrix_rank(finals, tol=1e-10)
        assert rank < 3


def test_singular_dependent_measurement_is_undecided():
    assessment = assess_measurement(counterexample_3d().measurement)
    assert assessment.feasible == "undecided"


def test_singular_member_is_decided_as_numeric_rank_decides(rng):
    # dependent sets of five operators on C^2 with none, one or every member of rank 1; in
    # the "near" set member 0 has singular values 1 and 1e-5 before normalisation, so the
    # cutoff 1e-3 makes it singular and the default cutoff does not
    cases = [(2, 0, "no", "no"), (2, 1, "undecided", "undecided"), (2, 5, "undecided", "undecided"),
             (1, 0, "undecided", "undecided"), (2, "near", "no", "undecided")]
    for d_out, rank_one, *expected in cases:
        gs = [ginibre(d_out, 2, rng) for _ in range(5)]
        if rank_one == "near":
            gs[0] = random_unitary(2, rng) @ np.diag([1.0, 1e-5]) @ random_unitary(2, rng)
        else:
            gs[:rank_one] = [np.outer(g[:, 0], g[0]) for g in gs[:rank_one]]
        root = psd_inv_sqrt(sum(np.conj(g).T @ g for g in gs))
        m = Measurement(2, d_out, [[g @ root] for g in gs])
        for tol, want in zip((DEFAULT_TOL, Tolerance(rank_rel=1e-3)), expected):
            singular = any(numeric_rank(a, tol) < 2 for a in m.kraus)
            assert assess_measurement(m, tol).feasible == want == ("undecided" if singular else "no")


def test_assess_requires_fine_grained():
    half = np.eye(2) / np.sqrt(2)
    with pytest.raises(NotFineGrainedError):
        assess_measurement(Measurement(2, 2, [[half, half]]))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_assess_failure_probability_matches_the_retrodictor(d, rng):
    state = maximally_entangled_state(d)
    for n in sorted({d, (d + d * d) // 2, d * d}):
        m = random_nonsingular_independent(d, n, rng)
        ud, _ = retrodict_unambiguously(m, state)
        p = outcome_probabilities(m, state)
        finals = [np.kron(g[0], np.eye(d)) @ state.data for g in m.outcomes]
        finals = [f / np.linalg.norm(f) for f in finals]
        xi0 = ud.elements[ud.inconclusive_index]
        direct = sum(pk * float(np.vdot(f, xi0 @ f).real) for pk, f in zip(p, finals))
        assert assess_measurement(m).p_inconclusive == pytest.approx(direct, abs=1e-12)


def test_assess_builds_no_retrodictor(rng, monkeypatch):
    built = []
    from_factor = unambiguous.Retrodictor.from_factor.__func__

    def counting(cls, factor, tol=DEFAULT_TOL):
        built.append(factor)
        return from_factor(cls, factor, tol)

    monkeypatch.setattr(unambiguous.Retrodictor, "from_factor", classmethod(counting))
    m = random_nonsingular_independent(3, 5, rng)
    assert assess_measurement(m).feasible == "yes"
    assert assess_measurement(pauli_measurement()).feasible == "yes"
    assert not built
    retrodict_unambiguously(m, maximally_entangled_state(3))
    assert len(built) == 1


def test_factored_elements_match_the_dense_formula(rng):
    # E_k = (c / ||dual_k||^2) |dual_k><dual_k| and E_0 = I - sum_k E_k, as formed before
    # the retrodictor held its factor
    cases = [[random_pure_state(d, rng) for _ in range(n)] for d, n in ((2, 2), (4, 3), (6, 6))]
    for d in (2, 3, 4):
        m = random_nonsingular_independent(d, d * d, rng)
        state = maximally_entangled_state(d)
        cases.append([f / np.linalg.norm(f) for f in (np.kron(g[0], np.eye(d)) @ state.data
                                                       for g in m.outcomes)])
    for states in cases:
        ud = build_ud_povm(states)
        u, sv, vh = np.linalg.svd(np.column_stack(states), full_matrices=False)
        duals = (u / sv) @ vh  # S G^-1, from the states' own thin SVD
        norms2 = np.linalg.norm(duals, axis=0) ** 2
        g_inv = dag(duals) @ duals / np.sqrt(np.outer(norms2, norms2))  # N^1/2 G^-1 N^1/2
        c = min(norms2.min(), 1.0 / np.linalg.eigvalsh(g_inv)[-1])
        conclusive = [(c / n2) * np.outer(v, np.conj(v)) for v, n2 in zip(duals.T, norms2)]
        dense = [np.eye(duals.shape[0]) - sum(conclusive)] + conclusive
        assert len(ud.elements) == len(dense) and ud.factor.shape == (len(states), len(states[0]), 1)
        assert max(np.abs(got - want).max() for got, want in zip(ud.elements, dense)) <= 1e-15


def test_built_retrodictors_validate_no_dense_element(rng, monkeypatch):
    calls = []
    povm_elements = measurement.povm_elements

    def counting(*args):
        calls.append(args)
        return povm_elements(*args)

    m = random_nonsingular_independent(3, 5, rng)
    states = [random_pure_state(4, rng) for _ in range(3)]
    synthesised = synthesize(random_povm(3, 4, rng), d_out=4).measurement  # validates a POVM
    monkeypatch.setattr(measurement, "povm_elements", counting)
    retrodict_unambiguously(m, maximally_entangled_state(3))
    build_ud_povm(states)
    build_retrodictor(synthesised)
    assert calls == []
    Retrodictor([np.eye(2), np.zeros((2, 2))])  # built from elements: validated
    assert len(calls) == 1


def nearly_dependent(seed: int, eps: float) -> Measurement:
    """Fine-grained family on C^d whose last member is a combination of the others plus
    ``eps`` of a Ginibre matrix; the members' norms spread over three decades."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    n = int(rng.integers(3, d * d + 1))
    gs = [ginibre(d, d, rng) * 10.0 ** rng.uniform(-1.5, 1.5) for _ in range(n - 1)]
    last = sum(c * g for c, g in zip(ginibre(n - 1, 1, rng).ravel(), gs))
    gs.append(last + eps * np.linalg.norm(last) * ginibre(d, d, rng))
    root = psd_inv_sqrt(sum(dag(g) @ g for g in gs))
    return Measurement(d, d, [[g @ root] for g in gs])


@pytest.mark.parametrize("eps", [0.0, 1e-11, 3e-11, 1e-10, 3e-10, 1e-9, 1e-6, 1e-3])
def test_assess_yes_coincides_with_retrodiction_on_the_recommended_state(eps):
    # Every family that passes the rank check, however close to rank_rel, gets a
    # retrodictor that passes its own validation and a finite p_inconclusive.
    for seed in range(30):
        m = nearly_dependent(seed, eps)
        state = maximally_entangled_state(m.d_in)
        try:
            p_inc = retrodict_unambiguously(m, state)[1]
        except DependentFinalStatesError:
            p_inc = None
        assessment = assess_measurement(m)
        assert (assessment.feasible == "yes") == (p_inc is not None)
        if p_inc is not None:
            assert np.isfinite(p_inc)
            assert assessment.p_inconclusive == p_inc


# ----------------------------------------------------- retrodict_unambiguously

def test_projective_measurement_with_product_input_never_fails(rng):
    m = Measurement(2, 2, [[np.diag([1.0, 0.0 + 0j])], [np.diag([0.0 + 0j, 1.0])]])
    chi = random_pure_state(2, rng)
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    joint = QuantumState.pure(np.kron(plus, chi), factor_dims=(2, 2))
    ud, p_inc = retrodict_unambiguously(m, joint)
    assert p_inc == pytest.approx(0.0, abs=1e-9)
    # elements act as lifted projectors on the reachable states
    for k in range(2):
        final = np.kron(np.eye(2)[:, k], chi)
        assert float(np.vdot(final, ud.elements[k + 1] @ final).real) == pytest.approx(1.0, abs=1e-9)


def test_pauli_with_maximal_entanglement_is_perfect():
    m = pauli_measurement()
    state = maximally_entangled_state(2)
    ops = [g[0] for g in m.outcomes]
    finals = [np.kron(a, np.eye(2)) @ state.data for a in ops]
    finals = [f / np.linalg.norm(f) for f in finals]
    gram = np.array([[np.vdot(f, g) for g in finals] for f in finals])
    assert np.linalg.norm(gram - np.eye(4)) < 1e-12  # Bell-like family
    ud, p_inc = retrodict_unambiguously(m, state)
    assert p_inc == pytest.approx(0.0, abs=1e-9)
    assert len(ud.elements) == 5


def test_pauli_with_product_input_fails():
    m = pauli_measurement()
    e = np.eye(4, dtype=complex)
    product = QuantumState.pure(e[:, 0], factor_dims=(2, 2))
    with pytest.raises(DependentFinalStatesError):
        retrodict_unambiguously(m, product)


def test_independent_kraus_retrodiction_on_entangled_inputs(rng):
    # independent Kraus operators + full Schmidt rank keeps the finals independent
    for d in (2, 3):
        m = random_nonsingular_independent(d, d + 1, rng)
        ud, p_inc = retrodict_unambiguously(m, maximally_entangled_state(d))
        assert 0.0 <= p_inc < 1.0
        assert len(ud.elements) == d + 2


# ------------------------------------------------------ discriminate_unitaries

def test_pauli_unitaries_with_entanglement_succeed_always():
    us = [PAULI[s] for s in ("I", "X", "Y", "Z")]
    _, success = discriminate_unitaries(us, [0.25] * 4, maximally_entangled_state(2))
    assert success == pytest.approx(1.0, abs=1e-9)


def test_dependent_unitaries_are_infeasible():
    third = (PAULI["I"] + 1j * PAULI["X"]) / np.sqrt(2)  # unitary combination of I and X
    with pytest.raises(DependentFinalStatesError):
        discriminate_unitaries([PAULI["I"], PAULI["X"], third], [1 / 3] * 3,
                               maximally_entangled_state(2))


def test_non_unitary_input_is_rejected():
    bad = (PAULI["I"] + PAULI["X"]) / np.sqrt(2)  # singular, not unitary
    with pytest.raises(NonUnitaryInputError):
        discriminate_unitaries([PAULI["I"], PAULI["X"], bad], [1 / 3] * 3,
                               maximally_entangled_state(2))


BAD = (PAULI["I"] + PAULI["X"]) / np.sqrt(2)  # singular, not unitary


@pytest.mark.parametrize("ops, first", [
    ([PAULI["I"], BAD, PAULI["Z"], 2 * PAULI["Y"]], 1),
    ([PAULI["Z"], PAULI["I"], 1.5 * PAULI["X"], BAD], 2),
    ([np.eye(3)[:, :2]] * 2, 0),  # non-square isometries: U^dag U = I, but no unitary
    ([np.eye(3)[:2]] * 2, 0),
])
def test_the_first_non_unitary_operator_is_named(ops, first):
    with pytest.raises(NonUnitaryInputError, match=f"^operator {first} is not unitary within tolerance$"):
        discriminate_unitaries(ops, [1 / len(ops)] * len(ops), maximally_entangled_state(2))


def test_unitaries_of_mixed_shapes_are_rejected_as_such():
    with pytest.raises(ShapeMismatchError, match="mixed operator shapes"):
        discriminate_unitaries([np.eye(2), np.eye(3)], [0.5, 0.5], maximally_entangled_state(2))


def test_identity_and_flip_depend_on_the_probe_state(rng):
    us = [PAULI["I"], PAULI["X"]]
    chi = random_pure_state(2, rng)
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    stuck = QuantumState.pure(np.kron(plus, chi), factor_dims=(2, 2))
    with pytest.raises(DependentFinalStatesError):
        discriminate_unitaries(us, [0.5, 0.5], stuck)
    e = np.eye(2, dtype=complex)
    good = QuantumState.pure(np.kron(e[:, 0], chi), factor_dims=(2, 2))
    _, success = discriminate_unitaries(us, [0.5, 0.5], good)
    assert success == pytest.approx(1.0, abs=1e-9)


def test_priors_are_validated():
    with pytest.raises(ValueError):
        discriminate_unitaries([PAULI["I"], PAULI["X"]], [0.9, 0.2],
                               maximally_entangled_state(2))


@pytest.mark.parametrize("priors", [[np.nan, np.nan], [0.5, np.nan], [np.nan, 0.5]])
def test_nan_priors_are_refused_as_priors(priors):
    with pytest.raises(ValueError, match="^priors must be positive and sum to one$"):
        discriminate_unitaries([PAULI["I"], PAULI["X"]], priors, maximally_entangled_state(2))


def test_priors_are_checked_at_the_callers_tolerance():
    us, priors = [PAULI["I"], PAULI["X"]], [0.5, 0.5 + 1e-7]
    _, success = discriminate_unitaries(us, priors, maximally_entangled_state(2),
                                        Tolerance(eq_residual=1e-6))
    assert success == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError, match="sum to one"):
        discriminate_unitaries(us, priors, maximally_entangled_state(2))


def test_retrodict_unambiguously_refuses_inputs_it_cannot_serve():
    pauli = Measurement(2, 2, [[PAULI[s] / 2.0] for s in ("I", "X", "Y", "Z")])
    entangled = maximally_entangled_state(2)
    with pytest.raises(ValueError, match="^retrodiction input must be a pure state$"):
        retrodict_unambiguously(pauli, QuantumState.mixed(entangled.density(), (2, 2)))
    coarse = Measurement(2, 2, [[PAULI["I"] / 2.0, PAULI["X"] / 2.0],
                                [PAULI["Y"] / 2.0, PAULI["Z"] / 2.0]])
    with pytest.raises(NotFineGrainedError,
                       match="^retrodiction POVM is built for fine-grained measurements$"):
        retrodict_unambiguously(coarse, entangled)
    computational = Measurement(2, 2, [[np.diag([1.0, 0.0])], [np.diag([0.0, 1.0])]])
    product = QuantumState.pure(np.kron([1.0, 0.0], [1.0, 0.0]), (2, 2))
    with pytest.raises(ZeroProbabilityOutcomeError,
                       match="^outcome 1 has zero probability for the supplied state$"):
        retrodict_unambiguously(computational, product)


def test_an_outcome_kept_at_the_rank_cutoff_is_retrodicted():
    # outcome 1 has probability 2^-35 up to the rounding of 1 / sqrt(2) on the maximally
    # entangled input; at a cutoff of exactly that value _probabilities keeps it
    ops = [[np.diag([np.sqrt(1.0 - 2.0**-34), 1.0])], [np.diag([2.0**-17, 0.0])]]
    entangled = maximally_entangled_state(2)
    tol = Tolerance(rank_rel=2.9103830456733697e-11, eq_residual=1e-11)
    m = Measurement(2, 2, ops, tol)
    assert outcome_probabilities(m, entangled, tol)[1] == tol.rank_rel
    retro, p_inc = retrodict_unambiguously(m, entangled, tol)
    assert retro.n_outcomes == 2 and 0.0 < p_inc < 1.0
    assert run_trials(m, retro, entangled, 10**6, seed=5, tol=tol).mismatches == 0


def test_the_dual_norm_cap_keeps_every_success_probability_at_most_one(rng, monkeypatch):
    # on orthonormal families min_k ||dual_k||^2 may round below 1 / lambda_max = 1.0, to
    # 0.9999999999999996 on the Bell states the Pauli quarter and the Pauli unitaries give;
    # the cap then binds, and 1 / lambda_max alone would make q_k = 1.0000000000000004
    dual_family, seen = unambiguous._dual_family, []

    def recording(s, tol):
        factor, q = dual_family(s, tol)
        seen.append(q)
        return factor, q

    monkeypatch.setattr(unambiguous, "_dual_family", recording)
    entangled = maximally_entangled_state(2)
    p_inc = [assess_measurement(pauli_measurement()).p_inconclusive,
             1.0 - discriminate_unitaries([PAULI[s] for s in "IXYZ"], [0.25] * 4, entangled)[1]]
    for d in (1, 2, 3, 5):
        u = random_unitary(d, rng)
        p_inc.append(retrodict_unambiguously(Measurement(d, d, [[u]]), maximally_entangled_state(d))[1])
        for _ in range(10):
            build_ud_povm([random_pure_state(d, rng)])
    assert len(seen) == len(p_inc) + 40 and max(q.max() for q in seen) <= 1.0
    assert max(p_inc) <= 1e-15


def test_one_prior_too_few_and_a_state_off_the_unit_sphere_are_refused():
    with pytest.raises(ValueError, match="^need one prior per unitary$"):
        discriminate_unitaries([PAULI["I"], PAULI["X"]], [1.0], maximally_entangled_state(2))
    with pytest.raises(ValueError, match=r"^state 1 must be a unit vector, got norm 2\.0$"):
        build_ud_povm([[1.0, 0.0], [0.0, 2.0]])


# -------------------------------------------------------------- the held final family

def _counting_form_family(monkeypatch) -> list:
    form, formed = unambiguous._form_family, []

    def counting(m, s, tol):
        formed.append((s, tol))
        return form(m, s, tol)

    monkeypatch.setattr(unambiguous, "_form_family", counting)
    return formed


def test_the_final_family_is_formed_once_per_state_object_and_tolerance(rng, monkeypatch):
    formed = _counting_form_family(monkeypatch)
    m = random_nonsingular_independent(3, 5, rng)
    assessment = assess_measurement(m)
    state = assessment.recommended_state
    retro, p_inc = retrodict_unambiguously(m, state)
    retrodict_unambiguously(m, state, Tolerance())  # equal to DEFAULT_TOL, so the same key
    assert len(formed) == 1 and p_inc == assessment.p_inconclusive
    twin = QuantumState.pure(state.data, state.factor_dims)  # equal data, another object
    twin_retro, twin_p = retrodict_unambiguously(m, twin)
    assert len(formed) == 2 and formed[1][0] is twin
    assert twin_retro.factor.tobytes() == retro.factor.tobytes() and twin_p == p_inc
    coarse = Tolerance(rank_rel=1e-9)
    retrodict_unambiguously(m, twin, coarse)
    assert len(formed) == 3 and formed[2][1] is coarse
    retrodict_unambiguously(m, state)  # only the last pair is held
    assert len(formed) == 4
    assess_measurement(Measurement.from_stack(3, 3, m.kraus, [1] * 5))  # each measurement holds its own
    assert len(formed) == 5


def test_the_held_factor_cannot_be_written():
    m, state = pauli_measurement(), maximally_entangled_state(2)
    factor, p_inc = unambiguous._final_family(m, state, DEFAULT_TOL)
    with pytest.raises(ValueError, match="read-only"):
        factor[0, 0, 0] = 0.0
    again, again_p = unambiguous._final_family(m, state, DEFAULT_TOL)
    assert again is factor and again_p == p_inc
    assert retrodict_unambiguously(m, state)[0].factor.tobytes() == factor.tobytes()


def test_a_refused_family_is_refused_on_every_call_and_holds_nothing(rng, monkeypatch):
    formed = _counting_form_family(monkeypatch)
    entangled = maximally_entangled_state(2)
    dependent = random_nonsingular_dependent(2, 3, rng)
    for _ in range(2):
        with pytest.raises(DependentFinalStatesError):
            retrodict_unambiguously(dependent, entangled)
        assert assess_measurement(dependent).feasible == "no"
    assert len(formed) == 4
    computational = Measurement(2, 2, [[np.diag([1.0, 0.0])], [np.diag([0.0, 1.0])]])
    product = QuantumState.pure(np.kron([1.0, 0.0], [1.0, 0.0]), (2, 2))
    mixed = QuantumState.mixed(entangled.density(), (2, 2))
    for _ in range(2):
        with pytest.raises(ZeroProbabilityOutcomeError):
            retrodict_unambiguously(computational, product)
        with pytest.raises(ValueError, match="^retrodiction input must be a pure state$"):
            retrodict_unambiguously(computational, mixed)
    assert len(formed) == 8
    assert dependent._family is None and computational._family is None
    retrodict_unambiguously(computational, entangled)
    with pytest.raises(ZeroProbabilityOutcomeError):  # a refusal keeps what was held
        retrodict_unambiguously(computational, product)
    retrodict_unambiguously(computational, entangled)
    assert len(formed) == 10


def test_retrodiction_after_assessment_has_the_bytes_of_a_fresh_measurement(rng):
    for d, n in ((2, 4), (3, 5), (4, 16)):
        m = random_nonsingular_independent(d, n, rng)
        assessment = assess_measurement(m)
        retro, p_inc = retrodict_unambiguously(m, assessment.recommended_state)
        fresh = Measurement.from_stack(d, d, m.kraus, [1] * n)
        fresh_retro, fresh_p = retrodict_unambiguously(fresh, maximally_entangled_state(d))
        assert retro.factor.tobytes() == fresh_retro.factor.tobytes()
        assert np.float64(p_inc).tobytes() == np.float64(fresh_p).tobytes()
        assert p_inc == assessment.p_inconclusive
