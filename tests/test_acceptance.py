"""Acceptance suite: one test per exit criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.
"""

from __future__ import annotations

import numpy as np
import pytest

from retroq import (
    Measurement,
    DependentFinalStatesError,
    QuantumState,
    TooManyOutcomesError,
    always_inconclusive,
    build_retrodictor,
    build_ud_povm,
    check_lld_n2_exact,
    check_lli,
    check_perfect,
    classify_operators,
    discriminate_unitaries,
    maximally_entangled_state,
    outcome_probabilities,
    povm_of,
    projective_equivalence,
    retrodict_unambiguously,
    run_trials,
    synthesize,
)
from retroq.catalog import PAULI, counterexample_3d, fock_shift, pauli_quarter, rank_one_pair, two_to_four, trine_povm
from retroq.jsonio import dumps, trial_report_to_obj
from retroq.rand import (
    ginibre,
    random_fine_grained,
    random_nonsingular_dependent,
    random_nonsingular_independent,
    random_nonsingular_pair,
    random_povm,
    random_projective_povm,
    random_pure_state,
    random_unitary,
)


def dag(m):
    return np.conj(m).T


def _report(num: int, label: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"[FAIL] criterion {num}: {label}")
        raise
    print(f"[PASS] criterion {num}: {label}")


# ---------------------------------------------------------------------------

def test_criterion_1_perfect_retrodiction_operational():
    def body():
        rng = np.random.default_rng(101)
        for _ in range(50):
            d_in = int(rng.integers(2, 4))
            d_out = int(rng.integers(2, 5))
            n = int(rng.integers(2, d_out + 1))
            result = synthesize(random_povm(d_in, n, rng), d_out=d_out)
            retro = build_retrodictor(result.measurement)
            state = QuantumState.pure(random_pure_state(d_in, rng))
            rep = run_trials(result.measurement, retro, state, 10_000,
                             seed=int(rng.integers(0, 2**63)))
            assert rep.agreement_rate == 1.0
            assert rep.mismatches == 0

    _report(1, "synthesised measurements retrodict perfectly over 10^4 trials", body)


def test_criterion_2_necessity_randomized():
    def body():
        rng = np.random.default_rng(202)
        for _ in range(50):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(2, 5))
            m = random_fine_grained(d, d, n, rng)
            assert check_perfect(m).max_residual > 1e-3
            violated = False
            for _ in range(200):
                psi = random_pure_state(d, rng)
                tails = [sum(np.outer(a @ psi, (a @ psi).conj()) for a in g)
                         for g in m.outcomes]
                for k in range(n):
                    for kp in range(k + 1, n):
                        if float(np.trace(tails[kp] @ tails[k]).real) > 1e-10:
                            violated = True
                            break
                    if violated:
                        break
                if violated:
                    break
            assert violated

    _report(2, "failing measurements leak final-state overlap on random inputs", body)


def test_criterion_3_projective_equivalence_round_trip():
    def body():
        rng = np.random.default_rng(303)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(2, d + 1))
            u0 = random_unitary(d, rng)
            povm = random_projective_povm(d, n, rng)
            m = Measurement(d, d, [[u0 @ e] for e in povm.elements])
            eq = projective_equivalence(m)
            assert eq.equivalent and eq.kind == "unitary"
            phase = np.exp(1j * np.angle(np.trace(dag(u0) @ eq.transform)))
            assert np.linalg.norm(eq.transform - phase * u0) < 1e-9
            assert eq.projector_residual < 1e-10

    _report(3, "projective + unitary compositions round-trip up to a phase", body)


def test_criterion_4_synthesis_contract():
    def body():
        rng = np.random.default_rng(404)
        for _ in range(50):
            d = int(rng.integers(2, 4))
            d_out = int(rng.integers(2, 5))
            n = int(rng.integers(1, d_out + 1))
            povm = random_povm(d, n, rng)
            result = synthesize(povm, d_out=d_out)
            m = result.measurement
            for k, element in enumerate(povm.elements):
                total = sum(dag(a) @ a for a in m.outcomes[k])
                assert np.linalg.norm(total - element) < 1e-10
            assert check_perfect(m).max_residual < 1e-10
            back = povm_of(m)
            for e1, e2 in zip(back.elements, povm.elements):
                assert np.linalg.norm(e1 - e2) < 1e-10
        refused = 0
        for _ in range(20):
            d_out = int(rng.integers(1, 4))
            n = d_out + int(rng.integers(1, 3))
            povm = random_povm(max(2, d_out), n, rng)
            try:
                synthesize(povm, d_out=d_out)
            except TooManyOutcomesError:
                refused += 1
        assert refused == 20

    _report(4, "synthesis satisfies both conditions and rejects excess outcomes", body)


def test_criterion_5_bundled_examples():
    def body():
        pq = pauli_quarter()
        v = classify_operators(pq.measurement.kraus)
        assert v.linearly_independent is True
        assert v.lld == "yes"
        assert check_perfect(pq.measurement).retrodictable is False

        ce = counterexample_3d()
        v = classify_operators(ce.measurement.kraus)
        assert v.linearly_independent is False
        z = np.zeros(3, dtype=complex)
        z[2] = 1.0
        p = outcome_probabilities(ce.measurement, QuantumState.pure(z))
        assert p[2] == 1.0 and p.sum() == 1.0  # exact

        tf = two_to_four()
        assert check_perfect(tf.measurement).retrodictable is True
        verdict, min_sigma, _ = check_lli(tf.measurement.kraus)
        assert verdict == "yes_probabilistic"
        assert abs(min_sigma - 0.7071) <= 1e-3

        rp = rank_one_pair()
        a1, a2 = rp.measurement.kraus
        assert check_lld_n2_exact(a1, a2) == (True, "shared_rank_one_range")

        fs = fock_shift(8, 0.5)
        a1, a2 = fs.operators
        rng = np.random.default_rng(505)
        for _ in range(100):
            psi = np.zeros(8, dtype=complex)
            psi[:7] = rng.standard_normal(7) + 1j * rng.standard_normal(7)
            psi /= np.linalg.norm(psi)
            n0 = int(np.nonzero(np.abs(psi) > 0)[0][0])
            alpha = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            lhs = complex(((alpha[0] * a1 + alpha[1] * a2) @ psi)[n0])
            rhs = alpha[1] * np.sqrt(1.0 - 0.25) * psi[n0]
            assert abs(lhs - rhs) < 1e-12

    _report(5, "all bundled examples reproduce their documented verdicts", body)


def test_criterion_6_unambiguous_retrodiction():
    def body():
        rng = np.random.default_rng(606)
        for i in range(50):
            d = 2 if i % 2 == 0 else 3
            n = int(rng.integers(2, min(d * d, 5) + 1))
            m = random_nonsingular_independent(d, n, rng)
            state = maximally_entangled_state(d)
            retro, p_inc = retrodict_unambiguously(m, state)
            # error-freedom residual against the construction states
            finals = []
            for k, (a,) in enumerate(m.outcomes):
                phi = np.kron(a, np.eye(d)) @ state.data
                finals.append(phi / np.linalg.norm(phi))
            worst = 0.0
            for k, phi in enumerate(finals):
                for kp in range(n):
                    if kp != k:
                        det = float(np.vdot(phi, retro.elements[kp + 1] @ phi).real)
                        worst = max(worst, abs(det))
            assert worst < 1e-9
            rep = run_trials(m, retro, state, 100_000, seed=int(rng.integers(0, 2**63)))
            assert rep.mismatches == 0
        for _ in range(20):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(3, 6))
            m = random_nonsingular_dependent(d, n, rng)
            ops = [g[0] for g in m.outcomes]
            for _ in range(50):
                psi = random_pure_state(d * d, rng)
                finals = np.column_stack([np.kron(a, np.eye(d)) @ psi for a in ops])
                assert np.linalg.matrix_rank(finals, tol=1e-10) < n

    _report(6, "independent Kraus sets retrodict unambiguously; dependent ones never do", body)


def test_criterion_7_unitary_discrimination():
    def body():
        us = [PAULI[s] for s in ("I", "X", "Y", "Z")]
        _, success = discriminate_unitaries(us, [0.25] * 4, maximally_entangled_state(2))
        assert abs(success - 1.0) < 1e-9

        third = (PAULI["I"] + 1j * PAULI["X"]) / np.sqrt(2)
        with pytest.raises(DependentFinalStatesError):
            discriminate_unitaries([PAULI["I"], PAULI["X"], third], [1 / 3] * 3,
                                   maximally_entangled_state(2))

        # two-state failure against the independent bisection/grid oracle
        theta = 0.6
        e = np.eye(2, dtype=complex)
        psi1 = e[:, 0]
        psi2 = np.cos(theta) * e[:, 0] + np.sin(theta) * e[:, 1]
        ud = build_ud_povm([psi1, psi2])
        xi0 = ud.elements[0]
        rho_avg = (np.outer(psi1, psi1.conj()) + np.outer(psi2, psi2.conj())) / 2.0
        failure = float(np.trace(xi0 @ rho_avg).real)

        duals = np.linalg.lstsq(dag(np.column_stack([psi1, psi2])), np.eye(2), rcond=None)[0]
        norms2 = np.linalg.norm(duals, axis=0) ** 2
        total = sum(np.outer(duals[:, k], duals[:, k].conj()) / norms2[k] for k in range(2))

        def ok(c):
            return np.linalg.eigvalsh(np.eye(2) - c * total)[0] >= -1e-12

        grid = np.linspace(0.0, float(np.min(norms2)), 101)
        lo = max(c for c in grid if ok(c))
        hi = min((c for c in grid if not ok(c)), default=float(np.min(norms2)))
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if ok(mid):
                lo = mid
            else:
                hi = mid
        oracle = float(np.trace((np.eye(2) - lo * total) @ rho_avg).real)
        assert abs(failure - oracle) < 1e-6
        assert abs(failure - np.cos(theta)) < 1e-6

    _report(7, "unitary discrimination: perfect for the flip group, refused for dependent sets", body)


def test_criterion_8_lli_impossibility_square():
    def body():
        rng = np.random.default_rng(808)
        for i in range(50):
            d = (2, 3, 4)[i % 3]
            a1, a2 = random_nonsingular_pair(d, rng)
            verdict, _, (psi, alpha) = check_lli([a1, a2])
            assert verdict == "no"
            lam = -alpha[0] / alpha[1]
            assert np.linalg.norm((-lam * a1 + a2) @ psi) < 1e-8

    _report(8, "non-singular square pairs always admit an eigenvector witness", body)


def test_criterion_9_simulation_statistics():
    def body():
        rng = np.random.default_rng(909)
        fixtures = [
            pauli_quarter().measurement,
            counterexample_3d().measurement,
            rank_one_pair().measurement,
            two_to_four().measurement,
            synthesize(trine_povm().povm, d_out=3).measurement,
        ]
        for m in fixtures:
            state = QuantumState.pure(random_pure_state(m.d_in, rng))
            p = outcome_probabilities(m, state)
            seed = int(rng.integers(0, 2**63))
            rep = run_trials(m, always_inconclusive(m.d_out, m.n_outcomes),
                             state, 10_000, seed=seed)
            counts = rep.confusion.sum(axis=0)
            for k in range(m.n_outcomes):
                sigma = np.sqrt(10_000 * p[k] * (1.0 - p[k]))
                assert abs(counts[k] - 10_000 * p[k]) <= 5.0 * sigma + 1e-9
            again = run_trials(m, always_inconclusive(m.d_out, m.n_outcomes),
                               state, 10_000, seed=seed)
            assert dumps(trial_report_to_obj(rep)) == dumps(trial_report_to_obj(again))

    _report(9, "empirical frequencies match the Born rule; identical seeds reproduce bytes", body)
