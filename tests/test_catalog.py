"""Cross-module regression: every bundled example reproduces its expected verdicts."""

from __future__ import annotations

import numpy as np
import pytest

from retroq import (
    QuantumState,
    TooManyOutcomesError,
    assess_measurement,
    catalog,
    check_perfect,
    classify_operators,
    get_example,
    outcome_probabilities,
    synthesize,
)


def _operators(ex):
    if ex.operators is not None:
        return ex.operators
    if ex.measurement is not None:
        return ex.measurement.kraus
    return None


def test_catalog_contains_required_examples():
    names = {ex.name for ex in catalog()}
    assert {"pauli_quarter", "counterexample_3d", "rank_one_pair",
            "two_to_four", "fock_shift", "trine_povm"} <= names


@pytest.mark.parametrize("name", [ex.name for ex in catalog()])
def test_expected_verdicts_are_reproduced(name):
    ex = get_example(name)
    expected = ex.expected
    ops = _operators(ex)
    verdict = classify_operators(ops) if ops is not None else None

    for key, want in expected.items():
        if key == "linearly_independent":
            assert verdict.linearly_independent == want, key
        elif key == "lld":
            assert verdict.lld == want, key
        elif key == "lld_reason":
            assert verdict.lld_reason == want, key
        elif key == "lli":
            assert verdict.lli == want, key
        elif key == "min_sigma":
            assert verdict.min_sigma == pytest.approx(want, abs=1e-3), key
        elif key == "perfect":
            assert check_perfect(ex.measurement).retrodictable == want, key
        elif key == "assess":
            assert assess_measurement(ex.measurement).feasible == want, key
        elif key == "certain_state_index":
            state = np.zeros(ex.measurement.d_in, dtype=complex)
            state[want] = 1.0
            p = outcome_probabilities(ex.measurement, QuantumState.pure(state))
            assert p[expected["certain_outcome_index"]] == 1.0
            assert p.sum() == 1.0
        elif key == "certain_outcome_index":
            pass  # consumed above
        elif key == "synthesis_d_out":
            result = synthesize(ex.povm, d_out=want)
            assert check_perfect(result.measurement).retrodictable \
                == expected["synthesis_perfect"]
        elif key == "synthesis_perfect":
            pass  # consumed above
        elif key == "too_few_d_out":
            with pytest.raises(TooManyOutcomesError):
                synthesize(ex.povm, d_out=want)
        elif key == "valid_dim":
            assert want == len(ex.operators[0]) - 1
        elif key == "mu":
            assert abs(ex.operators[0][1, 0]) == pytest.approx(abs(want), abs=1e-15)
        else:
            raise AssertionError(f"unhandled expected key {key!r} in {name}")


def test_fock_shift_identity_on_random_supported_states(rng):
    # states below the cutoff: the lowest occupied level survives only via
    # the identity part, with the exact coefficient alpha2 * sqrt(1-|mu|^2)
    ex = get_example("fock_shift")
    a1, a2 = ex.operators
    d = a1.shape[0]
    mu = ex.expected["mu"]
    for _ in range(100):
        psi = np.zeros(d, dtype=complex)
        support = rng.integers(0, d - 1)
        psi[support:d - 1] = (rng.standard_normal(d - 1 - support)
                              + 1j * rng.standard_normal(d - 1 - support))
        if np.linalg.norm(psi) == 0.0:
            psi[support] = 1.0
        psi /= np.linalg.norm(psi)
        n0 = int(np.nonzero(np.abs(psi) > 0)[0][0])
        alpha = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        combo = (alpha[0] * a1 + alpha[1] * a2) @ psi
        lhs = complex(combo[n0])
        rhs = alpha[1] * np.sqrt(1.0 - abs(mu) ** 2) * psi[n0]
        assert abs(lhs - rhs) < 1e-12
