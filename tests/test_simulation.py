"""Monte Carlo engine: determinism, exactness of zero-error retrodiction, statistics."""

from __future__ import annotations

import numpy as np
import pytest

from retroq import (
    DimensionMismatchError,
    Measurement,
    QuantumState,
    UnambiguousRetrodictor,
    always_inconclusive,
    build_retrodictor,
    maximally_entangled_state,
    outcome_probabilities,
    retrodict_unambiguously,
    run_trials,
    synthesize,
)
from retroq.catalog import PAULI, counterexample_3d
from retroq.jsonio import trial_report_to_obj, dumps
from retroq.rand import random_povm, random_pure_state


def pauli_measurement() -> Measurement:
    return Measurement(2, 2, [[PAULI[s] / 2.0] for s in ("I", "X", "Y", "Z")])


def _within_binomial(count: int, n: int, p: float, n_sigma: float = 5.0) -> bool:
    sigma = np.sqrt(n * p * (1.0 - p))
    return abs(count - n * p) <= n_sigma * sigma + 1e-9


def test_identical_seed_reproduces_report_bytes(rng):
    result = synthesize(random_povm(2, 3, rng), d_out=3)
    retro = build_retrodictor(result.measurement)
    s = QuantumState.pure(random_pure_state(2, np.random.default_rng(11)))
    a = run_trials(result.measurement, retro, s, 5000, seed=42)
    b = run_trials(result.measurement, retro, s, 5000, seed=42)
    assert dumps(trial_report_to_obj(a)) == dumps(trial_report_to_obj(b))
    c = run_trials(result.measurement, retro, s, 5000, seed=43)
    assert not np.array_equal(a.confusion, c.confusion)


def test_perfect_retrodiction_has_exact_agreement(rng):
    result = synthesize(random_povm(3, 3, rng), d_out=4)
    retro = build_retrodictor(result.measurement)
    s = QuantumState.pure(random_pure_state(3, rng))
    report = run_trials(result.measurement, retro, s, 10_000, seed=7)
    assert report.agreement_rate == 1.0
    assert report.mismatches == 0
    assert report.inconclusive_rate == 0.0


def test_column_sums_are_outcome_counts(rng):
    result = synthesize(random_povm(2, 2, rng), d_out=2)
    retro = build_retrodictor(result.measurement)
    s = QuantumState.pure(random_pure_state(2, rng))
    report = run_trials(result.measurement, retro, s, 4000, seed=3)
    assert report.confusion.sum() == 4000
    assert report.confusion.shape == (3, 2)


def test_ud_retrodictor_never_errs_and_matches_failure_rate():
    m = pauli_measurement()
    state = maximally_entangled_state(2)
    ud, p_inc = retrodict_unambiguously(m, state)
    for seed in (0, 1, 12345):
        report = run_trials(m, ud, state, 20_000, seed=seed)
        assert report.mismatches == 0
        assert _within_binomial(int(report.inconclusive_rate * report.n_trials),
                                report.n_trials, p_inc)


def test_counterexample_on_third_state_concentrates():
    ex = counterexample_3d()
    z = np.zeros(3, dtype=complex)
    z[2] = 1.0
    m = ex.measurement
    report = run_trials(m, always_inconclusive(3, 4), QuantumState.pure(z), 2000, seed=9)
    # every trial lands on the certain outcome
    assert report.confusion[:, 2].sum() == 2000
    assert report.confusion[:, [0, 1, 3]].sum() == 0


def test_empirical_frequencies_match_born_rule(rng):
    m = pauli_measurement()
    s = QuantumState.pure(random_pure_state(2, rng))
    p = outcome_probabilities(m, s)
    report = run_trials(m, always_inconclusive(2, 4), s, 10_000, seed=21)
    counts = report.confusion.sum(axis=0)
    for k in range(4):
        assert _within_binomial(int(counts[k]), 10_000, float(p[k]))


def test_projective_retrodictor_lifts_over_ancilla(rng):
    m = Measurement(2, 2, [[np.diag([1.0, 0.0 + 0j])], [np.diag([0.0 + 0j, 1.0])]])
    retro = build_retrodictor(m)
    chi = random_pure_state(3, rng)
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    joint = QuantumState.pure(np.kron(plus, chi), factor_dims=(2, 3))
    report = run_trials(m, retro, joint, 2000, seed=5)
    assert report.agreement_rate == 1.0
    assert report.mismatches == 0


def test_projective_retrodictor_matches_its_unambiguous_form(rng):
    # both kinds run the same (N+1)-element path, lifted over the ancilla alike
    result = synthesize(random_povm(2, 3, rng), d_out=3)
    m = result.measurement
    retro = build_retrodictor(m)
    as_ud = UnambiguousRetrodictor(retro.elements, 0)
    chi = random_pure_state(6, rng)
    for s in (QuantumState.pure(random_pure_state(2, rng)),
              QuantumState.pure(chi, factor_dims=(2, 3))):
        a = run_trials(m, retro, s, 5000, seed=17)
        b = run_trials(m, as_ud, s, 5000, seed=17)
        assert np.array_equal(a.confusion, b.confusion)
        assert a.mismatches == 0 and a.inconclusive_rate == 0.0


def test_dimension_mismatch_is_rejected(rng):
    m = pauli_measurement()
    s = QuantumState.pure(random_pure_state(2, rng))
    with pytest.raises(DimensionMismatchError):
        run_trials(m, always_inconclusive(3, 4), s, 100, seed=0)


def test_always_inconclusive_report_is_vacuous(rng):
    m = pauli_measurement()
    s = QuantumState.pure(random_pure_state(2, rng))
    report = run_trials(m, always_inconclusive(2, 4), s, 500, seed=1)
    assert report.inconclusive_rate == 1.0
    assert report.agreement_rate == 1.0  # vacuous: no conclusive trials
