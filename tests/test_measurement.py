"""Measurement / POVM / state construction, statistics and state update."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

import retroq.measurement as measurement
import retroq.perfect as perfect
import retroq.unambiguous as unambiguous
from retroq import (
    DimensionMismatchError,
    InvalidOperatorSetError,
    Measurement,
    NotHermitianError,
    Povm,
    ProjectiveRetrodictor,
    QuantumState,
    ShapeMismatchError,
    ZeroProbabilityOutcomeError,
    apply_outcome,
    check_perfect,
    outcome_probabilities,
    povm_of,
    synthesize,
)
from retroq.catalog import PAULI, counterexample_3d, two_to_four
from retroq.jsonio import detect_and_load, dumps, measurement_to_obj, povm_to_obj, ud_from_obj, ud_to_obj
from retroq.linalg import DEFAULT_TOL, Tolerance, dagger, eigh_descending
from retroq.measurement import Retrodictor, images
from retroq.rand import (
    ginibre,
    psd_inv_sqrt,
    random_fine_grained,
    random_povm,
    random_projective_povm,
    random_psd,
    random_pure_state,
    random_unitary,
)
from retroq.simulation import always_inconclusive, run_trials

E2 = np.eye(2, dtype=complex)
PROJ_Z = Measurement(2, 2, [[np.diag([1.0, 0.0 + 0j])], [np.diag([0.0 + 0j, 1.0])]])
PLUS = np.array([1.0, 1.0]) / np.sqrt(2)


def pauli_measurement() -> Measurement:
    return Measurement(2, 2, [[PAULI[s] / 2.0] for s in ("I", "X", "Y", "Z")])


# -------------------------------------------------------------- validation

def test_measurement_requires_completeness():
    with pytest.raises(InvalidOperatorSetError):
        Measurement(2, 2, [[np.eye(2) * 0.5]])


def test_measurement_rejects_empty_group():
    with pytest.raises(InvalidOperatorSetError):
        Measurement(2, 2, [[np.eye(2)], []])


def test_measurement_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        Measurement(2, 2, [[np.eye(3)]])


@pytest.mark.parametrize("stacked", [False, True])
def test_kraus_operators_are_read_only_and_owned_by_the_measurement(stacked):
    a0, a1 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    reference = Measurement(2, 2, [[a0.copy()], [a1.copy()]])
    if stacked:  # the caller's own arrays are then views of the caller's stack
        given = np.array([a0, a1])
        a0, a1 = given
        m = Measurement.from_stack(2, 2, given, [1, 1])
    else:
        m = Measurement(2, 2, [[a0], [a1]])
    for k in range(2):
        assert np.shares_memory(m.outcomes[k][0], m.kraus)
        with pytest.raises(ValueError):
            m.outcomes[k][0][0, 0] = 0.5
        with pytest.raises(ValueError):
            m.outcomes[k][0] *= 2.0
    with pytest.raises(ValueError, match="read-only"):
        m.kraus[0, 0, 0] = 0.5
    a0[:] = a1  # the caller's own arrays stay writable and are the caller's to change
    a1[0, 1] = 1.0
    assert a0.flags.writeable and a1.flags.writeable
    assert np.array_equal(np.array(m.outcomes), np.array(reference.outcomes))
    assert np.array_equal(m.kraus, reference.kraus) and np.array_equal(m.elements, reference.elements)
    assert check_perfect(m) == check_perfect(reference) and check_perfect(m).retrodictable
    zero = QuantumState.pure(np.array([1.0, 0.0]))
    assert outcome_probabilities(m, zero).tolist() == [1.0, 0.0]
    real = np.eye(2) / np.sqrt(2)  # converted to complex: a private buffer, also read-only
    coarse = Measurement(2, 2, [[real, real]])
    assert not coarse.outcomes[0][1].flags.writeable and real.flags.writeable


HALF = np.eye(2) / np.sqrt(2)  # two of these, or HALF and HALF_2, resolve the identity
HALF_2 = np.diag([1.0, 1.0j]) / np.sqrt(2)


@pytest.mark.parametrize("outcomes, error, message", [
    ([[HALF], [HALF_2[0]]], ShapeMismatchError, "expected a matrix, got array of dimension 1"),
    ([[HALF, np.zeros((1, 2, 2))], [HALF_2]], ShapeMismatchError,
     "expected a matrix, got array of dimension 3"),
    ([[HALF], [np.where(E2 == 1, np.nan, 0) + HALF_2]], ValueError, "matrix entries must be finite"),
    ([[HALF], [HALF_2 * 1j, np.full((2, 2), np.inf * 1j)]], ValueError, "matrix entries must be finite"),
    ([[HALF], [np.eye(3)]], DimensionMismatchError,
     "operator of shape (3, 3) in outcome 1; expected (2, 2)"),
    ([[HALF, 0.0 * E2], [HALF_2], [np.ones((2, 3))]], DimensionMismatchError,
     "operator of shape (2, 3) in outcome 2; expected (2, 2)"),
    ([[HALF], [0.0 * E2, 1e-12 * E2], [HALF_2]], InvalidOperatorSetError,
     "outcome 1 has a vanishing POVM element"),
    ([[HALF, 0.0 * E2], [HALF_2], [1e-11 * E2], [0.0 * E2] * 3], InvalidOperatorSetError,
     "outcome 2 has a vanishing POVM element"),
    ([[0.0 * E2], [HALF, HALF_2]], InvalidOperatorSetError, "outcome 0 has a vanishing POVM element"),
    ([[HALF], [0.0 * E2, 0.0 * E2], [HALF_2]], InvalidOperatorSetError,
     "outcome 1 has a vanishing POVM element"),
    ([[HALF, HALF_2], [0.0 * E2] * 5], InvalidOperatorSetError, "outcome 1 has a vanishing POVM element"),
    ([[HALF, HALF_2], [0.1 * E2]], InvalidOperatorSetError, "Kraus operators do not resolve the identity"),
    # a stack and its group sizes, through from_stack alone
    ((np.array([HALF, HALF_2]), [1, 0, 1]), InvalidOperatorSetError, "outcome 1 has no Kraus operators"),
    ((np.array([HALF, HALF_2]), [1, 2]), InvalidOperatorSetError,
     "group sizes sum to 3, not 2"),
    ((np.array([HALF, HALF_2])[:, :, :1], [1, 1]), DimensionMismatchError,
     "operator of shape (2, 1) in outcome 0; expected (2, 2)"),
    ((np.array([HALF, np.where(E2 == 1, np.nan, 0) + HALF_2]), [1, 1]), ValueError,
     "matrix entries must be finite"),
    ((np.array([HALF, HALF_2]), [True, True]), TypeError,
     "group size must be an integer, not a boolean"),
    ((np.array([HALF, HALF_2]), np.array([True, True])), TypeError,
     "group size must be an integer, not a boolean"),
    ((np.array([HALF, HALF_2]), [1.0, 1.0]), TypeError,
     "'float' object cannot be interpreted as an integer"),
])
def test_construction_errors_keep_their_type_and_message(outcomes, error, message):
    """Groups go through ``Measurement`` and, where they stack, through ``from_stack`` too; a
    ``(stack, sizes)`` pair through ``from_stack`` alone.  Both raise the same error."""
    if isinstance(outcomes, tuple):
        builds = [lambda: Measurement.from_stack(2, 2, *outcomes)]
    else:
        ops = [np.asarray(a) for group in outcomes for a in group]
        builds = [lambda: Measurement(2, 2, outcomes)]
        if len({a.shape for a in ops}) == 1:
            builds.append(lambda: Measurement.from_stack(2, 2, ops, [len(g) for g in outcomes]))
    for build in builds:
        with pytest.raises(error, match=re.escape(message)) as info:
            build()
        assert type(info.value) is error


def test_ragged_groups_resolve_the_identity_group_by_group(rng):
    ops = random_fine_grained(3, 4, 6, rng).kraus
    sizes = [3, 1, 2]
    groups = np.split(np.array(ops), np.cumsum(sizes)[:-1])
    m = Measurement(3, 4, [list(g) for g in groups])
    assert [len(g) for g in m.outcomes] == sizes
    for element, group in zip(povm_of(m).elements, groups):
        assert np.allclose(element, sum(np.conj(a).T @ a for a in group), atol=1e-14)
    # a zero member beside live ones is kept; a group of zero members is named by its outcome
    padded = Measurement(3, 4, [list(groups[0]), [ops[3], 0.0 * ops[3]], list(groups[2])])
    assert [len(g) for g in padded.outcomes] == [3, 2, 2]
    with pytest.raises(InvalidOperatorSetError, match="^outcome 2 has a vanishing POVM element$"):
        Measurement(3, 4, [list(groups[0]) + [ops[3]], list(groups[2]), [0.0 * ops[3]] * 2])


def test_an_outcome_is_vanishing_only_below_rank_rel():
    # p_k <= ||E_k||_F on every input: a refused outcome is one _probabilities zeroes on every
    # input, and eq_residual does not enter; 1e-24 * I and 1e-22 * I stay refused above
    eps = 5e-10
    m = Measurement(2, 2, [[np.sqrt(1.0 - eps) * E2], [np.sqrt(eps) * E2]])
    assert outcome_probabilities(m, QuantumState.pure([1.0, 0.0]))[1] == pytest.approx(eps, rel=1e-12)
    loose = Tolerance(eq_residual=0.4)  # each Pauli quarter I / 4 has Frobenius norm 0.354
    assert Measurement(2, 2, [[PAULI[s] / 2.0] for s in "IXYZ"], loose).n_outcomes == 4


def test_group_offsets_and_elements_are_stored_read_only(rng):
    ops = random_fine_grained(3, 4, 6, rng).kraus
    groups = [ops[:3], ops[3:4], ops[4:]]
    m = Measurement(3, 4, groups)
    assert m.starts.tolist() == [0, 3, 4, 6]
    want = [sum(np.conj(a).T @ a for a in group) for group in groups]
    assert m.elements.shape == (3, 3, 3)
    assert np.abs(m.elements - np.array(want)).max() <= 1e-14
    assert np.abs(np.array(povm_of(m).elements) - np.array(want)).max() <= 1e-14
    for stored in (m.starts, m.elements, m.nonzero_rows):
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 0


def _per_operator_elements(m):
    """The group elements as sums of the per-operator products ``A^dag A``."""
    return np.add.reduceat(np.conj(m.kraus).transpose(0, 2, 1) @ m.kraus, m.starts[:-1])


def _normalised_groups(ops, sizes):
    """``ops`` times ``(sum A^dag A)^-1/2`` on the right, which keeps their zero rows, split
    into groups of ``sizes``."""
    root = psd_inv_sqrt(sum(np.conj(a).T @ a for a in ops))
    return [list(g) for g in np.split(np.array([a @ root for a in ops]), np.cumsum(sizes)[:-1])]


def _zero_rows(ops, rng):
    """Each operator with about half of its rows set to zero, the first always kept."""
    return [a * np.r_[1.0, rng.random(len(a) - 1) < 0.5][:, None] for a in ops]


def test_group_elements_match_the_per_operator_products(rng):
    cases = []
    for d, n, d_out in [(2, 2, 2), (5, 3, 7), (16, 16, 16), (6, 6, 6)]:
        cases.append(synthesize(random_povm(d, n, rng), d_out).measurement)
        cases.append(synthesize(random_projective_povm(d, n, rng), d).measurement)
    for d_in, d_out, n in [(6, 3, 4), (5, 5, 7), (3, 7, 5), (8, 8, 32)]:  # dense fine-grained
        cases.append(random_fine_grained(d_in, d_out, n, rng))
    for d_in, d_out, sizes in [(4, 6, [3, 1, 2, 5]), (6, 3, [2, 2, 2, 2]), (5, 9, [1] * 7)]:
        ops = _zero_rows([ginibre(d_out, d_in, rng) for _ in range(sum(sizes))], rng)
        cases.append(Measurement(d_in, d_out, _normalised_groups(ops, sizes)))
    # skewed: one group of 100 operators and 99 single-operator groups
    ops = [ginibre(16, 16, rng) for _ in range(199)]
    cases.append(Measurement(16, 16, _normalised_groups(ops, [100] + [1] * 99)))
    cases.append(Measurement(16, 16, _normalised_groups(_zero_rows(ops, rng), [1] * 99 + [100])))
    # coarse groups of dense operators with d_out > d_in: a group's rows span many d_in blocks
    ops = [ginibre(12, 3, rng) for _ in range(9)]
    cases.append(Measurement(3, 12, _normalised_groups(ops, [4, 1, 4])))
    for m in cases:
        want = _per_operator_elements(m)
        error = np.linalg.norm(m.elements - want, axis=(1, 2))
        assert np.all(error <= 1e-15 * np.linalg.norm(want, axis=(1, 2)))
        # the same operators as groups and as a stack make the same measurement
        groups = Measurement(m.d_in, m.d_out, m.outcomes)
        stacked = Measurement.from_stack(m.d_in, m.d_out, m.kraus, np.diff(m.starts))
        for name in ("kraus", "starts", "elements", "nonzero_rows"):
            assert np.array_equal(getattr(groups, name), getattr(stacked, name))
            assert np.array_equal(getattr(groups, name), getattr(m, name))


def _per_group_elements(m):
    """The group elements one group at a time: ``X_k^dag X_k`` over the slice of
    ``kraus[nonzero_rows]`` that holds group k's nonzero rows."""
    x = m.kraus[m.nonzero_rows]
    ends = np.cumsum(np.add.reduceat(m.nonzero_rows.sum(axis=1), m.starts[:-1]))
    return np.array([dagger(x[a:b]) @ x[a:b] for a, b in zip([0, *ends[:-1]], ends)])


def _per_image_probabilities(stack, starts):
    """``p_k`` as one ``np.vdot`` per image summed per group by Python's ``sum``, clamped as
    ``_probabilities`` clamps."""
    p = np.array([sum(float(np.vdot(phi, phi).real) for phi in stack[a:b])
                  for a, b in zip(starts[:-1], starts[1:])])
    p[p < DEFAULT_TOL.rank_rel] = 0.0
    return np.clip(p, 0.0, 1.0)


def test_batched_statistics_equal_their_per_row_loops_bit_for_bit(rng):
    # probabilities, final-state normalisation and group elements are batched; each must give
    # the bits of its one-row-at-a-time form, for any row length (BLAS kernels unroll by length)
    ops = _zero_rows([ginibre(6, 4, rng) for _ in range(24)], rng)
    ops[5] = np.zeros((6, 4))  # an all-zero operator inside a coarse group
    cases = [random_fine_grained(8, 8, 32, rng), random_fine_grained(3, 5, 7, rng),
             Measurement(4, 6, _normalised_groups(ops, [12, 1, 9, 2])),  # groups of 9 and 12
             synthesize(random_povm(5, 4, rng), 6).measurement]
    for m in cases:
        assert np.array_equal(m.elements, _per_group_elements(m))
        d = m.d_in
        v, rho = random_pure_state(d, rng), random_psd(2 * d, rng)
        states = [QuantumState.pure(v), QuantumState.mixed(0.7 * np.outer(v, v.conj()) + 0.3 * np.eye(d) / d),
                  QuantumState.pure(random_pure_state(3 * d, rng), (d, 3)),
                  QuantumState.mixed(rho / np.trace(rho).real, (d, 2))]
        for s in states:
            stack = images(m.kraus, s)
            assert np.array_equal(measurement._probabilities(stack, m.starts, DEFAULT_TOL),
                                  _per_image_probabilities(stack, m.starts))
    for length in range(1, 300):  # one image per outcome, rows of every length up to 299
        stack = ginibre(6, length, rng).reshape(6, length, 1) / np.sqrt(12 * length)
        starts = [0, 1, 3, 6]
        assert np.array_equal(measurement._probabilities(stack, starts, DEFAULT_TOL),
                              _per_image_probabilities(stack, starts))
    # final states of length d_out * d_anc: d_in = 1 sweeps the length, d_anc > 1 is bipartite
    finals = [(random_fine_grained(1, length, min(length, 3), rng), QuantumState.pure([1.0]))
              for length in range(1, 130)]
    finals += [(random_fine_grained(d, d, n, rng), QuantumState.pure(random_pure_state(d * d, rng), (d, d)))
               for d, n in [(2, 4), (3, 5), (8, 32)]]
    for m, s in finals:
        phis = images(m.kraus, s).reshape(m.n_outcomes, -1)
        columns = np.column_stack([phi / np.linalg.norm(phi) for phi in phis])
        factor, q = unambiguous._dual_family(columns, DEFAULT_TOL)
        p_inc = float(np.clip(measurement._probabilities(phis, m.starts, DEFAULT_TOL) @ (1.0 - q), 0.0, 1.0))
        got, got_p_inc = unambiguous._final_family(m, s, DEFAULT_TOL)
        assert np.array_equal(got, factor) and got_p_inc == p_inc


def test_the_perfect_check_reads_the_stored_row_mask():
    m = pauli_measurement()
    assert np.array_equal(m.nonzero_rows, (m.kraus != 0).any(axis=2))
    assert check_perfect(m).max_residual > 0.0
    m.nonzero_rows = np.zeros_like(m.nonzero_rows)  # as if no operator wrote any row
    report = check_perfect(m)
    assert (report.max_residual, report.witness) == (0.0, None)


@pytest.mark.parametrize("build", [
    pauli_measurement,
    lambda: Measurement.from_stack(2, 2, np.array([HALF, HALF_2]), [2]),
], ids=["measurement", "stacked measurement"])
def test_assigning_into_an_outcome_group_leaves_the_measurement_as_it_was(build):
    m = build()
    kraus, dumped = m.kraus.copy(), dumps(measurement_to_obj(m))
    m.outcomes[0][0] = np.zeros((2, 2))
    assert np.array_equal(m.kraus, kraus) and np.array_equal(m.outcomes[0][0], kraus[0])
    assert dumps(measurement_to_obj(m)) == dumped
    with pytest.raises(AttributeError):
        m.outcomes = [[np.zeros((2, 2))]]


def test_fine_grained_flag():
    assert PROJ_Z.fine_grained
    half = np.eye(2) / np.sqrt(2)
    coarse = Measurement(2, 2, [[half, half]])
    assert not coarse.fine_grained


@pytest.mark.parametrize("build", [
    pauli_measurement,
    lambda: Measurement.from_stack(2, 2, np.array([HALF, HALF_2]), [2]),
    lambda: Povm(2, [E2 / 2.0, E2 / 2.0]),
    lambda: QuantumState.pure(PLUS, (2, 1)),
    lambda: QuantumState.mixed(E2 / 2.0),
], ids=["measurement", "stacked measurement", "povm", "pure state", "mixed state"])
def test_equal_contents_compare_by_identity_and_hash(build):
    a, b = build(), build()
    assert a == a and a != b and not (a == b)  # an array field is never compared
    assert len({a, b, a}) == 2


def test_povm_validation():
    with pytest.raises(InvalidOperatorSetError):
        Povm(2, [np.diag([1.0, -0.1]), np.diag([0.0, 1.1])])
    with pytest.raises(InvalidOperatorSetError):
        Povm(2, [np.eye(2) * 0.3])


P0 = np.diag([1.0, 0.0 + 0j])
# rank-one projector at overlap EPS with P0: inside the pairwise tolerance
# (eq_residual * d_out), yet P0 + TILTED exceeds the identity by EPS > psd_floor
EPS = 1.5e-9
TILTED = np.outer([EPS, np.sqrt(1.0 - EPS**2)], [EPS, np.sqrt(1.0 - EPS**2)]).astype(complex)
SKEW = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)


def _povm(elements):
    return Povm(2, elements)


def _unambiguous(elements):
    return Retrodictor(elements, 0)


def _projective(projectors):
    return ProjectiveRetrodictor(2, projectors)


@pytest.mark.parametrize("construct, elements, error, match", [
    (_povm, [np.diag([1.1, 0.0]), np.diag([-0.1, 1.0])], InvalidOperatorSetError, "not PSD"),
    (_unambiguous, [np.diag([1.1, 0.0]), np.diag([-0.1, 1.0])], InvalidOperatorSetError, "not PSD"),
    (_projective, [P0, TILTED], InvalidOperatorSetError, "not PSD"),
    (_povm, [np.eye(2) * 0.3, np.eye(2) * 0.3], InvalidOperatorSetError, "identity"),
    (_unambiguous, [np.eye(2) * 0.3, np.eye(2) * 0.3], InvalidOperatorSetError, "identity"),
    (_povm, [np.eye(2), np.zeros((3, 3))], DimensionMismatchError, "shape"),
    (_unambiguous, [np.eye(2), np.zeros((3, 3))], DimensionMismatchError, "shape"),
    (_projective, [np.zeros((3, 3))], DimensionMismatchError, "shape"),
    (_povm, [SKEW, np.eye(2) - SKEW], NotHermitianError, "Hermitian"),
    (_unambiguous, [SKEW, np.eye(2) - SKEW], NotHermitianError, "Hermitian"),
    (_projective, [np.array([[1.0, 1.0], [0.0, 0.0]])], InvalidOperatorSetError, "Hermitian"),
    (Retrodictor, [np.diag([1.1, 0.0]), np.diag([-0.1, 1.0])], InvalidOperatorSetError, "not PSD"),
    (Retrodictor, [np.eye(2) * 0.3, np.eye(2) * 0.3], InvalidOperatorSetError, "identity"),
    (Retrodictor, [np.eye(2), np.zeros((3, 3))], DimensionMismatchError, "shape"),
    (Retrodictor, [SKEW, np.eye(2) - SKEW], NotHermitianError, "Hermitian"),
], ids=["povm-psd", "ud-psd", "proj-psd", "povm-incomplete", "ud-incomplete",
        "povm-shape", "ud-shape", "proj-shape", "povm-hermitian", "ud-hermitian",
        "proj-hermitian", "retro-psd", "retro-incomplete", "retro-shape", "retro-hermitian"])
def test_resolutions_of_identity_share_validation(construct, elements, error, match):
    with pytest.raises(error, match=match):
        construct(elements)


def test_positivity_verdict_matches_batched_eigenvalues_at_the_floor():
    # lowest eigenvalue within a few 1e-15 of -psd_floor, where only rounding decides;
    # the reference is the batched eigh verdict on the same Hermitian parts (eigvalsh rounds
    # some of these cases to the other side of the floor)
    rng = np.random.default_rng(7)
    floor = DEFAULT_TOL.psd_floor
    for _ in range(2000):
        d = int(rng.integers(2, 7))
        u = random_unitary(d, rng)
        w = rng.uniform(0.0, 1.0, d)
        w[0] = -floor * (1.0 + rng.uniform(-3e-6, 3e-6))
        e0 = u @ np.diag(w) @ np.conj(u).T
        herm = np.array([(e + np.conj(e).T) / 2.0 for e in (e0, np.eye(d) - e0)])
        if np.linalg.eigh(herm)[0][:, 0].min() >= -floor:
            Povm(d, [e0, np.eye(d) - e0])
        else:
            with pytest.raises(InvalidOperatorSetError, match="element 0 is not PSD"):
                Povm(d, [e0, np.eye(d) - e0])


def test_validated_elements_are_read_only_copies_owned_by_their_objects():
    # writing to the caller's arrays after construction changes no element, factor or
    # simulated confusion of what was validated from them
    elements = [0.2 * E2, np.diag([0.8, 0.0 + 0j]), np.diag([0.0, 0.8 + 0j])]
    projectors = [P0.copy(), np.diag([0.0, 1.0 + 0j])]
    povm, retro = Povm(2, elements), Retrodictor(elements)
    ud, proj = Retrodictor(elements, 2), ProjectiveRetrodictor(2, projectors)
    state = QuantumState.pure(PLUS)

    def snapshot():
        out = [np.array(povm.elements)]
        for r in (retro, ud, proj):
            confusion = run_trials(PROJ_Z, r, state, 2000, seed=3).confusion
            out += [np.array(r.elements), r.factor.copy(), confusion]
        return out

    before = snapshot()
    for stored in [*povm.elements, *retro.elements, *ud.elements, *proj.elements]:
        with pytest.raises(ValueError, match="read-only"):
            stored[1, 1] = -3
        with pytest.raises(ValueError, match="read-only"):
            stored *= 2.0
        assert not any(np.shares_memory(stored, own) for own in elements + projectors)
    with pytest.raises(ValueError, match="read-only"):
        proj.projectors[0][0, 0] = 0.5
    assert np.shares_memory(proj.projectors[0], proj.elements[1])
    for own in elements + projectors:
        own[:] = 5.0
    assert all(np.array_equal(a, b) for a, b in zip(snapshot(), before))


@pytest.mark.parametrize("seed", range(4))
def test_outside_retrodictor_factor_equals_that_of_its_conclusive_elements_bit_for_bit(seed):
    # the factor comes from the eigh that validated all elements, the inconclusive one's row
    # deleted; the reference decomposes the conclusive elements' Hermitian parts afresh
    rng = np.random.default_rng(seed)
    for d, n in ((2, 3), (3, 4), (4, 2), (5, 6)):
        elements = random_povm(d, n, rng).elements
        for i in (0, 1, n - 1):
            conclusive = np.delete(elements, i, 0)
            w, v = np.linalg.eigh((conclusive + dagger(conclusive)) / 2.0)
            want = v * np.sqrt(np.maximum(w, 0.0))[..., None, :]
            assert Retrodictor(elements, i).factor.tobytes() == want.tobytes()
    projectors = list(random_projective_povm(4, 3, rng).elements)
    projective = ProjectiveRetrodictor(4, projectors)
    w, v = np.linalg.eigh((np.array(projectors) + dagger(np.array(projectors))) / 2.0)
    assert projective.factor.tobytes() == (v * np.sqrt(np.maximum(w, 0.0))[..., None, :]).tobytes()


def test_the_povm_holds_its_one_decomposition_read_only():
    given = [0.2 * E2, np.diag([0.8, 0.0 + 0j]), np.diag([0.0, 0.8 + 0j])]
    povm = Povm(2, given)
    w, v = povm.eig
    assert w.shape == (3, 2) and v.shape == (3, 2, 2) and (np.diff(w, axis=1) >= 0.0).all()
    for e, wk, vk in zip(given, w, v):
        want_w, want_v = np.linalg.eigh((e + dagger(e)) / 2.0)
        assert wk.tobytes() == want_w.tobytes() and vk.tobytes() == want_v.tobytes()
    before = [w.copy(), v.copy()]
    for held in (w, v):
        with pytest.raises(ValueError, match="read-only"):
            held[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            held *= 2.0
        assert not any(np.shares_memory(held, own) for own in [*given, povm.elements])
    for own in given:
        own[:] = 5.0
    assert all(np.array_equal(a, b) for a, b in zip(povm.eig, before))


def test_element_stacks_refuse_item_assignment():
    # the stack itself is read-only, so no matrix can be swapped in after validation
    elements = [0.2 * E2, np.diag([0.8, 0.0 + 0j]), np.diag([0.0, 0.8 + 0j])]
    factor_built = perfect.build_retrodictor(PROJ_Z)
    for stack in (Povm(2, elements).elements, Retrodictor(elements).elements,
                  factor_built.elements, factor_built.elements):
        assert stack.shape == (3, 2, 2)
        with pytest.raises(ValueError, match="read-only"):
            stack[0] = np.diag([5.0, -3.0])
    assert factor_built.elements is factor_built.elements  # formed once, on first read
    with pytest.raises(ValueError, match="read-only"):
        factor_built.projectors[1] = 9.0 * np.ones((2, 2))


def test_each_retrodictor_origin_has_its_own_entry_point():
    # outside elements through the constructor, a factor the library builds through
    # from_factor: no signature takes both
    with pytest.raises(TypeError):
        Retrodictor([np.full((2, 2), 5.0)], 0, None, np.zeros((1, 2, 1)))
    with pytest.raises(TypeError):
        ProjectiveRetrodictor(2, None, None, np.zeros((1, 2, 1)))
    with pytest.raises(TypeError):
        ProjectiveRetrodictor(2)


@pytest.mark.parametrize("cls", [Retrodictor, ProjectiveRetrodictor])
def test_from_factor_refuses_a_factor_beyond_the_norm_bound(cls):
    w = np.zeros((2, 3, 1), dtype=complex)
    w[0, 0, 0], w[1, 1, 0] = np.sqrt(1.0 + 4.0 * DEFAULT_TOL.psd_floor), 1.0
    with pytest.raises(InvalidOperatorSetError, match="element 0 is not PSD"):
        cls.from_factor(w)
    w[0, 0, 0] = 1.0
    retro = cls.from_factor(w)
    assert type(retro) is cls and (retro.n_outcomes, retro.d, retro.inconclusive_index) == (2, 3, 0)
    w[:] = 0.0  # the caller's array stays the caller's
    assert retro.factor[0, 0, 0] == 1.0 and not retro.factor.flags.writeable and w.flags.writeable


@pytest.mark.parametrize("cls", [Retrodictor, ProjectiveRetrodictor])
def test_from_factor_refuses_non_finite_and_non_stack_factors(cls):
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        w = np.zeros((2, 2, 1), dtype=complex)
        w[0, 0, 0], w[1, 1, 0] = 1.0, bad
        with pytest.raises(ValueError, match="factor entries must be finite"):
            cls.from_factor(w)
    with pytest.raises(ShapeMismatchError):
        cls.from_factor(np.eye(2, dtype=complex))


def test_projective_retrodictor_is_completed_by_its_remainder():
    retro = ProjectiveRetrodictor(2, [P0])
    assert retro.d == 2 and retro.n_outcomes == 1 and retro.inconclusive_index == 0
    assert np.allclose(retro.elements[0], np.diag([0.0, 1.0]), atol=1e-15)
    assert np.array_equal(np.delete(retro.elements, retro.inconclusive_index, 0)[0], P0)


def test_outside_sets_are_copied_once_per_check(monkeypatch):
    # projectors once to test them and once as the validated stack; a file's elements only
    # as the validated stack, its d checked against the retrodictor made from them
    square = measurement.square_matrices
    copies = []
    for module in (measurement, perfect):
        monkeypatch.setattr(module, "square_matrices",
                            lambda ops, d, what: copies.append(what) or square(ops, d, what))
    ProjectiveRetrodictor(2, [P0, np.diag([0.0, 1.0 + 0j])])
    assert copies == ["projector", "element"]
    obj = ud_to_obj(Retrodictor([0.2 * E2, 0.8 * P0, np.diag([0.0, 0.8 + 0j])]))
    copies.clear()
    assert ud_from_obj(obj).d == 2
    assert copies == ["element"]
    with pytest.raises(DimensionMismatchError, match=re.escape("expected (3, 3)")):
        ud_from_obj({**obj, "d": 3})


def test_rotated_complete_projectors_leave_a_zero_remainder(rng):
    # U P_k U^dag is Hermitian only up to rounding, as is the near-zero remainder
    u = random_unitary(3, rng)
    projectors = [u @ np.diag(np.eye(3)[k]) @ np.conj(u).T for k in range(3)]
    retro = ProjectiveRetrodictor(3, projectors)
    assert retro.n_outcomes == 3
    assert np.linalg.norm(retro.elements[0]) < 1e-14


def test_validated_sets_accept_one_stack_of_elements():
    # the (n, d, d) form Measurement.elements has; an empty stack is refused as an empty list is
    stack = np.array([np.diag([0.25, 0.5]), np.diag([0.75, 0.5])], dtype=complex)
    povm, retro, ud = Povm(2, stack), Retrodictor(stack), Retrodictor(stack, 1)
    assert (povm.n_outcomes, retro.n_outcomes, ud.n_outcomes) == (2, 1, 1)
    for got in (povm.elements, retro.elements, ud.elements):
        assert np.array_equal(np.array(got), stack)
    assert np.allclose(ud.factor[0] @ np.conj(ud.factor[0]).T, stack[0], atol=1e-16)
    for construct in (lambda e: Povm(2, e), Retrodictor):
        with pytest.raises(InvalidOperatorSetError, match="at least"):
            construct(stack[:0])


def test_factor_norm_check_agrees_with_the_expanded_elements_around_the_floor():
    # ||W||_2^2 swept across 1 + psd_floor: the factored verdict against povm_elements on
    # I - W W^dag and the rank-one W_j W_j^dag, which the factor's check replaces
    floor = DEFAULT_TOL.psd_floor
    rng = np.random.default_rng(31)
    for target in np.linspace(1.0 - 10.0 * floor, 1.0 + 10.0 * floor, 40):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(1, d + 1))
        s = np.sqrt(np.r_[target, rng.uniform(0.0, 0.9, n - 1)])
        w = random_unitary(d, rng)[:, :n] @ np.diag(s) @ random_unitary(n, rng)
        conclusive = [np.outer(col, np.conj(col)) for col in w.T]
        elements = [np.eye(d) - sum(conclusive)] + conclusive
        verdicts = []
        for build in (lambda: Retrodictor.from_factor(w.T[:, :, None]),
                      lambda: Retrodictor(elements)):
            try:
                build()
                verdicts.append(True)
            except InvalidOperatorSetError as exc:
                assert "element 0 is not PSD" in str(exc)
                verdicts.append(False)
        assert verdicts == [target <= 1.0 + floor] * 2


def test_state_validation():
    with pytest.raises(InvalidOperatorSetError):
        QuantumState.pure(np.array([1.0, 1.0]))
    with pytest.raises(InvalidOperatorSetError):
        QuantumState.mixed(np.diag([0.7, 0.7]))
    with pytest.raises(DimensionMismatchError):
        QuantumState.pure(np.array([1.0, 0.0]), factor_dims=(2, 2))
    s = QuantumState.pure(np.array([1.0, 0.0, 0.0, 0.0]), factor_dims=(2, 2))
    assert s.factor_dims == (2, 2) and s.dim == 4


@pytest.mark.parametrize("kind, data, factor_dims", [
    ("pure", np.array([1.0, 0.0]), (-1, -2)),
    ("pure", np.array([1.0, 0.0]), (-2, -1)),
    ("pure", np.array([1.0, 0.0]), (0, 2)),
    ("mixed", np.diag([1.0, 0.0, 0.0, 0.0]), (-2, -2)),
])
def test_state_factor_dims_must_be_positive(kind, data, factor_dims):
    with pytest.raises(DimensionMismatchError, match=r"factor dims .* must be positive"):
        QuantumState(kind, data, factor_dims)


@pytest.mark.parametrize("factor_dims", [(1.5, 4), (4, 1.5), (True, 4), (4, True), (np.True_, 4)])
def test_state_factor_dims_must_be_integers(factor_dims):
    # a vector as long as the product would pass the product check, which comes later: C^6
    # for the fractions, C^4 for the booleans, which are no dimensions though True * 4 == 4;
    # integral floats are refused as Measurement(2.0, ...) is, numpy integers are held as ints
    d = int(factor_dims[0] * factor_dims[1])
    message = "^factor dimension must be an integer, not a boolean$|cannot be interpreted as an integer"
    for dims in (factor_dims, (2.0, 3.0)):
        with pytest.raises(TypeError, match=message):
            QuantumState.pure(np.ones(d) / d ** 0.5, dims)
    dims = QuantumState.pure(np.ones(6) / 6 ** 0.5, (np.int64(2), 3)).factor_dims
    assert dims == (2, 3) and all(type(k) is int for k in dims)


@pytest.mark.parametrize("kind, data", [("pure", PLUS), ("mixed", np.outer(PLUS, PLUS))])
def test_state_data_is_a_read_only_copy(kind, data):
    own = np.array(data, dtype=complex)
    s = QuantumState(kind, own)
    own[0] = 5.0
    assert np.array_equal(s.data, data)
    with pytest.raises(ValueError, match="read-only"):
        s.data[0] = 5.0


# ----------------------------------------------------------------- povm_of

def test_povm_of_projective():
    p = povm_of(PROJ_Z)
    assert np.allclose(p.elements[0], np.diag([1.0, 0.0]))
    assert np.allclose(p.elements[1], np.diag([0.0, 1.0]))


def test_povm_of_pauli_quarters():
    # sigma^dag sigma = identity, so every element is I/4
    p = povm_of(pauli_measurement())
    for e in p.elements:
        assert np.allclose(e, np.eye(2) / 4.0, atol=1e-14)


def test_povm_of_two_to_four_is_half_identity():
    # columns of each embedding operator are orthogonal with norm 1/sqrt(2)
    p = povm_of(two_to_four().measurement)
    for e in p.elements:
        assert np.allclose(e, np.eye(2) / 2.0, atol=1e-14)


# ----------------------------------------------------- outcome_probabilities

def test_z_measurement_on_plus():
    p = outcome_probabilities(PROJ_Z, QuantumState.pure(PLUS))
    assert np.allclose(p, [0.5, 0.5], atol=1e-12)


def test_pauli_measurement_is_flat_on_any_state(rng):
    m = pauli_measurement()
    for _ in range(5):
        s = QuantumState.pure(random_pure_state(2, rng))
        assert np.allclose(outcome_probabilities(m, s), np.full(4, 0.25), atol=1e-12)


def test_counterexample_on_third_basis_state_is_certain():
    ex = counterexample_3d()
    z = np.zeros(3, dtype=complex)
    z[ex.expected["certain_state_index"]] = 1.0
    p = outcome_probabilities(ex.measurement, QuantumState.pure(z))
    want = np.zeros(4)
    want[ex.expected["certain_outcome_index"]] = 1.0
    assert np.array_equal(p, want)  # exact: tiny values clamp to zero


def test_probabilities_sum_to_one_mixed_and_bipartite(rng):
    m = random_fine_grained(2, 3, 3, rng)
    v = random_pure_state(2, rng)
    rho = 0.6 * np.outer(v, v.conj()) + 0.4 * np.eye(2) / 2
    mixed = QuantumState.mixed(rho)
    assert outcome_probabilities(m, mixed).sum() == pytest.approx(1.0, abs=1e-9)
    joint = QuantumState.pure(random_pure_state(6, rng), factor_dims=(2, 3))
    assert outcome_probabilities(m, joint).sum() == pytest.approx(1.0, abs=1e-9)


def test_bipartite_mixed_state_agrees_with_pure(rng):
    m = pauli_measurement()
    psi = random_pure_state(4, rng)
    pure = QuantumState.pure(psi, factor_dims=(2, 2))
    mixed = QuantumState.mixed(np.outer(psi, psi.conj()), factor_dims=(2, 2))
    assert np.allclose(outcome_probabilities(m, pure),
                       outcome_probabilities(m, mixed), atol=1e-12)


def test_probabilities_dimension_mismatch(rng):
    m = pauli_measurement()
    with pytest.raises(DimensionMismatchError):
        outcome_probabilities(m, QuantumState.pure(random_pure_state(3, rng)))


def test_mixed_probabilities_read_the_clipped_factor_of_the_kraus_images(rng):
    # an admissible negative eigenvalue (-5e-10 > -psd_floor) is clipped out of the factor
    # F = V sqrt(max(w, 0)) that the images and the retrodiction rows of run_trials use;
    # the outcome probabilities must come from the same F
    ops = random_fine_grained(2, 3, 6, rng).kraus
    m = Measurement(2, 3, [ops[:1], ops[1:3], ops[3:]])
    u = random_unitary(4, rng)
    rho = u @ np.diag([0.5, 0.3, 0.2 + 5e-10, -5e-10]) @ u.conj().T
    s = QuantumState.mixed((rho + rho.conj().T) / 2, factor_dims=(2, 2))
    w, v = np.linalg.eigh(s.data)
    assert w[0] == pytest.approx(-5e-10, rel=1e-6)
    f = v * np.sqrt(np.maximum(w, 0.0))
    lifted = [np.kron(a, np.eye(2)) @ f for a in ops]
    assert np.abs(images(ops, s).reshape(6, 6, 4) - np.array(lifted)).max() <= 1e-15
    want = [sum(np.linalg.norm(x) ** 2 for x in lifted[lo:hi]) for lo, hi in ((0, 1), (1, 3), (3, 6))]
    assert np.abs(outcome_probabilities(m, s) - want).max() <= 1e-15


def _density(d: int, rng) -> np.ndarray:
    rho = random_psd(d, rng)
    return rho / np.trace(rho).real


def test_a_state_holds_the_read_only_factor_that_checked_it(rng):
    # rho = F F^dag for the Hermitian part of a mixed input, skew within eq_residual included
    for d in (1, 2, 3, 6):
        for skew in (0.0, 1e-12):
            rho = _density(d, rng) + skew * (ginibre(d, d, rng) - dagger(ginibre(d, d, rng)))
            s = QuantumState.mixed(rho)
            assert not s.factor.flags.writeable and s.factor.shape == (d, d)
            assert np.abs(s.factor @ dagger(s.factor) - (rho + dagger(rho)) / 2).max() <= 1e-15
        pure = QuantumState.pure(random_pure_state(d, rng))
        assert pure.factor is pure.data


def test_statistics_of_a_held_mixed_state_form_no_eigendecomposition(rng, monkeypatch):
    m = random_fine_grained(2, 3, 4, rng)
    s = QuantumState.mixed(_density(4, rng), (2, 2))
    retro = always_inconclusive(3, 4)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: calls.append(a) or eigh(a, *args))
    outcome_probabilities(m, s)
    run_trials(m, retro, s, 100, seed=0)
    assert calls == []
    post = apply_outcome(m, s, 1)
    # the one decomposition checks the post-measurement state and forms its factor
    assert len(calls) == 1 and np.array_equal(calls[0], (post.data + dagger(post.data)) / 2)


def test_images_of_an_inexactly_hermitian_density_read_its_hermitian_part(rng):
    ops = random_fine_grained(2, 3, 3, rng).kraus
    g = ginibre(4, 4, rng)
    rho = _density(4, rng) + 1e-12 * (g - dagger(g))  # Hermitian within eq_residual only
    s = QuantumState.mixed(rho, (2, 2))
    assert np.array_equal(s.data, rho)
    w, v = np.linalg.eigh((rho + dagger(rho)) / 2)
    want = ops @ (v * np.sqrt(np.maximum(w, 0.0))).reshape(2, -1)
    assert np.array_equal(images(ops, s), want)
    w, v = np.linalg.eigh(rho)  # reads the lower triangle alone: other bits
    assert not np.array_equal(images(ops, s), ops @ (v * np.sqrt(np.maximum(w, 0.0))).reshape(2, -1))


def test_density_verdicts_at_the_psd_floor_match_the_descending_reference(rng):
    floor, refused = DEFAULT_TOL.psd_floor, 0
    for _ in range(300):
        d = int(rng.integers(2, 5))
        w = rng.uniform(0.1, 1.0, d)
        w[0] = -floor * (1.0 + rng.uniform(-1e-6, 1e-6))  # lambda_min within 1e-6 of -psd_floor
        w[1:] *= (1.0 - w[0]) / w[1:].sum()
        u = random_unitary(d, rng)
        rho = (u * w) @ dagger(u)
        rho = (rho + dagger(rho)) / 2
        lowest = eigh_descending(rho)[0][-1]
        if lowest < -floor:
            refused += 1
            with pytest.raises(InvalidOperatorSetError) as info:
                QuantumState.mixed(rho)
            assert str(info.value) == (f"density matrix is not PSD: most negative eigenvalue "
                                       f"{lowest:.3e} below the admissible floor")
        else:
            QuantumState.mixed(rho)
    assert 0 < refused < 300


# ------------------------------------------------------------ apply_outcome

def test_projective_collapse_on_plus():
    out = apply_outcome(PROJ_Z, QuantumState.pure(PLUS), 0)
    assert out.kind == "pure"
    assert abs(np.vdot(E2[:, 0], out.data)) == pytest.approx(1.0, abs=1e-12)


def test_two_to_four_outcome_zero_embeds_amplitudes(rng):
    m = two_to_four().measurement
    psi = random_pure_state(2, rng)
    out = apply_outcome(m, QuantumState.pure(psi), 0)
    want = np.zeros(4, dtype=complex)
    want[:2] = psi
    assert abs(np.vdot(want, out.data)) == pytest.approx(1.0, abs=1e-12)


def test_counterexample_outcome_three_returns_input():
    ex = counterexample_3d()
    z = np.zeros(3, dtype=complex)
    z[2] = 1.0
    out = apply_outcome(ex.measurement, QuantumState.pure(z), 2)
    assert abs(np.vdot(z, out.data)) == pytest.approx(1.0, abs=1e-12)


def test_zero_probability_outcome_is_refused():
    ex = counterexample_3d()
    z = np.zeros(3, dtype=complex)
    z[2] = 1.0
    with pytest.raises(ZeroProbabilityOutcomeError):
        apply_outcome(ex.measurement, QuantumState.pure(z), 0)


def test_an_outcome_kept_at_the_rank_cutoff_is_applied():
    # p_1 = 2^-34 = rank_rel: _probabilities keeps it, so run_trials can draw it, and only
    # an outcome it zeroes is refused
    tol = Tolerance(rank_rel=2.0**-34, eq_residual=1e-11)
    m = Measurement(2, 2, [[np.diag([np.sqrt(1.0 - 2.0**-34), 1.0])], [np.diag([2.0**-17, 0.0])]], tol)
    zero, one = QuantumState.pure([1.0, 0.0]), QuantumState.pure([0.0, 1.0])
    assert outcome_probabilities(m, zero, tol)[1] == 2.0**-34
    assert np.array_equal(apply_outcome(m, zero, 1, tol).data, [1.0, 0.0])
    with pytest.raises(ZeroProbabilityOutcomeError,
                       match="^outcome 1 has zero probability for the supplied state$"):
        apply_outcome(m, one, 1, tol)


def test_apply_outcome_norm_one_when_probability_positive(rng):
    m = random_fine_grained(3, 3, 4, rng)
    for _ in range(5):
        s = QuantumState.pure(random_pure_state(3, rng))
        p = outcome_probabilities(m, s)
        for k in range(4):
            if p[k] > 1e-6:
                out = apply_outcome(m, s, k)
                assert np.linalg.norm(out.data) == pytest.approx(1.0, abs=1e-9)


def test_apply_outcome_coarse_grained_mixes(rng):
    u = random_unitary(2, rng)
    half = np.eye(2) / np.sqrt(2)
    coarse = Measurement(2, 2, [[half @ u, (u @ half)]])
    s = QuantumState.pure(random_pure_state(2, rng))
    out = apply_outcome(coarse, s, 0)
    assert out.kind == "mixed"
    assert np.trace(out.data).real == pytest.approx(1.0, abs=1e-12)


def test_ragged_group_sizes_are_allowed(rng):
    u = random_unitary(2, rng)
    a = np.diag([1.0, 0.0 + 0j]) / np.sqrt(2)
    b = u @ np.diag([1.0, 0.0 + 0j]) / np.sqrt(2)
    c = np.diag([0.0 + 0j, 1.0])
    ragged = Measurement(2, 2, [[a, b], [c]])
    assert not ragged.fine_grained
    assert [len(g) for g in ragged.outcomes] == [2, 1]
    s = QuantumState.pure(random_pure_state(2, rng))
    assert outcome_probabilities(ragged, s).sum() == pytest.approx(1.0, abs=1e-9)


def test_apply_outcome_bipartite_acts_on_first_factor(rng):
    m = PROJ_Z
    psi = random_pure_state(2, rng)
    chi = random_pure_state(3, rng)
    joint = QuantumState.pure(np.kron(psi, chi), factor_dims=(2, 3))
    out = apply_outcome(m, joint, 0)
    assert out.factor_dims == (2, 3)
    want = np.kron(E2[:, 0], chi)
    assert abs(np.vdot(want, out.data)) == pytest.approx(1.0, abs=1e-12)


def test_apply_outcome_density_matches_the_kron_lift(rng):
    ops = random_fine_grained(2, 3, 6, rng).kraus
    coarse = Measurement(2, 3, [ops[:1], ops[1:3], ops[3:]])
    for d_anc in (1, 2, 3):
        g = random_psd(2 * d_anc, rng)
        rho = g / np.trace(g).real
        s = QuantumState.mixed(rho, factor_dims=(2, d_anc))
        for k, group in enumerate(coarse.outcomes):
            lifted = [np.kron(a, np.eye(d_anc)) for a in group]
            want = sum(a @ rho @ a.conj().T for a in lifted)
            got = apply_outcome(coarse, s, k)
            assert got.kind == "mixed" and got.factor_dims == (3, d_anc)
            assert np.abs(got.data - want / np.trace(want).real).max() <= 1e-12
            # left unreshaped, the images factor the partial trace over the ancilla
            f = images(group, s)
            assert f.shape == (len(group), 3, d_anc * 2 * d_anc)
            reduced = np.einsum("rik,rjk->ij", f, f.conj())
            traced = np.einsum("ijkj->ik", want.reshape(3, d_anc, 3, d_anc))
            assert np.abs(reduced - traced).max() <= 1e-12


# ---------------------------------------------------------------- JSON I/O

def test_measurement_json_round_trip(rng):
    from retroq import jsonio

    m = random_fine_grained(2, 3, 3, rng)
    obj = jsonio.measurement_to_obj(m)
    back = jsonio.measurement_from_obj(obj)
    for g1, g2 in zip(m.outcomes, back.outcomes):
        for a1, a2 in zip(g1, g2):
            assert np.array_equal(a1, a2)  # entrywise exact round trip


def test_state_and_povm_json_round_trip(rng):
    from retroq import jsonio

    s = QuantumState.pure(random_pure_state(4, rng), factor_dims=(2, 2))
    back = jsonio.state_from_obj(jsonio.state_to_obj(s))
    assert np.array_equal(s.data, back.data)
    assert back.factor_dims == (2, 2)

    p = povm_of(pauli_measurement())
    back_p = jsonio.povm_from_obj(jsonio.povm_to_obj(p))
    for e1, e2 in zip(p.elements, back_p.elements):
        assert np.array_equal(e1, e2)


def test_apply_outcome_and_a_state_of_other_factors_are_refused():
    m = pauli_measurement()
    with pytest.raises(IndexError, match="^outcome index 4 out of range$"):
        apply_outcome(m, QuantumState.pure([1.0, 0.0]), 4)
    with pytest.raises(TypeError, match="^outcome index must be an integer, not a boolean$"):
        apply_outcome(m, QuantumState.pure([1.0, 0.0]), True)
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        apply_outcome(m, QuantumState.pure([1.0, 0.0]), 1.0)
    with pytest.raises(DimensionMismatchError,
                       match=r"^measurement expects input dimension 2, state factors as \(3, 2\)$"):
        outcome_probabilities(m, QuantumState.pure(np.ones(6) / np.sqrt(6), (3, 2)))


@pytest.mark.parametrize("read", [
    lambda m, s: images(m.kraus, s),
    outcome_probabilities,
    lambda m, s: apply_outcome(m, s, 0),
    lambda m, s: run_trials(m, always_inconclusive(2, 4), s, 10, seed=0),
    unambiguous.retrodict_unambiguously,
], ids=["images", "outcome_probabilities", "apply_outcome", "run_trials", "retrodict_unambiguously"])
def test_every_statistic_refuses_a_state_off_the_input_space_in_images(read):
    # an undeclared C^4 state is not read as C^2 x C^2, and a declared first factor must fit
    m = pauli_measurement()
    with pytest.raises(DimensionMismatchError,
                       match="^measurement expects input dimension 2, state has dimension 4$"):
        read(m, QuantumState.pure(np.ones(4) / 2))
    with pytest.raises(DimensionMismatchError,
                       match=r"^measurement expects input dimension 2, state factors as \(3, 2\)$"):
        read(m, QuantumState.pure(np.ones(6) / np.sqrt(6), (3, 2)))


def test_quantum_state_refuses_an_unknown_kind_and_a_bad_density():
    with pytest.raises(ValueError, match="^kind must be 'pure' or 'mixed', got 'other'$"):
        QuantumState("other", [1.0])
    with pytest.raises(DimensionMismatchError, match="^density matrix must be square$"):
        QuantumState.mixed(np.ones((2, 3)) / 2.0)
    with pytest.raises(InvalidOperatorSetError, match="^density matrix is not PSD: "):
        QuantumState.mixed(np.diag([1.5, -0.5]))


def test_payloads_of_no_known_format_are_refused():
    from retroq.jsonio import detect_and_load

    with pytest.raises(ValueError, match="^top-level payload must be a JSON object$"):
        detect_and_load([1, 2])
    with pytest.raises(ValueError, match="^payload does not match any known format$"):
        detect_and_load({"foo": 1})


def test_numpy_integer_dimensions_round_trip_through_json():
    ud = [0.2 * E2, 0.8 * P0, np.diag([0.0, 0.8 + 0j])]
    built = [
        (Measurement(np.int64(2), np.int64(2), [[HALF], [HALF_2]]), Measurement(2, 2, [[HALF], [HALF_2]]),
         measurement_to_obj),
        (Measurement.from_stack(np.int64(2), np.uint8(2), np.array([HALF, HALF_2]), [1, 1]),
         Measurement(2, 2, [[HALF], [HALF_2]]), measurement_to_obj),
        (Povm(np.int64(2), [P0, E2 - P0]), Povm(2, [P0, E2 - P0]), povm_to_obj),
        (Retrodictor(ud, np.int64(1)), Retrodictor(ud, 1), ud_to_obj),
    ]
    for got, want, to_obj in built:
        text = dumps(to_obj(got))
        assert text == dumps(to_obj(want))
        assert dumps(to_obj(detect_and_load(json.loads(text)))) == text


@pytest.mark.parametrize("build", [
    lambda: Measurement(True, 2, [[HALF], [HALF_2]]),
    lambda: Measurement(2, np.True_, [[HALF], [HALF_2]]),
    lambda: Measurement(2.0, 2, [[HALF], [HALF_2]]),
    lambda: Measurement.from_stack(True, 2, np.array([HALF, HALF_2]), [1, 1]),
    lambda: Povm(True, [np.eye(1)]),
    lambda: Povm(np.True_, [np.eye(1)]),
    lambda: Povm(2.0, [P0, E2 - P0]),
    lambda: Retrodictor([0.2 * E2, 0.8 * E2], True),
    lambda: Retrodictor([0.2 * E2, 0.8 * E2], np.True_),
    lambda: Retrodictor([0.2 * E2, 0.8 * E2], 1.0),
], ids=["measurement_d_in", "measurement_d_out", "measurement_float", "from_stack", "povm",
        "povm_numpy_bool", "povm_float", "ud_index", "ud_numpy_bool", "ud_float"])
def test_boolean_and_fractional_dimensions_and_indices_are_refused(build):
    with pytest.raises(TypeError):
        build()


def test_a_singular_completion_is_refused_as_numeric_rank_decides():
    # one operator C^2 -> C^1 cannot resolve the identity on C^2: the sum A^dag A has rank 1,
    # and its second eigenvalue is round-off, of either sign, below rank_rel times the first
    for seed in range(300):
        with pytest.raises(ValueError, match="^matrix must be positive definite$"):
            random_fine_grained(2, 1, 1, seed)
    with pytest.raises(ValueError, match="^matrix must be positive definite$"):
        psd_inv_sqrt(np.diag([1.0, 1e-11]))
    assert np.allclose(psd_inv_sqrt(np.diag([4.0, 1e-9])), np.diag([0.5, 1e-9 ** -0.5]), rtol=1e-12)
