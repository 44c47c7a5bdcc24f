"""Monte Carlo engine: determinism, exactness of zero-error retrodiction, statistics."""

from __future__ import annotations

import numpy as np
import pytest

from retroq import (
    DimensionMismatchError,
    Measurement,
    Povm,
    QuantumState,
    Retrodictor,
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
from retroq.linalg import DEFAULT_TOL, dagger
from retroq.measurement import _probabilities, images
from retroq.simulation import _clean_probs, _joint_table
from retroq.rand import random_fine_grained, random_povm, random_psd, random_pure_state


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
    as_ud = Retrodictor(retro.elements, 0)
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


# ------------------------------------------- Kraus images against the old path

def _old_post_state(m, s, k):
    """Normalised post-measurement vector or density, formed as the state-building path did:
    a pure fine-grained image, else the ``kron(A, I)``-lifted density."""
    d_anc = s.factor_dims[1] if s.factor_dims is not None else 1
    group = m.kraus[m.starts[k]:m.starts[k + 1]]
    if s.kind == "pure" and len(group) == 1:
        a = group[0]
        phi = a @ s.data if d_anc == 1 else (a @ s.data.reshape(m.d_in, d_anc)).reshape(-1)
        return phi / np.linalg.norm(phi)
    rho = s.density()
    dim = m.d_out * d_anc
    out = np.zeros((dim, dim), dtype=complex)
    for a in group:
        lifted = a if d_anc == 1 else np.kron(a, np.eye(d_anc))
        out += lifted @ rho @ lifted.conj().T
    return out / float(np.trace(out).real)


def _old_clean(p, floor):
    q = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    q[q < floor] = 0.0
    return q / q.sum()


def _old_confusion(m, r, s, n_trials, seed, floor=1e-10):
    """Confusion matrix of the state-building path: one post-measurement state per live
    outcome, the expectations of all elements in one product with it, ``kron(E, I)`` for a
    first-factor retrodictor; the trials are drawn at once from the joint table."""
    n = m.n_outcomes
    p = _old_clean(outcome_probabilities(m, s), floor)
    dim = m.d_out * (s.factor_dims[1] if s.factor_dims is not None else 1)
    elements = r.elements if r.d == dim else np.kron(r.elements, np.eye(dim // r.d))
    joint = np.zeros((n + 1, n))  # [answer, actual outcome]
    for k in np.flatnonzero(p > 0.0):
        post = _old_post_state(m, s, int(k))
        if post.ndim == 1:  # <post|E|post>
            rows = ((elements @ post) @ np.conj(post)).real.tolist()
        else:  # tr(E rho) = sum_ij E_ij rho_ji
            rows = (elements.reshape(len(elements), -1) @ post.T.ravel()).real.tolist()
        rows.append(rows.pop(r.inconclusive_index))
        joint[:, k] = p[k] * _old_clean(rows, floor)
    # one multinomial over the table, up to its last positive cell
    flat = joint.ravel()
    end = np.flatnonzero(flat)[-1] + 1
    confusion = np.zeros(flat.size, dtype=np.int64)
    confusion[:end] = np.random.default_rng(seed).multinomial(n_trials, flat[:end])
    return confusion.reshape(n + 1, n)


def _mixed(d, rng):
    rho = random_psd(d, rng)
    return rho / np.trace(rho).real


def test_run_trials_matches_the_state_building_path(rng):
    d_in, d_out, n, d_anc = 2, 3, 3, 2
    fine = random_fine_grained(d_in, d_out, n, rng)
    ops = random_fine_grained(d_in, d_out, 2 * n, rng).kraus
    coarse = Measurement(d_in, d_out, [[ops[2 * k], ops[2 * k + 1]] for k in range(n)])
    synthesised = synthesize(random_povm(d_in, n, rng), d_out=d_out).measurement
    assert not synthesised.fine_grained
    # a projective retrodictor made for another measurement answers every outcome with odds
    proj = build_retrodictor(synthesize(random_povm(d_in, n, rng), d_out=d_out).measurement)
    states = [
        QuantumState.pure(random_pure_state(d_in, rng)),
        QuantumState.pure(random_pure_state(d_in * d_anc, rng), factor_dims=(d_in, d_anc)),
        QuantumState.mixed(_mixed(d_in, rng)),
        QuantumState.mixed(_mixed(d_in * d_anc, rng), factor_dims=(d_in, d_anc)),
    ]
    for m in (fine, coarse, synthesised):
        for s in states:
            d_s = s.dim // d_in
            lifted = Retrodictor([np.kron(e, np.eye(d_s)) for e in proj.elements],
                                            proj.inconclusive_index)
            # a generic POVM on the joint space is no kron(E, I): it sees how the images are laid out
            joint = Retrodictor(random_povm(d_out * d_s, n + 1, rng).elements)
            for r in (proj, lifted, joint, always_inconclusive(d_out, n)):
                for seed in (3, 2024):
                    got = run_trials(m, r, s, 3000, seed=seed).confusion
                    assert got.tobytes() == _old_confusion(m, r, s, 3000, seed).tobytes()


def _element_rows(r, m, s):
    """Per outcome, sum_r tr(S_r^dag E_j S_r) over its Kraus images S_r = (A_r x I) F,
    conclusive elements first, normalised; F and the images formed here with numpy."""
    if s.kind == "pure":
        f = s.data.reshape(m.d_in, -1)
    else:
        w, v = np.linalg.eigh(s.data)
        f = (v * np.sqrt(np.maximum(w, 0.0))).reshape(m.d_in, -1)
    elements = [*np.delete(r.elements, r.inconclusive_index, 0), r.elements[r.inconclusive_index]]
    rows = []
    for group in m.outcomes:
        images = [(a @ f).reshape(r.d, -1) for a in group]
        row = np.array([sum(np.trace(np.conj(x).T @ e @ x).real for x in images) for e in elements])
        rows.append(row / row.sum())
    return rows


def test_factored_rows_match_the_element_reference(rng):
    d_in, d_out, n, d_anc = 2, 3, 3, 2
    fine = random_fine_grained(d_in, d_out, n, rng)
    ops = random_fine_grained(d_in, d_out, 2 * n, rng).kraus
    coarse = Measurement(d_in, d_out, [[ops[2 * k], ops[2 * k + 1]] for k in range(n)])
    synthesised = synthesize(random_povm(d_in, n, rng), d_out=d_out).measurement
    proj = build_retrodictor(synthesize(random_povm(d_in, n, rng), d_out=d_out).measurement)
    states = [
        QuantumState.pure(random_pure_state(d_in, rng)),
        QuantumState.mixed(_mixed(d_in, rng)),
        QuantumState.pure(random_pure_state(d_in * d_anc, rng), factor_dims=(d_in, d_anc)),
        QuantumState.mixed(_mixed(d_in * d_anc, rng), factor_dims=(d_in, d_anc)),
    ]
    cases = []
    for m in (fine, coarse, synthesised):
        for s in states:
            d_s = s.dim // d_in
            # factor-built: projective on the first factor; element-built: a generic POVM
            # on the joint space and the projective one lifted there; both degenerate kinds.
            # The factored rows read the inconclusive entry as the complement of the others,
            # so the generic POVM's inconclusive element is the complement of its others too.
            conclusive = random_povm(d_out * d_s, n + 1, rng).elements[1:]
            joint = Retrodictor([np.eye(d_out * d_s) - sum(conclusive), *conclusive])
            lifted = Retrodictor([np.kron(e, np.eye(d_s)) for e in proj.elements])
            cases += [(m, r, s) for r in (proj, joint, lifted, always_inconclusive(d_out, n))]
    entangled = maximally_entangled_state(2)
    cases.append((pauli_measurement(), retrodict_unambiguously(pauli_measurement(), entangled)[0],
                  entangled))
    for m, r, s in cases:
        got = _joint_table(m, r, s, DEFAULT_TOL)
        p = _clean_probs(outcome_probabilities(m, s), DEFAULT_TOL.rank_rel)
        assert (p > 0.0).all()
        for k, want in enumerate(_element_rows(r, m, s)):
            assert np.abs(got[:, k] - p[k] * want).max() <= 1e-15


def _per_live_outcome_table(m, r, s, tol=DEFAULT_TOL):
    """The joint table as it was assembled outcome by live outcome: the outcomes of nonzero
    probability in a list, their images copied out of the stack, the rows summed at offsets
    into that copy, then scaled by ``p`` and written into their columns."""
    n = m.n_outcomes
    stack = images(m.kraus, s)
    p = _clean_probs(_probabilities(stack, m.starts, tol), tol.rank_rel)
    live = [k for k in range(n) if p[k] > 0.0]
    stack = stack[np.repeat(p > 0.0, np.diff(m.starts))]
    stack = stack.reshape(len(stack), r.d, -1)
    w = r.factor.transpose(1, 0, 2).reshape(r.d, -1)
    per_column = np.sum(np.abs(dagger(w) @ stack) ** 2, axis=2)
    conclusive = per_column.reshape(len(stack), r.n_outcomes, -1).sum(axis=2)
    total = np.sum(np.abs(stack) ** 2, axis=(1, 2))
    per_image = np.column_stack([conclusive, total - conclusive.sum(axis=1)])
    sizes = np.diff(m.starts)[live]
    rows = np.add.reduceat(per_image, np.cumsum(sizes) - sizes, axis=0)
    rows = _clean_probs(rows / rows.sum(axis=1, keepdims=True), tol.rank_rel)
    joint = np.zeros((n + 1, n))
    joint[:, live] = (p[live, None] * rows).T
    return joint


@pytest.mark.parametrize("seed", range(4))
def test_joint_table_matches_the_per_live_outcome_assembly_bit_for_bit(seed):
    # each image's weights are its own slice of one product and each outcome's sum reads only
    # its own rows, so forming the rows of every outcome and masking changes no bit
    rng = np.random.default_rng(seed)
    d_in, d_out, n, d_anc = 2, 3, 3, 2
    fine = random_fine_grained(d_in, d_out, n, rng)
    ops = random_fine_grained(d_in, d_out, 2 * n, rng).kraus
    coarse = Measurement(d_in, d_out, [[ops[2 * k], ops[2 * k + 1]] for k in range(n)])
    synthesised = synthesize(random_povm(d_in, n, rng), d_out=d_out).measurement
    proj = build_retrodictor(synthesize(random_povm(d_in, n, rng), d_out=d_out).measurement)
    states = [
        QuantumState.pure(random_pure_state(d_in, rng)),
        QuantumState.pure(random_pure_state(d_in * d_anc, rng), factor_dims=(d_in, d_anc)),
        QuantumState.mixed(_mixed(d_in, rng)),
        QuantumState.mixed(_mixed(d_in * d_anc, rng), factor_dims=(d_in, d_anc)),
    ]
    cases = []
    for m in (fine, coarse, synthesised):
        for s in states:
            d_s = s.dim // d_in
            lifted = Retrodictor([np.kron(e, np.eye(d_s)) for e in proj.elements],
                                            proj.inconclusive_index)
            generic = Retrodictor(random_povm(d_out * d_s, n + 1, rng).elements)
            cases += [(m, r, s) for r in (proj, lifted, generic, always_inconclusive(d_out, n))]
    # outcomes of zero probability: the inputs of test_sampling_matches_the_per_outcome_loop
    m = synthesize(Povm(3, [np.diag(e).astype(complex) for e in np.eye(3)]), d_out=4).measurement
    proj = build_retrodictor(m)
    e0, e2 = np.eye(3, dtype=complex)[[0, 2]]
    never = [QuantumState.pure(e0), QuantumState.pure((e0 + e2) / np.sqrt(2)),
             QuantumState.mixed(np.diag([0.5, 0.0, 0.5]).astype(complex))]
    cases += [(m, r, s) for s in never
              for r in (proj, Retrodictor(random_povm(4, 4, rng).elements),
                        Retrodictor(proj.elements, 0))]
    # unambiguous retrodiction of independent Kraus operators on an entangled input
    for m in (pauli_measurement(), random_fine_grained(4, 4, 8, rng)):
        entangled = maximally_entangled_state(m.d_in)
        cases.append((m, retrodict_unambiguously(m, entangled)[0], entangled))
    assert sum((outcome_probabilities(m, s) == 0.0).any() for m, _, s in cases) == 9
    for m, r, s in cases:
        got = _joint_table(m, r, s, DEFAULT_TOL)
        assert got.tobytes() == _per_live_outcome_table(m, r, s).tobytes()


def test_run_trials_builds_no_state(rng, monkeypatch):
    result = synthesize(random_povm(2, 3, rng), d_out=3)
    retro = build_retrodictor(result.measurement)
    states = [QuantumState.pure(random_pure_state(2, rng)),
              QuantumState.mixed(_mixed(4, rng), factor_dims=(2, 2))]
    built = []
    init = QuantumState.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0] if args else kwargs.get("kind"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(QuantumState, "__init__", counting)
    for s in states:
        report = run_trials(result.measurement, retro, s, 1000, seed=4)
        assert report.mismatches == 0
    assert built == []


@pytest.mark.parametrize("n_trials", [0, 1, 8191, 8192, 8193, 20000])
def test_sampling_matches_the_per_outcome_loop(n_trials, rng):
    # the joint table from Kraus images against the one from post-measurement states, on inputs
    # where some outcomes never occur
    m = synthesize(Povm(3, [np.diag(e).astype(complex) for e in np.eye(3)]), d_out=4).measurement
    proj = build_retrodictor(m)
    generic = Retrodictor(random_povm(4, 4, rng).elements)
    e0, e2 = np.eye(3, dtype=complex)[[0, 2]]
    never = [QuantumState.pure(e0), QuantumState.pure((e0 + e2) / np.sqrt(2)),
             QuantumState.mixed(np.diag([0.5, 0.0, 0.5]).astype(complex))]
    assert all((outcome_probabilities(m, s) == 0.0).any() for s in never)
    cases = [(m, r, s) for s in never + [QuantumState.pure(random_pure_state(3, rng))]
             for r in (proj, generic, Retrodictor(proj.elements, 0))]
    pauli, entangled = pauli_measurement(), maximally_entangled_state(2)
    cases.append((pauli, retrodict_unambiguously(pauli, entangled)[0], entangled))
    for m, r, s in cases:
        for seed in (0, 11):
            got = run_trials(m, r, s, n_trials, seed=seed).confusion
            assert got.tobytes() == _old_confusion(m, r, s, n_trials, seed).tobytes()
            assert got.sum() == n_trials


def test_the_largest_draw_never_lands_on_a_zero_probability_entry():
    # the positive cells of a normalised table can sum to an ulp short of 1, so numpy's running
    # remainder exceeds the last positive cell; drawn over the whole table, that remainder
    # would land on the final cell, here of an outcome that never occurs
    m = Measurement(4, 4, [[np.diag(e).astype(complex)] for e in np.eye(4)])
    rng = np.random.default_rng(0)
    for _ in range(2000):
        psi = np.r_[rng.random(3), 0.0]  # outcome 3 never occurs
        s = QuantumState.pure(psi / np.linalg.norm(psi))
        # a zero inconclusive element never answers
        retro = Retrodictor([np.zeros((4, 4), dtype=complex), *random_povm(4, 4, rng).elements])
        cells = _joint_table(m, retro, s, DEFAULT_TOL).ravel()  # [answer, outcome] order
        positive = cells[cells > 0.0]
        remainder = 1.0
        for c in positive[:-1]:
            remainder -= c  # as numpy's multinomial keeps it
        if remainder > positive[-1] and positive.sum() < 1.0:
            break
    else:
        pytest.fail("no table whose positive mass stops short of 1")
    zero = np.ones((5, 4), dtype=bool)
    zero[:4, :3] = False
    for seed in range(10):
        report = run_trials(m, retro, s, 2**60, seed=seed)
        assert report.confusion.sum() == 2**60
        assert not report.confusion[zero].any()


# ---------------------------------------------- the joint-table draw against the old path

def _scalar_measurement(n, amplitude):
    return Measurement(1, 1, [[np.full((1, 1), amplitude, dtype=complex)] for _ in range(n)])


def _scalar_retrodictor(conclusive):
    # on C^1 every post-measurement state is |0>, so each row is the elements themselves
    return Retrodictor([np.full((1, 1), 1.0 - sum(conclusive))]
                                  + [np.full((1, 1), e) for e in conclusive])


def test_counter_has_no_outcome_limit():
    # 1,100 outcomes on C^1, A_k = n^-1/2, each answered with 1,101 odds: a table of 1,211,100
    # cells, most of whose outcomes are drawn
    n = 1100
    m, s = _scalar_measurement(n, n ** -0.5), QuantumState.pure([1.0])
    weights = np.random.default_rng(8).random(n + 1)
    r = _scalar_retrodictor(list(weights[:n] / weights.sum()))
    got = run_trials(m, r, s, 8193, seed=1).confusion
    assert got.shape == (n + 1, n)
    assert got.tobytes() == _old_confusion(m, r, s, 8193, seed=1).tobytes()
    assert np.count_nonzero(got.sum(axis=0)) > n // 2


def test_joint_table_peaks_within_34_mb_at_1100_outcomes(traced_peak):
    # the (N + 1, N) table is 9.7 MB; the complex product with the factor (19.4 MB) and its
    # modulus are the largest pair live at once, and every later step reduces in place
    n = 1100
    m, s = _scalar_measurement(n, n ** -0.5), QuantumState.pure([1.0])
    weights = np.random.default_rng(8).random(n + 1)
    r = _scalar_retrodictor(list(weights[:n] / weights.sum()))
    table, peak = traced_peak(lambda: _joint_table(m, r, s, DEFAULT_TOL))
    assert table.nbytes == (n + 1) * n * 8
    assert peak <= 34e6


def test_trial_counts_and_seeds_are_integers(rng):
    m = pauli_measurement()
    s = QuantumState.pure(random_pure_state(2, rng))
    r = always_inconclusive(2, 4)
    report = run_trials(m, r, s, np.int64(2), seed=np.uint8(3))
    assert type(report.n_trials) is int and type(report.seed) is int
    assert dumps(trial_report_to_obj(report)) == dumps(trial_report_to_obj(run_trials(m, r, s, 2, 3)))
    for n_trials, seed in ((True, 3), (2, False), (np.True_, 3), (3.0, 3), (2, 3.0), ("2", 3)):
        with pytest.raises(TypeError):
            run_trials(m, r, s, n_trials, seed)


@pytest.mark.parametrize("n_trials", [0, 1, 8191, 8192, 8193])
def test_replayed_draws_skip_outcomes_of_zero_probability_as_the_loop_does(n_trials):
    # probabilities (1/4, 0, 1/4, 1/4, 0, 1/4, 0, 0): outcomes of zero probability sit between,
    # beside and after the others, and the table's last cells are theirs
    m = Measurement(8, 8, [[np.diag(e).astype(complex)] for e in np.eye(8)])
    s = QuantumState.pure(np.array([0.5, 0.0, 0.5, 0.5, 0.0, 0.5, 0.0, 0.0]))
    for r in (build_retrodictor(m), always_inconclusive(8, 8)):
        for seed in (0, 5, 977):
            got = run_trials(m, r, s, n_trials, seed=seed).confusion
            assert got.tobytes() == _old_confusion(m, r, s, n_trials, seed=seed).tobytes()
            assert got.sum() == n_trials and got[:, [1, 4, 6, 7]].sum() == 0


def test_a_trillion_trials_take_one_draw():
    # the cost of a call does not grow with n_trials: every trial of 10^12 is counted
    m = random_fine_grained(8, 8, 32, np.random.default_rng(3))
    s = maximally_entangled_state(8)
    r, _ = retrodict_unambiguously(m, s)
    report = run_trials(m, r, s, 10**12, seed=1)
    assert report.confusion.sum() == 10**12
    assert report.mismatches == 0


def test_run_trials_draws_at_most_the_int64_count(rng):
    # numpy's multinomial draws int64 counts: one trial more is refused before the table is formed
    m = pauli_measurement()
    s = QuantumState.pure(random_pure_state(2, rng))
    for r in (always_inconclusive(2, 4), always_inconclusive(2, 3)):
        for n_trials in (2**63, np.uint64(2**63)):
            with pytest.raises(ValueError, match=f"^n_trials must be at most {2**63 - 1}$"):
                run_trials(m, r, s, n_trials, seed=0)
    report = run_trials(m, always_inconclusive(2, 4), s, 2**63 - 1, seed=0)
    assert report.confusion.sum() == report.n_trials == 2**63 - 1


def test_run_trials_refuses_a_negative_count_and_a_retrodictor_of_other_outcomes(rng):
    m = pauli_measurement()
    s = QuantumState.pure(random_pure_state(2, rng))
    with pytest.raises(ValueError, match="^n_trials must be nonnegative$"):
        run_trials(m, always_inconclusive(2, 4), s, -1, seed=0)
    with pytest.raises(DimensionMismatchError,
                       match="^retrodictor outcome count differs from measurement$"):
        run_trials(m, always_inconclusive(2, 3), s, 10, seed=0)


def test_run_trials_refuses_a_negative_seed_before_forming_the_table(rng):
    m = pauli_measurement()
    s = QuantumState.pure(random_pure_state(2, rng))
    # the second retrodictor has another outcome count, which forming the table would refuse
    for r in (always_inconclusive(2, 4), always_inconclusive(2, 3)):
        with pytest.raises(ValueError, match="^seed must be nonnegative$"):
            run_trials(m, r, s, 10, seed=-1)
        with pytest.raises(ValueError, match="^n_trials must be nonnegative$"):
            run_trials(m, r, s, -1, seed=-1)
