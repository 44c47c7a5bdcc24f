"""Monte Carlo engine: determinism, exactness of zero-error retrodiction, statistics."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from retroq import (
    DimensionMismatchError,
    Measurement,
    Povm,
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
from retroq import simulation
from retroq.catalog import PAULI, counterexample_3d
from retroq.jsonio import trial_report_to_obj, dumps
from retroq.linalg import DEFAULT_TOL
from retroq.measurement import images
from retroq.simulation import _BLOCK, _guide, _located, _retrodictor_rows
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
    first-factor retrodictor."""
    n = m.n_outcomes
    p = _old_clean(outcome_probabilities(m, s), floor)
    dim = m.d_out * (s.factor_dims[1] if s.factor_dims is not None else 1)
    elements = r.elements if r.d == dim else np.kron(r.elements, np.eye(dim // r.d))
    row_cdfs = {}
    for k in np.flatnonzero(p > 0.0):
        post = _old_post_state(m, s, int(k))
        if post.ndim == 1:  # <post|E|post>
            rows = ((elements @ post) @ np.conj(post)).real.tolist()
        else:  # tr(E rho) = sum_ij E_ij rho_ji
            rows = (elements.reshape(len(elements), -1) @ post.T.ravel()).real.tolist()
        rows.append(rows.pop(r.inconclusive_index))
        cdf = np.cumsum(_old_clean(rows, floor))
        cdf[-1] = 1.0
        row_cdfs[int(k)] = cdf
    outcome_cdf = np.cumsum(p)
    outcome_cdf[-1] = 1.0
    confusion = np.zeros((n + 1, n), dtype=np.int64)
    children = np.random.SeedSequence(seed).spawn(-(-n_trials // 8192))
    done = 0
    for child in children:
        size = min(8192, n_trials - done)
        done += size
        rng = np.random.Generator(np.random.PCG64(child))
        u_outcome, u_retro = rng.random(size), rng.random(size)
        ks = np.clip(np.searchsorted(outcome_cdf, u_outcome, side="right"), 0, n - 1)
        for k in np.unique(ks):
            rows = np.clip(np.searchsorted(row_cdfs[int(k)], u_retro[ks == k], side="right"), 0, n)
            confusion[:, int(k)] += np.bincount(rows, minlength=n + 1)
    return confusion


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
            lifted = UnambiguousRetrodictor([np.kron(e, np.eye(d_s)) for e in proj.elements],
                                            proj.inconclusive_index)
            # a generic POVM on the joint space is no kron(E, I): it sees how the images are laid out
            joint = UnambiguousRetrodictor(random_povm(d_out * d_s, n + 1, rng).elements)
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
            joint = UnambiguousRetrodictor([np.eye(d_out * d_s) - sum(conclusive), *conclusive])
            lifted = UnambiguousRetrodictor([np.kron(e, np.eye(d_s)) for e in proj.elements])
            cases += [(m, r, s) for r in (proj, joint, lifted, always_inconclusive(d_out, n))]
    entangled = maximally_entangled_state(2)
    cases.append((pauli_measurement(), retrodict_unambiguously(pauli_measurement(), entangled)[0],
                  entangled))
    for m, r, s in cases:
        got = _retrodictor_rows(r, m, s, images(m.kraus, s), list(range(m.n_outcomes)), DEFAULT_TOL)
        for row, want in zip(got, _element_rows(r, m, s)):
            assert np.abs(row - want).max() <= 1e-15


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
    # one table lookup for all outcomes against one searchsorted per drawn outcome
    m = synthesize(Povm(3, [np.diag(e).astype(complex) for e in np.eye(3)]), d_out=4).measurement
    proj = build_retrodictor(m)
    generic = UnambiguousRetrodictor(random_povm(4, 4, rng).elements)
    e0, e2 = np.eye(3, dtype=complex)[[0, 2]]
    never = [QuantumState.pure(e0), QuantumState.pure((e0 + e2) / np.sqrt(2)),
             QuantumState.mixed(np.diag([0.5, 0.0, 0.5]).astype(complex))]
    assert all((outcome_probabilities(m, s) == 0.0).any() for s in never)
    cases = [(m, r, s) for s in never + [QuantumState.pure(random_pure_state(3, rng))]
             for r in (proj, generic, UnambiguousRetrodictor(proj.elements, 0))]
    pauli, entangled = pauli_measurement(), maximally_entangled_state(2)
    cases.append((pauli, retrodict_unambiguously(pauli, entangled)[0], entangled))
    for m, r, s in cases:
        for seed in (0, 11):
            got = run_trials(m, r, s, n_trials, seed=seed).confusion
            assert got.tobytes() == _old_confusion(m, r, s, n_trials, seed).tobytes()
            assert got.sum() == n_trials


def test_the_largest_draw_never_lands_on_a_zero_probability_entry(monkeypatch):
    # a normalised CDF can stop an ulp short of 1 at its last positive entry; the largest
    # draw must land there, not on a zero-probability outcome or answer after it
    top = np.nextafter(1.0, 0.0)
    m = Measurement(4, 4, [[np.diag(e).astype(complex)] for e in np.eye(4)])
    rng = np.random.default_rng(0)
    for _ in range(2000):
        psi = np.r_[rng.random(3), 0.0]  # outcome 3 never occurs
        s = QuantumState.pure(psi / np.linalg.norm(psi))
        p = outcome_probabilities(m, s)
        if np.cumsum(p / p.sum())[2] < top:
            break
    else:
        pytest.fail("no state whose outcome CDF stops short of 1")
    for _ in range(2000):
        # a zero inconclusive element never answers
        retro = UnambiguousRetrodictor([np.zeros((4, 4), dtype=complex), *random_povm(4, 4, rng).elements])
        row = _retrodictor_rows(retro, m, s, images(m.outcomes[2], s), [2], DEFAULT_TOL)[0]
        if np.cumsum(row)[3] < top:
            break
    else:
        pytest.fail("no retrodictor whose answer CDF stops short of 1")

    class Top:
        """Draws nothing but the largest double below 1."""

        def __init__(self, bit_generator):
            pass

        def random(self, size):
            return np.full(size, top)

    monkeypatch.setattr(np.random, "Generator", Top)
    report = run_trials(m, retro, s, 10, seed=0)
    assert report.confusion[3, 2] == report.confusion.sum() == 10


# -------------------------------------------- the guide-table counter against the old loop

def _replay(monkeypatch, outcome_draws, answer_draws):
    """Make every block draw its outcomes cycling through ``outcome_draws`` and its
    answers through ``answer_draws``, in place of ``np.random.Generator``."""

    class Replayed:
        def __init__(self, bit_generator):
            self.draws = iter((outcome_draws, answer_draws))

        def random(self, size):
            return np.resize(np.array(next(self.draws)), size)

    monkeypatch.setattr(np.random, "Generator", Replayed)


def _scalar_measurement(n, amplitude):
    return Measurement(1, 1, [[np.full((1, 1), amplitude, dtype=complex)] for _ in range(n)])


def _scalar_retrodictor(conclusive):
    # on C^1 every post-measurement state is |0>, so each row is the elements themselves
    return UnambiguousRetrodictor([np.full((1, 1), 1.0 - sum(conclusive))]
                                  + [np.full((1, 1), e) for e in conclusive])


@pytest.mark.parametrize("n_trials", [0, 1, 8191, 8192, 8193])
def test_counter_places_draws_on_cdf_entries_and_ties_as_the_loop_does(n_trials, monkeypatch):
    # dyadic amplitudes and elements make every CDF exact on both paths, so the draws can
    # equal CDF entries: outcome CDF (1/4, 1/2, 3/4, 1), answer CDF (1/4, 1/2, 1/2, 3/4, 1)
    # with an entry repeated by the zero element; the cycles' lengths are coprime, so every
    # outcome draw meets every answer draw, and each value recurs as ties
    top = np.nextafter(1.0, 0.0)
    _replay(monkeypatch, [0.0, 0.25, 0.5, 0.75, top], [0.25, 0.0, 0.25, 0.5, 0.75, top, 0.5])
    m, s = _scalar_measurement(4, 0.5), QuantumState.pure([1.0])
    for r in (_scalar_retrodictor([0.25, 0.25, 0.0, 0.25]), always_inconclusive(1, 4)):
        got = run_trials(m, r, s, n_trials, seed=0).confusion
        assert got.tobytes() == _old_confusion(m, r, s, n_trials, seed=0).tobytes()
        assert got.sum() == n_trials
    # one outcome, whose answer CDF is (1/4, 1): the draws sit on, below and above 1/4
    m, r = _scalar_measurement(1, 1.0), _scalar_retrodictor([0.25])
    got = run_trials(m, r, s, n_trials, seed=0).confusion
    assert got.tobytes() == _old_confusion(m, r, s, n_trials, seed=0).tobytes()
    if n_trials == 1:  # the one draw, u = 1/4, equals the CDF's first entry: it answers past it
        assert got[:, 0].tolist() == [0, 1]


@pytest.mark.parametrize("n_trials", [0, 1, 8191, 8192, 8193])
def test_counter_leaves_outcomes_without_draws_empty(n_trials, monkeypatch):
    # every outcome draw lands on outcome 3 of 4: the other outcomes hold no key at all
    _replay(monkeypatch, [0.75, 0.9, np.nextafter(1.0, 0.0)], [0.0, 0.3, 0.5, 0.6, 0.99])
    m, s = _scalar_measurement(4, 0.5), QuantumState.pure([1.0])
    r = _scalar_retrodictor([0.25, 0.25, 0.0, 0.25])
    got = run_trials(m, r, s, n_trials, seed=0).confusion
    assert got.tobytes() == _old_confusion(m, r, s, n_trials, seed=0).tobytes()
    assert got[:, :3].sum() == 0 and got[:, 3].sum() == n_trials


def test_counter_has_no_outcome_limit():
    # 1,100 outcomes on C^1, A_k = n^-1/2, each answered from a 1,101-entry CDF: keys reach
    # 1099 * 8192 + 8191, far beyond 16 bits, and most outcomes are drawn
    n = 1100
    m, s = _scalar_measurement(n, n ** -0.5), QuantumState.pure([1.0])
    weights = np.random.default_rng(8).random(n + 1)
    r = _scalar_retrodictor(list(weights[:n] / weights.sum()))
    got = run_trials(m, r, s, 8193, seed=1).confusion
    assert got.shape == (n + 1, n)
    assert got.tobytes() == _old_confusion(m, r, s, 8193, seed=1).tobytes()
    assert np.count_nonzero(got.sum(axis=0)) > n // 2


# ------------------------------------------- the guide-table locator against searchsorted

def _searched_outcomes(u, cdf):
    return np.clip(np.searchsorted(cdf, u, side="right"), 0, len(cdf) - 1)


@pytest.mark.parametrize("n_trials", [0, 1, 8191, 8192, 8193])
def test_outcomes_of_sorted_draws_are_the_searched_outcomes(n_trials):
    # exact CDFs, so draws can equal their entries; a repeated entry is an outcome of zero
    # probability, and run_trials forces the final plateau to 1
    top = np.nextafter(1.0, 0.0)
    cdfs = [np.array([1.0]), np.array([0.25, 0.5, 0.75, 1.0]), np.array([0.0, 0.5, 1.0]),
            np.array([0.25, 0.25, 0.5, 0.75, 0.75, 1.0, 1.0, 1.0])]
    rng = np.random.default_rng(n_trials)
    for cdf in cdfs:
        ties = np.resize(np.r_[cdf, 0.0, top, cdf / 2.0, 0.3], n_trials)  # on entries, tied
        for u in (ties, np.sort(ties), rng.random(n_trials), np.full(n_trials, cdf[0])):
            got = _located(u, cdf[None, :], _guide(cdf[None, :]), np.zeros(u.size, dtype=np.intp))
            assert got.dtype == np.intp and np.array_equal(got, _searched_outcomes(u, cdf))


def test_located_answers_are_the_searched_answers_on_bucket_edges_and_plateaus():
    # rows of 1,101 entries, each different, ending at 1 as run_trials forces; draws on every
    # bucket edge b / 1024 and an ulp below it, 0, the largest double below 1, and on every
    # entry and an ulp either side of it
    top = np.nextafter(1.0, 0.0)
    edges = np.arange(1024) / 1024
    rng = np.random.default_rng(41)
    some = edges[1::4]
    on_edges = np.sort(np.r_[0.0, some, np.nextafter(some, 0.0), np.nextafter(some, 1.0)])
    crowded = np.sort(np.r_[0.5 + rng.random(1000) / 2048, rng.random(99)])  # 1,000 in one bucket
    plateau = np.sort(np.r_[np.full(600, 0.3), np.full(300, 0.0), rng.random(199)])
    spread = np.sort(rng.random(1100))
    rows = (on_edges, crowded, plateau, spread)
    cdfs = np.array([np.r_[row, np.ones(1101 - row.size)] for row in rows])
    table = _guide(cdfs)
    assert table[1, 513] - table[1, 512] >= 1000  # the crowded bucket takes ten bisection steps
    entries = np.unique(cdfs[cdfs < 1.0])
    u = np.r_[0.0, top, edges, np.nextafter(edges[1:], 0.0), entries,
              np.nextafter(entries, 0.0), np.nextafter(entries, 1.0), rng.random(4096)]
    # every draw against every row at once
    got = _located(np.tile(u, len(cdfs)), cdfs, table, np.repeat(np.arange(len(cdfs)), u.size))
    assert np.array_equal(got, np.concatenate([_searched_outcomes(u, cdf) for cdf in cdfs]))


def test_locating_draws_takes_memory_per_draw_not_per_draw_and_entry(monkeypatch):
    # 1,100 outcomes of 1,101 answers: most draws of a block fall where the guide table does not
    # decide, and comparing each of them with its whole row would take tens of MB
    n = 1100
    m, s = _scalar_measurement(n, n ** -0.5), QuantumState.pure([1.0])
    weights = np.random.default_rng(8).random(n + 1)
    r = _scalar_retrodictor(list(weights[:n] / weights.sum()))
    peaks, located = [], simulation._located

    def measured(u, cdfs, table, rows):
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        got = located(u, cdfs, table, rows)
        peaks.append(tracemalloc.get_traced_memory()[1] - held)
        return got

    monkeypatch.setattr(simulation, "_located", measured)
    tracemalloc.start()
    try:
        report = run_trials(m, r, s, 8193, seed=1)
    finally:
        tracemalloc.stop()
    assert report.confusion.sum() == 8193 and len(peaks) == 4
    assert max(peaks) < 32 * _BLOCK * 8  # a few arrays of one entry per draw, under 2.1 MB


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
def test_replayed_draws_skip_outcomes_of_zero_probability_as_the_loop_does(n_trials, monkeypatch):
    # probabilities (1/4, 0, 1/4, 1/4, 0, 1/4, 0, 0), CDF (1/4, 1/4, 1/2, 3/4, 3/4, 1, 1, 1):
    # the draws sit on every entry and tie; the cycles' lengths are coprime
    top = np.nextafter(1.0, 0.0)
    _replay(monkeypatch, [0.25, 0.0, 0.5, 0.75, top, 0.25, 0.6], [0.5, 0.1, top, 0.0, 0.3])
    m = Measurement(8, 8, [[np.diag(e).astype(complex)] for e in np.eye(8)])
    s = QuantumState.pure(np.array([0.5, 0.0, 0.5, 0.5, 0.0, 0.5, 0.0, 0.0]))
    for r in (build_retrodictor(m), always_inconclusive(8, 8)):
        got = run_trials(m, r, s, n_trials, seed=0).confusion
        assert got.tobytes() == _old_confusion(m, r, s, n_trials, seed=0).tobytes()
        assert got.sum() == n_trials and got[:, [1, 4, 6, 7]].sum() == 0
