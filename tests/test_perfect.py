"""Perfect retrodiction: decision, retrodictor construction, projective equivalence."""

from __future__ import annotations

import numpy as np
import pytest

import retroq.perfect as perfect
from retroq import (
    InvalidOperatorSetError,
    Measurement,
    NotFineGrainedError,
    NotPerfectlyRetrodictableError,
    Povm,
    ProjectiveRetrodictor,
    QuantumState,
    Tolerance,
    apply_outcome,
    build_retrodictor,
    check_perfect,
    outcome_probabilities,
    projective_equivalence,
    run_trials,
    synthesize,
)
from retroq.catalog import PAULI, catalog, get_example, two_to_four
from retroq.cli import main
from retroq.jsonio import dumps, measurement_to_obj
from retroq.linalg import DEFAULT_TOL, eigh_descending
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


def dag(m):
    return np.conj(m).T


def random_isometry(d_out: int, d_in: int, rng) -> np.ndarray:
    return random_unitary(d_out, rng)[:, :d_in]


def pauli_measurement() -> Measurement:
    return Measurement(2, 2, [[PAULI[s] / 2.0] for s in ("I", "X", "Y", "Z")])


def projective_z() -> Measurement:
    return Measurement(2, 2, [[np.diag([1.0, 0.0 + 0j])], [np.diag([0.0 + 0j, 1.0])]])


# ------------------------------------------------------------ check_perfect

def test_projective_measurement_is_retrodictable():
    report = check_perfect(projective_z())
    assert report.retrodictable
    assert report.max_residual < 1e-15


def test_pauli_set_fails_with_witness():
    report = check_perfect(pauli_measurement())
    assert not report.retrodictable
    # cross product of the identity and sigma_x quarters is sigma_x / 4
    k, kp, r, rp = report.witness
    a = pauli_measurement().outcomes[k][r]
    ap = pauli_measurement().outcomes[kp][rp]
    assert np.linalg.norm(dag(ap) @ a) > 0.1


def test_two_to_four_is_retrodictable():
    assert check_perfect(two_to_four().measurement).retrodictable


def test_verdict_is_scale_invariant(rng):
    m = random_fine_grained(2, 2, 3, rng)
    report = check_perfect(m)
    scaled = Measurement(2, 4, [[np.vstack([a, np.zeros_like(a)])] for [a] in m.outcomes])
    assert check_perfect(scaled).max_residual == pytest.approx(report.max_residual, rel=1e-9)


def all_pairs_reference(m: Measurement, eq_residual: float = DEFAULT_TOL.eq_residual):
    """The cross-product check written as one loop over operator pairs."""
    tiny = float(np.finfo(float).tiny)
    worst, witness = 0.0, None
    for k in range(m.n_outcomes):
        for kp in range(k + 1, m.n_outcomes):
            for r, a in enumerate(m.outcomes[k]):
                for rp, ap in enumerate(m.outcomes[kp]):
                    residual = np.linalg.norm(dag(ap) @ a) / (
                        np.linalg.norm(a) * np.linalg.norm(ap) + tiny)
                    if residual > worst:
                        worst, witness = residual, (k, kp, r, rp)
    return worst <= eq_residual, worst, witness


def regrouped(ops, rng, zero_member: bool = False) -> Measurement:
    """``ops`` in three coarse groups, the first of at least two members."""
    cuts = np.sort(rng.choice(np.arange(2, len(ops)), size=2, replace=False))
    groups = [list(g) + [np.zeros_like(g[0])] * zero_member for g in np.split(np.array(ops), cuts)]
    return Measurement(ops[0].shape[1], ops[0].shape[0], groups)


KINDS = ("fine", "rotated", "zero", "tiny", "standard", "blocks")


def seeded_measurement(kind: str, seed: int) -> Measurement:
    rng = np.random.default_rng([seed, KINDS.index(kind)])
    d_in, n = int(rng.integers(2, 5)), int(rng.integers(4, 8))
    d_out = d_in + int(rng.integers(0, 3))
    if kind == "fine":
        return random_fine_grained(d_in, d_out, n, rng)
    if kind == "rotated":
        d_out = max(d_out, n)
        basis = list(random_unitary(d_out, rng).T)
        return synthesize(random_povm(d_in, n, rng), d_out, x_basis=basis).measurement
    if kind == "standard":
        return synthesize(random_povm(d_in, n, rng), max(d_out, n)).measurement
    if kind == "zero":
        return regrouped(random_fine_grained(d_in, d_out, n, rng).kraus, rng, zero_member=True)
    if kind == "blocks":
        # every operator keeps a random nonempty set of output rows; the rest are exactly zero
        d_out = d_in + 3
        rows = rng.random((n, d_out)) < 0.3
        rows[np.arange(n), rng.integers(0, d_out, n)] = True
        gs = [ginibre(d_out, d_in, rng) * keep[:, None] for keep in rows]
        root = psd_inv_sqrt(sum(dag(g) @ g for g in gs))
        return regrouped([g @ root for g in gs], rng)
    # the first member is scaled by 1e-7 before the set is normalised to completeness
    gs = [ginibre(d_out, d_in, rng) * (1e-7 if i == 0 else 1.0) for i in range(n)]
    root = psd_inv_sqrt(sum(dag(g) @ g for g in gs))
    return regrouped([g @ root for g in gs], rng)


@pytest.mark.parametrize("kind", KINDS)
def test_check_perfect_matches_all_pairs_reference(kind):
    for seed in range(25):
        m = seeded_measurement(kind, seed)
        verdict, worst, witness = all_pairs_reference(m)
        report = check_perfect(m)
        assert report.retrodictable == verdict
        assert report.witness == witness
        assert report.max_residual == pytest.approx(worst, rel=1e-12, abs=0.0)


def test_standard_synthesis_has_exactly_vanishing_cross_products():
    for seed in range(25):
        report = check_perfect(seeded_measurement("standard", seed))
        assert (report.retrodictable, report.max_residual, report.witness) == (True, 0.0, None)


def per_operator_reference(m: Measurement):
    """The row-restricted pass with one span search per operator, including the
    operators that meet no later outcome."""
    ops = m.kraus
    labels = [(k, r) for k, group in enumerate(m.outcomes) for r in range(len(group))]
    norms = np.array([np.linalg.norm(a) for a in ops])
    adjoints = dag(np.hstack(ops))
    touched = (adjoints != 0).reshape(len(ops), m.d_in, m.d_out).any(axis=1)
    worst, witness = 0.0, None
    for i, (k, r) in enumerate(labels):
        later = i - r + len(m.outcomes[k])
        hits = np.flatnonzero(touched[later:] @ touched[i])
        if not hits.size:
            continue
        first, stop = later + int(hits[0]), later + int(hits[-1]) + 1
        products = (adjoints[first * m.d_in:stop * m.d_in] @ ops[i]).reshape(-1, m.d_in * m.d_in)
        residuals = np.linalg.norm(products, axis=1) / (norms[i] * norms[first:stop] + np.finfo(float).tiny)
        if residuals.max() > worst:
            j = first + int(np.argmax(residuals))
            worst, witness = float(residuals[j - first]), (k, labels[j][0], r, labels[j][1])
    return worst, witness


@pytest.mark.parametrize("kind", KINDS)
def test_cross_products_are_bit_identical_to_the_per_operator_search(kind):
    for seed in range(25):
        m = seeded_measurement(kind, seed)
        report = check_perfect(m)
        worst, witness = report.max_residual, report.witness
        assert (worst, witness) == per_operator_reference(m)
        assert type(worst) is float and all(type(i) is int for i in witness or ())


def test_standard_synthesis_forms_no_product_and_no_norm(monkeypatch):
    calls = {"product": 0, "norm": 0}

    class Counting(np.ndarray):
        def __matmul__(self, other):
            calls["product"] += 1
            return np.asarray(self) @ other

    fro = perfect.fro
    monkeypatch.setattr(perfect, "dagger", lambda a: dag(a).view(Counting))
    monkeypatch.setattr(perfect, "fro", lambda a: calls.__setitem__("norm", calls["norm"] + 1) or fro(a))
    for seed in range(25):
        report = check_perfect(seeded_measurement("standard", seed))
        assert (report.max_residual, report.witness) == (0.0, None)
    assert calls == {"product": 0, "norm": 0}
    check_perfect(seeded_measurement("fine", 0))  # the counters do count
    assert calls["product"] > 0 and calls["norm"] > 0


def test_standard_synthesis_forms_no_adjoint(monkeypatch):
    # operators meeting no later outcome are skipped before the adjoint stack is formed
    formed = []
    monkeypatch.setattr(perfect, "dagger", lambda a: formed.append(a.shape) or dag(a))
    for seed in range(25):
        check_perfect(seeded_measurement("standard", seed))
    assert formed == []
    check_perfect(seeded_measurement("fine", 0))  # the counter does count
    assert formed


def span_cases(m: Measurement) -> set[str]:
    """How the later operators meeting each operator in an output row lie:
    none at all, the first beyond the next outcome, or a gap inside the span."""
    touched = [np.any(a != 0, axis=1) for a in m.kraus]
    starts = np.cumsum([0] + [len(group) for group in m.outcomes])
    cases = set()
    for k in range(m.n_outcomes - 1):
        for i in range(starts[k], starts[k + 1]):
            hits = [j for j in range(starts[k + 1], starts[-1]) if touched[i] @ touched[j]]
            if not hits:
                cases.add("meets nothing")
            elif hits[0] >= starts[k + 2]:
                cases.add("starts after the next outcome")
            if hits and len(hits) < hits[-1] - hits[0] + 1:
                cases.add("gap")
    return cases


def test_blocks_exercise_every_kind_of_span():
    cases = set().union(*(span_cases(seeded_measurement("blocks", seed)) for seed in range(25)))
    assert cases == {"meets nothing", "starts after the next outcome", "gap"}


@pytest.mark.parametrize("kind", ["standard", "blocks"])
def test_output_unitary_and_relabelling_leave_the_check_unchanged(kind):
    # U A_k has no zero output row, so every later operator meets it
    for seed in range(25):
        m = seeded_measurement(kind, seed)
        rng = np.random.default_rng([seed, 99])
        u = random_unitary(m.d_out, rng)
        order = rng.permutation(m.n_outcomes)
        moved = Measurement(m.d_in, m.d_out, [[u @ a for a in m.outcomes[k]] for k in order])
        report, other = check_perfect(m), check_perfect(moved)
        assert report.retrodictable == other.retrodictable
        if max(report.max_residual, other.max_residual) <= 1e-15:
            continue
        assert other.max_residual == pytest.approx(report.max_residual, rel=1e-12, abs=0.0)
        k, kp, r, rp = report.witness
        place = np.argsort(order)  # position of each outcome of m in moved
        ok, okp, orr, orp = other.witness
        assert {(ok, orr), (okp, orp)} == {(place[k], r), (place[kp], rp)}


@pytest.mark.parametrize("name, text", [
    ("pauli_quarter", '{\n  "max_residual": 0.7071067811865475,\n  "retrodictable": false,\n'
                      '  "witness": [\n    0,\n    1,\n    0,\n    0\n  ]\n}\n'),
    ("counterexample_3d", '{\n  "max_residual": 0.7071067811865476,\n  "retrodictable": false,\n'
                          '  "witness": [\n    0,\n    3,\n    0,\n    0\n  ]\n}\n'),
    ("rank_one_pair", '{\n  "max_residual": 1.0,\n  "retrodictable": false,\n'
                      '  "witness": [\n    0,\n    1,\n    0,\n    0\n  ]\n}\n'),
    ("two_to_four", '{\n  "max_residual": 0.0,\n  "retrodictable": true,\n'
                    '  "witness": null\n}\n'),
])
def test_check_perfect_json_of_catalog_is_pinned(name, text, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(dumps(measurement_to_obj(get_example(name).measurement)))
    code = main(["check-perfect", str(path), "--format", "json"])
    assert capsys.readouterr().out == text
    assert code == (0 if name == "two_to_four" else 1)


def test_the_perfect_check_leaves_the_measurement_as_built(rng):
    u0 = random_unitary(4, rng)
    m = Measurement(4, 4, [[u0 @ e] for e in random_projective_povm(4, 3, rng).elements])
    built = dict(vars(m))
    report = check_perfect(m)
    assert report.retrodictable
    build_retrodictor(m)
    assert projective_equivalence(m).equivalent
    loose = check_perfect(m, Tolerance(eq_residual=1e-3))
    assert loose.retrodictable
    assert (loose.max_residual, loose.witness) == (report.max_residual, report.witness)
    assert vars(m).keys() == built.keys()
    assert all(vars(m)[name] is value for name, value in built.items())


def test_one_measurement_gets_both_verdicts_at_tolerances_around_its_residual(rng):
    # a projective measurement tilted by 1e-6, renormalised to completeness
    gs = [np.diag([1.0, 0.0]) + 1e-6 * ginibre(2, 2, rng), np.diag([0.0, 1.0]) + 0j]
    root = psd_inv_sqrt(sum(dag(g) @ g for g in gs))
    m = Measurement(2, 2, [[g @ root] for g in gs])
    _, worst, witness = all_pairs_reference(m)
    assert 1e-7 < worst < 1e-5
    strict_tol = Tolerance(eq_residual=worst / 10)
    loose_tol = Tolerance(eq_residual=worst * 10, psd_floor=worst * 10)  # projectors overlap by ~worst
    strict, loose = check_perfect(m, strict_tol), check_perfect(m, loose_tol)
    assert (strict.retrodictable, loose.retrodictable) == (False, True)
    assert strict.max_residual == loose.max_residual == pytest.approx(worst, rel=1e-12)
    assert strict.witness == loose.witness == witness == (0, 1, 0, 0)
    assert check_perfect(m, strict_tol) == strict
    with pytest.raises(NotPerfectlyRetrodictableError):
        build_retrodictor(m, strict_tol)
    assert build_retrodictor(m, loose_tol).n_outcomes == 2


# -------------------------------------------------------- build_retrodictor

def test_retrodictor_of_projective_measurement_is_itself():
    retro = build_retrodictor(projective_z())
    assert np.allclose(retro.projectors[0], np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(retro.projectors[1], np.diag([0.0, 1.0]), atol=1e-12)


def test_retrodictor_rejects_pauli_set():
    with pytest.raises(NotPerfectlyRetrodictableError):
        build_retrodictor(pauli_measurement())


def test_retrodictor_type_enforces_orthogonality():
    from retroq import InvalidOperatorSetError, ProjectiveRetrodictor

    p0 = np.diag([1.0, 0.0 + 0j])
    plus = np.full((2, 2), 0.5, dtype=complex)
    with pytest.raises(InvalidOperatorSetError):
        ProjectiveRetrodictor(2, [p0, plus])  # overlapping supports
    with pytest.raises(InvalidOperatorSetError):
        ProjectiveRetrodictor(2, [np.full((2, 2), 0.5 + 0.1j)])  # not a projector
    retro = ProjectiveRetrodictor(2, [p0, np.diag([0.0 + 0j, 1.0])])
    assert retro.n_outcomes == 2


def tilted_projector_pair(rng):
    """A projector and one tilted towards it by tiny angles, both slightly shrunk."""
    d = int(rng.integers(2, 7))
    r1 = int(rng.integers(1, d))
    r2 = int(rng.integers(1, d - r1 + 1))
    u = random_unitary(d, rng)
    v = u[:, r1:r1 + r2].copy()
    for j in range(min(r1, r2)):
        # tilt column j of q towards column j of p; q's columns stay orthonormal
        t = 10.0 ** rng.uniform(-10, -7)
        v[:, j] = np.cos(t) * v[:, j] + np.sin(t) * u[:, j]
    p = u[:, :r1] @ dag(u[:, :r1])
    q = v @ dag(v)
    return d, [(1.0 - rng.uniform(0.0, 1e-9)) * p, (1.0 - rng.uniform(0.0, 1e-9)) * q]


def test_retrodictor_rejects_every_pair_over_the_overlap_rule():
    rng = np.random.default_rng(20261018)
    rejected = 0
    for _ in range(600):
        d, projectors = tilted_projector_pair(rng)
        if np.linalg.norm(projectors[0] @ projectors[1]) > DEFAULT_TOL.eq_residual * d:
            with pytest.raises(InvalidOperatorSetError):
                ProjectiveRetrodictor(d, projectors)
            rejected += 1
    assert 0 < rejected < 600


def test_projective_from_factor_takes_its_dimension_and_projectors_from_the_factor(rng):
    # d is the factor's row count; each projector is W_k W_k^dag of its block, as the
    # factor-built projectors have always been formed
    factor = build_retrodictor(synthesize(random_povm(3, 4, rng), d_out=5).measurement).factor.copy()
    retro = ProjectiveRetrodictor.from_factor(factor)
    assert retro.d == factor.shape[1] == 5 and len(retro.projectors) == len(factor) == 4
    for got, w in zip(retro.projectors, factor):
        assert np.array_equal(got, w @ dag(w))


def test_retrodictor_projectors_are_orthogonal(rng):
    result = synthesize(random_povm(3, 3, rng), d_out=4)
    retro = build_retrodictor(result.measurement)
    for k, p in enumerate(retro.projectors):
        for kp, q in enumerate(retro.projectors):
            if k != kp:
                assert np.linalg.norm(p @ q) < 1e-10


def test_group_sums_satisfy_orthogonality(rng):
    # G_k G_k' = delta * G_k^2 for any measurement passing the check
    result = synthesize(random_povm(2, 3, rng), d_out=3)
    gs = [sum(a @ dag(a) for a in group) for group in result.measurement.outcomes]
    for k, g in enumerate(gs):
        for kp, gp in enumerate(gs):
            want = g @ g if k == kp else np.zeros_like(g)
            assert np.linalg.norm(g @ gp - want) < 1e-10


def test_retrodictor_identifies_outcome_with_certainty(rng):
    # retrodictor identifies the outcome with certainty for random inputs
    for _ in range(5):
        result = synthesize(random_povm(2, 3, rng), d_out=3)
        retro = build_retrodictor(result.measurement)
        for _ in range(5):
            s = QuantumState.pure(random_pure_state(2, rng))
            p = outcome_probabilities(result.measurement, s)
            for k in range(3):
                if p[k] <= 1e-6:
                    continue
                rho_k = apply_outcome(result.measurement, s, k).density()
                # support containment: the matched projector leaves the state alone
                pk = retro.projectors[k]
                assert np.linalg.norm(pk @ rho_k - rho_k) < 1e-9
                for kp in range(3):
                    got = float(np.trace(retro.projectors[kp] @ rho_k).real)
                    assert got == pytest.approx(1.0 if kp == k else 0.0, abs=1e-9)


def all_rows_factor(m: Measurement, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The retrodictor factor with every ``G_k`` formed on all ``d_out`` rows, one product
    per group, and decomposed in one batched ``eigh``."""
    wide = m.kraus.transpose(1, 0, 2)  # X_k = the operators of group k side by side
    g = np.array([x @ dag(x) for x in (wide[:, a:b].reshape(m.d_out, -1)
                                       for a, b in zip(m.starts[:-1], m.starts[1:]))])
    w, v = eigh_descending(g)
    keep = w > tol.rank_rel * w[:, :1]
    return (v * keep[:, None, :])[:, :, :keep.sum(axis=1).max()]


def mixed_rank_povm(d: int, n: int, rng):
    """``n`` elements of ranks 1, 2, ..., cycling, scaled to resolve the identity."""
    parts = []
    for k in range(n):
        w, v = np.linalg.eigh(random_psd(d, rng))
        r = 1 + k % d
        parts.append((v[:, -r:] * w[-r:]) @ dag(v[:, -r:]))
    root = psd_inv_sqrt(sum(parts))
    return Povm(d, [root @ e @ root for e in parts])


def rank_one_regrouped(d: int, n: int, rng) -> Measurement:
    """A rotated projective measurement whose rank-one members form groups of sizes 1, 2, ...:
    every group writes every output row."""
    u = random_unitary(d, rng)
    members = [u @ np.outer(c, c.conj()) for c in random_unitary(d, rng).T]
    cuts = [c for c in np.cumsum(np.arange(1, n)) if c < d]
    return Measurement(d, d, [list(g) for g in np.split(np.array(members), cuts)])


def written_row_cases():
    rng = np.random.default_rng(20261021)
    for _ in range(6):
        d, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        d_out = max(d, n) + int(rng.integers(0, 3))
        p = random_povm(d, n, rng)
        yield "standard", synthesize(p, d_out).measurement
        perm = np.eye(d_out)[rng.permutation(d_out)]
        yield "permuted", synthesize(p, d_out, x_basis=list(perm)).measurement
        yield "rotated", synthesize(p, d_out, x_basis=list(random_unitary(d_out, rng).T)).measurement
        u = random_unitary(d + 1, rng)
        yield "dense", Measurement(d + 1, d + 1, [[u @ q] for q in
                                                  random_projective_povm(d + 1, n % (d + 1) + 1, rng).elements])
        # groups of mixed sizes that share one written-row count: one row, or every row
        yield "mixed one row", synthesize(mixed_rank_povm(d + 1, n + 1, rng), max(d, n) + 1).measurement
        yield "mixed every row", rank_one_regrouped(d + 3, 3, rng)
    yield "synthesized at d = 16", synthesize(random_povm(16, 16, rng), 16).measurement
    for ex in catalog():
        if ex.measurement is not None and check_perfect(ex.measurement).retrodictable:
            yield ex.name, ex.measurement
        if ex.povm is not None:
            yield ex.name, synthesize(ex.povm, max(ex.povm.n_outcomes, ex.povm.d)).measurement


def test_the_factor_equals_the_all_row_formation_bit_for_bit():
    kinds = set()
    for kind, m in written_row_cases():
        factor, ref = build_retrodictor(m).factor, all_rows_factor(m)
        assert factor.shape == ref.shape and factor.tobytes() == ref.tobytes(), kind
        kinds.add(kind)
    assert {"two_to_four", "trine_povm", "mixed one row", "mixed every row"} <= kinds


def interleaved_rows(rng) -> Measurement:
    """Groups of 1-3 operators, group ``k`` writing the rows ``k, k + n, k + 2n, ...`` of a
    ``d_out`` space (at least two, never all of them) through a rotation of those rows;
    each ``G_k`` has ``d_in`` eigenvalues ``1/n``, and zeros on its other written rows."""
    n = int(rng.integers(2, 4))
    d_out = int(rng.integers(2 * n, 3 * n + 1))
    d_in = int(rng.integers(1, d_out // n + 1))
    groups = []
    for k in range(n):
        at = np.arange(k, d_out, n)
        image = np.zeros((d_out, d_in), dtype=complex)
        image[at] = random_unitary(len(at), rng)[:, :d_in] / np.sqrt(n)  # B_k^dag B_k = I / n
        weights = rng.dirichlet(np.ones(int(rng.integers(1, 4))))
        groups.append([np.sqrt(p) * image @ random_unitary(d_in, rng) for p in weights])
    return Measurement(d_in, d_out, groups)


def test_interleaved_written_rows_give_the_same_supports():
    rng = np.random.default_rng(20261022)
    for _ in range(60):
        m = interleaved_rows(rng)
        retro, ref = build_retrodictor(m), all_rows_factor(m)
        written = np.logical_or.reduceat(m.nonzero_rows, m.starts[:-1], axis=0)
        assert np.all(retro.factor[~written] == 0.0)
        kept = [(f != 0).any(axis=1).sum(axis=1) for f in (retro.factor, ref)]  # columns per group
        assert np.array_equal(*kept)
        ref_elements = ProjectiveRetrodictor.from_factor(ref).elements
        assert np.abs(retro.elements - ref_elements).max() < 1e-14
        s = QuantumState.pure(random_pure_state(m.d_in, rng))
        assert run_trials(m, retro, s, 200, int(rng.integers(2**31))).mismatches == 0


def test_a_standard_synthesis_decomposes_only_one_by_one_blocks(monkeypatch, rng):
    m = synthesize(random_povm(16, 16, rng), 16).measurement
    eigh, shapes = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: shapes.append(a.shape) or eigh(a, *args, **kw))
    build_retrodictor(m)
    assert shapes and all(s[-2:] == (1, 1) for s in shapes)


@pytest.mark.parametrize("d_out, message", [
    (True, "^d_out must be an integer, not a boolean$"),
    (np.True_, "^d_out must be an integer, not a boolean$"),
    (2.0, "^'float' object cannot be interpreted as an integer$"),
    (np.float64(1.0), "^'numpy.float64' object cannot be interpreted as an integer$"),
])
def test_projective_retrodictor_takes_its_dimension_by_the_one_integer_rule(d_out, message):
    with pytest.raises(TypeError, match=message):
        ProjectiveRetrodictor(d_out, [np.eye(1)])
    assert ProjectiveRetrodictor(np.int64(1), [np.eye(1)]).d == 1  # numpy integers are integers


def test_failing_measurements_leak_final_state_overlap(rng):
    # failing measurements leak overlap between unnormalised final states
    found_total = 0
    for _ in range(10):
        m = random_fine_grained(2, 2, 3, rng)
        report = check_perfect(m)
        assert report.max_residual > 1e-6
        found = False
        for _ in range(200):
            psi = random_pure_state(2, rng)
            rhos = [sum((a @ psi)[:, None] * (a @ psi).conj()[None, :] for a in g)
                    for g in m.outcomes]
            for k in range(3):
                for kp in range(k + 1, 3):
                    if float(np.trace(rhos[kp] @ rhos[k]).real) > 1e-10:
                        found = True
            if found:
                break
        assert found
        found_total += found
    assert found_total == 10


# --------------------------------------------------- projective_equivalence

def test_equivalence_of_plain_projective_measurement():
    eq = projective_equivalence(projective_z())
    assert eq.equivalent and eq.kind == "unitary"
    assert np.linalg.norm(eq.transform - np.eye(2)) < 1e-12
    assert eq.projector_residual < 1e-12


def test_equivalence_recovers_composed_unitary(rng):
    # oracle: construct from a known unitary, then round-trip
    for d in (2, 3, 4):
        u0 = random_unitary(d, rng)
        povm = random_projective_povm(d, d - 1 if d > 2 else 2, rng)
        m = Measurement(d, d, [[u0 @ e] for e in povm.elements])
        eq = projective_equivalence(m)
        assert eq.equivalent
        phase = np.exp(1j * np.angle(np.trace(dag(u0) @ eq.transform)))
        assert np.linalg.norm(eq.transform - phase * u0) < 1e-9
        assert eq.projector_residual < 1e-10
        assert eq.isometry_residual < 1e-10


def test_equivalence_labels_isometry_for_larger_output():
    eq = projective_equivalence(two_to_four().measurement)
    assert eq.equivalent and eq.kind == "isometry"
    s = eq.transform
    assert np.linalg.norm(dag(s) @ s - np.eye(2)) < 1e-12


def test_pauli_set_is_not_equivalent():
    eq = projective_equivalence(pauli_measurement())
    assert not eq.equivalent
    assert eq.transform is None and eq.povm is None


def _projective_equivalence_loop(m):
    """Reference: (equivalent, kind, isometry and projector residuals) with the
    projector residual taken pair by pair."""
    ops = [group[0] for group in m.outcomes]
    s = sum(ops)
    eye = np.eye(m.d_in)
    isometry_residual = np.linalg.norm(dag(s) @ s - eye) / np.linalg.norm(eye)
    elements = [dag(a) @ a for a in ops]
    projector_residual = 0.0
    for k, pk in enumerate(elements):
        for kp, pkp in enumerate(elements):
            target = pk if k == kp else 0.0
            projector_residual = max(projector_residual, float(np.linalg.norm(pkp @ pk - target)))
    equivalent = check_perfect(m).retrodictable
    kind = ("unitary" if m.d_out == m.d_in else "isometry") if equivalent else None
    return equivalent, kind, isometry_residual, projector_residual


def test_equivalence_matches_pairwise_loop():
    measurements = [projective_z(), pauli_measurement(), two_to_four().measurement]
    for seed in range(12):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        u0 = random_isometry(d + int(rng.integers(0, 3)), d, rng)
        povm = random_projective_povm(d, int(rng.integers(1, d + 1)), rng)
        measurements.append(Measurement(d, u0.shape[0], [[u0 @ e] for e in povm.elements]))
        measurements.append(random_fine_grained(d, d + int(rng.integers(0, 3)),
                                                int(rng.integers(2, 2 * d + 1)), rng))
    for m in measurements:
        eq = projective_equivalence(m)
        equivalent, kind, isometry_residual, projector_residual = _projective_equivalence_loop(m)
        assert (eq.equivalent, eq.kind) == (equivalent, kind)
        assert eq.isometry_residual == isometry_residual
        assert eq.projector_residual == pytest.approx(projector_residual, abs=1e-15)


def test_equivalence_requires_fine_grained():
    half = np.eye(2) / np.sqrt(2)
    coarse = Measurement(2, 2, [[half, half]])
    with pytest.raises(NotFineGrainedError):
        projective_equivalence(coarse)
