"""Verdicts that must not move under the equivalences the paper implies, on seeded inputs."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from retroq import Measurement, build_retrodictor, check_perfect, classify_operators, synthesize
from retroq.rand import (ginibre, random_fine_grained, random_povm, random_projective_povm,
                         random_unitary)

# (n, d_in, d_out): n Ginibre operators from C^d_in to C^d_out
GINIBRE_SHAPES = [(2, 2, 2), (2, 2, 4), (3, 2, 5), (2, 3, 3), (3, 3, 5)]
BOUNDED = settings(derandomize=True, database=None, deadline=None, max_examples=10)
# (d_in, n, d_out): n outcomes, n <= d_in so that a projective POVM exists, n <= d_out
PERFECT_SHAPES = [(2, 2, 2), (2, 2, 3), (3, 2, 4), (3, 3, 3), (4, 3, 5)]
KINDS = ["generic", "povm", "projective"]
PAIRED = settings(BOUNDED, max_examples=30)  # cheap examples; 15 (kind, shape) pairs


def _well_conditioned(d: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar unitary times a diagonal with entries in [0.5, 2]: condition number at most 4."""
    return random_unitary(d, rng) * rng.uniform(0.5, 2.0, d)


def _dependence(ops) -> tuple[bool, str, str]:
    v = classify_operators(ops)
    return v.linearly_independent, v.lld, v.lli


@BOUNDED
@given(st.sampled_from(GINIBRE_SHAPES), st.integers(0, 2**32 - 1), st.sampled_from([1e-6, 1e6]))
def test_dependence_verdicts_survive_invertible_maps_and_mixing(shape, seed, c):
    """A_k -> c V A_k W moves every image by one invertible map, and A_k -> sum_j M_kj A_j
    keeps their span; neither changes linear independence, LLD or LLI."""
    n, d_in, d_out = shape
    rng = np.random.default_rng(seed)
    ops = np.array([ginibre(d_out, d_in, rng) for _ in range(n)])
    want = _dependence(ops)
    v, w, mix = (_well_conditioned(d, rng) for d in (d_out, d_in, n))
    assert _dependence(c * v @ ops @ w) == want
    assert _dependence(np.tensordot(mix, ops, axes=1)) == want


def _measurement(kind: str, shape, rng: np.random.Generator) -> Measurement:
    """A generic measurement of 2n operators in n ragged groups, or the synthesis of a
    random (kind "povm") or random projective POVM; only the generic one is imperfect."""
    d_in, n, d_out = shape
    if kind == "generic":
        kraus = random_fine_grained(d_in, d_out, 2 * n, rng).kraus
        return Measurement.from_stack(d_in, d_out, kraus, 1 + rng.multinomial(n, np.full(n, 1.0 / n)))
    povm = (random_povm if kind == "povm" else random_projective_povm)(d_in, n, rng)
    return synthesize(povm, d_out).measurement


def _regrouped(m: Measurement, groups) -> Measurement:
    return Measurement.from_stack(m.d_in, m.d_out, np.concatenate(groups), [len(g) for g in groups])


def _mapped(m: Measurement, kraus: np.ndarray) -> Measurement:
    """``m`` with its operators replaced by ``kraus``, one for one, in the same groups."""
    return Measurement.from_stack(m.d_in, m.d_out, kraus, np.diff(m.starts))


def _equivalents(m: Measurement, rng: np.random.Generator) -> dict[str, Measurement]:
    """``m`` with its outcomes relabelled, a phase on every operator, each group mixed by a
    unitary, and a unitary applied on the output side."""
    groups = np.split(m.kraus, m.starts[1:-1])
    phases = np.exp(2j * np.pi * rng.random(len(m.kraus)))[:, None, None]
    return {
        "relabelled": _regrouped(m, [groups[k] for k in rng.permutation(m.n_outcomes)]),
        "phases": _mapped(m, phases * m.kraus),
        "mixed": _regrouped(m, [np.tensordot(random_unitary(len(g), rng), g, 1) for g in groups]),
        "output unitary": _mapped(m, random_unitary(m.d_out, rng) @ m.kraus),
    }


@PAIRED
@given(st.sampled_from(KINDS), st.sampled_from(PERFECT_SHAPES), st.integers(0, 2**32 - 1))
def test_perfect_verdict_survives_relabelling_phases_mixing_and_output_unitaries(kind, shape, seed):
    """Each map keeps the supports of the group sums G_k, mutually orthogonal or not; all but
    mixing keep every cross-product norm, so the residual agrees too."""
    rng = np.random.default_rng(seed)
    m = _measurement(kind, shape, rng)
    want = check_perfect(m)
    assert want.retrodictable is (kind != "generic")
    for name, equivalent in _equivalents(m, rng).items():
        got = check_perfect(equivalent)
        assert got.retrodictable is want.retrodictable, name
        if name != "mixed":
            assert abs(got.max_residual - want.max_residual) <= 1e-12, name


@PAIRED
@given(st.sampled_from(KINDS[1:]), st.sampled_from(PERFECT_SHAPES), st.integers(0, 2**32 - 1))
def test_retrodictor_projectors_follow_an_output_unitary(kind, shape, seed):
    """A_kr -> V A_kr maps G_k to V G_k V^dag, so each support projector P_k to V P_k V^dag."""
    rng = np.random.default_rng(seed)
    m = _measurement(kind, shape, rng)
    v = random_unitary(m.d_out, rng)
    moved = build_retrodictor(_mapped(m, v @ m.kraus)).projectors
    assert np.abs(moved - v @ build_retrodictor(m).projectors @ v.conj().T).max() <= 1e-10
