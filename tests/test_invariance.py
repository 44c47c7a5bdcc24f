"""Verdicts that must not move under the equivalences the paper implies, on seeded inputs."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from retroq import classify_operators
from retroq.rand import ginibre, random_unitary

# (n, d_in, d_out): n Ginibre operators from C^d_in to C^d_out
GINIBRE_SHAPES = [(2, 2, 2), (2, 2, 4), (3, 2, 5), (2, 3, 3), (3, 3, 5)]
BOUNDED = settings(derandomize=True, database=None, deadline=None, max_examples=10)


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
