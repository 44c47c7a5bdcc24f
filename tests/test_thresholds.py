"""Both sides of the tolerance comparisons that decide ranks, supports and identity-bounded
operators.  Each input puts its deciding ratio at a third of the threshold and at three times
it, so a comparison made ten times looser or ten times stricter fails here; inputs that may be
scaled freely keep their verdict at a thousandth and a thousand times their size."""

from __future__ import annotations

import numpy as np
import pytest

from retroq import (
    DEFAULT_TOL,
    LinearlyDependentStatesError,
    Measurement,
    NotHermitianError,
    NotPsdError,
    Povm,
    ProjectiveRetrodictor,
    QuantumState,
    RetroqError,
    b_factor,
    build_retrodictor,
    build_ud_povm,
    dilated_kraus,
    numeric_rank,
    support_projector,
    synthesize,
)
from retroq.errors import InvalidOperatorSetError
from retroq.linalg import psd_eig
from retroq.measurement import Retrodictor
from retroq.rand import psd_inv_sqrt

RANK, EQ, FLOOR = DEFAULT_TOL.rank_rel, DEFAULT_TOL.eq_residual, DEFAULT_TOL.psd_floor
SIDES = [1 / 3, 3.0]  # the deciding ratio over its threshold: inside it, then beyond it


def _raises(f, error, match: str = "") -> bool:
    """Whether ``f()`` raises ``error`` with ``match`` in its message."""
    try:
        f()
    except error as exc:
        return match in str(exc)
    return False


def _povm(r: float) -> Povm:
    """Element 0 has eigenvalues 1/2 and r/2."""
    return Povm(2, [np.diag([0.5, 0.5 * r]), np.diag([0.5, 1.0 - 0.5 * r])])


def _split(r: float) -> Measurement:
    """Outcome 0 writes rows 0 and 1 with ``G_0 = diag(1/2, r/2)``; outcome 1 rows 2 and 3."""
    a0, a1 = np.zeros((4, 2)), np.zeros((4, 2))
    a0[0, 0], a0[1, 1] = np.sqrt(0.5), np.sqrt(0.5 * r)
    a1[2, 0], a1[3, 1] = np.sqrt(0.5), np.sqrt(1.0 - 0.5 * r)
    return Measurement(2, 4, [[a0], [a1]])


def _states(r: float) -> list[np.ndarray]:
    """Two unit vectors at angle 2 arctan(r): the ratio of their singular values is r."""
    theta = 2.0 * np.arctan(r)
    return [np.array([1.0, 0.0]), np.array([np.cos(theta), np.sin(theta)])]


# caller of the rank cut: r -> whether a value at r times the largest of its axis is kept;
# numeric_rank on a matrix, support_projector and psd_inv_sqrt are in SCALE_FREE below
CUT = {
    "numeric_rank_stack": lambda r: numeric_rank(np.array([np.eye(2), np.diag([1.0, r])]))[1] == 2,
    "build_retrodictor": lambda r: round(np.trace(build_retrodictor(_split(r)).projectors[0]).real) == 2,
    "synthesize": lambda r: np.diff(synthesize(_povm(r), 2).measurement.starts)[0] == 2,
    "dilated_kraus": lambda r: np.diff(dilated_kraus(b_factor(_povm(r)), np.eye(2)).starts)[0] == 2,
    "dual_family": lambda r: not _raises(lambda: build_ud_povm(_states(r)), LinearlyDependentStatesError),
}


@pytest.mark.parametrize("factor", SIDES, ids=["third", "thrice"])
@pytest.mark.parametrize("caller", sorted(CUT))
def test_each_caller_of_the_rank_cut_keeps_exactly_what_lies_above_it(caller, factor):
    assert CUT[caller](factor * RANK) == (factor > 1.0)


def _skewed(h: np.ndarray, f: float) -> np.ndarray:
    """``h`` plus an upper corner entry that puts ``||E - E^dag||_F`` at ``f * eq_residual * ||E||_F``."""
    n = np.zeros(h.shape, dtype=complex)
    n[0, -1] = f * EQ * np.linalg.norm(h) / np.sqrt(2.0)
    return h + n


# operators bounded by the identity: f -> whether the check refuses the input at f times its threshold
BOUNDED = {
    "povm_hermitian": lambda f: _raises(
        lambda: Povm(2, [e := _skewed(np.diag([0.5, 0.5]), f), np.eye(2) - e]), NotHermitianError),
    "ud_hermitian": lambda f: _raises(
        lambda: Retrodictor([e := _skewed(np.diag([0.5, 0.5]), f), np.eye(2) - e], 0), NotHermitianError),
    # [[1, a], [0, 0]] squares to itself: only a Hermiticity test refuses it
    "projector_hermitian": lambda f: _raises(
        lambda: ProjectiveRetrodictor(2, [_skewed(np.diag([1.0, 0.0]), f)]), RetroqError, "not Hermitian"),
    "density_hermitian": lambda f: _raises(
        lambda: QuantumState.mixed(_skewed(np.diag([0.5, 0.5]), f)), NotHermitianError),
    "povm_psd": lambda f: _raises(
        lambda: Povm(2, [np.diag([-f * FLOOR, 0.5]), np.diag([1.0 + f * FLOOR, 0.5])]),
        InvalidOperatorSetError),
    "density_psd": lambda f: _raises(
        lambda: QuantumState.mixed(np.diag([1.0 + f * FLOOR, -f * FLOOR])), InvalidOperatorSetError),
}


@pytest.mark.parametrize("factor", SIDES, ids=["third", "thrice"])
@pytest.mark.parametrize("case", sorted(BOUNDED))
def test_identity_bounded_operators_are_refused_exactly_beyond_their_threshold(case, factor):
    assert BOUNDED[case](factor) == (factor > 1.0)


# f -> (a matrix whose deciding ratio is f times its threshold, whether a matrix is beyond it)
SCALE_FREE = {
    "numeric_rank": lambda f: (np.diag([1.0, f * RANK]), lambda m: numeric_rank(m) == 2),
    "support_projector": lambda f: (np.diag([1.0, f * RANK]),
                                    lambda m: round(np.trace(support_projector(m)).real) == 2),
    "psd_inv_sqrt": lambda f: (np.diag([1.0, f * RANK]),
                               lambda m: not _raises(lambda: psd_inv_sqrt(m), ValueError)),
    "psd_eig_hermitian": lambda f: (_skewed(np.diag([2.0, 1.0]), f),
                                    lambda m: _raises(lambda: psd_eig(m), NotHermitianError)),
    "psd_eig_floor": lambda f: (np.diag([1.0, -f * FLOOR]),
                                lambda m: _raises(lambda: psd_eig(m), NotPsdError)),
}


@pytest.mark.parametrize("factor", SIDES, ids=["third", "thrice"])
@pytest.mark.parametrize("case", sorted(SCALE_FREE))
def test_scale_free_verdicts_hold_at_any_scale(case, factor):
    m, beyond = SCALE_FREE[case](factor)
    assert [beyond(scale * m) for scale in (1.0, 1e-3, 1e3)] == [factor > 1.0] * 3
