"""Seeded Monte Carlo validation of measurement plus retrodiction round trips.

Outcome and retrodiction distributions are fixed once the inputs are fixed,
so each trial reduces to two inverse-CDF draws: one picks the actual
outcome, the other picks what the retrodictor reports on the corresponding
post-measurement state.  Trials are partitioned into fixed-size blocks with
independently spawned PCG64 substreams; block results merge by summation,
making the report independent of execution order and reproducible from the
seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .linalg import DEFAULT_TOL, Tolerance
from .measurement import Measurement, QuantumState, Retrodictor, apply_outcome, outcome_probabilities
from .unambiguous import UnambiguousRetrodictor

_BLOCK = 8192


@dataclass
class TrialReport:
    """Empirical confusion statistics of a retrodiction experiment.

    ``confusion`` has one row per retrodicted outcome plus a final
    inconclusive row; columns are actual outcomes, so column sums are the
    per-outcome trial counts.  ``agreement_rate`` is the fraction of
    conclusive trials whose retrodiction matched the actual outcome
    (defined as 1.0 when every trial was inconclusive).
    """

    n_trials: int
    confusion: np.ndarray
    agreement_rate: float
    inconclusive_rate: float
    seed: int

    @property
    def n_outcomes(self) -> int:
        return self.confusion.shape[1]

    @property
    def mismatches(self) -> int:
        """Conclusive trials whose retrodicted outcome differs from the actual one."""
        conclusive = self.confusion[:-1, :]
        return int(conclusive.sum() - np.trace(conclusive))


def _clean_probs(p: np.ndarray, floor: float) -> np.ndarray:
    """Clamp to [0, 1], zero entries below ``floor``, renormalise."""
    q = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    q[q < floor] = 0.0
    total = q.sum()
    if total <= 0.0:
        raise ValueError("probability vector vanished after clamping")
    return q / total


def _expectation(op: np.ndarray, state: QuantumState) -> float:
    if state.kind == "pure":
        return float(np.vdot(state.data, op @ state.data).real)
    return float(np.trace(op @ state.data).real)


def _retrodictor_rows(r: Retrodictor, post: QuantumState, n_outcomes: int,
                      tol: Tolerance) -> np.ndarray:
    """Probability vector over rows 0..N-1 (retrodicted) plus row N (inconclusive).

    The rows are the expectations of the retrodictor's conclusive elements
    and of its inconclusive one; for a projective retrodictor the latter is
    the remainder ``I - sum_k P_k``.  A retrodictor acting on the first
    factor of a bipartite state is lifted as ``kron(E, I_anc)``.
    """
    if r.n_outcomes != n_outcomes:
        raise DimensionMismatchError("retrodictor outcome count differs from measurement")
    elements = r.elements
    if r.d != post.dim:
        if post.factor_dims is None or r.d != post.factor_dims[0]:
            raise DimensionMismatchError(
                f"retrodictor acts on dimension {r.d}, state has {post.dim}"
            )
        eye = np.eye(post.factor_dims[1])
        elements = [np.kron(e, eye) for e in elements]
    rows = [_expectation(e, post) for e in elements]
    rows.append(rows.pop(r.inconclusive_index))
    return _clean_probs(np.array(rows), tol.rank_rel)


def run_trials(m: Measurement, r: Retrodictor, s: QuantumState, n_trials: int, seed: int,
               tol: Tolerance = DEFAULT_TOL) -> TrialReport:
    """Simulate ``n_trials`` measurement + retrodiction rounds.

    Each trial samples the actual outcome from the measurement statistics,
    forms the post-measurement state, and samples the retrodictor's answer
    from its statistics on that state.  Identical inputs and seed give an
    identical report.
    """
    if n_trials < 0:
        raise ValueError("n_trials must be nonnegative")
    n = m.n_outcomes
    p_raw = outcome_probabilities(m, s, tol)
    p = _clean_probs(p_raw, tol.rank_rel)
    live = [k for k in range(n) if p[k] > 0.0]

    row_cdfs: dict[int, np.ndarray] = {}
    for k in live:
        post = apply_outcome(m, s, k, tol)
        rows = _retrodictor_rows(r, post, n, tol)
        cdf = np.cumsum(rows)
        cdf[-1] = 1.0
        row_cdfs[k] = cdf
    outcome_cdf = np.cumsum(p)
    outcome_cdf[-1] = 1.0

    confusion = np.zeros((n + 1, n), dtype=np.int64)
    n_blocks = -(-n_trials // _BLOCK) if n_trials else 0
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    done = 0
    for child in children:
        size = min(_BLOCK, n_trials - done)
        done += size
        rng = np.random.Generator(np.random.PCG64(child))
        u_outcome = rng.random(size)
        u_retro = rng.random(size)
        ks = np.searchsorted(outcome_cdf, u_outcome, side="right")
        np.clip(ks, 0, n - 1, out=ks)
        for k in np.unique(ks):
            mask = ks == k
            rows = np.searchsorted(row_cdfs[int(k)], u_retro[mask], side="right")
            np.clip(rows, 0, n, out=rows)
            confusion[:, int(k)] += np.bincount(rows, minlength=n + 1)

    conclusive = int(confusion[:-1, :].sum())
    agreed = int(np.trace(confusion[:-1, :]))
    agreement = agreed / conclusive if conclusive else 1.0
    inconclusive_rate = float(confusion[-1, :].sum()) / n_trials if n_trials else 0.0
    return TrialReport(n_trials, confusion, agreement, inconclusive_rate, int(seed))


def always_inconclusive(d: int, n_outcomes: int) -> UnambiguousRetrodictor:
    """Degenerate retrodictor that never commits; useful to tally outcome statistics only."""
    zero = np.zeros((d, d), dtype=complex)
    return UnambiguousRetrodictor([np.eye(d, dtype=complex)] + [zero.copy() for _ in range(n_outcomes)])
