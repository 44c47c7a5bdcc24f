"""Seeded Monte Carlo validation of measurement plus retrodiction round trips.

Outcome and retrodiction distributions are fixed once the inputs are fixed,
so each trial reduces to two inverse-CDF draws: one picks the actual
outcome, the other picks what the retrodictor reports on the corresponding
post-measurement state, whose statistics are read from the Kraus images of
the input without forming the state.  Trials are partitioned into fixed-size
blocks with independently spawned PCG64 substreams; block results merge by
summation, making the report independent of execution order and reproducible
from the seed alone.  A block's confusion counts come from sorted integer
keys (actual outcome, rank of the answer draw), located by ``searchsorted``
at every CDF entry, rather than from each draw compared with its CDF row;
the counts are the same.  The actual outcomes, likewise, come from the
outcome draws sorted once and the outcome CDF located among them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .linalg import DEFAULT_TOL, Tolerance, dagger
from .measurement import Measurement, QuantumState, Retrodictor, _probabilities, _split_dims, images

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
    """Clamp to [0, 1], zero entries below ``floor``, renormalise; row by row for a 2-D ``p``."""
    q = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    q[q < floor] = 0.0
    total = q.sum(axis=-1, keepdims=True)
    if (total <= 0.0).any():
        raise ValueError("probability vector vanished after clamping")
    return q / total


def _retrodictor_rows(r: Retrodictor, m: Measurement, s: QuantumState, stack: np.ndarray,
                      live: list[int], tol: Tolerance) -> np.ndarray:
    """Probability vectors over rows 0..N-1 (retrodicted) plus row N (inconclusive),
    one row per outcome in ``live``.

    Over the Kraus images ``S_r = (A_kr x I) F`` of ``s``, entry ``j`` of outcome ``k`` is
    ``sum_r ||W_j^dag S_r||^2 = sum_r tr(S_r^dag E_j S_r)`` for the blocks ``W_j`` of the
    retrodictor's factor, all from one product of the factor with the image stack, and the
    inconclusive entry is ``sum_r ||S_r||^2`` less those; the row is divided by its total.
    ``stack`` holds the images of the live outcomes' operators, in order.  Reshaped to
    ``r.d`` rows, the images serve a retrodictor on the joint output space and one on the
    first factor alike, with no ``kron(E, I_anc)`` lift.
    """
    if r.n_outcomes != m.n_outcomes:
        raise DimensionMismatchError("retrodictor outcome count differs from measurement")
    dim = m.d_out * (s.dim // m.d_in)
    if r.d != dim and (s.factor_dims is None or r.d != m.d_out):
        raise DimensionMismatchError(f"retrodictor acts on dimension {r.d}, state has {dim}")
    stack = stack.reshape(len(stack), r.d, -1)
    w = r.factor.transpose(1, 0, 2).reshape(r.d, -1)  # W = [W_1 | ... | W_N]
    per_column = np.sum(np.abs(dagger(w) @ stack) ** 2, axis=2)
    conclusive = per_column.reshape(len(stack), r.n_outcomes, -1).sum(axis=2)
    total = np.sum(np.abs(stack) ** 2, axis=(1, 2))
    per_image = np.column_stack([conclusive, total - conclusive.sum(axis=1)])
    sizes = np.diff(m.starts)[live]
    rows = np.add.reduceat(per_image, np.cumsum(sizes) - sizes, axis=0)
    return _clean_probs(rows / rows.sum(axis=1, keepdims=True), tol.rank_rel)


def _outcomes(u: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """Outcome of each draw ``u``: the number of ``cdf`` entries at or below it, at most
    ``len(cdf) - 1``.  Of the sorted draws, outcome ``k`` takes those below ``cdf[k]`` that
    no earlier outcome took."""
    by_outcome = np.argsort(u)
    bounds = np.searchsorted(u[by_outcome], cdf, side="left")
    bounds[-1] = u.size
    ks = np.empty(u.size, dtype=np.intp)
    ks[by_outcome] = np.repeat(np.arange(cdf.size), np.diff(bounds, prepend=0))
    return ks


def run_trials(m: Measurement, r: Retrodictor, s: QuantumState, n_trials: int, seed: int,
               tol: Tolerance = DEFAULT_TOL) -> TrialReport:
    """Simulate ``n_trials`` measurement + retrodiction rounds.

    Each trial samples the actual outcome from the measurement statistics,
    then the retrodictor's answer from its statistics on the post-measurement
    state.  Both are read from one stack of Kraus images of ``s``, each
    operator applied once, for pure and mixed inputs alike.  Identical inputs
    and seed give an identical report.
    """
    if n_trials < 0:
        raise ValueError("n_trials must be nonnegative")
    n = m.n_outcomes
    _split_dims(m, s)  # raises on a dimension mismatch
    stack = images(m.kraus, s)  # each operator is applied once
    p = _clean_probs(_probabilities(stack, m.starts, tol), tol.rank_rel)
    live = [k for k in range(n) if p[k] > 0.0]
    stack = stack[np.repeat(p > 0.0, np.diff(m.starts))]

    # row k is the CDF over the answers to outcome k; rows of outcomes never drawn stay at 1.
    # A CDF reaches 1 at its last positive entry, which may have summed to an ulp less.
    row_cdfs = np.ones((n, n + 1))
    row_cdfs[live] = np.cumsum(_retrodictor_rows(r, m, s, stack, live, tol), axis=1)
    row_cdfs[row_cdfs >= row_cdfs[:, -1:]] = 1.0
    outcome_cdf = np.cumsum(p)
    outcome_cdf[outcome_cdf >= outcome_cdf[-1]] = 1.0

    counts = np.zeros((n, n + 1), dtype=np.int64)  # [actual outcome, answer]
    firsts = np.arange(n)[:, None] * _BLOCK  # key of outcome k's first possible trial
    n_blocks = -(-n_trials // _BLOCK) if n_trials else 0
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    done = 0
    for child in children:
        size = min(_BLOCK, n_trials - done)
        done += size
        rng = np.random.Generator(np.random.PCG64(child))
        ks = _outcomes(rng.random(size), outcome_cdf)
        u_retro = rng.random(size)
        # A trial of outcome k answers j iff cdf[k, j-1] <= u < cdf[k, j], and every CDF
        # ends at 1 > u.  With rank the trial's place among the sorted draws, u < cdf[k, j]
        # iff rank < below[k, j], ties included; so the trials of outcome k with
        # u < cdf[k, j] are the sorted keys k * _BLOCK + rank below k * _BLOCK + below[k, j].
        # As rank < _BLOCK and below <= _BLOCK, no key of outcome k reaches outcome k + 1's.
        order = np.argsort(u_retro)
        rank = np.empty_like(order)
        rank[order] = np.arange(size)
        below = np.searchsorted(u_retro[order], row_cdfs, side="left")
        keys = np.sort(ks * _BLOCK + rank)
        cumulative = np.searchsorted(keys, firsts + below)
        counts += np.diff(cumulative, axis=1, prepend=np.searchsorted(keys, firsts))
    confusion = np.ascontiguousarray(counts.T)

    conclusive = int(confusion[:-1, :].sum())
    agreed = int(np.trace(confusion[:-1, :]))
    agreement = agreed / conclusive if conclusive else 1.0
    inconclusive_rate = float(confusion[-1, :].sum()) / n_trials if n_trials else 0.0
    return TrialReport(n_trials, confusion, agreement, inconclusive_rate, int(seed))


def always_inconclusive(d: int, n_outcomes: int) -> Retrodictor:
    """Degenerate retrodictor that never commits; useful to tally outcome statistics only."""
    return Retrodictor.from_factor(np.zeros((n_outcomes, d, 1), dtype=complex))
