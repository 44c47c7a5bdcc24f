"""Seeded Monte Carlo validation of measurement plus retrodiction round trips.

Outcome and retrodiction distributions are fixed once the inputs are fixed,
so each trial reduces to two inverse-CDF draws: one picks the actual
outcome, the other picks what the retrodictor reports on the corresponding
post-measurement state, whose statistics are read from the Kraus images of
the input without forming the state.  Trials are partitioned into fixed-size
blocks with independently spawned PCG64 substreams; block results merge by
summation, making the report independent of execution order and reproducible
from the seed alone.  Each draw is located in its CDF row by a guide table
(Chen and Asau, 1974), the count of the row's entries at or below each of
1,024 equal bucket edges: only draws whose bucket holds an entry are bisected
within it, none is sorted, and the answers are those of ``searchsorted``, ties
included.  One ``bincount`` of (outcome, answer) counts a block.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .linalg import DEFAULT_TOL, Tolerance, dagger
from .measurement import Measurement, QuantumState, Retrodictor, _probabilities, _split_dims, images

_BLOCK = 8192
_BUCKETS = 1024  # guide-table buckets over [0, 1); a power of two keeps u * _BUCKETS exact


@dataclass
class TrialReport:
    """Empirical confusion statistics of a retrodiction experiment.

    ``confusion`` has one row per retrodicted outcome plus a final
    inconclusive row; columns are actual outcomes, so column sums are the
    per-outcome trial counts.  The rates are read from it.
    """

    n_trials: int
    confusion: np.ndarray
    seed: int

    @property
    def n_outcomes(self) -> int:
        return self.confusion.shape[1]

    @property
    def agreement_rate(self) -> float:
        """Fraction of conclusive trials whose retrodiction matched the actual outcome
        (1.0 when every trial was inconclusive)."""
        conclusive = int(self.confusion[:-1, :].sum())
        return int(np.trace(self.confusion[:-1, :])) / conclusive if conclusive else 1.0

    @property
    def inconclusive_rate(self) -> float:
        return float(self.confusion[-1, :].sum()) / self.n_trials if self.n_trials else 0.0

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


def _guide(cdfs: np.ndarray) -> np.ndarray:
    """Per ascending row of ``cdfs``, the count of its entries but the last at or below
    ``b / _BUCKETS``, for b = 0.._BUCKETS + 1: those with ``ceil(c * _BUCKETS) <= b``, exactly."""
    width = _BUCKETS + 2
    edges = np.ceil(cdfs[:, :-1] * _BUCKETS).astype(np.intp) + np.arange(len(cdfs))[:, None] * width
    return np.cumsum(np.bincount(edges.ravel(), minlength=len(cdfs) * width).reshape(-1, width), axis=1)


def _located(u: np.ndarray, cdfs: np.ndarray, table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """For each draw ``u[i]`` in [0, 1], the first index of ``cdfs[rows[i]]`` whose entry exceeds
    it, else the last.  In bucket ``b`` of its row the answer lies in ``table[row, b:b + 2]``;
    draws where those two differ are bisected, and only they."""
    at = rows * table.shape[1] + (u * _BUCKETS).astype(np.intp)  # flat index of (row, b)
    lo, hi = table.ravel()[at], table.ravel()[at + 1]
    open_ = np.flatnonzero(lo < hi)
    while open_.size:
        mid = (lo[open_] + hi[open_]) // 2
        below = cdfs[rows[open_], mid] <= u[open_]
        lo[open_[below]] = mid[below] + 1
        hi[open_[~below]] = mid[~below]
        open_ = open_[lo[open_] < hi[open_]]
    return lo


def run_trials(m: Measurement, r: Retrodictor, s: QuantumState, n_trials: int, seed: int,
               tol: Tolerance = DEFAULT_TOL) -> TrialReport:
    """Simulate ``n_trials`` measurement + retrodiction rounds.

    Each trial samples the actual outcome from the measurement statistics,
    then the retrodictor's answer from its statistics on the post-measurement
    state.  Both are read from one stack of Kraus images of ``s``, each
    operator applied once, for pure and mixed inputs alike.  Identical inputs
    and seed give an identical report.
    """
    if any(isinstance(v, (bool, np.bool_)) for v in (n_trials, seed)):
        raise TypeError("n_trials and seed must be integers, not booleans")
    n_trials, seed = operator.index(n_trials), operator.index(seed)
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
    outcome_cdf = np.cumsum(p)[None, :]  # one row
    outcome_cdf[outcome_cdf >= outcome_cdf[:, -1:]] = 1.0
    outcome_table, row_table = _guide(outcome_cdf), _guide(row_cdfs)

    # A trial of outcome k answers j iff cdf[k, j-1] <= u < cdf[k, j]: j entries of row k
    # lie at or below u, and every CDF ends at 1 > u; so too for the outcome itself.
    counts = np.zeros(n * (n + 1), dtype=np.int64)  # [actual outcome, answer], flattened
    n_blocks = -(-n_trials // _BLOCK) if n_trials else 0
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    done = 0
    for child in children:
        size = min(_BLOCK, n_trials - done)
        done += size
        rng = np.random.Generator(np.random.PCG64(child))
        ks = _located(rng.random(size), outcome_cdf, outcome_table, np.zeros(size, dtype=np.intp))
        js = _located(rng.random(size), row_cdfs, row_table, ks)
        counts += np.bincount(ks * (n + 1) + js, minlength=counts.size)
    return TrialReport(n_trials, np.ascontiguousarray(counts.reshape(n, n + 1).T), seed)


def always_inconclusive(d: int, n_outcomes: int) -> Retrodictor:
    """Degenerate retrodictor that never commits; useful to tally outcome statistics only."""
    return Retrodictor.from_factor(np.zeros((n_outcomes, d, 1), dtype=complex))
