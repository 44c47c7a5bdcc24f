"""Seeded Monte Carlo validation of measurement plus retrodiction round trips.

Outcome and retrodiction distributions are fixed once the inputs are fixed:
the probability of each (answer, actual outcome) pair is the outcome's
probability times the retrodictor's answer probability on the corresponding
post-measurement state, whose statistics are read from the Kraus images of
the input without forming the state.  The law of a trial is one
``(N + 1, N)`` table over every outcome, in which the outcomes of zero
probability are masked to 0.  Trials are independent, so the confusion
matrix of ``n_trials`` of them is one multinomial draw over that table, at a
cost that does not grow with ``n_trials``.  The counts are numpy's
multinomial stream for the seed, reproducible for a fixed seed and numpy
version."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .linalg import DEFAULT_TOL, Tolerance, as_index, as_seed, dagger
from .measurement import Measurement, QuantumState, Retrodictor, _probabilities, images


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


def _joint_table(m: Measurement, r: Retrodictor, s: QuantumState, tol: Tolerance) -> np.ndarray:
    """The law of one trial: ``joint[j, k] = p_k q(j | k)`` for outcome ``k`` and answer ``j``
    (rows 0..N-1 retrodicted, row N inconclusive); columns of outcomes of zero probability
    are masked out and stay 0.

    Over the Kraus images ``S_r = (A_kr x I) F`` of ``s``, ``p_k = sum_r ||S_r||^2`` and entry
    ``j`` of outcome ``k`` is ``sum_r ||W_j^dag S_r||^2 = sum_r tr(S_r^dag E_j S_r)`` for the
    blocks ``W_j`` of the retrodictor's factor, all from one product of the factor with the
    image stack, and the inconclusive entry is ``sum_r ||S_r||^2`` less those; each row is
    divided by its total.  Reshaped to ``r.d`` rows, the images serve a retrodictor on the
    joint output space and one on the first factor alike, with no ``kron(E, I_anc)`` lift.
    """
    stack = images(m.kraus, s)  # each operator is applied once
    p = _clean_probs(_probabilities(stack, m.starts, tol), tol.rank_rel)
    if r.n_outcomes != m.n_outcomes:
        raise DimensionMismatchError("retrodictor outcome count differs from measurement")
    dim = m.d_out * (s.dim // m.d_in)
    if r.d != dim and (s.factor_dims is None or r.d != m.d_out):
        raise DimensionMismatchError(f"retrodictor acts on dimension {r.d}, state has {dim}")
    stack = stack.reshape(len(stack), r.d, -1)
    w = r.factor.transpose(1, 0, 2).reshape(r.d, -1)  # W = [W_1 | ... | W_N]
    per_column = np.sum(np.abs(dagger(w) @ stack) ** 2, axis=2)  # the peak: product and modulus
    rows = np.empty((len(stack), r.n_outcomes + 1))  # per image: the N answers, then the rest
    np.sum(per_column.reshape(len(stack), r.n_outcomes, -1), axis=2, out=rows[:, :-1])
    del per_column  # from here on each step is in place or replaces rows
    np.subtract(np.sum(np.abs(stack) ** 2, axis=(1, 2)), rows[:, :-1].sum(axis=1), out=rows[:, -1])
    live = p > 0.0
    rows = np.add.reduceat(rows, m.starts[:-1], axis=0)[live]
    rows /= rows.sum(axis=1, keepdims=True)
    rows = _clean_probs(rows, tol.rank_rel)
    rows *= p[live, None]
    joint = np.zeros((r.n_outcomes + 1, r.n_outcomes))
    joint[:, live] = rows.T
    return joint


def run_trials(m: Measurement, r: Retrodictor, s: QuantumState, n_trials: int, seed: int,
               tol: Tolerance = DEFAULT_TOL) -> TrialReport:
    """Simulate ``n_trials`` measurement + retrodiction rounds.

    Each trial samples the actual outcome from the measurement statistics,
    then the retrodictor's answer from its statistics on the post-measurement
    state.  Both are read from one stack of Kraus images of ``s``, each
    operator applied once, for pure and mixed inputs alike, and the trials'
    confusion matrix is drawn at once from their joint law, for up to ``2**63 - 1``
    trials, numpy's largest count.  Identical inputs and seed give an identical report.
    """
    n_trials = as_index(n_trials, "n_trials")
    if n_trials < 0:
        raise ValueError("n_trials must be nonnegative")
    if n_trials > np.iinfo(np.int64).max:  # numpy draws counts as int64
        raise ValueError(f"n_trials must be at most {np.iinfo(np.int64).max}")
    seed = as_seed(seed)
    # numpy gives a rounding remainder to the last cell it is passed, so the draw stops at the
    # last positive cell and every zero-probability cell stays at 0
    flat = _joint_table(m, r, s, tol).ravel()
    end = np.flatnonzero(flat)[-1] + 1
    counts = np.zeros(flat.size, dtype=np.int64)
    counts[:end] = np.random.default_rng(seed).multinomial(n_trials, flat[:end])
    return TrialReport(n_trials, counts.reshape(m.n_outcomes + 1, m.n_outcomes), seed)


def always_inconclusive(d: int, n_outcomes: int) -> Retrodictor:
    """Degenerate retrodictor that never commits; useful to tally outcome statistics only."""
    return Retrodictor.from_factor(np.zeros((n_outcomes, d, 1), dtype=complex))
