"""Seeded Monte Carlo validation of measurement plus retrodiction round trips.

Outcome and retrodiction distributions are fixed once the inputs are fixed:
the probability of each (actual outcome, answer) pair is the outcome's
probability times the retrodictor's answer probability on the corresponding
post-measurement state, whose statistics are read from the Kraus images of
the input without forming the state.  Trials are independent, so the
confusion matrix of ``n_trials`` of them is one multinomial draw over that
joint table, at a cost that does not grow with ``n_trials``.  The counts are
numpy's multinomial stream for the seed, reproducible for a fixed seed and
numpy version.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .linalg import DEFAULT_TOL, Tolerance, dagger
from .measurement import Measurement, QuantumState, Retrodictor, _probabilities, _split_dims, images


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


def run_trials(m: Measurement, r: Retrodictor, s: QuantumState, n_trials: int, seed: int,
               tol: Tolerance = DEFAULT_TOL) -> TrialReport:
    """Simulate ``n_trials`` measurement + retrodiction rounds.

    Each trial samples the actual outcome from the measurement statistics,
    then the retrodictor's answer from its statistics on the post-measurement
    state.  Both are read from one stack of Kraus images of ``s``, each
    operator applied once, for pure and mixed inputs alike, and the trials'
    confusion matrix is drawn at once from their joint law.  Identical inputs
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

    # joint[j, k]: probability that outcome k occurs and the retrodictor answers j.  numpy
    # gives a rounding remainder to the last cell it is passed, so the draw stops at the
    # last positive cell and every zero-probability cell stays at 0.
    joint = np.zeros((n + 1, n))
    joint[:, live] = (p[live, None] * _retrodictor_rows(r, m, s, stack, live, tol)).T
    flat = joint.ravel()
    end = np.flatnonzero(flat)[-1] + 1
    counts = np.zeros(flat.size, dtype=np.int64)
    counts[:end] = np.random.default_rng(seed).multinomial(n_trials, flat[:end])
    return TrialReport(n_trials, counts.reshape(n + 1, n), seed)


def always_inconclusive(d: int, n_outcomes: int) -> Retrodictor:
    """Degenerate retrodictor that never commits; useful to tally outcome statistics only."""
    return Retrodictor.from_factor(np.zeros((n_outcomes, d, 1), dtype=complex))
