"""Perfect outcome retrodiction: decision, retrodictor construction, projective equivalence.

A measurement outcome can be retrodicted with certainty for every input
state exactly when Kraus operators belonging to different outcomes have
vanishing cross products.  When that holds, the supports of the group sums
``G_k = sum_r A_kr A_kr^dag`` on the output space are mutually orthogonal,
and projecting onto them identifies the outcome regardless of the input.
The check skips, before any per-operator work, the Kraus operators that
share no output row with a later outcome, and forms, for each other
operator, one matrix product with the stacked adjoints of the later-outcome
operators that share an output row with it; operators writing into disjoint
rows have an exactly zero product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidOperatorSetError, NotFineGrainedError, NotPerfectlyRetrodictableError
from .linalg import DEFAULT_TOL, Tolerance, dagger, eigh_descending, fro
from .measurement import Measurement, Povm, Retrodictor, _completed, square_matrices


@dataclass
class PerfectCheckReport:
    """Verdict of the cross-product test between operators of different outcomes.

    ``max_residual`` is the largest scale-normalised Frobenius norm of such a
    cross product (exactly 0.0 when every pair writes into disjoint output
    rows), and ``witness`` identifies the pair ``(k, k_other, r, r_other)``
    attaining it, or is ``None`` when no residual exceeds 0.0.
    """

    retrodictable: bool
    max_residual: float
    witness: tuple[int, int, int, int] | None


class ProjectiveRetrodictor(Retrodictor):
    """Orthogonal projectors on the output space, one per outcome.

    The projectors are mutually orthogonal and complete on the subspace
    reachable by the measurement.  As a ``Retrodictor`` its inconclusive
    element (index 0) is the remainder ``I - sum_k P_k``, which never fires
    on a post-measurement state, and ``projectors`` are its other elements.
    ``build_retrodictor`` builds one with ``from_factor``.  Projectors from
    outside are each tested for idempotence and Hermiticity, then completed
    by their remainder and validated as ``Retrodictor`` elements, so
    overlapping ones leave a remainder that is not PSD.
    """

    def __init__(self, d_out: int, projectors, tol: Tolerance | None = None) -> None:
        tol = tol or DEFAULT_TOL
        projs = square_matrices(projectors, d_out, "projector")
        for k, p in enumerate(projs):
            if fro(p @ p - p) > tol.eq_residual * max(fro(p), 1.0):
                raise InvalidOperatorSetError(f"operator {k} is not idempotent")
            if fro(p - dagger(p)) > tol.eq_residual * max(fro(p), 1.0):
                raise InvalidOperatorSetError(f"operator {k} is not Hermitian")
        super().__init__(_completed(projs, d_out), 0, tol)

    @property
    def d_out(self) -> int:
        return self.d

    @property
    def projectors(self) -> np.ndarray:
        return self.elements[1:]


@dataclass
class ProjectiveEquivalence:
    """Result of testing whether a fine-grained measurement is a projective
    measurement followed by a fixed isometry.

    When ``equivalent`` is true, ``transform`` is the isometry (labelled
    "unitary" when input and output dimensions agree) and ``povm`` holds the
    mutually orthogonal projectors.  Residuals are reported either way so a
    failing case is diagnosable.
    """

    equivalent: bool
    transform: np.ndarray | None
    kind: str | None
    povm: Povm | None
    isometry_residual: float
    projector_residual: float


def check_perfect(m: Measurement, tol: Tolerance = DEFAULT_TOL) -> PerfectCheckReport:
    """Decide perfect retrodictability of ``m`` for arbitrary input states.

    Takes the norm of every cross product ``A_{k'r'}^dag A_{kr}`` with
    ``k != k'``, normalised by the product of the operator norms so the
    verdict is scale-invariant, one operator ``A_kr`` at a time.  Operators
    that share no nonzero output row with a later outcome, read from the
    measurement's ``nonzero_rows`` mask made once at construction, are skipped
    before any per-operator work, norms and adjoints included; for the others only
    the span of later operators from the first to the last that share a row
    with ``A_kr`` is multiplied.  Every product left out is exactly zero.  For
    dense operators the span is the whole later stack, and temporaries are
    about three times the operator list.  Of equal maxima the witness is the
    first in the order ``(k, r, k', r')``.  The residual and witness are
    computed once per measurement; only the verdict depends on ``tol``.
    """
    if m._cross_residual is None:
        m._cross_residual = _cross_products(m)
    return PerfectCheckReport(bool(m._cross_residual[0] <= tol.eq_residual), *m._cross_residual)


def _cross_products(m: Measurement) -> tuple[float, tuple[int, int, int, int] | None]:
    ops = m.kraus
    owner = np.repeat(np.arange(m.n_outcomes), np.diff(m.starts))  # outcome of each operator
    # entries are finite, so operators with disjoint output rows have an exactly zero product
    touched = m.nonzero_rows  # the output rows each operator writes
    last = np.where(touched, owner[:, None], -1).max(axis=0)  # last outcome writing each row
    meeting = np.flatnonzero((touched & (last > owner[:, None])).any(axis=1))
    worst, witness = 0.0, None
    if meeting.size:
        adjoints = dagger(np.hstack(ops))  # row block j is ops[j]^dag
        norms = np.array([fro(a) for a in ops])
    for i in meeting:
        k = owner[i]
        later = m.starts[k + 1]  # first operator of outcome k + 1
        hits = np.flatnonzero(touched[later:] @ touched[i])
        first, stop = later + int(hits[0]), later + int(hits[-1]) + 1
        products = (adjoints[first * m.d_in:stop * m.d_in] @ ops[i]).reshape(-1, m.d_in * m.d_in)
        residuals = np.linalg.norm(products, axis=1) / (norms[i] * norms[first:stop] + np.finfo(float).tiny)
        if residuals.max() > worst:
            j = first + int(np.argmax(residuals))
            worst = float(residuals[j - first])
            witness = (int(k), int(owner[j]), int(i - m.starts[k]), int(j - m.starts[owner[j]]))
    return worst, witness


def build_retrodictor(m: Measurement, tol: Tolerance = DEFAULT_TOL) -> ProjectiveRetrodictor:
    """Projective retrodictor for a perfectly retrodictable measurement.

    Outcome ``k`` maps to the support projector of
    ``G_k = sum_r A_kr A_kr^dag``; every post-measurement state with nonzero
    probability lies inside the corresponding support.  The factor holds, from
    one batched ``eigh``, each symmetrised ``G_k``'s eigenvectors (descending) with
    eigenvalues above ``tol.rank_rel`` times its largest; no projector is formed.
    """
    report = check_perfect(m, tol)
    if not report.retrodictable:
        raise NotPerfectlyRetrodictableError(
            f"cross-product residual {report.max_residual:.3e} at witness {report.witness}"
        )
    wide = m.kraus.transpose(1, 0, 2)  # G_k = X_k X_k^dag, X_k the operators of group k side by side
    g = np.array([x @ dagger(x) for x in (wide[:, a:b].reshape(m.d_out, -1)
                                          for a, b in zip(m.starts[:-1], m.starts[1:]))])
    w, v = eigh_descending(g)
    keep = w > tol.rank_rel * w[:, :1]  # a prefix of each row: the support's eigenvectors
    return ProjectiveRetrodictor.from_factor((v * keep[:, None, :])[:, :, :keep.sum(axis=1).max()], tol)


def projective_equivalence(m: Measurement, tol: Tolerance = DEFAULT_TOL) -> ProjectiveEquivalence:
    """Test whether a fine-grained measurement is projective up to an isometry.

    The candidate transform is the sum of the Kraus operators; for a
    perfectly retrodictable fine-grained measurement it is an isometry ``S``
    with ``A_k = S P_k`` for the mutually orthogonal projectors
    ``P_k = A_k^dag A_k``.  Each ``P_k`` meets every ``P_k'`` in one product
    with the stacked projectors, so temporaries stay ``K d_in^2`` entries.
    """
    if not m.fine_grained:
        raise NotFineGrainedError("projective equivalence is defined for fine-grained measurements")
    s = m.kraus.sum(axis=0)
    eye = np.eye(m.d_in)
    isometry_residual = fro(dagger(s) @ s - eye) / fro(eye)
    wide = np.hstack(m.elements)  # P_0 | P_1 | ...
    projector_residual = 0.0
    for k, pk in enumerate(m.elements):
        row = (pk @ wide).reshape(m.d_in, m.n_outcomes, m.d_in)  # P_k P_k' for every k'
        row[:, k] -= pk
        projector_residual = max(projector_residual, float(np.linalg.norm(row, axis=(0, 2)).max()))
    if not check_perfect(m, tol).retrodictable:
        return ProjectiveEquivalence(False, None, None, None,
                                     isometry_residual, projector_residual)
    kind = "unitary" if m.d_out == m.d_in else "isometry"
    return ProjectiveEquivalence(True, s, kind, Povm(m.d_in, m.elements, tol),
                                 isometry_residual, projector_residual)
