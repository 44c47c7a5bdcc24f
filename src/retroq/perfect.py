"""Perfect outcome retrodiction: decision, retrodictor construction, projective equivalence.

A measurement outcome can be retrodicted with certainty for every input
state exactly when Kraus operators belonging to different outcomes have
vanishing cross products.  When that holds, the supports of the group sums
``G_k = sum_r A_kr A_kr^dag`` on the output space are mutually orthogonal,
and projecting onto them identifies the outcome regardless of the input.
The check runs on every call.  It skips, before any per-operator work, the
Kraus operators that share no output row with a later outcome, and forms,
for each other operator, one matrix product with the stacked adjoints of all
later-outcome operators; operators writing into disjoint rows have an
exactly zero product.  The retrodictor decomposes each ``G_k`` on the rows its group writes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidOperatorSetError, NotFineGrainedError, NotPerfectlyRetrodictableError
from .linalg import DEFAULT_TOL, Tolerance, above_cut, as_index, dagger, eigh_descending, fro
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
    outside are each tested for idempotence, then completed by their remainder and validated
    as ``Retrodictor`` elements, projector ``k`` as element ``k + 1``: that decides their
    Hermiticity, and overlapping ones leave a remainder that is not PSD.
    """

    def __init__(self, d_out: int, projectors, tol: Tolerance = DEFAULT_TOL) -> None:
        projs = square_matrices(projectors, d_out := as_index(d_out, "d_out"), "projector")
        for k, p in enumerate(projs):
            if fro(p @ p - p) > tol.eq_residual * max(fro(p), 1.0):
                raise InvalidOperatorSetError(f"operator {k} is not idempotent")
        super().__init__(_completed(projs, d_out), 0, tol)

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
    before any per-operator work, norms and adjoints included; each other
    operator is multiplied by the whole stack of later-outcome adjoints in one
    product, and temporaries are about three times the operator list.  Products
    of operators writing into disjoint rows are exactly zero.  Of equal maxima
    the witness is the first in the order ``(k, r, k', r')``.  The pass runs on
    every call and writes nothing into ``m``; only the verdict depends on ``tol``.
    """
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
        products = (adjoints[later * m.d_in:] @ ops[i]).reshape(-1, m.d_in * m.d_in)
        residuals = np.linalg.norm(products, axis=1) / (norms[i] * norms[later:] + np.finfo(float).tiny)
        if residuals.max() > worst:
            j = later + int(np.argmax(residuals))
            worst = float(residuals[j - later])
            witness = (int(k), int(owner[j]), int(i - m.starts[k]), int(j - m.starts[owner[j]]))
    return PerfectCheckReport(bool(worst <= tol.eq_residual), worst, witness)


def build_retrodictor(m: Measurement, tol: Tolerance = DEFAULT_TOL) -> ProjectiveRetrodictor:
    """Projective retrodictor for a perfectly retrodictable measurement.

    Outcome ``k`` maps to the support projector of ``G_k = sum_r A_kr A_kr^dag``, where every
    post-measurement state with nonzero probability lies, on the ``c`` output rows group ``k``
    writes.  One ``eigh`` per ``c`` decomposes those ``c x c`` blocks, formed one product per
    group size; the factor holds each symmetrised block's eigenvectors (descending) with
    eigenvalues ``above_cut`` keeps, zero off those rows.
    """
    report = check_perfect(m, tol)
    if not report.retrodictable:
        raise NotPerfectlyRetrodictableError(
            f"cross-product residual {report.max_residual:.3e} at witness {report.witness}"
        )
    rows = np.logical_or.reduceat(m.nonzero_rows, m.starts[:-1], axis=0)  # the rows each group writes
    sizes, counts = m.starts[1:] - m.starts[:-1], rows.sum(axis=1)
    w, v = np.zeros((m.n_outcomes, m.d_out)), np.zeros((m.n_outcomes, m.d_out, m.d_out), dtype=complex)
    for c in set(counts.tolist()):  # np.unique would import numpy.ma
        ks = np.nonzero(counts == c)[0]
        at, g = np.nonzero(rows[ks])[1].reshape(-1, c), np.empty((len(ks), c, c), dtype=complex)
        for s in set(sizes[ks].tolist()):  # G_k = X_k X_k^dag, X_k the group's operators side by side
            i = np.nonzero(sizes[ks] == s)[0]
            x = m.kraus[m.starts[ks[i], None, None] + np.arange(s), at[i, :, None]].reshape(len(i), c, -1)
            g[i] = x @ dagger(x)
        w[ks, :c], v[ks[:, None], at, :c] = eigh_descending(g)
    keep = above_cut(w, tol)  # a prefix of each row: the support's eigenvectors
    k = keep.sum(axis=1).max()
    return ProjectiveRetrodictor.from_factor(v[:, :, :k] * keep[:, None, :k], tol)


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
