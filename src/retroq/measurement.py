"""Generalised measurements, POVMs, quantum states and their statistics."""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidOperatorSetError,
    NotHermitianError,
    ShapeMismatchError,
    ZeroProbabilityOutcomeError,
)
from .linalg import (
    DEFAULT_TOL, Tolerance, as_2d, as_index, as_matrix, as_vector, dagger, finite, fro,
)


class Measurement:
    """A generalised measurement described by groups of Kraus operators.

    Outcome ``k`` carries the nonempty group ``outcomes[k]`` of operators
    mapping the input space (dimension ``d_in``) to the output space
    (dimension ``d_out``).  A measurement is fine-grained when every group
    has exactly one member.  Validation happens at construction, so invalid
    operator families are unrepresentable: the summed products over all
    groups must resolve the identity on the input space and no group may be
    numerically zero.  The measurement owns its operators read-only,
    the stack ``kraus`` of shape ``(N, d_out, d_in)`` in outcome order;
    ``outcomes`` groups views of its rows afresh on each read.  It also stores, read-only:
    ``starts``, the ``n + 1`` offsets of the groups in that order;
    ``nonzero_rows``, the ``(N, d_out)`` mask of the output rows each operator
    writes, which the perfect check reads; and ``elements``, the group elements
    ``E_k = sum_r A_kr^dag A_kr`` as one ``(n, d_in, d_in)`` stack, formed as
    ``X_k^dag X_k`` over the nonzero rows ``X_k`` of group ``k``, in one batched
    product per distinct row count (one product for a dense fine-grained set).
    Outside groups enter here and outside stacks through ``from_stack``, each copied; a stack
    the library has just formed goes to ``_hold`` as it is.
    """

    _family: tuple | None = None  # (state, tol, (factor, p)) of the last _held call

    def __init__(self, d_in: int, d_out: int, outcomes, tol: Tolerance = DEFAULT_TOL) -> None:
        ops = [as_2d(a) for group in outcomes for a in group]
        sizes = [len(group) for group in outcomes]
        if len({a.shape for a in ops}) > 1:  # no stack: name the first operator of another shape
            i = next(i for i, a in enumerate(ops) if a.shape != (d_out, d_in))
            raise DimensionMismatchError(f"operator of shape {ops[i].shape} in outcome "
                                         f"{np.searchsorted(np.cumsum(sizes), i, 'right')}; "
                                         f"expected ({d_out}, {d_in})")
        self._hold(d_in, d_out, np.array(ops, dtype=complex), sizes, tol)

    @classmethod
    def from_stack(cls, d_in: int, d_out: int, kraus, sizes,
                   tol: Tolerance = DEFAULT_TOL) -> "Measurement":
        """The measurement whose outcome ``k`` holds the next ``sizes[k]`` operators of the
        ``(N, d_out, d_in)`` stack ``kraus``, held as a read-only copy and checked as outside
        groups are; a stack of another shape raises ``DimensionMismatchError``, a boolean or
        non-integral size ``TypeError``."""
        sizes = [as_index(k, "group size") for k in sizes]
        return cls.__new__(cls)._hold(d_in, d_out, np.array(kraus, dtype=complex), sizes, tol)

    def _hold(self, d_in: int, d_out: int, stack, sizes, tol: Tolerance = DEFAULT_TOL) -> "Measurement":
        self.d_in, self.d_out = as_index(d_in, "d_in"), as_index(d_out, "d_out")
        if self.d_in < 1 or self.d_out < 1:
            raise InvalidOperatorSetError("dimensions must be positive")
        if not len(sizes):
            raise InvalidOperatorSetError("a measurement needs at least one outcome")
        empty = np.flatnonzero(np.asarray(sizes) < 1)
        if empty.size:
            raise InvalidOperatorSetError(f"outcome {empty[0]} has no Kraus operators")
        if stack.shape[1:] != (self.d_out, self.d_in):
            raise DimensionMismatchError(f"operator of shape {stack.shape[1:]} in outcome 0; "
                                         f"expected ({self.d_out}, {self.d_in})")
        self.starts = np.cumsum([0, *sizes])
        if self.starts[-1] != len(stack):
            raise InvalidOperatorSetError(f"group sizes sum to {self.starts[-1]}, not {len(stack)}")
        self.kraus = finite(stack)
        stack.setflags(write=False)  # before slicing, so that every view is read-only too
        rows = self.nonzero_rows = (stack.view(float) != 0).any(axis=2)  # re or im nonzero
        x = stack[rows]  # E_k = X_k^dag X_k over the nonzero rows X_k of group k
        counts = np.add.reduceat(rows.sum(axis=1), self.starts[:-1])
        firsts = np.cumsum(counts) - counts
        self.elements = np.zeros((len(sizes), d_in, d_in), dtype=complex)
        for c in set(counts.tolist()) - {0}:  # np.unique would import numpy.ma
            ks = np.flatnonzero(counts == c)
            xs = x[firsts[ks, None] + np.arange(c)]
            self.elements[ks] = dagger(xs) @ xs
        for a in (self.starts, rows, self.elements):
            a.setflags(write=False)
        # p_k <= ||E_k||_2 <= ||E_k||_F on every input, so _probabilities zeroes a refused outcome
        vanishing = np.flatnonzero(np.linalg.norm(self.elements, axis=(1, 2)) < tol.rank_rel)
        if vanishing.size:
            raise InvalidOperatorSetError(f"outcome {vanishing[0]} has a vanishing POVM element")
        _check_identity(self.elements.sum(axis=0), tol, "Kraus operators do not resolve the identity")
        return self

    def _held(self, s: "QuantumState", tol: Tolerance, form) -> tuple[np.ndarray, float]:
        """``form(self, s, tol)``, a ``(factor, p)`` pair held, factor read-only, for the state object
        ``s`` (not its id, which a collected state frees) and an equal ``tol``; nothing if it raises."""
        if (held := self._family) is None or held[0] is not s or held[1] != tol:
            held = self._family = (s, tol, form(self, s, tol))
            held[2][0].setflags(write=False)
        return held[2]

    @property
    def outcomes(self) -> list[list[np.ndarray]]:
        """Read-only views of the operators of each outcome, grouped anew on each read.

        Every read regroups every outcome, so a caller that wants one group reads
        ``kraus[starts[k]:starts[k + 1]]``."""
        return [list(self.kraus[a:b]) for a, b in zip(self.starts[:-1], self.starts[1:])]

    @property
    def n_outcomes(self) -> int:
        return len(self.starts) - 1

    @property
    def fine_grained(self) -> bool:
        return len(self.kraus) == self.n_outcomes  # no group is empty


def _check_identity(total: np.ndarray, tol: Tolerance, message: str) -> None:
    eye = np.eye(total.shape[0])
    deviation = fro(total - eye)
    if deviation > tol.eq_residual * fro(eye):
        raise InvalidOperatorSetError(f"{message} (deviation {deviation:.3e})")


def square_matrices(ops, d: int, what: str) -> np.ndarray:
    """``ops`` as one read-only ``(n, d, d)`` complex copy.  A ``d`` below 1 raises
    ``InvalidOperatorSetError``; an operator of another shape ``DimensionMismatchError``."""
    if d < 1:
        raise InvalidOperatorSetError("dimension must be positive")
    mats = [as_matrix(a) for a in ops]
    for k, a in enumerate(mats):
        if a.shape != (d, d):
            raise DimensionMismatchError(f"{what} {k} has shape {a.shape}; expected ({d}, {d})")
    stack = np.array(mats, dtype=complex).reshape(len(mats), d, d)
    stack.setflags(write=False)
    return stack


def povm_elements(elements, d: int, tol: Tolerance) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Check that ``elements`` are Hermitian, PSD ``d x d`` matrices summing to the identity.

    Hermiticity is decided by one batched norm of the anti-Hermitian parts.  Every
    element of such a set is bounded by the identity, so positivity is
    decided against ``tol.psd_floor`` at scale 1, by one batched ``eigh`` of the
    Hermitian parts.  Each check names the first element that fails.  Returns the
    read-only ``(n, d, d)`` copy ``square_matrices`` makes and that ``eigh``'s
    ``(w, v)``, ``w`` ascending, read-only too.
    """
    stack = square_matrices(elements, d, "element")
    skew = np.flatnonzero(np.linalg.norm(stack - dagger(stack), axis=(1, 2))
                          > tol.eq_residual * np.linalg.norm(stack, axis=(1, 2)))
    if skew.size:
        raise NotHermitianError(f"element {skew[0]} is not Hermitian within tolerance")
    w, v = np.linalg.eigh((stack + dagger(stack)) / 2.0)
    bad = np.flatnonzero(w[:, 0] < -tol.psd_floor)
    if bad.size:
        raise InvalidOperatorSetError(f"element {bad[0]} is not PSD: most negative eigenvalue "
                                      f"{w[bad[0], 0]:.3e} below the admissible floor")
    _check_identity(sum(stack), tol, "elements do not sum to the identity")
    w.setflags(write=False)
    v.setflags(write=False)
    return stack, (w, v)


class Povm:
    """Positive operators on a ``d``-dimensional space summing to the identity, held as
    the read-only ``(n, d, d)`` stack ``elements`` beside ``eig``, the read-only ``(w, v)``
    of the one batched ``eigh`` of their Hermitian parts that checked them, ``w`` ascending."""

    def __init__(self, d: int, elements, tol: Tolerance = DEFAULT_TOL) -> None:
        if not len(elements):
            raise InvalidOperatorSetError("a POVM needs at least one element")
        self.d = as_index(d, "d")
        self.elements, self.eig = povm_elements(elements, self.d, tol)

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)


def _factored(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``V sqrt(max(w, 0))`` for the eigendecomposition(s) ``V diag(w) V^dag``."""
    return v * np.sqrt(np.maximum(w, 0.0))[..., None, :]


def _completed(conclusive, d: int) -> list[np.ndarray]:
    """``[I - sum_j E_j] + conclusive``, the first symmetrised; ``conclusive`` is not copied."""
    rest = np.eye(d) - sum(conclusive, np.zeros((d, d)))
    return [(rest + dagger(rest)) / 2.0, *conclusive]


class Retrodictor:
    """An ``N+1``-element POVM on the output space of a measurement, held as a thin factor.

    Element ``inconclusive_index`` signals an inconclusive attempt; the other ``N``, in
    order, name the retrodicted outcome: ``W_j W_j^dag`` for the blocks ``W_j`` of the
    read-only ``(N, d, k)`` stack ``factor`` (zero columns pad lower ranks).  Elements
    from outside, a file or a caller's projectors included, enter here: they are
    validated as a POVM, kept as one read-only copy and their conclusive ones factored
    once.  What the library builds enters through ``from_factor``.
    """

    _elements: np.ndarray | None = None  # from a factor: formed on first read

    def __init__(self, elements, inconclusive_index: int = 0, tol: Tolerance = DEFAULT_TOL) -> None:
        if not len(elements):
            raise InvalidOperatorSetError("need at least the inconclusive element")
        inconclusive_index = as_index(inconclusive_index, "inconclusive_index")
        if not 0 <= inconclusive_index < len(elements):
            raise ValueError(f"inconclusive index {inconclusive_index} out of range")
        self._elements, eig = povm_elements(elements, as_matrix(elements[0]).shape[0], tol)
        self._hold(_factored(*(np.delete(a, inconclusive_index, 0) for a in eig)), inconclusive_index)

    @classmethod
    def from_factor(cls, factor: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> "Retrodictor":
        """The retrodictor with conclusive elements ``W_j W_j^dag`` for the blocks of ``factor``,
        held as a read-only copy, and the inconclusive element ``I - W W^dag`` first, for
        ``W = [W_1 | ... | W_N]``: valid iff ``||W||_2^2 <= 1 + psd_floor`` (one eigenvalue of
        the smaller Gram matrix).  The elements are formed on first read.  A factor that is not
        a 3-D stack raises ``ShapeMismatchError``, one with a NaN or Inf entry ``ValueError``."""
        factor = finite(np.array(factor, dtype=complex), "factor")
        if factor.ndim != 3:
            raise ShapeMismatchError(f"expected an (N, d, k) factor, got array of dimension {factor.ndim}")
        w = factor.transpose(1, 0, 2).reshape(factor.shape[1], -1)  # W
        top = max(np.linalg.eigvalsh(dagger(w) @ w if w.shape[1] <= len(w) else w @ dagger(w)),
                  default=0.0)  # ||W||_2^2
        if top > 1.0 + tol.psd_floor:
            raise InvalidOperatorSetError(f"element 0 is not PSD: most negative eigenvalue "
                                          f"{1.0 - top:.3e} below the admissible floor")
        return cls.__new__(cls)._hold(factor, 0)

    def _hold(self, factor: np.ndarray, inconclusive_index: int) -> "Retrodictor":
        factor.setflags(write=False)
        self.factor, self.inconclusive_index = factor, inconclusive_index
        self.n_outcomes, self.d = factor.shape[:2]  # conclusive outcomes, dimension
        return self

    @property
    def elements(self) -> np.ndarray:
        """The read-only ``(N + 1, d, d)`` stack of all elements."""
        if self._elements is None:  # threads racing here form the same elements
            stack = np.empty((self.n_outcomes + 1, self.d, self.d), dtype=complex)
            np.matmul(self.factor, dagger(self.factor), out=stack[1:])
            stack[0] = _completed(stack[1:], self.d)[0]
            stack.setflags(write=False)
            self._elements = stack
        return self._elements


class QuantumState:
    """A pure vector or density matrix, optionally split as system x ancilla.

    ``data`` is a read-only copy of the vector or matrix given and ``factor`` a read-only ``F``
    with ``rho = F F^dag``: ``data`` itself when pure, else ``V sqrt(max(w, 0))`` from the one
    ``eigh`` of the Hermitian part that checked it.  ``factor_dims`` records a tensor factorisation
    ``(d_sys, d_anc)`` as Python ints (``as_index``: a boolean or non-integral dimension raises
    ``TypeError``); measurements always act on the first factor.
    """

    def __init__(self, kind: str, data, factor_dims: tuple[int, int] | None = None,
                 tol: Tolerance = DEFAULT_TOL) -> None:
        if kind not in ("pure", "mixed"):
            raise ValueError(f"kind must be 'pure' or 'mixed', got {kind!r}")
        data = np.array(data, dtype=complex)  # owned, and read-only once checked
        if kind == "pure":
            factor = data = as_vector(data)
            nrm = float(np.linalg.norm(data))
            if abs(nrm - 1.0) > tol.eq_residual:
                raise InvalidOperatorSetError(f"pure state must have unit norm, got {nrm!r}")
        else:
            data = as_matrix(data)
            if data.shape[0] != data.shape[1]:
                raise DimensionMismatchError("density matrix must be square")
            if fro(data - dagger(data)) > tol.eq_residual * fro(data):
                raise NotHermitianError("matrix is not Hermitian within tolerance")
            w, v = np.linalg.eigh((data + dagger(data)) / 2.0)
            if w.size and w[0] < -tol.psd_floor:
                raise InvalidOperatorSetError(f"density matrix is not PSD: most negative eigenvalue "
                                              f"{w[0]:.3e} below the admissible floor")
            factor = _factored(w, v)
            tr = float(np.trace(data).real)
            if abs(tr - 1.0) > tol.eq_residual:
                raise InvalidOperatorSetError(f"density matrix must have unit trace, got {tr!r}")
        if factor_dims is not None:
            d_sys, d_anc = factor_dims = tuple(as_index(d, "factor dimension") for d in factor_dims)
            if min(d_sys, d_anc) < 1:
                raise DimensionMismatchError(f"factor dims {factor_dims} must be positive")
            if d_sys * d_anc != len(data):
                raise DimensionMismatchError(f"factor dims {factor_dims} do not multiply to {len(data)}")
        data.setflags(write=False)
        factor.setflags(write=False)
        self.kind, self.data, self.factor, self.factor_dims = kind, data, factor, factor_dims

    @classmethod
    def pure(cls, vec, factor_dims: tuple[int, int] | None = None,
             tol: Tolerance = DEFAULT_TOL) -> "QuantumState":
        return cls("pure", vec, factor_dims, tol)

    @classmethod
    def mixed(cls, rho, factor_dims: tuple[int, int] | None = None,
              tol: Tolerance = DEFAULT_TOL) -> "QuantumState":
        return cls("mixed", rho, factor_dims, tol)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def density(self) -> np.ndarray:
        if self.kind == "pure":
            return np.outer(self.data, np.conj(self.data))
        return self.data


def povm_of(m: Measurement) -> Povm:
    """The POVM of a measurement: element ``k`` is the group sum of adjoint products."""
    return Povm(m.d_in, m.elements)


def images(stack, s: QuantumState) -> np.ndarray:
    """Images ``(A_r x I) F`` of the factor ``F = s.factor`` (``rho = F F^dag``), stacked as
    ``(R, d_out, d_anc * cols)``; no eigendecomposition is formed here.
    ``stack`` holds the operators ``A_r`` and is taken as is: an array is not copied.  They
    act on the first factor of a state with ``factor_dims`` and on the whole state otherwise;
    any other dimension than ``stack.shape[-1]`` there raises ``DimensionMismatchError``.

    Reshaped to ``(R, d_out * d_anc, cols)`` they factor the joint terms
    ``(A_r x I) rho (A_r x I)^dag``; as they are, the terms' partial traces over the ancilla.
    """
    stack = np.asarray(stack)
    d_in = stack.shape[-1]
    if (s.factor_dims[0] if s.factor_dims else s.dim) != d_in:
        seen = f"factors as {s.factor_dims}" if s.factor_dims else f"has dimension {s.dim}"
        raise DimensionMismatchError(f"measurement expects input dimension {d_in}, state {seen}")
    return stack @ s.factor.reshape(d_in, -1)


def _probabilities(stack: np.ndarray, starts, tol: Tolerance) -> np.ndarray:
    """Outcome probabilities ``p_k = sum_r ||S_r||^2`` over the images ``S_r`` of ``images``,
    outcome ``k`` owning ``stack[starts[k]:starts[k + 1]]``; pure and mixed inputs alike.
    Each ``||S_r||^2`` is one batched 1 x L by L x 1 product, which numpy hands to the BLAS
    dot that ``np.vdot`` uses, and each group is summed by Python's ``sum`` in row order, so
    the bits are those of ``sum(np.vdot(S, S).real for S in group)``.
    Entries below ``tol.rank_rel`` are zeroed and the vector is clamped to [0, 1]."""
    flat = stack.reshape(len(stack), 1, -1)
    sq = (np.conj(flat) @ flat.swapaxes(1, 2)).real.ravel().tolist()
    p = np.array([sum(sq[a:b]) for a, b in zip(starts[:-1], starts[1:])])
    p[p < tol.rank_rel] = 0.0
    return np.clip(p, 0.0, 1.0)


def outcome_probabilities(m: Measurement, s: QuantumState,
                          tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Outcome distribution of ``m`` on ``s`` (first factor when bipartite).

    Probabilities below ``tol.rank_rel`` are reported as exactly zero; the
    vector is clamped to [0, 1] but not renormalised.
    """
    return _probabilities(images(m.kraus, s), m.starts, tol)


def apply_outcome(m: Measurement, s: QuantumState, k: int,
                  tol: Tolerance = DEFAULT_TOL) -> QuantumState:
    """Normalised post-measurement state for outcome ``k``.

    Fine-grained pure inputs stay pure; coarse-grained groups and mixed
    inputs produce a density matrix.  Outcomes of zero probability are
    refused rather than divided through.
    """
    k = as_index(k, "outcome index")
    if not 0 <= k < m.n_outcomes:
        raise IndexError(f"outcome index {k} out of range")
    group = m.kraus[m.starts[k]:m.starts[k + 1]]
    g = images(group, s)
    d_anc = s.dim // m.d_in
    p = _probabilities(g, [0, len(group)], tol)[0]
    if p == 0.0:  # zeroed by _probabilities, as below tol.rank_rel
        raise ZeroProbabilityOutcomeError(f"outcome {k} has zero probability for the supplied state")
    out_dims = (m.d_out, d_anc) if s.factor_dims is not None else None
    g = g.reshape(len(group), m.d_out * d_anc, -1)
    if s.kind == "pure" and len(group) == 1:
        return QuantumState.pure(g.ravel() / np.linalg.norm(g), out_dims, tol)
    out = np.einsum("rik,rjk->ij", g, g.conj())
    out /= float(np.trace(out).real)
    return QuantumState.mixed(out, out_dims, tol)
