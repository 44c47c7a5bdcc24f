"""Seeded input generators for the benchmark, written with numpy alone.

Nothing here imports retroq, so a change to the program (its ``rand``
module included) cannot change the inputs.  Every generator takes a
``numpy.random.Generator``; the same seed gives the same arrays.  Where the
paper fixes the answer, the inputs are built to have it:

* POVMs built here are synthesised into perfectly retrodictable
  measurements (realisation theorem: at most ``d_out`` outcomes).
* Generic fine-grained measurements with ``d_in == d_out`` are not perfect.
* Orthogonal-output-block families ``A_k = V_k B_k`` are LLI with
  ``sigma_min = min_k sigma_min(B_k)``.
* Explicit linear combinations are linearly dependent.
* Independent non-singular Kraus families are unambiguously feasible;
  dependent non-singular ones are not.
"""

from __future__ import annotations

import numpy as np


def ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = ginibre(rng, dim, 1).ravel()
    return v / np.linalg.norm(v)


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(ginibre(rng, d, d))
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def inv_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    return (v / np.sqrt(w)) @ v.conj().T


def hermitian(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


def full_rank_povm(rng: np.random.Generator, d: int, n: int) -> list[np.ndarray]:
    """``n`` full-rank, well-conditioned PSD elements on C^d summing to the identity."""
    while True:
        qs = []
        for _ in range(n):
            g = ginibre(rng, d, 2 * d)
            qs.append(g @ g.conj().T)
        root = inv_sqrt(sum(qs))
        elements = [hermitian(root @ q @ root) for q in qs]
        if min(np.linalg.eigvalsh(e)[0] / np.linalg.eigvalsh(e)[-1] for e in elements) > 1e-6:
            return elements


def normalised_kraus(gs: list[np.ndarray]) -> list[np.ndarray]:
    """``G_k S^{-1/2}`` with ``S = sum_k G_k^dag G_k``: a complete Kraus family."""
    root = inv_sqrt(sum(g.conj().T @ g for g in gs))
    return [g @ root for g in gs]


def well_conditioned(ops: list[np.ndarray], limit: float = 1e4) -> bool:
    return all(np.linalg.cond(a) < limit for a in ops)


def generic_fine_grained(rng: np.random.Generator, d: int, n: int) -> list[np.ndarray]:
    """Generic complete family of ``n`` single Kraus operators on C^d."""
    while True:
        ops = normalised_kraus([ginibre(rng, d, d) for _ in range(n)])
        if well_conditioned(ops):
            return ops


def independent_nonsingular(rng: np.random.Generator, d: int, n: int) -> list[np.ndarray]:
    """Complete, non-singular, linearly independent Kraus family (``n <= d*d``)."""
    while True:
        ops = generic_fine_grained(rng, d, n)
        s = np.linalg.svd(np.stack([a.ravel() for a in ops]), compute_uv=False)
        if s[-1] > 1e-6 * s[0]:
            return ops


def dependent_nonsingular(rng: np.random.Generator, d: int, n: int) -> list[np.ndarray]:
    """Complete, non-singular Kraus family whose last member combines the others."""
    while True:
        gs = [ginibre(rng, d, d) for _ in range(n - 1)]
        coeffs = ginibre(rng, n - 1, 1).ravel()
        gs.append(sum(c * g for c, g in zip(coeffs, gs)))
        ops = normalised_kraus(gs)
        if well_conditioned(ops):
            return ops


def block_family(rng: np.random.Generator, n: int, d_in: int, d_out: int
                 ) -> tuple[list[np.ndarray], float]:
    """``A_k = V_k B_k`` with isometries ``V_k`` onto mutually orthogonal blocks.

    The image matrix ``[A_1 psi, ..., A_n psi]`` has orthogonal columns of
    norms ``||B_k psi||``, so its smallest singular value over the unit
    sphere is ``min_k sigma_min(B_k)``.  One member is made strictly weaker
    than all others (its largest singular value lies below every other
    member's smallest), so the minimum is the only local one.  ``d_in`` is
    at least 2.
    """
    u = haar_unitary(rng, d_out)
    weak = int(rng.integers(n))
    ops = []
    for k in range(n):
        if k == weak:
            # a well-separated smallest singular value keeps the minimum isolated
            s = np.linspace(rng.uniform(0.3, 0.35), rng.uniform(0.6, 0.7), d_in)
            analytic = float(s[0])
        else:
            s = np.sort(rng.uniform(0.9, 1.2, d_in))
        b = haar_unitary(rng, d_in) @ np.diag(s) @ haar_unitary(rng, d_in).conj().T
        ops.append(u[:, k * d_in:(k + 1) * d_in] @ b)
    return ops, analytic


def perfect_item(rng: np.random.Generator, d: int = 16, n: int = 16) -> dict:
    return {
        "povm": full_rank_povm(rng, d, n),
        "generic": generic_fine_grained(rng, d, n),
        "psi": unit_vector(rng, d),
        "trial_seed": int(rng.integers(2**31)),
    }


def unambiguous_item(rng: np.random.Generator, d: int = 8, n: int = 32) -> dict:
    n_unitaries, d_unitary = 6, 4
    priors = rng.uniform(0.5, 1.5, n_unitaries)
    return {
        "kraus": independent_nonsingular(rng, d, n),
        "dependent": dependent_nonsingular(rng, d, d),
        "unitaries": [haar_unitary(rng, d_unitary) for _ in range(n_unitaries)],
        "priors": priors / priors.sum(),
        "trial_seed": int(rng.integers(2**31)),
    }


def maximally_entangled(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex).ravel() / np.sqrt(d)


GENERATORS = {
    "perfect_synthesis": perfect_item,
    "unambiguous_entangled": unambiguous_item,
}


def pool(workload: str, seed: int, size: int) -> list[dict]:
    """``size`` independent inputs for an in-process workload."""
    rng = np.random.default_rng([seed, sorted(GENERATORS).index(workload)])
    return [GENERATORS[workload](rng) for _ in range(size)]
