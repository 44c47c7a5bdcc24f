"""The in-process workloads: one operation each, and an independent check of its outputs.

Every check recomputes what it needs with numpy from the generated arrays,
or tests a property the method must have; none compares against stored
results.  A failed check raises :class:`CheckError`.
"""

from __future__ import annotations

import numpy as np
import retroq as rq

import inputs

# Tolerances of the checks.  Program verdicts use eq_residual = 1e-9 and
# rank_rel = 1e-10; the checks allow the same or looser.
EQ = 1e-9
WITNESS = 1e-8
SIGMA_REL = 1e-6
FIVE_SIGMA = 5.0
PERFECT_TRIALS = 20_000
UNAMBIGUOUS_TRIALS = 20_000


class CheckError(Exception):
    """An output of the program is wrong."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def rel(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / max(np.linalg.norm(b), 1e-300))


def counts_within(counts, p, n: int, label: str) -> None:
    """Binomial counts against exact probabilities, 5 sigma plus one count."""
    counts, p = np.asarray(counts, dtype=float), np.asarray(p, dtype=float)
    slack = FIVE_SIGMA * np.sqrt(n * p * (1.0 - p)) + 1.0
    worst = int(np.argmax(np.abs(counts - n * p) - slack))
    require(np.all(np.abs(counts - n * p) <= slack),
            f"{label}: count {counts[worst]:.0f} vs expected {n * p[worst]:.1f}")


def check_synthesis(groups, elements) -> None:
    """The synthesised Kraus groups reproduce the POVM: sum_r A^dag A = E_k."""
    for k, group in enumerate(groups):
        got = sum(a.conj().T @ a for a in group)
        require(rel(got, elements[k]) <= EQ, f"outcome {k}: sum A^dag A differs from E_k")


def check_max_residual(reported: float, ops) -> None:
    """``max_residual`` against all normalised cross products ||A_l^dag A_k||, l != k."""
    ops = np.stack(ops)
    norms = np.linalg.norm(ops, axis=(1, 2))
    cross = np.linalg.norm(np.einsum("lba,kbc->lkac", ops.conj(), ops), axis=(2, 3))
    cross /= np.outer(norms, norms)
    np.fill_diagonal(cross, 0.0)
    direct = float(cross.max())
    require(abs(reported - direct) <= EQ * direct, f"max_residual {reported!r} vs direct {direct!r}")


def check_projectors(projectors, groups) -> None:
    """Projector k fixes the range of every Kraus operator of outcome k and annihilates the rest."""
    projs = np.stack(projectors)
    for k, group in enumerate(groups):
        for a in group:
            images = np.einsum("pij,jl->pil", projs, a)
            images[k] -= a
            require(np.linalg.norm(images, axis=(1, 2)).max() <= WITNESS * np.linalg.norm(a),
                    f"projectors do not separate the Kraus operators of outcome {k}")


def check_block_minimum(found: float, analytic: float) -> float:
    """The search's minimum sigma against the analytic one; returns (found - analytic) / analytic."""
    excess = (found - analytic) / analytic
    require(excess >= -1e-12, f"min sigma {found!r} below the analytic value {analytic!r}")
    require(excess <= SIGMA_REL, f"min sigma {found!r} vs the analytic value {analytic!r}")
    return excess


def check_not_lld_witness(ops, psi) -> None:
    """A not-LLD witness psi gives an image matrix [A_1 psi, ..., A_n psi] of full column rank."""
    s = np.linalg.svd(np.column_stack([a @ psi for a in ops]), compute_uv=False)
    require(s.size == len(ops) and s[-1] > 1e-10 * s[0],
            "not-LLD witness gives a rank-deficient image matrix")


def _psd_and_complete(elements, label: str) -> None:
    stack = np.stack(elements)
    d = stack.shape[1]
    low = min(float(np.linalg.eigvalsh(inputs.hermitian(e))[0]) for e in stack)
    require(low >= -EQ, f"{label}: element with eigenvalue {low:.3e}")
    require(np.linalg.norm(stack.sum(axis=0) - np.eye(d)) <= EQ * np.sqrt(d),
            f"{label}: elements do not sum to the identity")


# ---------------------------------------------------------------- perfect_synthesis

def perfect_build(item):
    d = item["psi"].size
    return (rq.Povm(d, item["povm"]),
            rq.Measurement(d, d, [[a] for a in item["generic"]]),
            rq.QuantumState.pure(item["psi"]))


def perfect_op(item):
    povm, generic, state = perfect_build(item)
    synth = rq.synthesize(povm, povm.d)
    report = rq.check_perfect(synth.measurement)
    retro = rq.build_retrodictor(synth.measurement)
    trials = rq.run_trials(synth.measurement, retro, state, PERFECT_TRIALS, item["trial_seed"])
    return synth.measurement, report, retro, trials, rq.check_perfect(generic)


def perfect_check(item, out) -> None:
    m, report, retro, trials, generic = out
    elements, psi = item["povm"], item["psi"]
    check_synthesis(m.outcomes, elements)
    require(report.retrodictable is True, "synthesised measurement reported not perfect")
    require(generic.retrodictable is False, "generic measurement reported perfect")
    check_max_residual(generic.max_residual, item["generic"])
    check_projectors(retro.projectors, m.outcomes)
    require(trials.mismatches == 0 and trials.agreement_rate == 1.0,
            f"simulation: {trials.mismatches} mismatches")
    p = np.array([float(np.vdot(psi, e @ psi).real) for e in elements])
    counts_within(trials.confusion.sum(axis=0), p, trials.n_trials, "outcome counts")


def perfect_verdict(out):
    _, report, _, trials, generic = out
    return (report.retrodictable, report.max_residual, generic.retrodictable,
            generic.max_residual, generic.witness, trials.confusion.tobytes())


# ---------------------------------------------------------------- unambiguous_entangled

def unambiguous_build(item):
    d = item["kraus"][0].shape[0]
    d_u = item["unitaries"][0].shape[0]
    return (rq.Measurement(d, d, [[a] for a in item["kraus"]]),
            rq.Measurement(d, d, [[a] for a in item["dependent"]]),
            rq.QuantumState.pure(inputs.maximally_entangled(d_u), (d_u, d_u)))


def unambiguous_op(item):
    m, dependent, probe = unambiguous_build(item)
    assessment = rq.assess_measurement(m)
    retro, p_inc = rq.retrodict_unambiguously(m, assessment.recommended_state)
    trials = rq.run_trials(m, retro, assessment.recommended_state, UNAMBIGUOUS_TRIALS,
                           item["trial_seed"])
    unitary_retro, success = rq.discriminate_unitaries(item["unitaries"], item["priors"], probe)
    return assessment, retro, p_inc, trials, rq.assess_measurement(dependent), unitary_retro, success


def _finals(ops, weights, state):
    """Normalised (A_k x I)|state> and their probabilities, with numpy alone."""
    d = ops[0].shape[1]
    psi = state.reshape(d, -1)
    images = [(a @ psi).ravel() for a in ops]
    p = np.array([w * float(np.vdot(v, v).real) for w, v in zip(weights, images)])
    return [v / np.linalg.norm(v) for v in images], p


def _check_ud(retro, finals, p, label) -> float:
    """PSD, completeness, zero error; returns p_inconclusive computed here."""
    _psd_and_complete(retro.elements, label)
    inc = retro.inconclusive_index
    conclusive = [e for i, e in enumerate(retro.elements) if i != inc]
    response = np.array([[float(np.vdot(f, e @ f).real) for f in finals] for e in conclusive])
    np.fill_diagonal(response, 0.0)
    require(np.abs(response).max() <= EQ, f"{label}: a conclusive element fires on another state")
    e0 = retro.elements[inc]
    # The shared scale c = tr(E_k) is pushed as high as positivity allows: either
    # the inconclusive element is singular or c reached min_k ||dual_k||^2.
    s = np.column_stack(finals)
    duals = s @ np.linalg.inv(s.conj().T @ s)
    cap = float(np.min(np.linalg.norm(duals, axis=0) ** 2))
    scale = float(np.trace(conclusive[0]).real)
    require(np.linalg.eigvalsh(inputs.hermitian(e0))[0] <= 1e-6 or abs(scale - cap) <= EQ * cap,
            f"{label}: shared scale {scale!r} is not maximal")
    return float(sum(pk * float(np.vdot(f, e0 @ f).real) for pk, f in zip(p, finals)))


def unambiguous_check(item, out) -> None:
    assessment, retro, p_inc, trials, dependent, unitary_retro, success = out
    require(assessment.feasible == "yes", "independent family not reported feasible")
    require(dependent.feasible == "no", "dependent non-singular family not reported infeasible")
    state = assessment.recommended_state.data
    d = item["kraus"][0].shape[0]
    schmidt = np.linalg.svd(state.reshape(d, d), compute_uv=False)
    require(np.allclose(schmidt, 1.0 / np.sqrt(d), atol=EQ), "recommended state is not maximally entangled")

    finals, p = _finals(item["kraus"], np.ones(len(item["kraus"])), state)
    p_direct = _check_ud(retro, finals, p, "retrodictor")
    require(abs(p_inc - p_direct) <= EQ and abs(assessment.p_inconclusive - p_direct) <= EQ,
            f"p_inconclusive {p_inc!r} vs direct {p_direct!r}")
    require(p_direct < 1.0, "retrodictor never concludes")
    require(trials.mismatches == 0, f"simulation: {trials.mismatches} mismatches")
    n = trials.n_trials
    counts_within([trials.confusion[-1].sum()], [p_direct], n, "inconclusive count")

    d_u = item["unitaries"][0].shape[0]
    u_finals, u_p = _finals(item["unitaries"], item["priors"], inputs.maximally_entangled(d_u))
    u_inc = _check_ud(unitary_retro, u_finals, u_p, "unitary retrodictor")
    require(abs(success - (1.0 - u_inc)) <= EQ and success > 0.0,
            f"unitary success {success!r} vs 1 - p_inconclusive {1.0 - u_inc!r}")


def unambiguous_verdict(out):
    assessment, _, p_inc, trials, dependent, _, success = out
    return (assessment.feasible, assessment.p_inconclusive, p_inc, trials.confusion.tobytes(),
            dependent.feasible, success)


IN_PROCESS = {
    "perfect_synthesis": (perfect_build, perfect_op, perfect_check, perfect_verdict),
    "unambiguous_entangled": (unambiguous_build, unambiguous_op, unambiguous_check,
                              unambiguous_verdict),
}
