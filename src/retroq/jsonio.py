"""JSON (de)serialisation of operators, states, retrodictors and reports.

Every complex scalar, vector or matrix goes through one codec: nested
``[re, im]`` pairs, a matrix being an array of rows.  Non-numeric, ragged,
empty or non-pair entries and fields of the wrong JSON type are input errors
(``ValueError``, CLI exit 2); every writer sorts keys so output is byte-stable
for fixed inputs.
"""

from __future__ import annotations

import json

import numpy as np

from .catalog import NamedExample
from .dependence import DependenceVerdict
from .errors import DimensionMismatchError, InvalidOperatorSetError
from .linalg import DEFAULT_TOL, Tolerance, operator_stack
from .measurement import Measurement, Povm, QuantumState, Retrodictor
from .perfect import PerfectCheckReport, ProjectiveRetrodictor
from .simulation import TrialReport
from .unambiguous import RetrodictionAssessment


def array_to_obj(a) -> list:
    """Nested ``[re, im]`` pairs of a complex scalar, vector or matrix."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def array_from_obj(obj, ndim: int) -> np.ndarray:
    """Complex array of rank ``ndim`` (1 for a vector, 2 for a matrix) from nested
    ``[re, im]`` pairs, read bit for bit.  Ragged, empty or non-numeric nesting, JSON
    booleans and innermost entries that are not pairs raise ``ValueError``."""
    try:
        a = np.asarray(obj, dtype=object)  # each entry as parsed: a bool is not read as 1.0
        a = a.astype(float) if {type(x) for x in a.flat} <= {int, float} else None
    except (ValueError, OverflowError):  # nesting numpy cannot shape, integers beyond float range
        a = None
    if a is None or a.ndim != ndim + 1 or a.shape[-1] != 2:
        raise ValueError(f"expected a nonempty rank-{ndim} array of [re, im] pairs")
    return a.view(complex)[..., 0]


def _typed(value, kind: type, what: str):
    """``value`` if it is a JSON ``kind``, ``int`` (never a bool) or ``list``; else ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, kind):
        name = "an integer" if kind is int else "an array"
        raise ValueError(f"{what} must be {name}, got {json.dumps(value, default=repr):.40}")
    return value


def measurement_to_obj(m: Measurement) -> dict:
    return {
        "d_in": m.d_in,
        "d_out": m.d_out,
        "outcomes": [[array_to_obj(a) for a in group] for group in m.outcomes],
    }


def measurement_from_obj(obj, tol: Tolerance = DEFAULT_TOL) -> Measurement:
    outcomes = [[array_from_obj(a, 2) for a in _typed(group, list, "outcome group")]
                for group in _typed(obj["outcomes"], list, "outcomes")]
    d_in, d_out = _typed(obj["d_in"], int, "d_in"), _typed(obj["d_out"], int, "d_out")
    return Measurement(d_in, d_out, outcomes, tol)


def povm_to_obj(p: Povm) -> dict:
    return {"d": p.d, "elements": array_to_obj(p.elements)}


def povm_from_obj(obj, tol: Tolerance = DEFAULT_TOL) -> Povm:
    elements = [array_from_obj(e, 2) for e in _typed(obj["elements"], list, "elements")]
    return Povm(_typed(obj["d"], int, "d"), elements, tol)


def state_to_obj(s: QuantumState) -> dict:
    out: dict = {"kind": s.kind, "data": array_to_obj(s.data)}
    if s.factor_dims is not None:
        out["factor_dims"] = list(s.factor_dims)
    return out


def state_from_obj(obj, tol: Tolerance = DEFAULT_TOL) -> QuantumState:
    kind = obj["kind"]
    if kind not in ("pure", "mixed"):
        raise ValueError(f"state kind must be 'pure' or 'mixed', got {kind!r}")
    data = array_from_obj(obj["data"], 1 if kind == "pure" else 2)
    dims = obj.get("factor_dims")
    if dims is not None:
        if len(_typed(dims, list, "factor_dims")) != 2:
            raise ValueError(f"factor_dims must be a pair of integers, got {len(dims)} entries")
        dims = tuple(_typed(x, int, "factor_dims entry") for x in dims)
    return QuantumState(kind, data, dims, tol)


def projective_to_obj(r: ProjectiveRetrodictor) -> dict:
    return {"d_out": r.d, "projectors": array_to_obj(r.projectors)}


def projective_from_obj(obj, tol: Tolerance = DEFAULT_TOL) -> ProjectiveRetrodictor:
    projectors = [array_from_obj(p, 2) for p in _typed(obj["projectors"], list, "projectors")]
    return ProjectiveRetrodictor(_typed(obj["d_out"], int, "d_out"), projectors, tol)


def ud_to_obj(r: Retrodictor) -> dict:
    return {
        "d": r.d,
        "elements": array_to_obj(r.elements),
        "inconclusive_index": r.inconclusive_index,
    }


def ud_from_obj(obj, tol: Tolerance = DEFAULT_TOL) -> Retrodictor:
    elements = [array_from_obj(e, 2) for e in _typed(obj["elements"], list, "elements")]
    d = _typed(obj["d"], int, "d")
    index = _typed(obj.get("inconclusive_index", 0), int, "inconclusive_index")
    if d < 1:
        raise InvalidOperatorSetError("dimension must be positive")
    r = Retrodictor(elements, index, tol)
    if r.d != d:  # the constructor took d from element 0 and held every element to it
        raise DimensionMismatchError(f"element 0 has shape ({r.d}, {r.d}); expected ({d}, {d})")
    return r


def operators_to_obj(ops) -> dict:
    return {"operators": [array_to_obj(a) for a in ops]}


def operators_from_obj(obj) -> list[np.ndarray]:
    """At least one operator, all of one shape and with finite entries."""
    return list(operator_stack([array_from_obj(a, 2)
                                for a in _typed(obj["operators"], list, "operators")]))


def perfect_report_to_obj(report: PerfectCheckReport) -> dict:
    return {
        "retrodictable": report.retrodictable,
        "max_residual": float(report.max_residual),
        "witness": list(report.witness) if report.witness is not None else None,
    }


def verdict_to_obj(v: DependenceVerdict) -> dict:
    certificates: dict = {
        "dependence": array_to_obj(v.dependence) if v.dependence is not None else None,
        "not_lld_witness": (array_to_obj(v.not_lld_witness)
                            if v.not_lld_witness is not None else None),
        "not_lli_witness": None,
        "lld_reason": v.lld_reason,
    }
    if v.not_lli_witness is not None:
        psi, alpha = v.not_lli_witness
        certificates["not_lli_witness"] = {
            "psi": array_to_obj(psi),
            "alpha": array_to_obj(alpha),
        }
    return {
        "linearly_independent": v.linearly_independent,
        "lld": v.lld,
        "lli": v.lli,
        "min_sigma": float(v.min_sigma),
        "certificates": certificates,
    }


def assessment_to_obj(a: RetrodictionAssessment) -> dict:
    return {
        "feasible": a.feasible,
        "recommended_state": (state_to_obj(a.recommended_state)
                              if a.recommended_state is not None else None),
        "p_inconclusive": (float(a.p_inconclusive)
                           if a.p_inconclusive is not None else None),
    }


def trial_report_to_obj(t: TrialReport) -> dict:
    return {
        "n_trials": t.n_trials,
        "confusion": t.confusion.tolist(),
        "agreement_rate": float(t.agreement_rate),
        "inconclusive_rate": float(t.inconclusive_rate),
        "seed": t.seed,
    }


def example_to_obj(ex: NamedExample) -> dict:
    out: dict = {"name": ex.name, "description": ex.description, "expected": dict(ex.expected)}
    if ex.measurement is not None:
        out["measurement"] = measurement_to_obj(ex.measurement)
    if ex.povm is not None:
        out["povm"] = povm_to_obj(ex.povm)
    if ex.operators is not None:
        out.update(operators_to_obj(ex.operators))
    return out


def detect_and_load(obj, tol: Tolerance = DEFAULT_TOL):
    """Typed object from a parsed payload, keyed on its fields."""
    if not isinstance(obj, dict):
        raise ValueError("top-level payload must be a JSON object")
    # example dumps nest their payload under a type key
    if "measurement" in obj and isinstance(obj["measurement"], dict):
        return measurement_from_obj(obj["measurement"], tol)
    if "povm" in obj and isinstance(obj["povm"], dict):
        return povm_from_obj(obj["povm"], tol)
    if "outcomes" in obj:
        return measurement_from_obj(obj, tol)
    if "inconclusive_index" in obj:
        return ud_from_obj(obj, tol)
    if "projectors" in obj:
        return projective_from_obj(obj, tol)
    if "elements" in obj and "d" in obj:
        return povm_from_obj(obj, tol)
    if "kind" in obj:
        return state_from_obj(obj, tol)
    if "operators" in obj:
        return operators_from_obj(obj)
    raise ValueError("payload does not match any known format")


def load_file(path: str, tol: Tolerance = DEFAULT_TOL):
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return detect_and_load(obj, tol)


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
