"""CLI: subcommands, exit codes, byte-stable JSON output, file round trips."""

from __future__ import annotations

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import retroq
from retroq import (
    InvalidOperatorSetError,
    Measurement,
    NotHermitianError,
    QuantumState,
    ShapeMismatchError,
    build_retrodictor,
    fock_shift_example,
    get_example,
    synthesize,
)
from retroq.cli import main
from retroq.catalog import PAULI
from retroq.jsonio import (
    array_from_obj,
    array_to_obj,
    dumps,
    measurement_to_obj,
    operators_to_obj,
    povm_to_obj,
    projective_to_obj,
    state_from_obj,
    state_to_obj,
)
from retroq.linalg import Tolerance, as_vector
from retroq.rand import random_nonsingular_dependent, random_nonsingular_independent, random_projective_povm


def pauli_measurement() -> Measurement:
    return Measurement(2, 2, [[PAULI[s] / 2.0] for s in ("I", "X", "Y", "Z")])


@pytest.fixture
def files(tmp_path):
    """Fixture files: measurements, POVM, retrodictor and state."""
    paths = {}
    paths["pauli"] = tmp_path / "pauli.json"
    paths["pauli"].write_text(dumps(measurement_to_obj(pauli_measurement())))

    two = get_example("two_to_four").measurement
    paths["two_to_four"] = tmp_path / "two_to_four.json"
    paths["two_to_four"].write_text(dumps(measurement_to_obj(two)))

    trine = get_example("trine_povm").povm
    paths["trine"] = tmp_path / "trine.json"
    paths["trine"].write_text(dumps(povm_to_obj(trine)))

    synth = synthesize(trine, d_out=3)
    paths["synth"] = tmp_path / "synth.json"
    paths["synth"].write_text(dumps(measurement_to_obj(synth.measurement)))
    retro = build_retrodictor(synth.measurement)
    paths["retro"] = tmp_path / "retro.json"
    paths["retro"].write_text(dumps(projective_to_obj(retro)))

    state = QuantumState.pure(np.array([1.0, 1.0]) / np.sqrt(2))
    paths["plus"] = tmp_path / "plus.json"
    paths["plus"].write_text(dumps(state_to_obj(state)))

    paths["bad_json"] = tmp_path / "bad.json"
    paths["bad_json"].write_text('{"d": 2,\n  "elements": [}\n')

    paths["incomplete"] = tmp_path / "incomplete.json"
    paths["incomplete"].write_text(dumps({
        "d_in": 2, "d_out": 2,
        "outcomes": [[[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]]],
    }))
    return paths


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ validate

def test_validate_measurement_ok(files, capsys):
    code, out, _ = run_cli(["validate", files["pauli"]], capsys)
    assert code == 0
    assert "valid measurement" in out


def test_validate_accepts_a_valid_measurement_at_a_coarse_tol_eq(files, capsys):
    # each Pauli element I / 4 has Frobenius norm 0.354, below this eq_residual
    code, out, _ = run_cli(["validate", files["pauli"], "--tol-eq", "0.4"], capsys)
    assert (code, out) == (0, "valid measurement: d_in=2 d_out=2 outcomes=4 fine_grained=True\n")


def test_validate_accepts_exactly_where_each_tolerance_holds_its_equation(capsys, tmp_path):
    # a file is valid iff every ||E_k||_F >= rank_rel and ||sum_k E_k - I||_F <= eq_residual sqrt(d);
    # a refusal exits 1 and names the quantity whose tolerance the flag moved
    files = []
    for ex in retroq.catalog():
        if ex.measurement is not None:
            obj, elements = measurement_to_obj(ex.measurement), ex.measurement.elements
        elif ex.povm is not None:
            obj, elements = povm_to_obj(ex.povm), ex.povm.elements
        else:
            continue
        path = tmp_path / f"{ex.name}.json"
        path.write_text(dumps(obj))
        d = len(elements[0])
        files.append((path, np.linalg.norm(elements, axis=(1, 2)).min(),
                      np.linalg.norm(elements.sum(axis=0) - np.eye(d)) / np.sqrt(d)))
    assert len(files) == 5
    grid = [*np.geomspace(1e-14, 0.5, 27), 0.35, 0.36]  # the Pauli quarter has ||I/4||_F = 0.354
    refused = {"--tol-eq": 0, "--tol-rank": 0}
    for flag, field, quantity in (("--tol-eq", "eq_residual", "identity"),
                                  ("--tol-rank", "rank_rel", "vanishing POVM element")):
        for x in grid:
            tol = Tolerance(**{field: float(x)})
            for path, smallest, deviation in files:
                code, _, err = run_cli(["validate", path, flag, repr(float(x))], capsys)
                if smallest >= tol.rank_rel and deviation <= tol.eq_residual:
                    assert code == 0, (path.name, flag, x, err)
                else:
                    refused[flag] += 1
                    assert code == 1 and quantity in err, (path.name, flag, x, err)
    # pauli_quarter from 0.36 and counterexample_3d (||E_k||_F = 0.49999...) at 0.5
    assert refused == {"--tol-eq": 0, "--tol-rank": 3}


def test_validate_reports_the_type_of_every_kind_of_file(files, capsys, tmp_path):
    from retroq import maximally_entangled_state, retrodict_unambiguously
    from retroq.jsonio import ud_to_obj

    code, out, _ = run_cli(["build-retrodictor", files["synth"], "--format", "json"], capsys)
    assert code == 0
    built = tmp_path / "built.json"
    built.write_text(out)
    ud = tmp_path / "ud.json"
    ud.write_text(dumps(ud_to_obj(retrodict_unambiguously(pauli_measurement(),
                                                          maximally_entangled_state(2))[0])))
    ops = tmp_path / "ops.json"
    ops.write_text(dumps(operators_to_obj(pauli_measurement().kraus)))
    cases = [(files["plus"], "state", "kind=pure dim=2 factors=None"),
             (built, "projective_retrodictor", "d_out=3 outcomes=3"),
             (ud, "unambiguous_retrodictor", "d=4 outcomes=4"),
             (ops, "operators", "count=4")]
    for path, kind, detail in cases:
        code, out, _ = run_cli(["validate", path], capsys)
        assert (code, out) == (0, f"valid {kind}: {detail}\n")
        code, out, _ = run_cli(["validate", path, "--format", "json"], capsys)
        assert code == 0 and json.loads(out) == {"valid": True, "type": kind}


def test_validate_rejects_incomplete_measurement(files, capsys):
    code, _, err = run_cli(["validate", files["incomplete"]], capsys)
    assert code == 1
    assert "identity" in err


def test_validate_rejects_a_non_hermitian_idempotent_projector(tmp_path, capsys):
    # [[1, 1], [0, 0]] squares to itself: only the element check refuses it, as element 1, and a
    # Hermiticity failure is an input error for every kind of file
    path = tmp_path / "skew.json"
    path.write_text(dumps({"d_out": 2, "projectors": [array_to_obj(np.array([[1.0, 1.0], [0.0, 0.0]]))]}))
    code, _, err = run_cli(["validate", path], capsys)
    assert code == 2
    assert err == "NotHermitianError: element 1 is not Hermitian within tolerance\n"


def test_validate_rejects_overlapping_projectors_by_their_remainder(tmp_path, capsys):
    # each is a projector; together they leave I - P0 - P+ with eigenvalue -1/sqrt(2)
    path = tmp_path / "overlap.json"
    path.write_text(dumps({"d_out": 2, "projectors": [array_to_obj(np.diag([1.0, 0.0])),
                                                      array_to_obj(np.full((2, 2), 0.5))]}))
    code, _, err = run_cli(["validate", path], capsys)
    assert code == 1
    assert err == ("InvalidOperatorSetError: element 0 is not PSD: most negative eigenvalue "
                   "-7.071e-01 below the admissible floor\n")


def test_malformed_json_gives_line_diagnostic(files, capsys):
    code, _, err = run_cli(["validate", files["bad_json"]], capsys)
    assert code == 2
    assert "line 2" in err


_ZERO, _ONE = [0.0, 0.0], [1.0, 0.0]
_UPPER = [[_ONE, _ZERO], [_ZERO, _ZERO]]  # |0><0| as rows of [re, im] pairs
_LOWER = [[_ZERO, _ZERO], [_ZERO, _ONE]]


def _povm_with_first_element(element) -> dict:
    return {"d": 2, "elements": [element, _LOWER]}


@pytest.mark.parametrize("payload", [
    _povm_with_first_element([[_ONE, _ZERO], [_ZERO]]),  # ragged rows
    _povm_with_first_element([[[1.0, 0.0, 0.0], [0.0] * 3], [[0.0] * 3, [0.0] * 3]]),  # triples
    _povm_with_first_element([[["1", "0"], _ZERO], [_ZERO, _ZERO]]),  # string numbers
    _povm_with_first_element([[[1.0, None], _ZERO], [_ZERO, _ZERO]]),
    _povm_with_first_element([]),  # empty matrix
    _povm_with_first_element([[], []]),  # empty rows
    _povm_with_first_element([[1.0, 0.0], [0.0, 0.0]]),  # bare numbers for pairs
    {"kind": "pure", "data": _UPPER},  # a matrix for a state vector
    {"kind": "pure", "data": [[True, False], [False, False]]},  # JSON booleans for numbers
    _povm_with_first_element([[[1, 0], [0, False]], [[0, 0], [0, 0]]]),
    _povm_with_first_element([[_ONE, [0.0, True]], [_ZERO, _ZERO]]),
    {"d_in": 1, "d_out": 1, "outcomes": [[[[[True, 0]]]]]},
    {"d": 1, "elements": [[[[True, 0]]]]},
    {"kind": "mixed", "data": [[[1.0, False]]]},
], ids=["ragged", "triples", "strings", "null", "empty_matrix", "empty_row", "bare_number",
        "matrix_for_vector", "bool_vector", "bool_among_ints", "bool_among_floats",
        "bool_in_measurement", "bool_in_povm", "bool_in_state"])
def test_validate_rejects_malformed_complex_payloads(payload, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main(["validate", str(path)]) == 2
    assert "error: expected a nonempty rank-" in capsys.readouterr().err


@pytest.mark.parametrize("text, reason", [
    ('{"operators": [[[[NaN, 0]]]]}', "finite"),
    ('{"operators": [[[[1e400, 0]]]]}', "finite"),  # read as Inf
    ('{"operators": [[[[1, 0]]], [[[1, 0], [0, 0]]]]}', "mixed operator shapes"),
    ('{"operators": []}', "at least one operator"),
], ids=["nan", "inf", "mixed_shapes", "empty_list"])
def test_validate_rejects_broken_operator_payloads(text, reason, tmp_path, capsys):
    path = tmp_path / "ops.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    assert reason in capsys.readouterr().err


_EYE = '[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]'  # the 2 x 2 identity as rows of [re, im] pairs


@pytest.mark.parametrize("text", [
    '{"kind": "pure", "data": [[1, 0]], "factor_dims": [1]}',
    '{"kind": "pure", "data": [[1, 0]], "factor_dims": 5}',
    '{"kind": "pure", "data": [[1, 0]], "factor_dims": [1, 1.0]}',
    '{"d_in": null, "d_out": 2, "outcomes": [[%s]]}' % _EYE,
    '{"d_in": 2.7, "d_out": 2, "outcomes": [[%s]]}' % _EYE,
    '{"d_in": true, "d_out": 2, "outcomes": [[%s]]}' % _EYE,
    '{"d_in": 2, "d_out": 2, "outcomes": 5}',
    '{"d_in": 2, "d_out": 2, "outcomes": [5]}',
    '{"operators": 5}',
    '{"d": 2, "elements": [%s], "inconclusive_index": null}' % _EYE,
    '{"d": 1, "elements": [[[[1, 0]]]], "inconclusive_index": 3}',
    '{"d": 1, "elements": [[[[1, 0]]]], "inconclusive_index": -1}',
    '{"elements": [%s], "inconclusive_index": 0}' % _EYE,
], ids=["short_factor_dims", "scalar_factor_dims", "float_factor_dim", "null_d_in",
        "fractional_d_in", "bool_d_in", "scalar_outcomes", "scalar_group", "scalar_operators",
        "null_inconclusive_index", "inconclusive_index_past_the_end",
        "negative_inconclusive_index", "unambiguous_without_d"])
def test_validate_rejects_wrong_typed_fields(text, tmp_path, capsys):
    path = tmp_path / "typed.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("text", [
    '{"d": 7, "elements": [%s]}' % _EYE,
    '{"d_out": 7, "projectors": [%s]}' % _EYE,
    '{"d": 7, "elements": [%s], "inconclusive_index": 0}' % _EYE,
], ids=["povm", "projective", "unambiguous"])
def test_validate_rejects_elements_of_another_dimension_than_the_files(text, tmp_path, capsys):
    path = tmp_path / "mismatch.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("DimensionMismatchError: ")


@pytest.mark.parametrize("text", [
    '{"d_out": 0, "projectors": []}',
    '{"d_out": -1, "projectors": []}',
    '{"d_out": -1, "projectors": [%s]}' % _EYE,
    '{"d": -1, "elements": [%s], "inconclusive_index": 0}' % _EYE,
    '{"d": 0, "elements": [%s]}' % _EYE,
], ids=["projective_zero", "projective_negative", "projective_negative_with_a_projector",
        "unambiguous_negative", "povm_zero"])
def test_validate_refuses_a_non_positive_dimension_as_every_kind_does(text, tmp_path, capsys):
    path = tmp_path / "dimension.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == "InvalidOperatorSetError: dimension must be positive\n"


@pytest.mark.parametrize("text, code, err", [
    ('{"d_in": 0, "d_out": 1, "outcomes": [[[[[1, 0]]]]]}', 1,
     "InvalidOperatorSetError: dimensions must be positive"),
    ('{"d_in": 1, "d_out": 1, "outcomes": []}', 1,
     "InvalidOperatorSetError: a measurement needs at least one outcome"),
    ('{"kind": "mixed", "data": [[[0.5, 0], [1, 0]], [[0, 0], [0.5, 0]]]}', 2,
     "NotHermitianError: density matrix is not Hermitian within tolerance"),
    ('{"kind": "pure", "data": [[1%s, 0]]}' % ("0" * 400), 2,
     "error: expected a nonempty rank-1 array of [re, im] pairs"),
    ('{"kind": "entangled", "data": [[1, 0]]}', 2,
     "error: state kind must be 'pure' or 'mixed', got 'entangled'"),
], ids=["zero_d_in", "no_outcomes", "non_hermitian_density", "integer_beyond_float", "state_kind"])
def test_validate_names_each_refusal_with_its_exit_code(text, code, err, tmp_path, capsys):
    path = tmp_path / "refused.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == code
    assert capsys.readouterr().err == err + "\n"


@pytest.mark.parametrize("call, error, message", [
    (lambda: Measurement(0, 1, [[np.ones((1, 1))]]), InvalidOperatorSetError,
     "dimensions must be positive"),
    (lambda: Measurement(1, 1, []), InvalidOperatorSetError, "a measurement needs at least one outcome"),
    (lambda: QuantumState.mixed([[0.5, 1.0], [0.0, 0.5]]), NotHermitianError,
     "density matrix is not Hermitian within tolerance"),
    (lambda: array_from_obj([[10**400, 0]], 1), ValueError,
     "expected a nonempty rank-1 array of [re, im] pairs"),
    (lambda: state_from_obj({"kind": "entangled", "data": [[1, 0]]}), ValueError,
     "state kind must be 'pure' or 'mixed', got 'entangled'"),
    (lambda: as_vector(np.eye(2)), ShapeMismatchError, "expected a vector, got array of dimension 2"),
    (lambda: fock_shift_example(1, 0.5), ValueError, "need at least two levels, got 1"),
    (lambda: random_projective_povm(2, 3, 0), ValueError, "need 1 <= n <= 2, got 3"),
    (lambda: random_nonsingular_independent(2, 5, 0), ValueError,
     "at most 4 independent operators exist on dimension 2"),
    (lambda: random_nonsingular_dependent(2, 1, 0), ValueError,
     "need at least two operators for a dependence"),
], ids=["zero_d_in", "no_outcomes", "non_hermitian_density", "integer_beyond_float", "state_kind",
        "matrix_for_vector", "one_level_shift", "projective_outcomes", "independent_count",
        "dependent_count"])
def test_each_library_refusal_names_its_cause(call, error, message):
    with pytest.raises(error) as refused:
        call()
    assert str(refused.value) == message


@pytest.mark.parametrize("text, field", [
    ('{"outcomes": [[[[[1,0]]]]], "d_out": 1}', "d_in"),
    ('{"kind": "pure"}', "data"),
    ('{"projectors": [[[[1,0]]]]}', "d_out"),
    ('{"elements": [[[[1,0]]]], "inconclusive_index": 0}', "d"),
], ids=["measurement", "state", "projective", "unambiguous"])
def test_validate_names_a_missing_field(text, field, tmp_path, capsys):
    path = tmp_path / "missing.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: missing field '{field}'\n"


def test_validate_accepts_the_well_formed_payload_and_integers_beyond_int64(tmp_path):
    path = tmp_path / "good.json"
    path.write_text(json.dumps(_povm_with_first_element(_UPPER)))
    assert main(["validate", str(path)]) == 0
    path.write_text('{"operators": [[[[100000000000000000000000, 0]]]]}')
    assert main(["validate", str(path)]) == 0
    assert array_from_obj([[10**23, 0]], 1)[0] == 1e23


# -------------------------------------------------------------- check-perfect

def test_check_perfect_true_verdicts(files, capsys):
    code, out, _ = run_cli(["check-perfect", files["two_to_four"], "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["retrodictable"] is True


def test_check_perfect_false_verdict_reports_witness(files, capsys):
    code, out, _ = run_cli(["check-perfect", files["pauli"]], capsys)
    assert code == 1
    assert "retrodictable: false" in out
    assert "witness" in out and "max residual" in out


def test_check_perfect_honours_tol_eq(files, capsys, tmp_path):
    # a residual of 1.2e-6 is refused at the default eq_residual and accepted at 1e-5
    obj = json.loads(files["synth"].read_text())
    obj["outcomes"][0][0][1][0][0] += 1e-6
    path = tmp_path / "bumped.json"
    path.write_text(dumps(obj))
    code, out, _ = run_cli(["check-perfect", path], capsys)
    assert code == 1 and "retrodictable: false" in out
    code, out, _ = run_cli(["check-perfect", path, "--tol-eq", "1e-5"], capsys)
    assert code == 0 and "retrodictable: true" in out
    code, _, err = run_cli(["check-perfect", path, "--tol-eq", "2"], capsys)
    assert (code, err) == (2, "error: eq_residual must lie strictly between 0 and 1, got 2.0\n")


def test_measurement_commands_refuse_a_povm_file(files, capsys):
    code, _, err = run_cli(["classify", files["trine"]], capsys)
    assert (code, err) == (2, "error: classify expects a measurement or operator-list file\n")
    code, _, err = run_cli(["check-perfect", files["trine"]], capsys)
    assert (code, err) == (2, "error: check-perfect expects a measurement file\n")


# ---------------------------------------------------------- build-retrodictor

def test_build_retrodictor_round_trip(files, capsys, tmp_path):
    code, out, _ = run_cli(["build-retrodictor", files["synth"], "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["d_out"] == 3
    assert len(payload["projectors"]) == 3


def test_build_retrodictor_fails_on_pauli(files, capsys):
    code, _, err = run_cli(["build-retrodictor", files["pauli"]], capsys)
    assert code == 1
    assert "NotPerfectlyRetrodictable" in err


# ------------------------------------------------------------------ synthesize

def test_synthesize_emits_measurement(files, capsys):
    code, out, _ = run_cli(["synthesize", files["trine"], "--d-out", "3",
                            "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["d_in"] == 2 and payload["d_out"] == 3


def test_synthesize_too_many_outcomes(files, capsys):
    code, _, err = run_cli(["synthesize", files["trine"], "--d-out", "2"], capsys)
    assert code == 1
    assert "TooManyOutcomes" in err


def test_synthesize_reports_an_outcome_left_without_kraus_operators(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(dumps(povm_to_obj(retroq.Povm(2, [np.eye(2), np.zeros((2, 2))]))))
    code, _, err = run_cli(["synthesize", path, "--d-out", "2"], capsys)
    assert code == 1
    assert "outcome 1 has no Kraus operators" in err


@pytest.mark.parametrize("d_out", ["0", "-3"])
def test_synthesize_d_out_must_be_positive(files, capsys, d_out):
    with pytest.raises(SystemExit) as exc:
        main(["synthesize", str(files["trine"]), "--d-out", d_out])
    assert exc.value.code == 2
    assert "must be positive" in capsys.readouterr().err


# -------------------------------------------------------------------- classify

def test_classify_pauli_json(files, capsys):
    code, out, _ = run_cli(["classify", files["pauli"], "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["linearly_independent"] is True
    assert payload["lld"] == "yes"
    assert payload["lli"] == "no"


def test_classify_honours_tol_rank(capsys, tmp_path):
    # B = A (1 + 1e-8) but for B[0, 1] = 1e-8: independent at rank_rel 1e-10, not at 1e-6
    a = np.diag([1.0, 0.5])
    b = a * (1 + 1e-8)
    b[0, 1] = 1e-8
    path = tmp_path / "near.json"
    path.write_text(dumps(operators_to_obj([a, b])))
    code, out, _ = run_cli(["classify", path, "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["linearly_independent"] is True
    code, out, _ = run_cli(["classify", path, "--format", "json", "--tol-rank", "1e-6"], capsys)
    assert code == 0 and json.loads(out)["linearly_independent"] is False


def test_classify_reads_an_operator_list_as_its_measurement(files, capsys, tmp_path):
    path = tmp_path / "ops.json"
    path.write_text(dumps(operators_to_obj(pauli_measurement().kraus)))
    code, from_ops, _ = run_cli(["classify", path, "--format", "json"], capsys)
    assert code == 0
    code, from_measurement, _ = run_cli(["classify", files["pauli"], "--format", "json"], capsys)
    assert code == 0 and from_ops == from_measurement


# ---------------------------------------------------------------------- assess

def test_assess_exit_codes(files, capsys, tmp_path):
    code, out, _ = run_cli(["assess", files["pauli"], "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["feasible"] == "yes"

    ce = get_example("counterexample_3d").measurement
    path = tmp_path / "ce.json"
    path.write_text(dumps(measurement_to_obj(ce)))
    code, out, _ = run_cli(["assess", path, "--format", "json"], capsys)
    assert code == 1
    assert json.loads(out)["feasible"] == "undecided"


# -------------------------------------------------------------------- simulate

def test_simulate_is_byte_stable(files, capsys):
    args = ["simulate", files["synth"], files["retro"], files["plus"],
            "--trials", "2000", "--seed", "11", "--format", "json"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["n_trials"] == 2000
    assert payload["agreement_rate"] == 1.0
    assert payload["seed"] == 11


def test_simulate_with_ud_retrodictor_file(files, capsys, tmp_path):
    from retroq import maximally_entangled_state, retrodict_unambiguously
    from retroq.jsonio import ud_to_obj

    m = pauli_measurement()
    state = maximally_entangled_state(2)
    ud, _ = retrodict_unambiguously(m, state)
    retro_path = tmp_path / "ud.json"
    retro_path.write_text(dumps(ud_to_obj(ud)))
    state_path = tmp_path / "mes.json"
    state_path.write_text(dumps(state_to_obj(state)))
    code, out, _ = run_cli(["simulate", files["pauli"], retro_path, state_path,
                            "--trials", "5000", "--seed", "2", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    confusion = np.array(payload["confusion"])
    conclusive = confusion[:-1, :]
    assert conclusive.sum() - np.trace(conclusive) == 0  # zero erroneous retrodictions


def test_simulate_seed_env_default(files, capsys, monkeypatch):
    monkeypatch.setenv("RETROQ_SEED", "777")
    code, out, _ = run_cli(["simulate", files["synth"], files["retro"], files["plus"],
                            "--trials", "100", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["seed"] == 777


@pytest.mark.parametrize("command, value, message", [
    ("simulate", "-1", "must be nonnegative, got -1"),
    ("simulate", "abc", "invalid int value: 'abc'"),
    # pauli_quarter is decided without sampling, two_to_four by sampling: a seed is refused
    # whatever the input
    ("classify pauli", "-3", "must be nonnegative, got -3"),
    ("classify two_to_four", "-3", "must be nonnegative, got -3"),
])
def test_seed_flag_must_be_a_nonnegative_integer(files, capsys, command, value, message):
    argv = {"simulate": ["simulate", files["synth"], files["retro"], files["plus"]],
            "classify pauli": ["classify", files["pauli"]],
            "classify two_to_four": ["classify", files["two_to_four"]]}[command]
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv] + ["--seed", value])
    assert exc.value.code == 2
    assert f"argument --seed: {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize("value, message", [
    ("-5", "must be nonnegative, got -5"),
    ("abc", "invalid int value: 'abc'"),
    ("2.5", "invalid int value: '2.5'"),
])
def test_trials_flag_must_be_a_nonnegative_integer(files, capsys, tmp_path, value, message):
    # refused before any file is read, so a missing measurement file is not named
    for measurement in (files["synth"], tmp_path / "missing.json"):
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in ("simulate", measurement, files["retro"], files["plus"])]
                 + ["--trials", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --trials: {message}\n" in err and "missing.json" not in err


def test_trials_beyond_the_int64_count_are_refused_in_one_line(files, capsys):
    code, out, err = run_cli(["simulate", files["synth"], files["retro"], files["plus"],
                              "--trials", str(2**63)], capsys)
    assert (code, out, err) == (2, "", f"error: n_trials must be at most {2**63 - 1}\n")


def test_zero_trials_are_simulated(files, capsys):
    code, out, _ = run_cli(["simulate", files["synth"], files["retro"], files["plus"],
                            "--trials", "0", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["n_trials"] == 0 and np.array(payload["confusion"]).sum() == 0


@pytest.mark.parametrize("value, message", [
    ("abc", "invalid int value: 'abc'"),
    ("-1", "must be nonnegative, got -1"),
])
def test_seed_env_must_be_a_nonnegative_integer(files, capsys, monkeypatch, value, message):
    monkeypatch.setenv("RETROQ_SEED", value)
    for argv in (["simulate", files["synth"], files["retro"], files["plus"]],
                 ["classify", files["pauli"]], ["classify", files["two_to_four"]]):
        assert run_cli(argv, capsys) == (2, "", f"error: RETROQ_SEED: {message}\n")
        # the flag wins over the variable, which is then not read
        assert run_cli(argv + ["--seed", "3"], capsys)[0] == 0


# -------------------------------------------------------------------- examples

def test_examples_listing_and_dump(capsys):
    code, out, _ = run_cli(["examples"], capsys)
    assert code == 0
    assert "two_to_four" in out

    code, out, _ = run_cli(["examples", "two_to_four", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    ex = get_example("two_to_four")
    for group_obj, group in zip(payload["measurement"]["outcomes"], ex.measurement.outcomes):
        for mat_obj, mat in zip(group_obj, group):
            assert np.array_equal(array_from_obj(mat_obj, 2), mat)  # entrywise exact


@pytest.mark.parametrize("name, digest", [
    ("pauli_quarter", "ee2cf1001e236108d7f6fe8de630cf504e0a3efc2d1297539bba8da2c6d81d41"),
    ("counterexample_3d", "264783154abd48a1d3e79241d44708e210579cb149f63f465dc403d7feec6d77"),
    ("rank_one_pair", "4c23dbfda2802edc0d0e02418a7637b303509f027c46aa6b4209d31b7728b425"),
    ("two_to_four", "abe99ad74a14c2c09021d886a28c309acdccba3c4ed20a13a192e5fc7583f19b"),
    ("fock_shift", "015706c36cfc9799be04f802b7b665ce7f1e6c5d198be7468f3cb6c88f295f54"),
    ("trine_povm", "86a58cfcf93ea7f08bdbef9fb328e5bd7136ef8e311f1a0d275641cdae6a8190"),
])
def test_example_json_of_catalog_is_pinned(name, digest, capsys):
    code, out, _ = run_cli(["examples", name, "--format", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_examples_unknown_name(capsys):
    code, _, err = run_cli(["examples", "nope"], capsys)
    assert code == 2
    assert "unknown example" in err


def test_every_catalog_export_reimports_exactly(capsys, tmp_path):
    from retroq import catalog
    from retroq.jsonio import detect_and_load, example_to_obj
    import json as _json

    for ex in catalog():
        text = dumps(example_to_obj(ex))
        payload = _json.loads(text)
        loaded = detect_and_load(payload)
        if ex.measurement is not None:
            for g1, g2 in zip(loaded.outcomes, ex.measurement.outcomes):
                for a1, a2 in zip(g1, g2):
                    assert np.array_equal(a1, a2), ex.name
        elif ex.povm is not None:
            for e1, e2 in zip(loaded.elements, ex.povm.elements):
                assert np.array_equal(e1, e2), ex.name
        else:
            for a1, a2 in zip(loaded, ex.operators):
                assert np.array_equal(a1, a2), ex.name


def test_codec_round_trips_bit_for_bit(rng):
    a = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    a[0, :2] = [complex(-0.0, 1.0), complex(-0.0, -0.0)]  # signed zeros survive
    for x in (a, a.T, a[1]):
        got = array_from_obj(json.loads(json.dumps(array_to_obj(x))), x.ndim)
        assert got.tobytes() == np.ascontiguousarray(x).tobytes()
    assert array_to_obj(1.5 - 2j) == [1.5, -2.0]


def test_classify_seed_flag_is_accepted(files, capsys):
    code, out, _ = run_cli(["classify", files["pauli"], "--seed", "13",
                            "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["lld"] == "yes"


def test_example_dump_feeds_classify(files, capsys, tmp_path):
    code, out, _ = run_cli(["examples", "pauli_quarter", "--format", "json"], capsys)
    path = tmp_path / "dump.json"
    path.write_text(out)
    code, out, _ = run_cli(["classify", path, "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["lld"] == "yes"


# ------------------------------------------------------------------- plumbing

def test_unknown_flag_is_rejected(files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", str(files["pauli"]), "--bogus"])
    assert exc.value.code == 2


def test_tolerance_override_must_be_positive(files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", str(files["pauli"]), "--tol-eq", "-1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, option, value, message", [
    ("validate", "--tol-eq", "abc", "argument --tol-eq: invalid float value: 'abc'"),
    ("validate", "--tol-rank", "1e-3x", "argument --tol-rank: invalid float value: '1e-3x'"),
    ("synthesize", "--d-out", "x", "argument --d-out: invalid int value: 'x'"),
])
def test_non_numeric_option_names_its_type(files, capsys, command, option, value, message):
    path = files["pauli"] if command == "validate" else files["trine"]
    with pytest.raises(SystemExit) as exc:
        main([command, str(path), option, value])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_console_entry_runs_in_subprocess(files):
    proc = subprocess.run(
        [sys.executable, "-m", "retroq.cli", "check-perfect", str(files["two_to_four"])],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "retrodictable: true" in proc.stdout


def test_readme_walkthrough_exits_as_documented(tmp_path):
    # every line of the README's command-line walkthrough, in order, in one fresh directory;
    # a line exits 0 unless its comment says "exit N"
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = next(b for b in readme.split("```sh\n") if "retroq simulate" in b).split("```")[0]
    shim = f'retroq() {{ {shlex.quote(sys.executable)} -m retroq.cli "$@"; }}\n'
    path = [str(Path(retroq.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    assert "retroq check-perfect pauli.json          # exit 1" in block
    for line in block.splitlines():
        documented = re.search(r"# exit (\d)", line)
        proc = subprocess.run(shim + line, shell=True, cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == (int(documented[1]) if documented else 0), (line, proc.stderr)


def test_readme_library_quickstart_prints_what_its_comments_say():
    # the Python block under "Library at a glance", run as the interactive prompt would run it,
    # so that each bare expression prints its value
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library at a glance")[1].split("```python\n")[1].split("```")[0]
    assert "retrodictable            # False" in block and "agreement_rate  # 1.0" in block
    runner = ("import ast, sys\n"
              "for stmt in ast.parse(sys.stdin.read()).body:\n"
              "    exec(compile(ast.Interactive([stmt]), 'README.md', 'single'))\n")
    path = [str(Path(retroq.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", runner], input=block, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "1.0"]


def test_one_pass_over_the_library_loads_no_numpy_ma():
    # numpy.ma costs milliseconds on first import (np.unique imports it, for one)
    code = """
import sys
import numpy as np
import retroq as rq
from retroq.catalog import PAULI
povm = rq.Povm(2, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
m = rq.synthesize(povm, 2).measurement
rq.check_perfect(m)
retro = rq.build_retrodictor(m)
rq.run_trials(m, retro, rq.QuantumState.pure([0.6, 0.8]), 100, 1)
paulis = [PAULI[s] for s in "IXYZ"]
a = rq.assess_measurement(rq.Measurement(2, 2, [[p / 2] for p in paulis]))
rq.retrodict_unambiguously(rq.Measurement(2, 2, [[p / 2] for p in paulis]), a.recommended_state)
rq.discriminate_unitaries(paulis, [0.25] * 4, rq.maximally_entangled_state(2))
rq.classify_operators([np.eye(2), PAULI["X"]], seed=1)
print("numpy.ma" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_loads_no_scipy():
    code = ("import retroq.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
