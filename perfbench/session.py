"""The ``cli_session`` workload: a fixed script of ``retroq`` invocations.

The script covers all eight subcommands in text and JSON form, on catalog
fixtures and on files generated here from the seed (up to d = 12, and an
orthogonal-output-block family whose minimum sigma is known), and
includes verdicts that exit with code 1 and an input error that exits with
code 2.  Each step names the files it reads, the file its standard output
is saved to, its expected exit code and a check of its output.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import inputs
from workloads import (CheckError, check_block_minimum, check_max_residual,
                       check_not_lld_witness, check_projectors, check_synthesis, counts_within,
                       require)

D = 12
POVM_OUTCOMES = 6
TRIALS = 10_000
EXIT_OK, EXIT_NEGATIVE, EXIT_INPUT = 0, 1, 2


def _complex(z) -> list[float]:
    return [float(z.real), float(z.imag)]


def _matrix(m) -> list:
    return [[_complex(z) for z in row] for row in np.asarray(m, dtype=complex)]


def _measurement(ops) -> dict:
    d_out, d_in = ops[0].shape
    return {"d_in": d_in, "d_out": d_out, "outcomes": [[_matrix(a)] for a in ops]}


def _from_pairs(obj) -> np.ndarray:
    a = np.asarray(obj, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def write_inputs(seed: int, directory: Path) -> dict:
    """Generate the session's input files; returns the arrays the checks need."""
    rng = np.random.default_rng([seed, 4])
    povm = inputs.full_rank_povm(rng, D, POVM_OUTCOMES)
    generic = inputs.generic_fine_grained(rng, D, D)
    psi = inputs.unit_vector(rng, D)
    block, sigma = inputs.block_family(rng, 2, 2, 4)
    files = {
        "povm12.json": {"d": D, "elements": [_matrix(e) for e in povm]},
        "generic12.json": _measurement(generic),
        "state12.json": {"kind": "pure", "data": [_complex(z) for z in psi]},
        "indep.json": _measurement(inputs.independent_nonsingular(rng, 4, 6)),
        "dependent.json": _measurement(inputs.dependent_nonsingular(rng, 4, 4)),
        "block.json": {"operators": [_matrix(a) for a in block]},
    }
    for name, obj in files.items():
        (directory / name).write_text(json.dumps(obj), encoding="utf-8")
    (directory / "broken.json").write_text('{"d": 2, "elements": [\n  [[1, 0]\n', encoding="utf-8")
    return {"povm": povm, "generic": generic, "psi": psi, "sim_seed": int(rng.integers(1000)),
            "block": block, "sigma": sigma, "dir": directory}


# ------------------------------------------------------------------ checks of step outputs

def _json(out: str) -> dict:
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from exc


def _check_names(out, data):
    names = out.split()
    require(len(names) == 6 and "pauli_quarter" in names and "two_to_four" in names,
            f"example list {names}")


def _check_example(name):
    def check(out, data):
        obj = _json(out)
        require(obj["name"] == name and "measurement" in obj, f"example {name} dump")
    return check


def _check_text(*needles):
    def check(out, data):
        for needle in needles:
            require(needle in out, f"text output lacks {needle!r}")
    return check


def _check_valid_state(out, data):
    obj = _json(out)
    require(obj == {"type": "state", "valid": True}, f"validate state: {obj}")


def _check_generic_perfect(out, data):
    obj = _json(out)
    require(obj["retrodictable"] is False, "generic measurement reported perfect")
    check_max_residual(obj["max_residual"], data["generic"])


def _groups(measurement_obj) -> list[list[np.ndarray]]:
    return [[_from_pairs(a) for a in group] for group in measurement_obj["outcomes"]]


def _check_synth(out, data):
    obj = _json(out)
    require(obj["d_in"] == D and obj["d_out"] == D, "synthesised dimensions")
    check_synthesis(_groups(obj), data["povm"])


def _check_retro(out, data):
    projs = [_from_pairs(p) for p in _json(out)["projectors"]]
    require(len(projs) == POVM_OUTCOMES, "projector count")
    synth = json.loads((data["dir"] / "synth.json").read_text(encoding="utf-8"))
    check_projectors(projs, _groups(synth))


def _check_simulation(out, data):
    obj = _json(out)
    require(obj["agreement_rate"] == 1.0 and obj["n_trials"] == TRIALS,
            f"synthesise -> retrodict -> simulate agreement {obj['agreement_rate']}")
    p = [float(np.vdot(data["psi"], e @ data["psi"]).real) for e in data["povm"]]
    counts_within(np.asarray(obj["confusion"]).sum(axis=0), p, TRIALS, "outcome counts")


def _check_repeat(out, data):
    require(out == data["previous"], "a repeated call gave different bytes")


def _check_classify_pauli(out, data):
    obj = _json(out)
    require(obj["linearly_independent"] is True and obj["lld"] == "yes" and obj["lli"] == "no",
            f"pauli_quarter verdicts {obj}")


def _check_block(out, data):
    """Search verdict on the block family; records the excess of its minimum over the analytic one."""
    obj = _json(out)
    require(obj["linearly_independent"] is True and obj["lld"] == "no"
            and obj["lli"] == "yes_probabilistic", f"block family verdicts {obj}")
    excess = check_block_minimum(obj["min_sigma"], data["sigma"])
    data["min_sigma_rel_excess"] = max(data.get("min_sigma_rel_excess", excess), excess)
    check_not_lld_witness(data["block"], _from_pairs(obj["certificates"]["not_lld_witness"]))


def _check_assess_yes(out, data):
    obj = _json(out)
    require(obj["feasible"] == "yes" and 0.0 <= obj["p_inconclusive"] < 1.0,
            f"independent family assessment {obj}")


# (label, arguments, expected exit code, file the output is saved to, check)
# File arguments are names inside the run directory.
SCRIPT = [
    ("examples", ["examples"], EXIT_OK, None, _check_names),
    ("examples", ["examples", "pauli_quarter", "--format", "json"], EXIT_OK, "pauli.json",
     _check_example("pauli_quarter")),
    ("examples", ["examples", "two_to_four", "--format", "json"], EXIT_OK, "two_to_four.json",
     _check_example("two_to_four")),
    ("validate", ["validate", "@pauli.json"], EXIT_OK, None,
     _check_text("valid measurement: d_in=2 d_out=2 outcomes=4")),
    ("validate", ["validate", "@state12.json", "--format", "json"], EXIT_OK, None,
     _check_valid_state),
    ("validate", ["validate", "@broken.json"], EXIT_INPUT, None, None),
    ("check_perfect", ["check-perfect", "@pauli.json"], EXIT_NEGATIVE, None,
     _check_text("retrodictable: false")),
    ("check_perfect", ["check-perfect", "@generic12.json", "--format", "json"], EXIT_NEGATIVE,
     None, _check_generic_perfect),
    ("synthesize", ["synthesize", "@povm12.json", "--d-out", str(D), "--format", "json"],
     EXIT_OK, "synth.json", _check_synth),
    ("synthesize", ["synthesize", "@povm12.json", "--d-out", str(D)], EXIT_OK, None,
     _check_text(f"kraus group sizes: {[D] * POVM_OUTCOMES}")),
    ("build_retrodictor", ["build-retrodictor", "@synth.json", "--format", "json"], EXIT_OK,
     "retro.json", _check_retro),
    ("build_retrodictor", ["build-retrodictor", "@generic12.json"], EXIT_NEGATIVE, None, None),
    ("simulate", ["simulate", "@synth.json", "@retro.json", "@state12.json",
                  "--trials", str(TRIALS), "--seed", "{sim_seed}", "--format", "json"],
     EXIT_OK, None, _check_simulation),
    ("simulate", ["simulate", "@synth.json", "@retro.json", "@state12.json",
                  "--trials", str(TRIALS), "--seed", "{sim_seed}", "--format", "json"],
     EXIT_OK, None, _check_repeat),
    ("simulate", ["simulate", "@synth.json", "@retro.json", "@state12.json",
                  "--trials", str(TRIALS), "--seed", "{sim_seed}"],
     EXIT_OK, None, _check_text("agreement rate:    1.000000", "mismatches:        0")),
    ("classify", ["classify", "@two_to_four.json"], EXIT_OK, None,
     _check_text("locally linearly independent: yes_probabilistic")),
    ("classify", ["classify", "@pauli.json", "--format", "json"], EXIT_OK, None,
     _check_classify_pauli),
    ("classify", ["classify", "@block.json", "--format", "json"], EXIT_OK, None, _check_block),
    ("assess", ["assess", "@indep.json", "--format", "json"], EXIT_OK, None, _check_assess_yes),
    ("assess", ["assess", "@dependent.json"], EXIT_NEGATIVE, None, _check_text("feasible: no")),
]
SUBCOMMANDS = sorted({label for label, *_ in SCRIPT})


def arguments(step_args: list[str], data: dict) -> list[str]:
    out = []
    for a in step_args:
        if a.startswith("@"):
            a = str(data["dir"] / a[1:])
        out.append(a.format(**data) if "{" in a else a)
    return out


def check_step(index: int, code: int, stdout: str, stderr: str, data: dict) -> None:
    """Exit code and output of one step; raises CheckError."""
    label, _, expected, save_as, check = SCRIPT[index]
    require(code == expected, f"step {index} ({label}): exit code {code}, expected {expected}; "
                              f"stderr: {stderr.strip()[:200]}")
    if expected == EXIT_INPUT:
        require("malformed JSON at line" in stderr, f"step {index}: no line/column diagnostic")
    elif expected == EXIT_NEGATIVE and check is None:
        require(stderr.strip() or stdout.strip(), f"step {index}: negative verdict without a report")
    if save_as is not None:
        (data["dir"] / save_as).write_text(stdout, encoding="utf-8")
    if check is not None:
        check(stdout, data)
    data["previous"] = stdout
