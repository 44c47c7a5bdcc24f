"""NaN and Inf entries at every intake of operators and elements, seen from outside: where a
bad entry sits, every constructor and the ``validate`` subcommand refuse it the same way."""

from __future__ import annotations

import json

import numpy as np
import pytest

from retroq import DimensionMismatchError, Measurement, Povm, ProjectiveRetrodictor, Retrodictor
from retroq.cli import main
from retroq.jsonio import array_to_obj

BAD = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}

# (matrix, row, column) of the bad entry in BASE, a valid input of every intake below
PLACES = {
    "otherwise-zero row": (0, 1, 2),
    "row with other non-zeros": (0, 0, 1),
    "only non-zero entry of its operator": (3, 1, 1),
}

BASE = np.zeros((4, 3, 3), dtype=complex)
BASE[0, 0, 0] = BASE[1, 1, 1] = BASE[2, 2, 2] = 1.0  # diag(1, 0, 0), ..., and the zero matrix
BASE.setflags(write=False)  # each test edits a copy

# each intake of an outside stack: how it is built from one, and the file validate reads
INTAKES = {
    "Measurement": (lambda s: Measurement(3, 3, [[s[0]], [s[1]], [s[2], s[3]]]),
                    lambda s: {"d_in": 3, "d_out": 3,
                               "outcomes": [[array_to_obj(s[0])], [array_to_obj(s[1])],
                                            [array_to_obj(s[2]), array_to_obj(s[3])]]}),
    "from_stack": (lambda s: Measurement.from_stack(3, 3, s, [1, 1, 2]), None),
    "Povm": (lambda s: Povm(3, list(s)), lambda s: {"d": 3, "elements": array_to_obj(s)}),
    "Retrodictor": (lambda s: Retrodictor(list(s)),
                    lambda s: {"d": 3, "elements": array_to_obj(s), "inconclusive_index": 0}),
    "ProjectiveRetrodictor": (lambda s: ProjectiveRetrodictor(3, list(s)),
                              lambda s: {"d_out": 3, "projectors": array_to_obj(s)}),
}


@pytest.mark.parametrize("intake", INTAKES)
@pytest.mark.parametrize("place", PLACES)
@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("bad", BAD)
def test_a_non_finite_entry_is_refused_wherever_it_sits(intake, place, part, bad, tmp_path, capsys):
    build, payload = INTAKES[intake]
    build(BASE)  # valid as it stands
    stack = BASE.copy()
    entry = stack[PLACES[place]]
    re, im = (BAD[bad], entry.imag) if part == "real" else (entry.real, BAD[bad])
    stack[PLACES[place]] = complex(re, im)
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        build(stack)
    if payload is not None:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload(stack)))  # NaN and Infinity, as Python's json reads them
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == "error: matrix entries must be finite\n"


def _one_row_stacks():
    """Valid ``(stack, sizes)`` pairs with signed zeros in either part and all-zero operators:
    the diagonal projectors of ``BASE`` and seeded unitary columns, one row each."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        stack = np.zeros((d + 1, d + 1, d), dtype=complex)
        stack[np.arange(d), rng.permutation(d + 1)[:d]] = np.conj(q.T)  # operator r writes v_r^dag
        zeros = stack.view(float)
        zeros[(zeros == 0) & (rng.random(zeros.shape) < 0.5)] = -0.0
        yield stack, [1] * (d - 1) + [2]  # the last group holds the all-zero operator
    yield BASE.copy(), [1, 1, 2]


def test_nonzero_rows_is_the_mask_of_rows_with_a_nonzero_real_or_imaginary_part():
    for stack, sizes in _one_row_stacks():
        expected = (stack.view(float) != 0).any(axis=2)
        m = Measurement.from_stack(stack.shape[2], stack.shape[1], stack, sizes)
        assert np.array_equal(m.nonzero_rows, expected)
        assert not expected[-1].any()  # the all-zero operator writes no row
        # a NaN in either part marks its row, so the finiteness scan of the marked rows sees it
        for part in (np.nan, complex(0.0, np.nan)):
            bad = stack.copy()
            bad[-1, 0, 0] = part
            assert np.array_equal(bad.any(axis=2), (bad.view(float) != 0).any(axis=2))
            with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                Measurement.from_stack(stack.shape[2], stack.shape[1], bad, sizes)


@pytest.mark.parametrize("build", [
    lambda e: Povm(2, e),
    lambda e: Retrodictor(e),
    lambda e: ProjectiveRetrodictor(2, e),
], ids=["Povm", "Retrodictor", "ProjectiveRetrodictor"])
@pytest.mark.parametrize("nan_first", [True, False], ids=["nan_first", "shape_first"])
def test_a_shape_fault_is_named_before_a_non_finite_entry(build, nan_first):
    # every element is coerced and its shape compared before one finiteness scan of the stack,
    # as operator lists are; a NaN found first no longer hides the shape fault
    nan = np.full((2, 2), np.nan)
    elements = [nan, np.eye(3)] if nan_first else [np.eye(2), np.eye(3), nan]
    with pytest.raises(DimensionMismatchError):
        build(elements)
