"""Self-tests of the benchmark; run with ``python3 -m pytest perfbench``.

They are not part of the project's test suite (``testpaths = ["tests"]``).
"""

import json
import sys
import time
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import retroq  # noqa: E402
import retroq.cli  # noqa: E402

import inputs  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    a, b, c = (inputs.pool("perfect_synthesis", seed, 2) for seed in (3, 3, 4))
    assert all(np.array_equal(x["psi"], y["psi"]) for x, y in zip(a, b))
    assert not np.array_equal(a[0]["psi"], c[0]["psi"])


def test_block_family_minimum_is_the_analytic_value():
    ops, sigma = inputs.block_family(np.random.default_rng(1), 3, 2, 6)
    theta = np.linspace(0.0, np.pi, 65)[:, None]
    phi = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)[None, :]
    psi = np.stack([np.broadcast_to(np.cos(theta / 2), (65, 128)).ravel().astype(complex),
                    (np.exp(1j * phi) * np.sin(theta / 2)).ravel()], axis=1)
    images = np.einsum("koi,gi->gok", np.stack(ops), psi)
    grid = np.linalg.svd(images, compute_uv=False)[:, -1].min()
    assert sigma <= grid <= sigma * (1 + 1e-2)


def test_closed_loop_times_every_input_in_whole_passes(monkeypatch):
    run = bench.Run(Namespace(seconds=1.0), HERE)
    monkeypatch.setattr(run, "setup_probe", lambda argv: bench.REF_KERNEL_S)
    calls = []

    def step(i):
        calls.append(i)
        time.sleep(0.02)
        return 0.02

    assert 0.0 < run.closed_loop(step, 3, []) < 1.0
    assert run.passes > 1 and calls == [0, 1, 2] * run.passes
    assert len(run.times) == len(run.scaled) == len(calls)
    assert len(run.ref.samples) == 1 + len(calls) + bench.SETUP_PROBES


def test_reference_factor_divides_by_the_kernel_speed():
    ref = bench.RefKernel()
    ref.samples = [2 * bench.REF_KERNEL_S]
    ref.sample = lambda: ref.samples.append(4 * bench.REF_KERNEL_S) or ref.samples[-1]
    assert ref.factor() == 1.0 / 3.0


def test_closed_loop_can_scale_by_the_run_median_sample(monkeypatch):
    run = bench.Run(Namespace(seconds=0.1), HERE)
    monkeypatch.setattr(run, "setup_probe", lambda argv: 1.0)
    assert run.closed_loop(lambda i: 1.0, 2, [], per_run=True) == bench.REF_KERNEL_S / run.ref.median()
    assert set(run.scaled) == {bench.REF_KERNEL_S / run.ref.median()}


def test_spawn_reference_times_a_fresh_interpreter(tmp_path):
    ref = bench.RefSpawn(tmp_path)
    assert 0.0 < ref.sample() < bench.CHILD_TIMEOUT
    assert ref.reference == bench.REF_SPAWN_S and ref.factor() > 0.0


def test_tracer_counts_calls_through_every_binding_and_restores_them():
    original = retroq.check_perfect
    tracer = tracing.Tracer()
    m = retroq.get_example("pauli_quarter").measurement
    with tracer:
        assert retroq.cli.check_perfect is not original
        retroq.check_perfect(m)
        retroq.cli.check_perfect(m)
        retroq.Measurement(m.d_in, m.d_out, m.outcomes)
    assert tracer.calls["perfect.check_perfect"] == 2
    assert tracer.calls["measurement.Measurement"] == 1
    assert retroq.check_perfect is original and retroq.cli.check_perfect is original
    assert retroq.perfect.check_perfect is original


def test_unambiguous_check_rejects_a_wrong_inconclusive_probability():
    item = inputs.pool("unambiguous_entangled", 0, 1)[0]
    out = workloads.unambiguous_op(item)
    workloads.unambiguous_check(item, out)
    wrong = list(out)
    wrong[2] = out[2] * 1.01
    with pytest.raises(workloads.CheckError):
        workloads.unambiguous_check(item, tuple(wrong))


def test_block_check_rejects_a_minimum_off_the_analytic_value():
    assert workloads.check_block_minimum(0.5, 0.5) == 0.0
    for found in (0.5 * 1.001, 0.5 * (1 - 1e-9)):
        with pytest.raises(workloads.CheckError):
            workloads.check_block_minimum(found, 0.5)
