"""Benchmark for retroq: times, checks and reports one workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload perfect_synthesis --seed 1 --seconds 25 --trace 0

Each workload is a closed loop in one process, one operation at a time,
with BLAS and OpenMP pinned to one thread (``cli_session`` runs one
``retroq`` subprocess at a time).  The loop makes whole passes over a fixed
set of inputs, so every input is timed equally often.  Times are reported
at a fixed reference speed of the machine: a fixed reference task is timed
between operations, and each wall time is scaled by the task's reference
time over its measured time (see ``RefKernel`` and ``RefSpawn``).  With ``--trace 0`` the last line of
standard output is a JSON object holding the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a separate traced run.
Progress and diagnostics go to standard error.  See README.md.
"""

import os

# Pin the thread pools before numpy is first imported; children inherit this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("RETROQ_SEED", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("perfect_synthesis", "unambiguous_entangled", "cli_session")
POOL = {"perfect_synthesis": 8, "unambiguous_entangled": 16}  # inputs per in-process run
SETUP_PROBES = 7     # fresh interpreters timed for setup_s
IMPORT_PROBES = 3    # fresh interpreters timed with -X importtime
REF_KERNEL_S = 3.0e-4  # seconds one pass of the reference kernel takes at the reference speed
REF_SPAWN_S = 0.13   # seconds the reference interpreter takes at the reference speed
REF_REPEATS = 5      # timed passes of the reference kernel per sample
CHILD_TIMEOUT = 120  # seconds any one child process may take

END_TO_END_UNITS = {"setup_s": "s", "op_s_p50": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    return env


def _timeout(signum, frame):
    raise TimeoutError("child process exceeded its time limit")


def spawn(argv: list[str], stdout: Path, stderr: Path) -> tuple[int, float, float, int]:
    """Run a child to completion; returns (exit code, start, end, peak RSS in KiB)."""
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(CHILD_TIMEOUT)
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, child_env(), file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
        end = time.perf_counter()
    except TimeoutError:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return os.waitstatus_to_exitcode(status), start, end, usage.ru_maxrss


class RefKernel:
    """Fixed pure-numpy kernel, timed between the timed operations.

    The host runs this machine's CPUs at a speed that moves by up to 1.5x
    and can stay there for longer than a whole run.  A wall time times
    ``factor`` is in seconds at the reference speed, at which one pass of
    the kernel takes ``REF_KERNEL_S``.
    """

    reference = REF_KERNEL_S

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.mats = [inputs.ginibre(rng, 16, 16) / 4.0 for _ in range(16)]
        self.herm = inputs.hermitian(inputs.ginibre(rng, 64, 64))
        self.samples: list[float] = []

    def _pass(self) -> None:
        acc = self.mats[0]
        for m in self.mats[1:]:
            acc = acc @ m
        np.linalg.eigvalsh(self.herm)

    def sample(self) -> float:
        """Seconds per pass, after one untimed pass that brings the inputs back into cache."""
        self._pass()
        t0 = time.perf_counter()
        for _ in range(REF_REPEATS):
            self._pass()
        self.samples.append((time.perf_counter() - t0) / REF_REPEATS)
        return self.samples[-1]

    def factor(self) -> float:
        """Scale factor for work done since the last sample, from that sample and a new one."""
        before = self.samples[-1]
        return 2.0 * self.reference / (before + self.sample())

    def median(self) -> float:
        return statistics.median(self.samples)


class RefSpawn(RefKernel):
    """A fresh interpreter that imports numpy and exits: the reference of ``cli_session``.

    Interpreter start and imports follow the host's speed differently from
    in-process numpy work.  Over 10 s windows the log time of a ``retroq``
    invocation moved with this reference at slope 0.93 and with the kernel
    at slope 0.54.  It runs none of the program's code.
    """

    reference = REF_SPAWN_S

    def __init__(self, scratch: Path) -> None:
        self.samples = []
        self.out = scratch / "ref.out"

    def sample(self) -> float:
        code, start, end, _ = spawn([sys.executable, "-c", "import numpy"], self.out, self.out)
        if code != 0:
            raise RuntimeError(f"reference interpreter exited {code}")
        self.samples.append(end - start)
        return self.samples[-1]


class Run:
    """State of one benchmark run: counters, verdict of the checks, scratch directory."""

    def __init__(self, args, scratch: Path) -> None:
        self.args = args
        self.scratch = scratch
        self.ref = RefKernel()
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.times: list[float] = []   # wall time of every timed operation
        self.scaled: list[float] = []  # the same at the reference speed
        self.passes = 0

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        log(f"FAILED {what}: {type(exc).__name__}: {exc}")

    def wrong(self, what: str, exc: BaseException) -> None:
        self.correct = False
        log(f"WRONG {what}: {exc}")

    def setup_probe(self, argv_tail: list[str]) -> float:
        """Time from spawning a fresh interpreter to its first operation."""
        out, err = self.scratch / "probe.out", self.scratch / "probe.err"
        code, start, _, _ = spawn([sys.executable, str(HERE / "probe.py"), *argv_tail], out, err)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}: {err.read_text()[-500:]}")
        return float(out.read_text().split()[-1]) - start

    def closed_loop(self, step, n_items: int, probe_args: list[str], per_run: bool = False
                    ) -> float:
        """Whole passes of ``step(i)`` over the inputs i = 0 .. ``n_items`` - 1.

        ``step`` returns the wall time of the operation on input i, or None
        if it failed.  Passes go on while the loop has run for less than
        ``--seconds`` (the time of the probes not counted), so every input is
        timed equally often.  The set-up probes are spread evenly over the loop, between
        operations; the time they take is not loop time.

        The reference kernel is sampled after every operation and probe.
        Each time is scaled by the samples just before and just after it,
        or, with ``per_run``, by the run's median sample.  Returns the
        median probe at the reference speed.
        """
        seconds = self.args.seconds
        due = [k * seconds / SETUP_PROBES for k in range(SETUP_PROBES)]
        probes: list[tuple[float, float]] = []   # (wall time, factor)
        factors: list[float] = []
        paused = 0.0
        start = time.perf_counter()

        def loop_time() -> float:
            return time.perf_counter() - start - paused

        def probe() -> None:
            nonlocal paused
            t0 = time.perf_counter()
            probes.append((self.setup_probe(probe_args), self.ref.factor()))
            paused += time.perf_counter() - t0
            due.pop(0)

        self.ref.sample()
        done = 0
        while loop_time() < seconds:
            for i in range(n_items):
                if due and loop_time() >= due[0]:
                    probe()
                elapsed = step(i)
                if elapsed is None:
                    self.ref.sample()
                else:
                    self.times.append(elapsed)
                    factors.append(self.ref.factor())
            done += 1
        while due:
            probe()
        self.passes = done
        if per_run:
            run_factor = self.ref.reference / self.ref.median()
            factors = [run_factor] * len(factors)
            probes = [(t, run_factor) for t, _ in probes]
        self.scaled = [t * f for t, f in zip(self.times, factors)]
        return statistics.median(t * f for t, f in probes)

    def result(self, metrics: dict) -> dict:
        return {"correct": self.correct, "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}


def end_to_end(run: Run, setup_s: float, peak_rss_kib: int) -> dict:
    values = {
        "setup_s": setup_s,
        "op_s_p50": statistics.median(run.scaled),
        "ops_per_s": rate(run.scaled),
        "peak_rss_mb": peak_rss_kib * 1024 / 1e6,
    }
    log(f"ops timed: {len(run.times)} in {run.passes} passes  wall median: "
        f"{statistics.median(run.times):.6g} s  wall rate: {rate(run.times):.6g}/s  "
        f"median {type(run.ref).__name__} sample: {run.ref.median():.6g} s")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def import_metrics() -> dict:
    probes = [tracing.import_breakdown(sys.executable, child_env()) for _ in range(IMPORT_PROBES)]
    return {k: statistics.median(p[k] for p in probes) for k in probes[0]}


def rate(times: list[float]) -> float:
    return len(times) / sum(times) if times else 0.0


def per_layer(run: Run, tracer, n_traced: int, extra: dict) -> dict:
    import session
    metrics = {k: (v, "s") for k, v in import_metrics().items()}
    for layer, names in list(tracing.FUNCTIONS.items()) + list(tracing.CLASSES.items()):
        for name in names:
            key = f"{layer}.{name}"
            metrics[f"{key}_s"] = (tracer.seconds[key] / max(n_traced, 1), "s")
            metrics[f"{key}_calls"] = (tracer.calls[key] / max(n_traced, 1), "count")
    run_trials_s = tracer.seconds["simulation.run_trials"]
    metrics["simulation.trials_per_s"] = (tracer.trials / run_trials_s if run_trials_s else 0.0, "1/s")
    metrics["jsonio.bytes_out"] = (tracer.bytes_out / max(n_traced, 1), "B")
    metrics["machine.ref_kernel_s"] = (run.ref.median(), "s")
    metrics["dependence.min_sigma_rel_excess"] = (0.0, "ratio")
    metrics.update({f"cli.{label}_s": (0.0, "s") for label in session.SUBCOMMANDS})
    metrics.update(extra)
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run_in_process(run: Run) -> dict:
    import workloads
    args = run.args
    _, op, check, verdict = workloads.IN_PROCESS[args.workload]
    size = POOL[args.workload]
    pool = inputs.pool(args.workload, args.seed, size)

    def attempt(item, label: str, tracer=None):
        run.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = op(item)
            else:
                with tracer:
                    out = op(item)
        except Exception as exc:  # a failing operation is counted, the run goes on
            run.fail(label, exc)
            return None, 0.0
        elapsed = time.perf_counter() - t0
        try:
            check(item, out)
        except workloads.CheckError as exc:
            run.wrong(label, exc)
        return out, elapsed

    op(pool[-1])  # warm-up, untimed and uncounted
    if not args.trace:
        def step(i):
            out, elapsed = attempt(pool[i], f"input {i}")
            return None if out is None else elapsed

        with open(run.scratch / "item.pkl", "wb") as fh:
            pickle.dump(pool[0], fh)
        setup_s = run.closed_loop(step, size, [args.workload, str(run.scratch / "item.pkl")])
        return end_to_end(run, setup_s, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    # Traced run: each input once untraced and once traced, back to back, so the
    # two can be compared verdict by verdict and the tracing overhead is paired.
    tracer = tracing.Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while time.perf_counter() < deadline:
        item = pool[i % size]
        out_plain, t_plain = attempt(item, f"op {i} untraced")
        out_traced, t_traced = attempt(item, f"op {i} traced", tracer)
        run.ref.sample()
        if out_plain is not None and out_traced is not None:
            plain.append(t_plain)
            traced.append(t_traced)
            if verdict(out_plain) != verdict(out_traced):
                run.wrong(f"op {i}", AssertionError("traced and untraced verdicts differ"))
        i += 1
    extra = {"trace.ops_per_s_delta": (rate(plain) - rate(traced), "1/s")}
    return per_layer(run, tracer, len(traced), extra)


def run_session(run: Run) -> dict:
    import session
    from workloads import CheckError
    args = run.args
    data = session.write_inputs(args.seed, run.scratch)
    first_pass: dict[int, str] = {}

    def verify(index: int, code: int, stdout: str, stderr: str) -> None:
        try:
            session.check_step(index, code, stdout, stderr, data)
            if first_pass.setdefault(index, stdout) != stdout:
                raise CheckError(f"step {index}: output differs from the previous pass")
        except CheckError as exc:
            run.wrong(f"step {index}", exc)

    if not args.trace:
        out, err = run.scratch / "step.out", run.scratch / "step.err"
        cli = [sys.executable, "-m", "retroq.cli"]
        spawn(cli + session.arguments(session.SCRIPT[0][1], data), out, err)  # warm-up
        peak = 0

        def step(index):
            nonlocal peak
            argv = cli + session.arguments(session.SCRIPT[index][1], data)
            run.attempted += 1
            try:
                code, start, end, rss = spawn(argv, out, err)
            except (OSError, TimeoutError) as exc:
                run.fail(f"step {index}", exc)
                return None
            peak = max(peak, rss)
            verify(index, code, out.read_text(encoding="utf-8"), err.read_text(encoding="utf-8"))
            return end - start

        run.ref = RefSpawn(run.scratch)
        setup_s = run.closed_loop(step, len(session.SCRIPT),
                                  ["cli_session", str(run.scratch / "povm12.json")], per_run=True)
        return end_to_end(run, setup_s, peak)

    # Traced run: the same script in-process through retroq.cli.main, whole
    # passes only, each step untraced and then traced.
    import retroq.cli

    def invoke(argv, tracer=None):
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if tracer is None:
                code = retroq.cli.main(argv)
            else:
                with tracer:
                    code = retroq.cli.main(argv)
        return code, stdout.getvalue(), stderr.getvalue(), time.perf_counter() - t0

    tracer = tracing.Tracer()
    per_step: dict[str, list[float]] = {label: [] for label in session.SUBCOMMANDS}
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        for index, (label, step_args, *_) in enumerate(session.SCRIPT):
            argv = session.arguments(step_args, data)
            results = []
            for t in (None, tracer):
                run.attempted += 1
                try:
                    results.append(invoke(argv, t))
                except Exception as exc:  # a failing operation is counted, the run goes on
                    run.fail(f"step {index}", exc)
            run.ref.sample()
            if len(results) < 2:
                continue
            (code_p, out_p, err_p, t_p), (code_t, out_t, err_t, t_t) = results
            verify(index, code_t, out_t, err_t)
            if (code_p, out_p) != (code_t, out_t):
                run.wrong(f"step {index}", AssertionError("traced and untraced outputs differ"))
            plain.append(t_p)
            traced.append(t_t)
            per_step[label].append(t_t)
    extra = {f"cli.{label}_s": (statistics.fmean(times) if times else 0.0, "s")
             for label, times in per_step.items()}
    extra["trace.ops_per_s_delta"] = (rate(plain) - rate(traced), "1/s")
    extra["dependence.min_sigma_rel_excess"] = (data.get("min_sigma_rel_excess", 0.0), "ratio")
    return per_layer(run, tracer, len(traced), extra)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "retroq" / "__init__.py").is_file():
        log(f"error: no retroq sources under {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    import retroq
    if not Path(retroq.__file__).resolve().is_relative_to(SRC):
        log(f"error: imported retroq from {retroq.__file__}, not from {SRC}")
        return 2
    # One CPU for the run and its children, so that the reference kernel samples
    # the speed of the CPU that does the timed work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    scratch = HERE / ".run" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args, scratch)
        if args.workload == "cli_session":
            metrics = run_session(run)
        else:
            metrics = run_in_process(run)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if run.attempted == 0:
        log("error: no operation attempted")
        return 1
    print(json.dumps(run.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
