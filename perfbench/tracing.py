"""Per-layer tracing from outside the program.

Timing wrappers are installed around the public functions of each retroq
module.  Several modules bind the same function with ``from ... import``,
so each wrapper replaces the original in every retroq module that holds it;
constructors are timed by wrapping the class's ``__init__``, which every
binding shares.  Times are inclusive: a wrapped call made inside another
wrapped call counts towards both.
"""

from __future__ import annotations

import functools
import importlib
import re
import subprocess
import sys
import time
from collections import defaultdict

FUNCTIONS = {
    "linalg": ("psd_eig", "support_projector", "numeric_rank"),
    "measurement": ("apply_outcome", "outcome_probabilities"),
    "perfect": ("check_perfect", "build_retrodictor"),
    "synthesis": ("synthesize",),
    "dependence": ("classify_operators", "check_lli", "check_lld", "check_linear_independence"),
    "unambiguous": ("assess_measurement", "retrodict_unambiguously", "build_ud_povm",
                    "discriminate_unitaries"),
    "simulation": ("run_trials",),
    "jsonio": ("load_file", "dumps"),
}
CLASSES = {"measurement": ("Measurement", "Povm", "QuantumState")}


class Tracer:
    """Accumulates inclusive seconds and call counts per ``layer.name``."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.trials = 0
        self.bytes_out = 0
        self._undo: list[tuple[object, str, object]] = []

    def _timed(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[key] += time.perf_counter() - t0
                self.calls[key] += 1
        return wrapper

    def install(self) -> None:
        for layer in FUNCTIONS:
            importlib.import_module(f"retroq.{layer}")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "retroq" or name.startswith("retroq."))]
        for layer, names in FUNCTIONS.items():
            home = sys.modules[f"retroq.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._timed(f"{layer}.{name}", original)
                if name == "run_trials":
                    wrapper = self._count_trials(wrapper)
                elif name == "dumps":
                    wrapper = self._count_bytes(wrapper)
                for module in modules:
                    if getattr(module, name, None) is original:
                        self._undo.append((module, name, original))
                        setattr(module, name, wrapper)
        for layer, names in CLASSES.items():
            home = sys.modules[f"retroq.{layer}"]
            for name in names:
                cls = getattr(home, name)
                self._undo.append((cls, "__init__", cls.__init__))
                cls.__init__ = self._timed(f"{layer}.{name}", cls.__init__)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _count_trials(self, fn):
        @functools.wraps(fn)
        def wrapper(m, r, s, n_trials, *args, **kwargs):
            self.trials += int(n_trials)
            return fn(m, r, s, n_trials, *args, **kwargs)
        return wrapper

    def _count_bytes(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            text = fn(*args, **kwargs)
            self.bytes_out += len(text.encode("utf-8"))
            return text
        return wrapper

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


_IMPORTTIME = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)\s*$")


def import_breakdown(python: str, env: dict, module: str = "retroq") -> dict[str, float]:
    """Seconds spent importing ``module`` in a fresh interpreter, split by package.

    ``import.retroq_s`` is the cumulative time of the top-level import;
    ``import.numpy_s`` and ``import.scipy_s`` sum the self time of every
    numpy or scipy module loaded on the way.
    """
    proc = subprocess.run([python, "-X", "importtime", "-c", f"import {module}"],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    out = {"import.retroq_s": 0.0, "import.numpy_s": 0.0, "import.scipy_s": 0.0}
    for line in proc.stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match is None:
            continue
        self_us, cum_us, _, name = match.groups()
        package = name.split(".")[0]
        if name == module:
            out["import.retroq_s"] = int(cum_us) / 1e6
        elif package in ("numpy", "scipy"):
            out[f"import.{package}_s"] += int(self_us) / 1e6
    return out
