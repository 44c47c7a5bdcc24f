import tracemalloc

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260811)


@pytest.fixture
def traced_peak():
    """``traced_peak(f)`` is ``(f(), peak)``: ``peak`` is the most memory, in bytes, that ``f``
    held at once above what was held before, as ``tracemalloc`` counts it (numpy's buffers
    included), so what ``f`` returns counts too."""
    def measure(f):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = f()
            return out, tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
    return measure
