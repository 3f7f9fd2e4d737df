import tracemalloc

import pytest


@pytest.fixture
def traced():
    """Run fn(*args) under tracemalloc: gives (fn's result, the peak bytes
    allocated during the call, the bytes still held when it returns)."""
    def run(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak, held

    return run
