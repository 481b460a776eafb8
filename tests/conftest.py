import sys

import pytest

from gocert import certificate


@pytest.fixture(autouse=True)
def empty_model_tables(monkeypatch):
    """Give each test empty caches of model case-split tables and of curve blocks, so no count depends on test order."""
    monkeypatch.setattr(certificate, "_MODEL_TABLES", {})
    certificate._curve_blocks.cache_clear()


@pytest.fixture
def default_int_digits():
    """Set the interpreter's limit on integer string conversion to its default, 4300 digits, for one test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no limit on integer string conversion")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


@pytest.fixture
def unlimited_int_digits():
    """Lift the interpreter's limit on integer string conversion for one test (a Python without the limit has none)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(saved)
