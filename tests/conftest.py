"""Shared test plumbing: the golden-fixture update flag and test ordering.

``pytest --update-golden`` rewrites the canonical fixtures under
``tests/golden/`` from the current code instead of comparing against them.
Regenerate deliberately (after an intentional output change), review the
diff, and commit it alongside the change that caused it::

    PYTHONPATH=src python -m pytest tests/test_golden_outputs.py \
        -m 'slow or not slow' --update-golden

``REPRO_TEST_ORDER_SEED`` reorders the collected tests to expose hidden
order dependence: ``reverse`` reverses the collection order, an integer
shuffles it with ``random.Random(seed)``.  The active value is printed in
the report header, so a failing order can be replayed::

    REPRO_TEST_ORDER_SEED=reverse PYTHONPATH=src python -m pytest -q
    REPRO_TEST_ORDER_SEED=1234 PYTHONPATH=src python -m pytest -q
"""

from __future__ import annotations

import os
import random

import pytest

_ORDER_ENV = "REPRO_TEST_ORDER_SEED"


def _order_seed():
    """``None`` (collection order), ``"reverse"``, or an integer seed."""
    value = os.environ.get(_ORDER_ENV, "").strip()
    if not value:
        return None
    if value == "reverse":
        return value
    try:
        return int(value)
    except ValueError:
        raise pytest.UsageError(
            f"{_ORDER_ENV} must be 'reverse' or an integer, got {value!r}"
        ) from None


def pytest_report_header(config):
    seed = _order_seed()
    return f"{_ORDER_ENV}={'unset (collection order)' if seed is None else seed}"


def pytest_collection_modifyitems(config, items):
    seed = _order_seed()
    if seed == "reverse":
        items.reverse()
    elif seed is not None:
        random.Random(seed).shuffle(items)


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite tests/golden/ fixtures from current experiment output",
    )


@pytest.fixture
def update_golden(request: pytest.FixtureRequest) -> bool:
    """True when this run should rewrite golden fixtures."""
    return bool(request.config.getoption("--update-golden"))


@pytest.fixture(autouse=True)
def _isolated_cli_cache(tmp_path, monkeypatch):
    """Keep `repro run`'s default result cache out of the working tree."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro_cache"))
