"""Session-scoped Ray fixture — Ray is initialised ONCE per pytest session."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield ray
    ray.shutdown()


@pytest.fixture
def schema_warnings():
    """Messages of the Ray Data schema-unification warnings logged while
    the test runs ("Operator produced a RefBundle with a different
    schema", "Failed to hash the schemas"). They go to the ``ray.data``
    logger of the process that runs the query, so a handler attached
    there sees them."""
    import logging

    markers = ("different schema", "Failed to hash the schemas")
    messages = []

    class Collect(logging.Handler):
        def emit(self, record):
            msg = record.getMessage()
            if any(m in msg for m in markers):
                messages.append(msg)

    handler = Collect()
    logger = logging.getLogger("ray.data")
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)
