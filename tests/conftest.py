"""Fixtures shared by the test modules."""

import pytest

from effectlogic import config


@pytest.fixture
def restore_config():
    """Put back ``config.EPS`` and ``config.POST_EPS`` after a test that
    changes them, such as a run with ``--eps``."""
    saved = config.EPS, config.POST_EPS
    yield
    config.EPS, config.POST_EPS = saved
