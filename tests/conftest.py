import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ablations import one_line_ablations
from taukb import engine
from taukb.reference import load_reference_table


@pytest.fixture(scope="session")
def default_kb():
    return engine.load_default_kb()


@pytest.fixture(scope="session")
def closure(default_kb):
    return engine.close(default_kb)


@pytest.fixture(scope="session")
def reference():
    return load_reference_table()


@pytest.fixture(scope="session")
def ablations():
    """The 79 one-line ablations, each closed once for the whole session."""
    return one_line_ablations()
