import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qbagx import graph  # noqa: E402


@pytest.fixture
def builds(monkeypatch):
    """The argument tuples of the topologies built while the test runs."""
    built = []

    class Counted(graph.Topology):
        def __init__(self, arguments, attacks, supports):
            built.append(arguments)
            super().__init__(arguments, attacks, supports)

    monkeypatch.setattr(graph, "Topology", Counted)
    return built
