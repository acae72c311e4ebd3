import os
import sys

import pytest
from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

settings.register_profile("ci", max_examples=120, derandomize=True, deadline=None)
settings.load_profile("ci")


@pytest.fixture
def saturations(monkeypatch):
    """The state counts of the submonoid automata saturated during the test."""
    from nctoric import freeword

    calls = []
    saturate = freeword._saturated_closures

    def counted(trans, nstates):
        calls.append(nstates)
        return saturate(trans, nstates)

    monkeypatch.setattr(freeword, "_saturated_closures", counted)
    return calls
