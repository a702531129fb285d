"""The rate-only ORACLE constants, recomputed at 50 digits by ``oracle.py``."""

import pytest

pytest.importorskip("mpmath")

from conftest import ORACLE  # noqa: E402
from oracle import constants  # noqa: E402


@pytest.mark.parametrize("name, value", list(constants().items()))
def test_matches_frozen_value(name, value):
    assert getattr(ORACLE, name) == pytest.approx(float(value), rel=1e-15, abs=0.0)
