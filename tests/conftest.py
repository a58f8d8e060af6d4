"""Fixtures shared by the test suites."""

import numpy as np
import pytest


@pytest.fixture
def multinomial_rows(monkeypatch):
    """The number of rows of every multinomial draw made while the test runs,
    in call order, by the generators of ``np.random.default_rng``, which is
    replaced by a spy that makes the same generator and passes every other
    call through."""
    rows = []
    make = np.random.default_rng

    class Spy:
        def __init__(self, seed=None):
            self._rng = make(seed)

        def multinomial(self, n, pvals):
            rows.append(len(pvals))
            return self._rng.multinomial(n, pvals)

        def __getattr__(self, name):
            return getattr(self._rng, name)

    monkeypatch.setattr(np.random, "default_rng", Spy)
    return rows
