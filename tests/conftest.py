"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ta import TAParameters


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministically seeded random generator."""
    return np.random.default_rng(20030625)  # DSN 2003 conference date


@pytest.fixture
def paper_params() -> TAParameters:
    """The paper's Table 7 / Section 5.2 parameter set."""
    return TAParameters()


@pytest.fixture
def rewrite_journal():
    """Write records as a fresh journal at a path, renumbering ``seq``.

    Lets a test reorder, drop or corrupt the records of a real journal.
    """
    from repro.runtime import Journal

    def rewrite(path, records):
        path.unlink(missing_ok=True)
        with Journal(path) as journal:
            for record in records:
                journal.append(record["kind"], **{
                    k: v for k, v in record.items()
                    if k not in ("v", "seq", "kind")
                })

    return rewrite
