"""Fixtures shared across the tier-1 suite."""

import os

import pytest


@pytest.fixture
def fsync_calls(monkeypatch):
    """Count ``os.fsync`` calls from here to the end of the test.

    A one-item list: read or reset ``fsync_calls[0]``.  The WAL looks
    ``os.fsync`` up at call time, so every durable write is counted.
    """
    real, calls = os.fsync, [0]

    def counting(fd):
        calls[0] += 1
        return real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls
