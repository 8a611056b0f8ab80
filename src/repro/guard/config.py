"""Guard-layer switch (the ``REPRO_GUARD`` environment variable).

Mirrors the :mod:`repro.obs.validate` idiom: the environment variable
is read on every call so tests and long-lived processes can flip the
switch freely, with the string normalization memoized on the raw
value.  All callers are per-solver-run or per-iteration in
already-expensive loops — never per-element.

- unset / ``0`` / ``off`` / ``false`` / ``no`` / ``none`` — guards
  disabled (production default).  Every instrumented path takes its
  pre-guard code path: constructors hand out ``None`` monitors and
  step loops pay one ``is None`` test.
- any other value (``on``, ``1``, ...) — sentinels armed:
  numerical-health checks run, and each trip is counted under
  ``guard.sentinel.*`` and raised to the caller as a typed
  :class:`~repro.guard.errors.NumericalHealthError`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

#: Environment variable arming the guards.
GUARD_ENV = "REPRO_GUARD"

_OFF_VALUES = ("", "0", "off", "false", "no", "none")

#: memo of the last (raw env value, armed?) pair
_parsed: tuple = ("", False)


def guard_enabled() -> bool:
    """Are the numerical-health sentinels armed?"""
    global _parsed
    value = os.environ.get(GUARD_ENV, "")
    cached = _parsed
    if value == cached[0]:
        return cached[1]
    enabled = value.strip().lower() not in _OFF_VALUES
    _parsed = (value, enabled)
    return enabled


@contextmanager
def guard_override(mode: str) -> Iterator[None]:
    """Temporarily force the guards ``"off"`` or ``"on"`` (tests and
    chaos harnesses)."""
    if mode not in ("off", "on"):
        raise ValueError("mode must be 'off' or 'on'")
    old = os.environ.get(GUARD_ENV)
    os.environ[GUARD_ENV] = mode
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(GUARD_ENV, None)
        else:
            os.environ[GUARD_ENV] = old
