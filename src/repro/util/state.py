"""Declarative checkpoint state: each stepper names its state once.

A *checkpointable* object exposes ``checkpoint_state() -> dict`` (a
snapshot of all its live state) and ``restore_state(state)`` (rewind
to exactly that snapshot).  :class:`Stateful` derives both from one
class-level tuple, ``_STATE``, of :class:`Field`\\ s, so no field can
be saved without being restored.  A field is a checkpoint key, the
attribute path its value lives at (dotted where it lives one object
down: ``"macro.rng"``, ``"system.x"``) and a :class:`Kind`:

- :data:`VALUE` — kept as is (numbers, strings, flags, ``None``);
- :data:`COPY` — a shallow copy each way (lists or heaps of frozen
  records, dicts, sets, arrays);
- :data:`RNG` — a NumPy Generator's ``bit_generator.state``, written
  back into the live Generator, so callers that hold it see the rewind;
- :data:`NESTED` — another checkpointable's own checkpoint, restored
  in place; ``None`` when the owner is absent or keeps no state;
- :data:`DEQUE` — saved as a list, rebuilt with the live ``maxlen``;
- :func:`convert` or a ``Kind(save, load)`` pair, for the few values
  whose checkpoint form differs from the live one.

Keys are written in ``_STATE`` order, so a derived checkpoint has the
layout a hand-written method would produce.
"""

from __future__ import annotations

from collections import deque
from copy import copy
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple


class Kind(NamedTuple):
    """How one field is saved and written back: ``save(live)`` returns
    the checkpoint value, ``load(live, saved)`` the attribute's restored
    value (the live object itself for the kinds that restore in
    place)."""

    save: Callable[[Any], Any]
    load: Callable[[Any, Any], Any]


def convert(save: Callable[[Any], Any],
            load: Callable[[Any], Any]) -> Kind:
    """A kind whose restored value depends on the saved one alone."""
    return Kind(save, lambda live, saved: load(saved))


def checkpoint_of(owner) -> Optional[Dict[str, Any]]:
    """*owner*'s ``checkpoint_state()``, or ``None`` when it is absent
    or keeps no state (an owner without a ``checkpoint_state``, or a
    :class:`Stateful` with an empty ``_STATE``)."""
    save = getattr(owner, "checkpoint_state", None)
    return None if save is None else save()


def _restore_nested(owner, saved):
    if owner is not None and saved is not None:
        owner.restore_state(saved)
    return owner


def _save_rng(rng):
    # the getter builds a fresh dict on every call and the setter
    # copies its argument, so neither direction needs a deep copy
    return None if rng is None else rng.bit_generator.state


def _restore_rng(rng, saved):
    if rng is not None and saved is not None:
        rng.bit_generator.state = saved
    return rng


VALUE = convert(lambda value: value, lambda saved: saved)
COPY = convert(copy, copy)
RNG = Kind(_save_rng, _restore_rng)
NESTED = Kind(checkpoint_of, _restore_nested)
DEQUE = Kind(list, lambda live, saved: deque(saved, live.maxlen))


class Field:
    """One named piece of checkpoint state.

    *key* is the checkpoint dict key and *path* the attribute holding
    the value (*key* itself by default).
    """

    __slots__ = ("key", "parents", "attr", "save", "load")

    def __init__(self, key: str, kind: Kind = VALUE,
                 path: Optional[str] = None):
        *parents, attr = (path or key).split(".")
        self.key = key
        self.parents = tuple(parents)
        self.attr = attr
        self.save, self.load = kind

    def owner(self, obj):
        """The object holding the attribute; ``None`` when an object
        on the way is absent (a DdcMD without a thermostat)."""
        for name in self.parents:
            if obj is None:
                break
            obj = getattr(obj, name)
        return obj


def fields(*keys: str, kind: Kind = VALUE) -> Tuple[Field, ...]:
    """One field of *kind* per key, each at the attribute of its name."""
    return tuple(Field(key, kind) for key in keys)


class Stateful:
    """Derives ``checkpoint_state``/``restore_state`` from ``_STATE``.

    An instance whose ``_STATE`` is empty keeps no state and
    checkpoints as ``None``.
    """

    __slots__ = ()

    _STATE: Tuple[Field, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # each subclass gets the derived methods as its own attributes,
        # as if written in its body, so a tool that patches a class's
        # own ``__dict__`` (perfbench's layer tracer wraps
        # ``MummiCampaign.checkpoint_state``) finds them; an override
        # anywhere up the hierarchy is left alone
        for name in ("checkpoint_state", "restore_state"):
            method = Stateful.__dict__[name]
            if getattr(cls, name) is method:
                setattr(cls, name, method)

    def checkpoint_state(self) -> Optional[Dict[str, Any]]:
        """Every ``_STATE`` field's saved value, keyed in order."""
        schema = self._STATE
        if not schema:
            return None
        state = {}
        for field in schema:
            owner = field.owner(self)
            state[field.key] = field.save(
                None if owner is None else getattr(owner, field.attr)
            )
        return state

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Write every ``_STATE`` field of *state* back, in order."""
        for field in self._STATE:
            owner = field.owner(self)
            if owner is not None:
                setattr(owner, field.attr, field.load(
                    getattr(owner, field.attr), state[field.key]
                ))
