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
  whose checkpoint form differs from the live one;
- :func:`append_only` of a list kind (:data:`APPEND` for a shallow
  copy), for a list that only ever grows.  Its save must map a slice
  of the list to the same slice of the saved list.

Keys are written in ``_STATE`` order, so a derived checkpoint has the
layout a hand-written method would produce.

An append-only field lets a journal record only what a step added.
:meth:`Stateful.checkpoint_tails` saves each one as a :class:`Tail`,
the items past a length the caller holds, and converts only those;
:func:`resolve_tails` puts a full checkpoint back together from the
checkpoint of the step the tails extend, and :func:`saved_lengths`
gives the lengths the next record starts from.
"""

from __future__ import annotations

from collections import deque
from copy import copy
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np


class Kind(NamedTuple):
    """How one field is saved and written back: ``save(live)`` returns
    the checkpoint value, ``load(live, saved)`` the attribute's restored
    value (the live object itself for the kinds that restore in
    place).  ``append_only`` marks a list that only ever grows (see
    :func:`append_only`)."""

    save: Callable[[Any], Any]
    load: Callable[[Any, Any], Any]
    append_only: bool = False


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


def append_only(kind: Kind) -> Kind:
    """*kind* for a list that only ever grows.  Its ``save`` must map a
    slice of the list to the same slice of the saved list, so that
    ``save(live[n:])`` is the saved list past its first *n* items."""
    return kind._replace(append_only=True)


#: a list that only ever grows, saved as a shallow copy
APPEND = append_only(COPY)


class Tail(NamedTuple):
    """An append-only field's saved items past its first *start*."""

    start: int
    items: List[Any]


def resolve_tails(base: Any, record: Any) -> Any:
    """*record* with each :class:`Tail` replaced by the full saved list.

    *base* is the full checkpoint of the step the record extends; a
    tail's list is *base*'s first ``start`` items followed by the
    tail's.  Dicts are resolved key by key at any depth, so a payload
    that wraps a checkpoint resolves as a whole.  Raises
    :class:`ValueError` when *base* holds fewer than ``start`` items.
    """
    if type(record) is Tail:
        start, items = record
        prefix = base[:start] if start and type(base) is list else []
        if len(prefix) != start:
            raise ValueError(
                f"a tail from item {start} extends a base of "
                f"{len(prefix)} items"
            )
        return prefix + items
    if type(record) is dict:
        if type(base) is not dict:
            base = {}
        return {key: resolve_tails(base.get(key), value)
                for key, value in record.items()}
    return record


def saved_lengths(state: Any) -> Dict[str, int]:
    """The saved length of each list field of a checkpoint or tails
    record, by key (a :class:`Tail` counts its start and its items):
    the lengths a next :meth:`Stateful.checkpoint_tails` extends."""
    if type(state) is not dict:
        return {}
    return {
        key: value.start + len(value.items) if type(value) is Tail
        else len(value)
        for key, value in state.items() if type(value) in (list, Tail)
    }


def state_mismatches(a: Any, b: Any, path: str = "state") -> List[str]:
    """Paths at which two nested state payloads differ (bit-level)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and np.array_equal(a, b)):
            return [path]
        return []
    if isinstance(a, dict) and isinstance(b, dict):
        out: List[str] = []
        for k in sorted(set(a) | set(b), key=str):
            if k not in a or k not in b:
                out.append(f"{path}.{k}")
            else:
                out.extend(state_mismatches(a[k], b[k], f"{path}.{k}"))
        return out
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            return [f"{path}(len {len(a)} vs {len(b)})"]
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            out.extend(state_mismatches(x, y, f"{path}[{i}]"))
        return out
    if a != b:
        return [path]
    return []


class Field:
    """One named piece of checkpoint state.

    *key* is the checkpoint dict key and *path* the attribute holding
    the value (*key* itself by default).
    """

    __slots__ = ("key", "parents", "attr", "save", "load", "append_only")

    def __init__(self, key: str, kind: Kind = VALUE,
                 path: Optional[str] = None):
        *parents, attr = (path or key).split(".")
        self.key = key
        self.parents = tuple(parents)
        self.attr = attr
        self.save, self.load, self.append_only = kind

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


def _saved(obj, lengths: Optional[Dict[str, int]]
           ) -> Optional[Dict[str, Any]]:
    """*obj*'s checkpoint; with *lengths*, its append-only fields are
    :class:`Tail`\\ s."""
    schema = obj._STATE
    if not schema:
        return None
    state = {}
    for field in schema:
        owner = field.owner(obj)
        live = None if owner is None else getattr(owner, field.attr)
        if lengths is not None and field.append_only and live is not None:
            start = lengths.get(field.key, 0)
            if start > len(live):
                raise ValueError(
                    f"append-only field {field.key!r} holds {len(live)} "
                    f"items, fewer than the {start} already saved"
                )
            state[field.key] = Tail(start, field.save(live[start:]))
        else:
            state[field.key] = field.save(live)
    return state


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
        return _saved(self, None)

    def checkpoint_tails(self, lengths: Dict[str, int]
                         ) -> Optional[Dict[str, Any]]:
        """:meth:`checkpoint_state` with each append-only field saved
        as a :class:`Tail` of the items past ``lengths[key]`` (all of
        them when the key is missing); only those items are converted.
        Other keys of *lengths* are ignored.  Append-only fields are
        cut at this object's own level; nested checkpoints are whole.
        """
        return _saved(self, lengths)

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Write every ``_STATE`` field of *state* back, in order."""
        for field in self._STATE:
            owner = field.owner(self)
            if owner is not None:
                setattr(owner, field.attr, field.load(
                    getattr(owner, field.attr), state[field.key]
                ))
