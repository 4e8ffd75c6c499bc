"""Dataclass value semantics for tuple records.

A ``NamedTuple`` is the cheapest immutable record CPython builds: its
producer mints one with a single ``tuple.__new__``, and no generated
``__init__``, ``__new__`` or ``__post_init__`` runs.  But a tuple compares
as a tuple — equal to any tuple with the same items, and ordered.  The
public types that were frozen dataclasses before they were minted (the
WPDL :class:`~repro.wpdl.model.Activity`, :class:`~repro.wpdl.model.Transition`
and :class:`~repro.wpdl.model.TransitionCondition`,
:class:`~repro.execution.SubmitRequest`,
:class:`~repro.engine.engine.WorkflowResult`) list :class:`FrozenRecord`
first among their bases and keep the dataclass contract: equal only to a
record of the very same class with equal fields, hashed over their fields
(the same value a frozen dataclass hashes to), and not ordered.  The log's
JSON views render one as they rendered the dataclass.

>>> from typing import NamedTuple
>>> class _PointFields(NamedTuple):
...     x: int
...     y: int
>>> class Point(FrozenRecord, _PointFields):
...     __slots__ = ()
>>> Point(1, 2) == Point(1, 2), Point(1, 2) == (1, 2), (1, 2) == Point(1, 2)
(True, False, False)
>>> hash(Point(1, 2)) == hash((1, 2))
True
"""

from __future__ import annotations

from typing import Any

__all__ = ["FrozenRecord"]

_tuple_eq = tuple.__eq__
_tuple_ne = tuple.__ne__


class FrozenRecord:
    """Mixin for a ``NamedTuple`` subclass standing in for a frozen
    dataclass (list it before the ``NamedTuple`` base)."""

    __slots__ = ()

    # Another tuple is answered here: given ``NotImplemented``, Python
    # would ask the tuple, and a tuple compares items.
    def __eq__(self, other: Any) -> Any:
        if other.__class__ is self.__class__:
            return _tuple_eq(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: Any) -> Any:
        if other.__class__ is self.__class__:
            return _tuple_ne(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    def __lt__(self, other: Any) -> Any:
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__
    __hash__ = tuple.__hash__
