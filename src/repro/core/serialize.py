"""The report format: :class:`Record`, plus the by-name machine helpers.

A scheduler report — placements, predicted against achieved
performance, goal violations, and the churn, service and online
counters around them — is a tree of dataclasses, and its wire form
(``repro serve --emit-json``, a shard's ``report`` reply, a fault plan
in a benchmark payload) is their fields.  :class:`Record` derives that
form from the field declarations, so no field can be forgotten in one
direction of the round trip.  What guards the codecs — this one and
the few hand-written pairs (``Placement``, ``FragmentationSample``,
the lint ``Finding``) — is a generated property
(``tests/scheduler/test_wire.py``): it draws instances of every class in
``repro`` with a ``to_dict`` and checks that each rebuilds equal after
a JSON round trip.  Payloads hold JSON-safe values only, and
Python round-trips floats exactly through ``json``, so a payload that
has been through ``json.dumps``/``loads`` rebuilds bit-for-bit equal
objects.  Tuples (fingerprints, node blocks) cross as lists and are
re-tupled; a :class:`~repro.topology.machine.MachineTopology` crosses
*by name* and resolves against a name -> machine mapping, so both sides
share the identical, memo-shared process-local object.
"""

from __future__ import annotations

import inspect
import sys
import types
from dataclasses import fields
from typing import Callable, Dict, Iterable, Mapping, Tuple, Union, get_args, get_origin

from repro.topology.machine import MachineTopology


def tupled(value):
    """Recursively convert lists (JSON's tuple stand-in) back to tuples."""
    if isinstance(value, (list, tuple)):
        return tuple(tupled(item) for item in value)
    return value


def _encode(value):
    """A field value in its report form: through its own ``to_dict`` if
    it has one, a sequence (tuples included) as a list, else as is."""
    to_dict = getattr(value, "to_dict", None)
    if to_dict is not None:
        return to_dict()
    if isinstance(value, (str, dict)) or not hasattr(value, "__iter__"):
        return value
    return [_encode(item) for item in value]


def _identity(value, machines):
    return value


def _decoder(hint) -> Callable:
    """How to rebuild a value annotated ``hint`` from its report form."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, types.UnionType):  # ``X | None``
        inner = _decoder(next(arg for arg in args if arg is not type(None)))
        return lambda value, machines: (
            None if value is None else inner(value, machines)
        )
    if origin is list:
        item = _decoder(args[0]) if args else _identity
        return lambda value, machines: [item(v, machines) for v in value]
    if origin is tuple and args[-1:] == (Ellipsis,):
        item = _decoder(args[0])
        return lambda value, machines: tuple(item(v, machines) for v in value)
    if origin is tuple or hint is tuple:  # bare, or fixed-length scalars
        return lambda value, machines: tupled(value)
    from_dict = getattr(hint, "from_dict", None)
    if from_dict is None:
        return _identity
    if len(inspect.signature(from_dict).parameters) > 1:
        return from_dict
    return lambda value, machines: from_dict(value)


#: Every Record subclass by name: the namespace string annotations
#: resolve in, so a module can annotate a field with a record type it
#: imports only under ``TYPE_CHECKING`` (an import cycle otherwise).
_RECORDS: Dict[str, type] = {}
_DECODERS: Dict[Tuple[type, str], Callable] = {}


def _field_decoder(cls: type, name: str) -> Callable:
    """One field's decoder, resolved from its annotation when the first
    list or dict for it arrives: a scalar or None is its own value, and a
    record type whose module is not loaded costs nothing while its field
    stays None."""
    decoder = _DECODERS.get((cls, name))
    if decoder is None:
        hint = cls.__dataclass_fields__[name].type
        while isinstance(hint, str):  # quoted twice: '"X | None"'
            hint = eval(hint, vars(sys.modules[cls.__module__]), _RECORDS)
        decoder = _DECODERS[cls, name] = _decoder(hint)
    return decoder


class Record:
    """Mixin for a dataclass whose report form is its fields.

    ``to_dict`` emits every field in declaration order, nested values
    through their own ``to_dict`` and sequences as lists.  ``from_dict``
    rebuilds each field from its annotation (``X | None``, ``List[X]``,
    ``Tuple[X, ...]``, a bare ``Tuple``, or a type with a ``from_dict``,
    handed ``machines`` if it takes them).  A missing key takes the
    field's default; a key that names no field raises.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        _RECORDS[cls.__name__] = cls

    def to_dict(self) -> Dict:
        return {
            spec.name: _encode(getattr(self, spec.name))
            for spec in fields(self)
        }

    @classmethod
    def from_dict(cls, data: Mapping, machines: Mapping | None = None):
        unknown = data.keys() - cls.__dataclass_fields__.keys()
        if unknown:
            raise TypeError(
                f"{cls.__name__}.from_dict: no field named "
                f"{', '.join(map(repr, sorted(unknown)))}"
            )
        return cls(
            **{
                key: _field_decoder(cls, key)(value, machines)
                if isinstance(value, (list, dict))
                else value
                for key, value in data.items()
            }
        )


def machines_by_name(
    machines: Iterable[MachineTopology],
) -> Dict[str, MachineTopology]:
    """Name -> topology resolver for ``from_dict`` calls.

    Machine identity in this repository is the name (placements and
    simulators check it; the fingerprint includes it), so two entries
    sharing a name must be the same shape — passing structurally
    different machines under one name is a caller bug worth failing on.
    """
    resolved: Dict[str, MachineTopology] = {}
    for machine in machines:
        existing = resolved.get(machine.name)
        if existing is None:
            resolved[machine.name] = machine
        elif existing.fingerprint() != machine.fingerprint():
            raise ValueError(
                f"two different machine shapes named {machine.name!r}"
            )
    return resolved


def resolve_machine(
    name: str, machines: Mapping[str, MachineTopology]
) -> MachineTopology:
    try:
        return machines[name]
    except KeyError:
        raise KeyError(
            f"unknown machine {name!r} on the wire; known: "
            f"{', '.join(sorted(machines)) or '(none)'}"
        )
