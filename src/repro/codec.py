"""The one wire codec: every byte layout in the reproduction is a field spec.

A wire type is a :class:`Record` of named fields built from fixed-width
scalars (:data:`U8` … :data:`U128`, :data:`F64`, :data:`BOOL`, the
32-byte :data:`FIELD` element, :func:`raw` bytes, and the bundle's
:func:`const` version, :func:`flags` byte and :data:`MILLIS` timestamp),
length-prefixed :data:`STR` and :func:`blob`, :class:`Optional`,
:class:`Repeated`, nested records and tagged :class:`Union` members.

Each record is compiled once: every run of adjacent fixed-width fields
becomes one precomputed :class:`struct.Struct`.  Encoding, decoding and
``byte_size`` all derive from the one spec, so ``len(encode(kind, x)) ==
kind.size(x)`` by construction.

Decoding is strict: :func:`decode` raises only
:class:`~repro.errors.ProtocolError`, and rejects truncation, trailing
bytes, bool bytes other than 0 or 1, field encodings ``>= FIELD_MODULUS``,
unknown tags and flag bits, and non-UTF-8 text.  Every byte string it
accepts is exactly the encoding of the value it returns.
"""

from __future__ import annotations

import struct
from operator import attrgetter
from typing import Any, Callable, Sequence

from repro.crypto.field import FIELD_MODULUS, FieldElement
from repro.errors import ProtocolError


def _need(data: bytes, offset: int, count: int) -> int:
    end = offset + count
    if end > len(data):
        raise ProtocolError(f"truncated: {count} bytes needed at offset {offset}")
    return end


class Kind:
    """A wire type: ``write(value, out)`` appends the encoding's chunks,
    ``read(data, offset)`` returns ``(value, end)``, ``size(value)`` counts
    bytes.  ``width`` is the size when it is the same for every value;
    ``ref`` names the earlier record field whose value the layout reads."""

    width: int | None = None
    ref: str | None = None

    def size(self, value: Any) -> int:
        return self.width


class Fixed(Kind):
    """A fixed-width scalar: one struct code plus optional value maps.

    ``to_wire`` maps the Python value to the struct argument; ``from_wire``
    maps it back and validates it (``None`` is the identity).
    """

    def __init__(
        self,
        fmt: str,
        to_wire: Callable[[Any], Any] | None = None,
        from_wire: Callable[[Any], Any] | None = None,
    ) -> None:
        self.fmt = fmt
        self.to_wire = to_wire
        self.from_wire = from_wire
        self.struct = struct.Struct(">" + fmt)
        self.width = self.struct.size

    def write(self, value: Any, out: list) -> None:
        if self.to_wire is not None:
            value = self.to_wire(value)
        out.append(self.struct.pack(value))

    def read(self, data: bytes, offset: int) -> tuple[Any, int]:
        end = _need(data, offset, self.width)
        (value,) = self.struct.unpack_from(data, offset)
        return (value if self.from_wire is None else self.from_wire(value)), end


def _bool_from_wire(value: int) -> bool:
    if value > 1:
        raise ProtocolError(f"bool byte {value:#04x} is neither 0 nor 1")
    return value == 1


def _field_from_wire(data: bytes) -> FieldElement:
    value = int.from_bytes(data, "big")
    if value >= FIELD_MODULUS:
        raise ProtocolError("field element encoding is not below the modulus")
    return FieldElement(value)


def _millis_from_wire(millis: int) -> float:
    seconds = millis / 1000.0
    if round(seconds * 1000) != millis:
        raise ProtocolError(f"timestamp {millis} ms has no exact float-seconds form")
    return seconds


def _only(ok: Callable[[int], bool], what: str) -> Callable[[int], int]:
    def check(value: int) -> int:
        if not ok(value):
            raise ProtocolError(f"{what}: {value:#x}")
        return value

    return check


U8, U16, U32, U64 = Fixed("B"), Fixed("H"), Fixed("I"), Fixed("Q")
I32, I64, F64 = Fixed("i"), Fixed("q"), Fixed("d")
U128 = Fixed(
    "16s", lambda value: value.to_bytes(16, "big"), lambda b: int.from_bytes(b, "big")
)
BOOL = Fixed("B", None, _bool_from_wire)
FIELD = Fixed("32s", FieldElement.to_bytes, _field_from_wire)
#: Float seconds in Python, whole milliseconds (u64) on the wire.
MILLIS = Fixed("Q", lambda seconds: max(0, round(seconds * 1000)), _millis_from_wire)


def raw(length: int) -> Fixed:
    """Exactly ``length`` opaque bytes."""
    return Fixed(f"{length}s")


def const(kind: Fixed, value: int) -> Fixed:
    """A field that always carries ``value`` (e.g. a format version)."""
    return Fixed(kind.fmt, lambda _: value, _only(value.__eq__, "unsupported value"))


def flags(mask: int) -> Fixed:
    """A flags byte; bits outside ``mask`` are unknown and rejected."""
    return Fixed("B", None, _only(lambda bits: not bits & ~mask, "unknown flag bits"))


class Prefixed(Kind):
    """Length-prefixed bytes, or UTF-8 text when ``text`` is set."""

    def __init__(self, prefix: Fixed, *, text: bool) -> None:
        self.prefix = prefix
        self.text = text

    def write(self, value: Any, out: list) -> None:
        data = value.encode("utf-8") if self.text else value
        out.append(self.prefix.struct.pack(len(data)))
        out.append(data)

    def read(self, data: bytes, offset: int) -> tuple[Any, int]:
        length, offset = self.prefix.read(data, offset)
        end = _need(data, offset, length)
        if not self.text:
            return data[offset:end], end
        try:
            return data[offset:end].decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"string is not UTF-8: {exc.reason}") from exc

    def size(self, value: Any) -> int:
        if self.text and not value.isascii():
            value = value.encode("utf-8")
        return self.prefix.width + len(value)


STR = Prefixed(U16, text=True)


def blob(prefix: Fixed) -> Prefixed:
    """Opaque bytes behind a ``prefix``-wide length."""
    return Prefixed(prefix, text=False)


class Optional(Kind):
    """``None`` or one ``inner`` value.

    Presence travels as its own 0/1 byte; or, with ``flag=(name, bit)``,
    as ``bit`` of the earlier :func:`flags` field ``name``; or, with
    ``trailing=True``, as whether any bytes remain (only for the last
    field of a top-level record, and ``inner`` never encodes empty).
    """

    def __init__(
        self,
        inner: Kind,
        *,
        flag: tuple[str, int] | None = None,
        trailing: bool = False,
    ) -> None:
        self.inner = inner
        self.ref, self.bit = flag or (None, 0)
        self.trailing = trailing
        self.own_byte = flag is None and not trailing

    def write(self, value: Any, out: list) -> None:
        if self.own_byte:
            out.append(b"\x00" if value is None else b"\x01")
        if value is not None:
            self.inner.write(value, out)

    def read(self, data: bytes, offset: int) -> tuple[Any, int]:
        if self.trailing:
            present = offset < len(data)
        else:
            present, offset = BOOL.read(data, offset)
        return self.inner.read(data, offset) if present else (None, offset)

    def read_with(self, data: bytes, offset: int, bits: int) -> tuple[Any, int]:
        return self.inner.read(data, offset) if bits & self.bit else (None, offset)

    def size(self, value: Any) -> int:
        own = 1 if self.own_byte else 0
        return own if value is None else own + self.inner.size(value)


class Repeated(Kind):
    """A tuple of ``inner`` values behind a ``count``-wide count prefix, or,
    when ``count`` names an earlier field, as many as that field's value."""

    def __init__(self, inner: Kind, *, count: Fixed | str = U16) -> None:
        self.inner = inner
        self.ref = count if isinstance(count, str) else None
        self.count = None if isinstance(count, str) else count

    def write(self, values: Sequence[Any], out: list) -> None:
        if self.count is not None:
            out.append(self.count.struct.pack(len(values)))
        for value in values:
            self.inner.write(value, out)

    def read(self, data: bytes, offset: int) -> tuple[tuple, int]:
        count, offset = self.count.read(data, offset)
        return self.read_with(data, offset, count)

    def read_with(self, data: bytes, offset: int, count: int) -> tuple[tuple, int]:
        items = []
        for _ in range(count):
            item, offset = self.inner.read(data, offset)
            items.append(item)
        return tuple(items), offset

    def size(self, values: Sequence[Any]) -> int:
        total = 0 if self.count is None else self.count.width
        if self.inner.width is not None:
            return total + len(values) * self.inner.width
        return total + sum(map(self.inner.size, values))


class Union(Kind):
    """One of several ``(tag, python_type, kind)`` members behind a tag
    byte, picked by exact Python type on encode and by tag on decode."""

    def __init__(self, *members: tuple[int, type, Kind]) -> None:
        self.members = members
        self._by_type = {cls: (bytes((tag,)), kind) for tag, cls, kind in members}
        self._by_tag = {tag: kind for tag, _, kind in members}
        widths = {kind.width for _, _, kind in members}
        width = widths.pop() if len(widths) == 1 else None
        self.width = None if width is None else 1 + width

    def _member(self, value: Any) -> tuple[bytes, Kind]:
        member = self._by_type.get(type(value))
        if member is None:
            raise ProtocolError(f"{type(value).__name__} has no wire tag here")
        return member

    def write(self, value: Any, out: list) -> None:
        tag, kind = self._member(value)
        out.append(tag)
        kind.write(value, out)

    def read(self, data: bytes, offset: int) -> tuple[Any, int]:
        end = _need(data, offset, 1)
        kind = self._by_tag.get(data[offset])
        if kind is None:
            raise ProtocolError(f"unknown tag {data[offset]:#04x}")
        return kind.read(data, end)

    def size(self, value: Any) -> int:
        return 1 + self._member(value)[1].size(value)


class _Run:
    """Adjacent fixed-width fields ``[start, stop)`` packed by one struct."""

    def __init__(self, start: int, kinds: list[Fixed]) -> None:
        self.start, self.stop = start, start + len(kinds)
        self.struct = struct.Struct(">" + "".join(kind.fmt for kind in kinds))
        self.to_wire = [(i, k.to_wire) for i, k in enumerate(kinds) if k.to_wire]
        self.from_wire = [(i, k.from_wire) for i, k in enumerate(kinds) if k.from_wire]

    def write(self, values: Sequence[Any], out: list) -> None:
        args = values[self.start : self.stop]
        if self.to_wire:
            args = list(args)
            for i, convert in self.to_wire:
                args[i] = convert(args[i])
        out.append(self.struct.pack(*args))

    def read(self, data: bytes, offset: int, values: list) -> int:
        end = _need(data, offset, self.struct.size)
        decoded = self.struct.unpack_from(data, offset)
        if self.from_wire:
            decoded = list(decoded)
            for i, convert in self.from_wire:
                decoded[i] = convert(decoded[i])
        values.extend(decoded)
        return end


class _Field:
    """One variable-width field; ``ref`` indexes the field its layout reads."""

    def __init__(self, index: int, kind: Kind, ref: int | None) -> None:
        self.index, self.kind, self.ref = index, kind, ref

    def write(self, values: Sequence[Any], out: list) -> None:
        self.kind.write(values[self.index], out)

    def read(self, data: bytes, offset: int, values: list) -> int:
        if self.ref is None:
            value, offset = self.kind.read(data, offset)
        else:
            value, offset = self.kind.read_with(data, offset, values[self.ref])
        values.append(value)
        return offset


class Record(Kind):
    """Two or more named fields, compiled once into struct runs and steps.

    ``split(value)`` returns the field values in order (by default the
    attributes the fields name, dotted paths allowed) and
    ``build(*values)`` makes the value back from them.
    """

    def __init__(
        self,
        *fields: tuple[str, Kind],
        build: Callable[..., Any],
        split: Callable[[Any], Sequence[Any]] | None = None,
    ) -> None:
        names = [name for name, _ in fields]
        self._split = split or attrgetter(*names)
        self._build = build
        self._steps: list[_Run | _Field] = []
        run: list[Fixed] = []
        for index, (_, kind) in enumerate(fields):
            if isinstance(kind, Fixed):
                run.append(kind)
                continue
            if run:
                self._steps.append(_Run(index - len(run), run))
                run = []
            ref = None if kind.ref is None else names.index(kind.ref)
            self._steps.append(_Field(index, kind, ref))
        if run:
            self._steps.append(_Run(len(fields) - len(run), run))
        kinds = [(s.index, s.kind) for s in self._steps if isinstance(s, _Field)]
        self._sizers = [(i, kind.size) for i, kind in kinds if kind.width is None]
        self._fixed = sum(s.struct.size for s in self._steps if isinstance(s, _Run))
        self._fixed += sum(kind.width or 0 for _, kind in kinds)
        #: Encoded size when it is the same for every value, else ``None``.
        self.width = None if self._sizers else self._fixed

    def write(self, value: Any, out: list) -> None:
        values = self._split(value)
        for step in self._steps:
            step.write(values, out)

    def read(self, data: bytes, offset: int) -> tuple[Any, int]:
        values: list = []
        for step in self._steps:
            offset = step.read(data, offset, values)
        return self._build(*values), offset

    def size(self, value: Any) -> int:
        if self.width is not None:
            return self.width
        values = self._split(value)
        total = self._fixed
        for index, size in self._sizers:
            total += size(values[index])
        return total


def row(*kinds: Kind) -> Record:
    """A plain tuple of the given kinds (e.g. a label pair)."""
    fields = ((str(i), kind) for i, kind in enumerate(kinds))
    return Record(*fields, build=lambda *values: values, split=lambda value: value)


def encode(kind: Kind, value: Any) -> bytes:
    """``value``'s encoding; a value the layout cannot carry is a ``ProtocolError``."""
    out: list = []
    try:
        kind.write(value, out)
    except (struct.error, OverflowError) as exc:
        raise ProtocolError(f"value does not fit its wire layout: {exc}") from exc
    return b"".join(out)


def decode(kind: Kind, data: bytes) -> Any:
    """Strictly decode the whole of ``data`` (trailing bytes are rejected)."""
    value, offset = kind.read(data, 0)
    if offset != len(data):
        raise ProtocolError(f"{len(data) - offset} trailing bytes")
    return value


def message(
    *fields: tuple[str, Kind], tag: int | None = None, build: Callable | None = None
) -> Callable[[type], type]:
    """Class decorator: give a dataclass its wire spec and wire methods.

    Sets ``cls.codec`` (the compiled :class:`Record`, as the one member
    of a :class:`Union` when ``tag`` is given) and adds ``to_bytes()``,
    the strict ``from_bytes(data)`` classmethod and ``byte_size()``.
    Decoding calls ``cls`` with the fields as keywords unless ``build``
    is given.
    """

    def attach(cls: type) -> type:
        names = [name for name, _ in fields]

        def by_keyword(*values: Any) -> Any:
            return cls(**dict(zip(names, values)))

        kind = Record(*fields, build=build or by_keyword)
        if tag is not None:
            kind = Union((tag, cls, kind))
        cls.codec = kind
        cls.to_bytes = lambda self: encode(kind, self)
        cls.from_bytes = classmethod(lambda cls_, data: decode(kind, data))
        cls.byte_size = lambda self: kind.size(self)
        return cls

    return attach
