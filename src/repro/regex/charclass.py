"""Character classes over the byte alphabet.

A :class:`CharClass` is an immutable set of byte values (0-255) with the
set algebra needed by the regex parser and by the character-class compiler
(``repro.ir.cc_compiler``).  Classes are stored canonically as a sorted
tuple of inclusive ``(lo, hi)`` ranges, which keeps common classes (ASCII
ranges, digit/word classes) compact and makes range-based boolean
compilation natural.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Tuple

ALPHABET_SIZE = 256

Range = Tuple[int, int]


def _normalize(ranges: Iterable[Range]) -> Tuple[Range, ...]:
    """Sort, validate, and coalesce overlapping/adjacent inclusive ranges."""
    items = sorted(ranges)
    merged: list = []
    for lo, hi in items:
        if not (0 <= lo <= hi < ALPHABET_SIZE):
            raise ValueError(f"byte range out of bounds: ({lo}, {hi})")
        if merged and lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


class CharClass:
    """An immutable set of bytes, canonicalised as merged inclusive ranges."""

    __slots__ = ("ranges",)

    def __init__(self, ranges: Iterable[Range] = ()):
        object.__setattr__(self, "ranges", _normalize(ranges))

    def __setattr__(self, name, value):
        raise AttributeError("CharClass is immutable")

    def __reduce__(self):
        # Reconstruct through __init__: the immutability guard blocks
        # pickle's default setattr-based state restore.
        return (CharClass, (self.ranges,))

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls) -> "CharClass":
        return cls(())

    @classmethod
    def any_byte(cls) -> "CharClass":
        return cls(((0, ALPHABET_SIZE - 1),))

    @classmethod
    def single(cls, byte: int) -> "CharClass":
        return cls(((byte, byte),))

    @classmethod
    def of_char(cls, char: str) -> "CharClass":
        code = ord(char)
        if code >= ALPHABET_SIZE:
            raise ValueError(f"non-byte character: {char!r}")
        return cls.single(code)

    @classmethod
    def of_chars(cls, chars: str) -> "CharClass":
        return cls(tuple((ord(c), ord(c)) for c in chars))

    @classmethod
    def range(cls, lo: str, hi: str) -> "CharClass":
        return cls(((ord(lo), ord(hi)),))

    @classmethod
    def dot(cls) -> "CharClass":
        """The regex ``.``: any byte except newline."""
        return cls.any_byte().difference(cls.of_char("\n"))

    # -- set algebra -------------------------------------------------------

    def union(self, other: "CharClass") -> "CharClass":
        return CharClass(self.ranges + other.ranges)

    def intersection(self, other: "CharClass") -> "CharClass":
        return self.difference(other.complement())

    def difference(self, other: "CharClass") -> "CharClass":
        return CharClass._from_mask(self._mask() & ~other._mask())

    def complement(self) -> "CharClass":
        return CharClass._from_mask(~self._mask() & ((1 << ALPHABET_SIZE) - 1))

    def _mask(self) -> int:
        mask = 0
        for lo, hi in self.ranges:
            mask |= ((1 << (hi - lo + 1)) - 1) << lo
        return mask

    @classmethod
    def _from_mask(cls, mask: int) -> "CharClass":
        ranges = []
        byte = 0
        while mask:
            if mask & 1:
                lo = byte
                while mask & 1:
                    mask >>= 1
                    byte += 1
                ranges.append((lo, byte - 1))
            else:
                shift = (mask & -mask).bit_length() - 1
                mask >>= shift
                byte += shift
        return cls(tuple(ranges))

    # -- queries -----------------------------------------------------------

    def contains(self, byte: int) -> bool:
        return any(lo <= byte <= hi for lo, hi in self.ranges)

    def __contains__(self, byte: int) -> bool:
        return self.contains(byte)

    def is_empty(self) -> bool:
        return not self.ranges

    def is_single(self) -> bool:
        return len(self) == 1

    def single_byte(self) -> int:
        """The sole member of a singleton class (raises otherwise)."""
        if not self.is_single():
            raise ValueError(f"not a singleton class: {self}")
        return self.ranges[0][0]

    def bytes(self) -> Iterator[int]:
        for lo, hi in self.ranges:
            yield from range(lo, hi + 1)

    def table(self) -> Sequence[bool]:
        """A 256-entry membership table."""
        out = [False] * ALPHABET_SIZE
        for lo, hi in self.ranges:
            for byte in range(lo, hi + 1):
                out[byte] = True
        return out

    def __len__(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self.ranges)

    def __eq__(self, other) -> bool:
        return isinstance(other, CharClass) and self.ranges == other.ranges

    def __hash__(self) -> int:
        return hash(self.ranges)

    def __repr__(self) -> str:
        if self.is_empty():
            return "CharClass[]"
        if self == CharClass.any_byte():
            return "CharClass[ANY]"
        parts = []
        for lo, hi in self.ranges:
            if lo == hi:
                parts.append(_show_byte(lo))
            else:
                parts.append(f"{_show_byte(lo)}-{_show_byte(hi)}")
        return "CharClass[" + "".join(parts) + "]"


def _show_byte(byte: int) -> str:
    char = chr(byte)
    if char.isprintable() and char not in "-[]^\\":
        return char
    return f"\\x{byte:02x}"


# Named classes used by escape sequences in the parser.
DIGIT = CharClass.range("0", "9")
WORD = CharClass(((ord("0"), ord("9")), (ord("A"), ord("Z")),
                  (ord("a"), ord("z")), (ord("_"), ord("_"))))
SPACE = CharClass.of_chars(" \t\n\r\f\v")
