"""Regex abstract syntax trees.

The node set follows the paper's grammar (Listing 1): character classes,
concatenation, alternation, Kleene star, and bounded repetition
``R{n,m}`` (with ``R+`` and ``R?`` as derived forms), plus the anchors
``^`` and ``$`` which several of the evaluated rule sets use.

Nodes are immutable; ``children()`` and structural equality make the
trees easy to transform and test.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

from .charclass import CharClass


class Regex:
    """Base class for regex AST nodes."""

    __slots__ = ()

    def children(self) -> Tuple["Regex", ...]:
        return ()

    def __reduce__(self):
        # Reconstruct through __init__ (every node's slots mirror its
        # constructor arguments): the immutability guard blocks pickle's
        # default setattr-based state restore.
        return (type(self),
                tuple(getattr(self, name) for name in self.__slots__))

    def walk(self) -> Iterator["Regex"]:
        """Pre-order traversal of the subtree rooted here."""
        yield self
        for child in self.children():
            yield from child.walk()

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self):
        return ()


class Empty(Regex):
    """Matches the empty string (epsilon)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Empty()"


class Lit(Regex):
    """A single character class (one input byte)."""

    __slots__ = ("cc",)

    def __init__(self, cc: CharClass):
        object.__setattr__(self, "cc", cc)

    def __setattr__(self, name, value):
        raise AttributeError("Regex nodes are immutable")

    def _key(self):
        return (self.cc,)

    def __repr__(self) -> str:
        return f"Lit({self.cc!r})"


class Seq(Regex):
    """Concatenation of two or more parts."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[Regex]):
        if len(parts) < 2:
            raise ValueError("Seq needs at least two parts")
        object.__setattr__(self, "parts", tuple(parts))

    def __setattr__(self, name, value):
        raise AttributeError("Regex nodes are immutable")

    def children(self) -> Tuple[Regex, ...]:
        return self.parts

    def _key(self):
        return self.parts

    def __repr__(self) -> str:
        return f"Seq({list(self.parts)!r})"


class Alt(Regex):
    """Alternation of two or more branches."""

    __slots__ = ("branches",)

    def __init__(self, branches: Sequence[Regex]):
        if len(branches) < 2:
            raise ValueError("Alt needs at least two branches")
        object.__setattr__(self, "branches", tuple(branches))

    def __setattr__(self, name, value):
        raise AttributeError("Regex nodes are immutable")

    def children(self) -> Tuple[Regex, ...]:
        return self.branches

    def _key(self):
        return self.branches

    def __repr__(self) -> str:
        return f"Alt({list(self.branches)!r})"


class Star(Regex):
    """Kleene star: zero or more repetitions."""

    __slots__ = ("body",)

    def __init__(self, body: Regex):
        object.__setattr__(self, "body", body)

    def __setattr__(self, name, value):
        raise AttributeError("Regex nodes are immutable")

    def children(self) -> Tuple[Regex, ...]:
        return (self.body,)

    def _key(self):
        return (self.body,)

    def __repr__(self) -> str:
        return f"Star({self.body!r})"


class Rep(Regex):
    """Bounded repetition ``R{lo,hi}``; ``hi=None`` means unbounded."""

    __slots__ = ("body", "lo", "hi")

    def __init__(self, body: Regex, lo: int, hi: Optional[int]):
        if lo < 0 or (hi is not None and hi < lo):
            raise ValueError(f"bad repetition bounds {{{lo},{hi}}}")
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("Regex nodes are immutable")

    def children(self) -> Tuple[Regex, ...]:
        return (self.body,)

    def _key(self):
        return (self.body, self.lo, self.hi)

    def __repr__(self) -> str:
        return f"Rep({self.body!r}, {self.lo}, {self.hi})"


class Anchor(Regex):
    """Zero-width anchor: ``^`` (start of text) or ``$`` (end of text)."""

    START = "^"
    END = "$"

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        if kind not in (self.START, self.END):
            raise ValueError(f"unknown anchor {kind!r}")
        object.__setattr__(self, "kind", kind)

    def __setattr__(self, name, value):
        raise AttributeError("Regex nodes are immutable")

    def _key(self):
        return (self.kind,)

    def __repr__(self) -> str:
        return f"Anchor({self.kind!r})"


def seq(*parts: Regex) -> Regex:
    """Concatenate, flattening nested Seqs and dropping Emptys."""
    flat = []
    for part in parts:
        if isinstance(part, Seq):
            flat.extend(part.parts)
        elif not isinstance(part, Empty):
            flat.append(part)
    if not flat:
        return Empty()
    if len(flat) == 1:
        return flat[0]
    return Seq(flat)


def alt(*branches: Regex) -> Regex:
    """Alternate, flattening nested Alts and deduplicating branches."""
    flat = []
    for branch in branches:
        parts = branch.branches if isinstance(branch, Alt) else (branch,)
        for part in parts:
            if part not in flat:
                flat.append(part)
    if not flat:
        raise ValueError("alt() needs at least one branch")
    if len(flat) == 1:
        return flat[0]
    return Alt(flat)


def literal(text: str) -> Regex:
    """The regex matching ``text`` exactly."""
    if not text:
        return Empty()
    return seq(*(Lit(CharClass.of_char(c)) for c in text))


def opt(body: Regex) -> Regex:
    """``R?`` as bounded repetition {0,1}."""
    return Rep(body, 0, 1)


def plus(body: Regex) -> Regex:
    """``R+`` as R followed by R*."""
    return seq(body, Star(body))
