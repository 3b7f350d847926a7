"""Common engine interface and match results.

Every engine in this reproduction — BitGen and the three baselines —
compiles a pattern set once and then matches byte streams, reporting
*all-match* end positions per pattern (Section 2), so outputs are
directly comparable across engines.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Sequence


@dataclass
class MatchResult:
    """Per-pattern match end positions for one input stream."""

    pattern_count: int
    ends: Dict[int, List[int]] = field(default_factory=dict)

    def __post_init__(self):
        # dense: every pattern owns a (possibly empty) list of its own,
        # which the baseline engines append to.  BitGenResult keeps
        # only the matched patterns and serves this view on access.
        if not self.ends:
            self.ends = {index: [] for index in range(self.pattern_count)}
        else:
            for index in range(self.pattern_count):
                self.ends.setdefault(index, [])

    def match_count(self) -> int:
        return sum(len(v) for v in self.ends.values())

    def matched_patterns(self) -> List[int]:
        return [index for index, ends in sorted(self.ends.items()) if ends]

    def same_matches(self, other: "MatchResult") -> bool:
        if self.pattern_count != other.pattern_count:
            return False
        mine, theirs = self.ends, other.ends
        return all(sorted(set(mine[i])) == sorted(set(theirs[i]))
                   for i in range(self.pattern_count))


class Engine(abc.ABC):
    """A compiled multi-pattern matcher."""

    name: str = "engine"

    @abc.abstractmethod
    def match(self, data: bytes) -> MatchResult:
        """Match all compiled patterns against ``data``."""

    @classmethod
    @abc.abstractmethod
    def compile(cls, patterns: Sequence[str], **options) -> "Engine":
        """Compile a pattern set."""
