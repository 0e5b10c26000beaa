"""Distance functions used on plaintext features and recovered sums.

``euc_dis`` is the ordinary Euclidean distance.  ``new_dis`` replaces its
cross term with the product of the two vector means, which makes it a
function of only (sum, sum of squares) per vector; that is what lets the
encrypted-domain ``sim_from_sums`` reproduce it exactly from the index and
what stops the cloud learning entrywise similarity.  new_dis is not a
metric: a vector generally has nonzero distance to itself.

Rankings are compared on the integer quantity l*(s2a + s2b) - 2*s1a*s1b
(the radicand scaled by the dimension) so ordering never depends on float
rounding; ``top_h`` ranks index rows by it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Sequence


class CorruptedSumsError(ValueError):
    """Negative radicand: impossible for genuine sums of real vectors."""


@dataclass(frozen=True)
class SumPair:
    """The two recovered sums of one feature vector of dimension ``l``."""

    s1: int
    s2: int
    l: int

    @classmethod
    def from_vector(cls, v: Sequence[int]) -> "SumPair":
        values = [int(x) for x in v]
        return cls(s1=sum(values), s2=sum(x * x for x in values), l=len(values))

    def is_consistent(self) -> bool:
        """Cauchy-Schwarz check s2 >= s1^2 / l; false flags corruption."""
        return self.l >= 1 and self.l * self.s2 >= self.s1 * self.s1


def euc_dis(x: Sequence[int], y: Sequence[int]) -> float:
    """Euclidean distance between two equal-length vectors."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return math.sqrt(sum((int(a) - int(b)) ** 2 for a, b in zip(x, y)))


def new_dis(x: Sequence[int], y: Sequence[int]) -> float:
    """Mean-product distance; depends on the vectors only through sums."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 1:
        raise ValueError("vectors must be non-empty")
    return sim_from_sums(SumPair.from_vector(x), SumPair.from_vector(y))


def sim_from_sums(a: SumPair, b: SumPair) -> float:
    """Evaluate the distance from two recovered sum pairs."""
    radicand = rank_key(a, b)
    if radicand < 0:
        raise CorruptedSumsError(
            f"negative radicand {radicand}: sums are not from genuine vectors"
        )
    return math.sqrt(radicand / a.l)


def rank_key(a: SumPair, b: SumPair) -> int:
    """Exact integer ordering key: the squared distance scaled by l."""
    if a.l != b.l:
        raise ValueError(f"dimension mismatch: {a.l} vs {b.l}")
    return a.l * (a.s2 + b.s2) - 2 * a.s1 * b.s1


def top_h(query: SumPair, rows: Iterable[tuple], h: int) -> list[tuple[int, str, str]]:
    """The h smallest (rank_key, owner_id, image_id) over (owner_id, image_id,
    s1, s2) rows of dimension ``query.l``; like ``sorted(...)[:h]``, equal keys
    go by (owner id, image id)."""
    l, qs1, qs2 = query.l, query.s1, query.s2
    keys = ((l * (qs2 + s2) - 2 * qs1 * s1, o, i) for o, i, s1, s2 in rows)
    return heapq.nsmallest(h, keys)
