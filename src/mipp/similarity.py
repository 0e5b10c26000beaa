"""Distance functions used on plaintext features and recovered sums.

``euc_dis`` is the ordinary Euclidean distance.  ``new_dis`` replaces its
cross term with the product of the two vector means, which makes it a
function of only (sum, sum of squares) per vector; that is what lets the
encrypted-domain ``sim_from_sums`` reproduce it exactly from the index and
what stops the cloud learning entrywise similarity.  new_dis is not a
metric: a vector generally has nonzero distance to itself.

Rankings are compared on the integer quantity l*(s2a + s2b) - 2*s1a*s1b
(the radicand scaled by the dimension) so ordering never depends on float
rounding.  ``top_h`` ranks a column of such sums in one numpy pass: it
computes every row's key, finds the h-th smallest with ``np.partition``,
keeps every row at or below it and sorts those by a stable argsort, so
equal keys keep their positions' order.  The keys are int64, which is
exact for the cloud's rows: an edge histogram has 80 entries in [0, 255],
so 0 <= s1 <= 20,400 and 0 <= s2 <= 5,202,000 and every key lies within
+-8.33e8, and the cloud refuses sums outside that range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


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


def top_h(query: SumPair, s1: np.ndarray, s2: np.ndarray, h: int) -> list[tuple[int, int]]:
    """The h smallest (rank_key, position) over int64 columns ``s1`` and
    ``s2`` of sums of dimension ``query.l``; like ``sorted(...)[:h]``, equal
    keys go by position.  Keys must fit in int64."""
    keys = query.l * (query.s2 + s2) - 2 * query.s1 * s1
    if h < len(keys):
        kth = np.partition(keys, h - 1)[h - 1]
        candidates = np.flatnonzero(keys <= kth)
    else:
        candidates = np.arange(len(keys))
    winners = candidates[np.argsort(keys[candidates], kind="stable")[:h]]
    return list(zip(keys[winners].tolist(), winners.tolist()))
