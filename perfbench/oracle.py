"""Plaintext oracle: what every op should have returned, from plaintexts alone.

Features come from ``reference_ehd``, a plain restatement of the 80-bin edge
histogram kept here, so a faster ``extract_ehd`` that changes one bin is
caught instead of being trusted by its own output.  Each check returns a
list of problems; an empty list means the op was correct.
"""

from __future__ import annotations

import math

import numpy as np
from mipp.similarity import SumPair, rank_key

_EDGE_THRESHOLD = 11.0
_ROOT2 = math.sqrt(2.0)
# vertical, horizontal, 45 degree, 135 degree, non-directional; each row
# weighs the 2x2 block pixels (top-left, top-right, bottom-left, bottom-right)
_FILTERS = np.array(
    [
        [1.0, -1.0, 1.0, -1.0],
        [1.0, 1.0, -1.0, -1.0],
        [_ROOT2, 0.0, 0.0, -_ROOT2],
        [0.0, _ROOT2, -_ROOT2, 0.0],
        [2.0, -2.0, -2.0, 2.0],
    ]
)


def reference_ehd(img: np.ndarray) -> tuple[int, ...]:
    """80 bins: per cell of a 4x4 grid, 255 * (2x2 blocks of each edge type) // blocks.

    The last grid row and column absorb the remainder pixels; blocks tile
    each cell from its top-left corner, and a block is an edge when its
    strongest filter response exceeds 11 (ties go to the earlier filter).
    """
    m, n = img.shape
    bins = []
    for gr in range(4):
        rows = slice(gr * (m // 4), m if gr == 3 else (gr + 1) * (m // 4))
        for gc in range(4):
            cols = slice(gc * (n // 4), n if gc == 3 else (gc + 1) * (n // 4))
            cell = img[rows, cols].astype(np.float64)
            h, w = cell.shape[0] // 2 * 2, cell.shape[1] // 2 * 2
            pixels = np.stack(
                [cell[0:h:2, 0:w:2], cell[0:h:2, 1:w:2],
                 cell[1:h:2, 0:w:2], cell[1:h:2, 1:w:2]],
                axis=-1,
            )
            response = np.abs(pixels @ _FILTERS.T)
            edge = response.max(axis=-1) > _EDGE_THRESHOLD
            counts = np.bincount(response.argmax(axis=-1)[edge], minlength=5)
            blocks = (h // 2) * (w // 2)
            bins.extend(255 * int(c) // blocks for c in counts)
    return tuple(bins)


class Catalogue:
    """Plaintext features of every image a store should hold, by (owner, image)."""

    def __init__(self):
        self.features: dict[tuple[str, str], tuple[int, ...]] = {}
        self.sums: dict[tuple[str, str], SumPair] = {}

    def add(self, owner_id: str, image_id: str, feature: tuple[int, ...]) -> None:
        self.features[(owner_id, image_id)] = feature
        self.sums[(owner_id, image_id)] = SumPair.from_vector(feature)

    def remove(self, owner_id: str, image_id: str) -> None:
        del self.features[(owner_id, image_id)]
        del self.sums[(owner_id, image_id)]

    def top_h(self, query: tuple[int, ...], h: int) -> list[tuple[int, str, str]]:
        """(rank key, owner, image) of the h best rows, ties by (owner, image)."""
        q = SumPair.from_vector(query)
        scored = sorted((rank_key(q, s), o, i) for (o, i), s in self.sums.items())
        return scored[:h]

    def gap(self, query: tuple[int, ...], key: tuple[str, str]) -> int:
        return sum((a - b) ** 2 for a, b in zip(query, self.features[key]))

    def user_order(self, query, returned) -> list[tuple[str, str]]:
        """The querying user's local re-rank: plaintext Euclidean, ties by id."""
        return sorted(returned, key=lambda k: (self.gap(query, k), k[0], k[1]))

    def index_rows(self) -> dict[tuple[str, str], tuple[int, int]]:
        return {k: (s.s1, s.s2) for k, s in self.sums.items()}


def check_index(rows: dict[tuple[str, str], tuple[int, int]], catalogue: Catalogue) -> list[str]:
    """Every index row, and no other, must carry the plaintext sums."""
    expected = catalogue.index_rows()
    if rows == expected:
        return []
    missing = sorted(set(expected) - set(rows))[:3]
    extra = sorted(set(rows) - set(expected))[:3]
    wrong = sorted(k for k in set(rows) & set(expected) if rows[k] != expected[k])[:3]
    return [f"index rows differ: missing {missing}, extra {extra}, wrong sums {wrong}"]


def check_session(result, query, catalogue: Catalogue, plain_images, h: int) -> list[str]:
    """An in-memory ``World.run_session`` result against the oracle."""
    if not result.authorized:
        return ["session not authorized"]
    problems = []
    expected = [(o, i) for _, o, i in catalogue.top_h(query, h)]
    if result.returned != expected:
        problems.append(f"returned {result.returned[:3]}... != oracle {expected[:3]}...")
    if set(result.images) != set(result.returned):
        problems.append("delivered images do not match the returned list")
    for key, image in result.images.items():
        plain = plain_images.get(key)
        if plain is None or image.dtype != plain.dtype or not np.array_equal(image, plain):
            problems.append(f"image {key} does not decrypt bit-exact")
            break
    if result.user_ranking != catalogue.user_order(query, result.returned):
        problems.append("user_ranking is not the plaintext Euclidean order")
    return problems


QUERY_HEADER = "user_rank\towner_id\timage_id\tcloud_distance\tlocal_euclidean"


def check_query_tsv(text: str, query, catalogue: Catalogue, h: int) -> list[str]:
    """The TSV printed by ``mipp query`` against the oracle."""
    lines = text.splitlines()
    if not lines or lines[0] != QUERY_HEADER:
        return ["query output has no TSV header"]
    top = catalogue.top_h(query, h)
    distance = {(o, i): f"{math.sqrt(key / len(query)):.4f}" for key, o, i in top}
    expected_rows = [
        f"{rank}\t{o}\t{i}\t{distance[(o, i)]}\t{catalogue.gap(query, (o, i)) ** 0.5:.4f}"
        for rank, (o, i) in enumerate(catalogue.user_order(query, list(distance)), 1)
    ]
    rows = lines[1:]
    if rows == expected_rows:
        return []
    if len(rows) != len(expected_rows):
        return [f"query returned {len(rows)} rows, oracle {len(expected_rows)}"]
    first = next(k for k, (a, b) in enumerate(zip(rows, expected_rows)) if a != b)
    return [f"query row {first + 1} is {rows[first]!r}, oracle {expected_rows[first]!r}"]
