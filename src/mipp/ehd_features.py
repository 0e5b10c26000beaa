"""Edge-histogram texture features for grayscale images.

The geometry is fixed, as in the MPEG-7 edge histogram: the image is split
into a 4x4 grid of cells, and inside each cell every aligned 2x2 block
[[a, b], [c, d]] is pushed through five directional filters (vertical,
horizontal, 45 degree, 135 degree, non-directional); the largest response
wins if it clears the edge threshold 11.  Each cell yields five bins
counting its edge types, quantized to 0..255, giving an 80-dimensional
integer vector.  Integer bins keep the vectors valid secure-sum plaintexts.

Blocks are scored in exact integers by their squared responses
(a-b+c-d)^2, (a+b-c-d)^2, 2(a-d)^2, 2(b-c)^2 and 4(a-b-c+d)^2 against
11^2, ties going to the earlier filter.  On uint8 pixels this decides as
the real-valued filters do: a diagonal response sqrt(2)*k never equals an
integer response j > 0 or the threshold, and when the two diagonals tie
(|a-d| = |b-c| = k > 0) the vertical or horizontal response is 2k and wins.

Which pixels form blocks, and which cell each block counts in, depends only
on the image's shape; ``_geometry`` derives it once per shape and keeps it
in a bounded cache as read-only arrays.
"""

from __future__ import annotations

import functools

import numpy as np

EDGE_TYPES = ("vertical", "horizontal", "diag45", "diag135", "nondirectional")
GRID = 4
EDGE_THRESHOLD = 11
BIN_MAX = 255  # the largest bin value
FEATURE_DIMS = GRID * GRID * len(EDGE_TYPES)
_NO_EDGE = len(EDGE_TYPES)
_SLOTS = _NO_EDGE + 1  # per cell: one count per edge type, then the blocks with no edge


class ImageTooSmallError(ValueError):
    """Image cannot host at least one 2x2 block per cell."""


def _block_axis(length: int) -> tuple[np.ndarray, np.ndarray]:
    """Both pixel positions of every whole block along one axis, and its cell.

    Cells start at ``length // GRID * c`` and the last one takes the
    remainder; blocks tile each cell from its start, so an odd pixel left at
    a cell's end belongs to no block.
    """
    step = length // GRID
    pos = np.arange(length - 1)
    cell = np.minimum(pos // step, GRID - 1)
    offset = pos - cell * step
    size = np.where(cell == GRID - 1, length - (GRID - 1) * step, step)
    first = (offset % 2 == 0) & (offset + 1 < size)
    return np.stack([pos[first], pos[first] + 1], axis=1).ravel(), cell[first]


@functools.lru_cache(maxsize=64)
def _geometry(m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For an m x n image: the block rows' and columns' pixel positions,
    each block's first count slot (its cell times ``_SLOTS``), and every
    cell's block count as a column; all read-only."""
    rows, row_cell = _block_axis(m)
    cols, col_cell = _block_axis(n)
    slot = (row_cell[:, None] * GRID + col_cell) * _SLOTS
    blocks = np.outer(np.bincount(row_cell, minlength=GRID),
                      np.bincount(col_cell, minlength=GRID)).reshape(-1, 1)
    for array in (rows, cols, slot, blocks):
        array.flags.writeable = False
    return rows, cols, slot, blocks


def extract_ehd(img: np.ndarray) -> np.ndarray:
    """Extract the edge histogram of a uint8 image as int64 bins in [0, 255]."""
    arr = np.asarray(img)
    if arr.ndim != 2 or arr.dtype != np.uint8:
        raise ValueError("image must be a 2-D uint8 array")
    m, n = arr.shape
    if m < 2 * GRID or n < 2 * GRID:
        raise ImageTooSmallError(
            f"{m}x{n} image too small for a {GRID}x{GRID} grid of 2x2 blocks"
        )

    rows, cols, slot, blocks = _geometry(m, n)
    px = arr.take(rows, axis=0).take(cols, axis=1).astype(np.int32)
    a, b, c, d = px[0::2, 0::2], px[0::2, 1::2], px[1::2, 0::2], px[1::2, 1::2]
    ad, bc = a - d, b - c
    scores = (
        (ad - bc) ** 2, (ad + bc) ** 2, 2 * ad**2, 2 * bc**2, 4 * (a - b - c + d) ** 2
    )
    # a filter wins where it beats the threshold and every earlier filter
    best = np.full(a.shape, EDGE_THRESHOLD**2, dtype=np.int32)
    kind = np.full(a.shape, _NO_EDGE, dtype=np.int8)
    for k, score in enumerate(scores):
        kind = np.where(score > best, k, kind)
        best = np.maximum(best, score)

    counts = np.bincount((slot + kind).ravel(), minlength=GRID * GRID * _SLOTS)
    return (BIN_MAX * counts.reshape(-1, _SLOTS)[:, :_NO_EDGE] // blocks).ravel()
