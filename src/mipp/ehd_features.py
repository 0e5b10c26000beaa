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

The decision is one maximum over packed keys 8*score + tag, starting from
the threshold's key 8*121 + 7; the other tags are vertical 6, horizontal 5,
45 degree 4, 135 degree 3 and non-directional 2.  A larger score gives a
larger key, and equal scores fall to the larger tag: the earlier filter, or
the threshold over a filter scoring 121.  No key exceeds 8*4*510^2+2 < 2^31.

Which pixels form blocks, and which cell each block counts in, depends only
on the image's shape; ``_geometry`` derives it once per shape and keeps it
in a bounded cache as read-only arrays of O(m + n) size.
"""

from __future__ import annotations

import functools

import numpy as np

EDGE_TYPES = ("vertical", "horizontal", "diag45", "diag135", "nondirectional")
GRID = 4
EDGE_THRESHOLD = 11
BIN_MAX = 255  # the largest bin value
FEATURE_DIMS = GRID * GRID * len(EDGE_TYPES)
_SLOTS = 8  # per cell: one count per key tag, so a key's tag is its low three bits
_TAGS = (6, 5, 4, 3, 2)  # one per edge type, in EDGE_TYPES order


class ImageTooSmallError(ValueError):
    """Image cannot host at least one 2x2 block per cell."""


def _block_axis(length: int) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's run of whole blocks along one axis, (start, stop), and block count.

    Cells start at ``length // GRID * c`` and the last one takes the
    remainder; blocks tile each cell from its start, so an odd pixel left at
    a cell's end belongs to no block.
    """
    step = length // GRID
    start = np.arange(GRID) * step
    blocks = np.append(np.full(GRID - 1, step), length - (GRID - 1) * step) // 2
    return np.stack([start, start + 2 * blocks], axis=1), blocks


@functools.lru_cache(maxsize=64)
def _geometry(m: int, n: int) -> tuple[np.ndarray, ...]:
    """For an m x n image, all read-only: the rows that blocks cover, the column
    runs of whole blocks (copied as slices, since ``take`` along a row moves one
    pixel at a time), each block row's and block column's part of its cell's
    first count slot, and every cell's block count as a column."""
    (row_runs, row_blocks), (col_runs, col_blocks) = _block_axis(m), _block_axis(n)
    rows = np.concatenate([np.arange(start, stop) for start, stop in row_runs])
    row_slot = np.repeat(np.arange(GRID, dtype=np.int32) * GRID * _SLOTS, row_blocks)[:, None]
    col_slot = np.repeat(np.arange(GRID, dtype=np.int32) * _SLOTS, col_blocks)
    blocks = np.outer(row_blocks, col_blocks).reshape(-1, 1)
    geometry = (rows, col_runs, row_slot, col_slot, blocks)
    for array in geometry:
        array.flags.writeable = False
    return geometry


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

    rows, col_runs, row_slot, col_slot, blocks = _geometry(m, n)
    px = arr.take(rows, axis=0)
    px = np.concatenate([px[:, start:stop] for start, stop in col_runs], axis=1)
    quads = px.reshape(len(row_slot), 2, -1, 2).transpose(1, 3, 0, 2).astype(np.int32, order="C")
    # each block's four pixels; the responses overwrite them in place, within the cache
    (a, b), (c, d) = quads
    nondirectional = a - b - c + d
    a -= d  # 45 degree
    b -= c  # 135 degree
    np.subtract(a, b, out=c)  # vertical
    np.add(a, b, out=d)  # horizontal
    key = np.full_like(a, _SLOTS * EDGE_THRESHOLD**2 + _SLOTS - 1)  # the threshold's key
    for response, weight, tag in zip((c, d, a, b, nondirectional), (1, 1, 2, 2, 4), _TAGS):
        response *= response
        response *= _SLOTS * weight
        response += tag
        np.maximum(key, response, out=key)
    key &= _SLOTS - 1
    key += row_slot + col_slot
    counts = np.bincount(key.ravel(), minlength=GRID * GRID * _SLOTS).reshape(-1, _SLOTS)
    return (BIN_MAX * counts[:, _TAGS] // blocks).ravel()
