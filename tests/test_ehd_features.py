import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipp import ehd_features
from mipp.ehd_features import (
    BIN_MAX,
    EDGE_THRESHOLD,
    EDGE_TYPES,
    FEATURE_DIMS,
    GRID,
    ImageTooSmallError,
    extract_ehd,
)


def vertical_stripes(m, n, phase=0):
    cols = (np.arange(n) + phase) % 2
    return np.broadcast_to(cols * 255, (m, n)).astype(np.uint8)


def filter_bank_oracle(block):
    """Direct evaluation of the five filters on one 2x2 block."""
    a00, a01, a10, a11 = block
    s2 = math.sqrt(2)
    return [
        abs(a00 - a01 + a10 - a11),
        abs(a00 + a01 - a10 - a11),
        abs(s2 * a00 - s2 * a11),
        abs(s2 * a01 - s2 * a10),
        abs(2 * a00 - 2 * a01 - 2 * a10 + 2 * a11),
    ]


def test_constant_image_has_empty_histogram():
    img = np.full((32, 32), 77, dtype=np.uint8)
    assert np.array_equal(extract_ehd(img), np.zeros(FEATURE_DIMS, dtype=np.int64))


def test_vertical_stripes_fill_only_vertical_bins():
    # one macro-block of the stripe image is [[0,255],[0,255]]; the oracle
    # says the vertical filter wins there, and the image tiles that block
    responses = filter_bank_oracle([0, 255, 0, 255])
    assert responses.index(max(responses)) == EDGE_TYPES.index("vertical")
    assert max(responses) > 11

    f = extract_ehd(vertical_stripes(32, 32))
    f = f.reshape(16, 5)
    assert np.all(f[:, 0] == 255)  # every sub-image: all blocks vertical
    assert np.all(f[:, 1:] == 0)


def test_output_length_is_80():
    rng = np.random.default_rng(3)
    for _ in range(5):
        img = rng.integers(0, 256, size=(rng.integers(8, 64), rng.integers(8, 64)), dtype=np.uint8)
        assert extract_ehd(img).shape == (80,)


def test_too_small_image_rejected():
    img = np.zeros((7, 12), dtype=np.uint8)
    with pytest.raises(ImageTooSmallError):
        extract_ehd(img)


@pytest.mark.parametrize("dtype", [np.float64, np.uint16, np.int64])
def test_non_uint8_image_rejected(dtype):
    # the integer filter scores are exact, and fit int32, for uint8 pixels only
    with pytest.raises(ValueError, match="uint8"):
        extract_ehd(np.full((16, 16), 300, dtype=dtype))


def test_translation_by_one_period_is_invariant():
    a = vertical_stripes(40, 40, phase=0)
    b = vertical_stripes(40, 40, phase=2)
    assert np.array_equal(a, b)  # full-period shift reproduces the texture
    assert np.array_equal(extract_ehd(a), extract_ehd(b))


def test_determinism():
    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, size=(48, 48), dtype=np.uint8)
    assert np.array_equal(extract_ehd(img), extract_ehd(img.copy()))


def test_quantization_bounds():
    rng = np.random.default_rng(6)
    for _ in range(20):
        img = rng.integers(0, 256, size=(33, 47), dtype=np.uint8)
        f = extract_ehd(img)
        assert f.min() >= 0 and f.max() <= 255
        assert f.sum() <= 80 * 255
        assert sum(int(v) ** 2 for v in f) <= 80 * 255 * 255


def test_remainder_pixels_go_to_last_subimage():
    # 10 rows: sub-heights 2,2,2,4; the tall last band still gets blocks
    img = vertical_stripes(10, 10)
    f = extract_ehd(img).reshape(16, 5)
    assert np.all(f[:, 0] == 255)


def test_nondirectional_checker_pattern():
    block = [0, 255, 255, 0]
    responses = filter_bank_oracle(block)
    assert responses.index(max(responses)) == EDGE_TYPES.index("nondirectional")
    tile = np.array([[0, 255], [255, 0]], dtype=np.uint8)
    img = np.tile(tile, (16, 16))
    f = extract_ehd(img).reshape(16, 5)
    assert np.all(f[:, 4] == 255)
    assert np.all(f[:, :4] == 0)


def test_threshold_suppresses_weak_edges():
    img = np.zeros((16, 16), dtype=np.uint8)
    img[:, 1::2] = 5  # vertical response 10, just under the default 11
    assert extract_ehd(img).sum() == 0
    img[:, 1::2] = 6  # vertical response 12, just over it
    f = extract_ehd(img).reshape(16, 5)
    assert np.all(f[:, 0] == 255)
    assert np.all(f[:, 1:] == 0)


_SQRT2 = math.sqrt(2.0)
_FLOAT_FILTERS = np.array(
    [
        [1.0, -1.0, 1.0, -1.0],
        [1.0, 1.0, -1.0, -1.0],
        [_SQRT2, 0.0, 0.0, -_SQRT2],
        [0.0, _SQRT2, -_SQRT2, 0.0],
        [2.0, -2.0, -2.0, 2.0],
    ]
)


def per_cell_float_ehd(img):
    """The earlier implementation: a loop over the 16 cells, float filters."""
    m, n = img.shape
    sub_h, sub_w = m // 4, n // 4
    bins = np.zeros(80, dtype=np.int64)
    for gr in range(4):
        bottom = (gr + 1) * sub_h if gr < 3 else m
        for gc in range(4):
            right = (gc + 1) * sub_w if gc < 3 else n
            sub = img[gr * sub_h : bottom, gc * sub_w : right].astype(np.float64)
            rows, cols = sub.shape[0] // 2, sub.shape[1] // 2
            view = sub[: rows * 2, : cols * 2].reshape(rows, 2, cols, 2)
            quads = np.stack(
                [view[:, 0, :, 0], view[:, 0, :, 1], view[:, 1, :, 0], view[:, 1, :, 1]],
                axis=-1,
            )
            responses = np.abs(quads @ _FLOAT_FILTERS.T)
            edge = responses.max(axis=2) > 11.0
            counts = np.bincount(responses.argmax(axis=2)[edge], minlength=5)
            base = (gr * 4 + gc) * 5
            bins[base : base + 5] = 255 * counts // (rows * cols)
    return bins


def pixels(kind, shape, rng):
    if kind == "uniform":
        return rng.integers(0, 256, size=shape)
    if kind == "binary":
        return rng.integers(0, 2, size=shape) * 255
    if kind == "few-level":
        return rng.choice(rng.integers(0, 256, size=3), size=shape)
    if kind == "near-threshold":
        return rng.integers(0, 14, size=shape)
    # base plus k times random bits: a quarter of the blocks have
    # |a-d| = |b-c| = k, a tie between the two diagonal filters
    k = int(rng.integers(1, 256))
    return rng.integers(0, 256 - k) + k * rng.integers(0, 2, size=shape)


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(8, 300),
    n=st.integers(8, 300),
    kind=st.sampled_from(["uniform", "binary", "few-level", "near-threshold", "diagonal-tie"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_matches_per_cell_float_filters(m, n, kind, seed):
    img = pixels(kind, (m, n), np.random.default_rng(seed)).astype(np.uint8)
    f = extract_ehd(img)
    assert f.dtype == np.int64
    assert np.array_equal(f, per_cell_float_ehd(img))


def test_geometry_cached_per_shape_gives_the_uncached_bins_and_is_read_only():
    shapes = [(8, 8), (37, 53), (64, 64), (255, 257), (256, 256)]
    rng = np.random.default_rng(11)
    images = [rng.integers(0, 256, size=shape, dtype=np.uint8) for shape in shapes * 3]
    uncached = []
    for img in images:
        ehd_features._geometry.cache_clear()
        uncached.append(extract_ehd(img))
    ehd_features._geometry.cache_clear()
    for img, want in zip(images, uncached):  # the shapes interleave
        assert np.array_equal(extract_ehd(img), want)
    assert ehd_features._geometry.cache_info().misses == len(shapes)
    for shape in shapes:
        for array in ehd_features._geometry(*shape):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = 0


def docstring_scores(a, b, c, d):
    """The module docstring's integer scores of a block, in EDGE_TYPES order."""
    return [(a - b + c - d) ** 2, (a + b - c - d) ** 2, 2 * (a - d) ** 2,
            2 * (b - c) ** 2, 4 * (a - b - c + d) ** 2]


def docstring_rule(a, b, c, d):
    """One block's edge type by the docstring's scores, ties to the earlier filter, or None."""
    scores = docstring_scores(a, b, c, d)
    best = max(scores)
    return scores.index(best) if best > EDGE_THRESHOLD**2 else None


def test_every_tie_and_threshold_case_is_decided_block_by_block():
    # every (a, b, c, d) over an alphabet with responses of exactly 11, diagonal
    # ties, vertical = horizontal and a non-directional response equal to a
    # directional one; an 8x8 image has one block per cell, so each cell's bins
    # name that block's decision
    alphabet = [0, 1, 5, 6, 11, 12, 16, 17, 22, 255]
    quads = np.array(list(itertools.product(alphabet, repeat=4)))
    scores = np.stack(docstring_scores(*quads.T), axis=1)
    edge, best = EDGE_THRESHOLD**2, scores.max(axis=1)
    assert np.any(best == edge)
    assert np.any((scores[:, 2] == scores[:, 3]) & (scores[:, 2] > edge))
    assert np.any((scores[:, 0] == scores[:, 1]) & (scores[:, 0] > edge))
    ties_directional = (scores[:, :2] == best[:, None]).any(axis=1)
    assert np.any((scores[:, 4] == best) & ties_directional & (best > edge))
    images = quads.reshape(-1, GRID, GRID, 2, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 8, 8)
    decided = iter(quads)
    for img in images.astype(np.uint8):
        f = extract_ehd(img)
        assert np.array_equal(f, per_cell_float_ehd(img))
        for cell in f.reshape(GRID * GRID, len(EDGE_TYPES)):
            assert sorted(cell) in ([0] * 5, [0] * 4 + [BIN_MAX])
            want = docstring_rule(*(int(p) for p in next(decided)))
            assert (int(cell.argmax()) if cell.any() else None) == want
    assert next(decided, None) is None


def test_input_layouts_give_the_contiguous_bins():
    rng = np.random.default_rng(12)
    base = rng.integers(0, 256, size=(91, 130), dtype=np.uint8)
    read_only = base.copy()
    read_only.flags.writeable = False
    views = [
        np.asfortranarray(base),
        np.ascontiguousarray(base.T).T,
        base[::-1, ::-1],
        base[1::2, ::3],
        read_only,
    ]
    for view in views:
        before = view.copy()
        f = extract_ehd(view)
        assert f.dtype == np.int64
        assert np.array_equal(f, extract_ehd(np.ascontiguousarray(view)))
        assert np.array_equal(view, before)


def test_geometry_grows_with_the_sides_not_the_area():
    assert sum(array.nbytes for array in ehd_features._geometry(4096, 4096)) < 64 * 1024
