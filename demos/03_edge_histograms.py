"""Extract edge-histogram features from a few synthetic textures.

The image is cut into a 4x4 grid; each sub-image contributes five bins
counting its vertical, horizontal, diagonal and non-directional edge
blocks, quantized to 0..255.  80 integers total.
"""

import numpy as np

from mipp import extract_ehd
from mipp.ehd_features import EDGE_TYPES


def describe(name, img):
    f = extract_ehd(img)
    per_type = f.reshape(16, 5).sum(axis=0)
    print(f"{name:22s} total mass {f.sum():6d}  " +
          "  ".join(f"{t[:4]}={v:5d}" for t, v in zip(EDGE_TYPES, per_type)))
    return f


flat = np.full((64, 64), 128, dtype=np.uint8)
stripes_v = np.tile(np.array([[0, 255]], dtype=np.uint8), (64, 32))
stripes_h = np.tile(np.array([[0], [255]], dtype=np.uint8), (32, 64))
checker = np.tile(np.array([[0, 255], [255, 0]], dtype=np.uint8), (32, 32))
noise = np.random.default_rng(3).integers(0, 256, size=(64, 64), dtype=np.uint8)

describe("flat gray", flat)
f_v = describe("vertical stripes", stripes_v)
describe("horizontal stripes", stripes_h)
describe("checkerboard", checker)
describe("uniform noise", noise)

print(f"\nvertical stripe vector, first sub-image bins: {f_v[:5].tolist()}")
print(f"squared companion, first sub-image:             {(f_v[:5] ** 2).tolist()}")
print("the squared vector is what gets encrypted alongside the feature;")
print("only the two totals ever become visible to the cloud.")
