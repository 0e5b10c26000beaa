"""Keystream generation and XOR encryption of 8-bit grayscale images.

An image is a 2-D uint8 array (height M, width N).  Encryption XORs pixel
(j, k) with keystream byte j*N + k, so decryption is the same operation.
One keystream covers every image of its holder, always indexed from byte 0;
reusing a stream across images therefore behaves like a two-time pad against
anyone holding two ciphertexts, which is how the scheme is defined and is
flagged in the README.

Images travel as binary PGM (magic P5, maxval 255); encrypted files carry a
``# MIPP-ENC`` comment so tooling can tell the two apart.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .rng import ByteStream

ENC_COMMENT = "MIPP-ENC"
KEYGEN_LABEL = b"keygen-128"  # KeyGen's one security parameter, k = 128


class KeyLengthError(ValueError):
    """Keystream missing or too short for the image it must cover."""


def keygen(required_len: int, seed: bytes | str) -> bytes:
    """Derive a keystream of ``required_len`` bytes from ``seed``.

    Deterministic in ``seed`` (the stream is labelled ``KEYGEN_LABEL``), and
    a shorter key is a prefix of a longer one; production use requires the
    seed itself to come from a cryptographic entropy source.
    """
    if required_len < 1:
        raise KeyLengthError("keystream length must be >= 1")
    return ByteStream(seed, KEYGEN_LABEL).take(required_len)


def _check_image(img: np.ndarray) -> np.ndarray:
    arr = np.asarray(img)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("image must be a non-empty 2-D array")
    if arr.dtype != np.uint8:
        raise ValueError("image pixels must be uint8")
    return arr


def image_enc(sk: bytes, w: np.ndarray) -> np.ndarray:
    """XOR-encrypt image ``w`` with keystream ``sk`` (from offset 0)."""
    arr = _check_image(w)
    m, n = arr.shape
    if len(sk) < m * n:
        raise KeyLengthError(f"keystream of {len(sk)} bytes < {m}x{n} image")
    pad = np.frombuffer(sk, dtype=np.uint8, count=m * n).reshape(m, n)
    return np.bitwise_xor(arr, pad)


def image_dec(sk: bytes, ew: np.ndarray) -> np.ndarray:
    """Decrypt: XOR is an involution, so this is image_enc again."""
    return image_enc(sk, ew)


def write_pgm(path: str | Path, img: np.ndarray, encrypted: bool = False) -> None:
    """Write a binary PGM; encrypted images get the MIPP-ENC comment."""
    arr = _check_image(img)
    m, n = arr.shape
    header = ["P5"]
    if encrypted:
        header.append(f"# {ENC_COMMENT}")
    header.append(f"{n} {m}")
    header.append("255")
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        fh.write(arr.tobytes())


def read_pgm(path: str | Path) -> tuple[np.ndarray, bool]:
    """Read a binary PGM; returns (image, is_encrypted)."""
    data = Path(path).read_bytes()
    if not data.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM (P5) file")
    pos = 2
    fields: list[int] = []
    encrypted = False
    while len(fields) < 3:
        if pos >= len(data):
            raise ValueError(f"{path}: truncated PGM header")
        ch = data[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            end = data.find(b"\n", pos)
            if end == -1:
                raise ValueError(f"{path}: unterminated comment")
            if ENC_COMMENT.encode() in data[pos:end]:
                encrypted = True
            pos = end + 1
        else:
            end = pos
            while end < len(data) and not data[end : end + 1].isspace():
                end += 1
            try:
                fields.append(int(data[pos:end]))
            except ValueError as exc:
                raise ValueError(f"{path}: bad PGM header token") from exc
            pos = end
    width, height, maxval = fields
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 supported")
    pos += 1  # single whitespace after maxval
    raster = data[pos : pos + width * height]
    if len(raster) != width * height:
        raise ValueError(f"{path}: raster size mismatch")
    img = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    return img.copy(), encrypted
