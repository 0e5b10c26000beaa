import re

import numpy as np
import pytest

from mipp.image_cipher import (
    KeyLengthError,
    image_dec,
    image_enc,
    keygen,
    read_pgm,
    write_pgm,
)
from mipp.rng import ByteStream


def random_image(rng, max_side=64):
    m = rng.integers(1, max_side + 1)
    n = rng.integers(1, max_side + 1)
    return rng.integers(0, 256, size=(m, n), dtype=np.uint8)


def test_keygen_deterministic():
    a = keygen(4, b"seed-A")
    b = keygen(4, b"seed-A")
    assert a == b
    assert len(a) == 4


def test_keygen_seed_sensitivity():
    rng = np.random.default_rng(1)
    for _ in range(100):
        s1, s2 = rng.bytes(8), rng.bytes(8)
        if s1 == s2:
            continue
        assert keygen(4, s1) != keygen(4, s2)


def test_keygen_is_the_keygen_128_stream():
    # the label stays the one keystreams were first drawn under, and a
    # shorter key is a prefix of a longer one
    assert keygen(16, b"s") == ByteStream(b"s", b"keygen-128").take(16)
    assert keygen(5, b"s") == keygen(16, b"s")[:5]


def test_keygen_zero_length_rejected():
    with pytest.raises(KeyLengthError):
        keygen(0, b"seed")


def test_zero_keystream_is_identity():
    img = np.arange(64, dtype=np.uint8).reshape(8, 8)
    assert np.array_equal(image_enc(b"\x00" * 64, img), img)


def test_known_xor_value():
    img = np.full((1, 1), 0xAB, dtype=np.uint8)
    out = image_enc(b"\xff", img)
    assert out[0, 0] == 0x54


def test_all_zero_ciphertext_reveals_key():
    sk = keygen(12, b"k")
    zero = np.zeros((3, 4), dtype=np.uint8)
    assert image_dec(sk, zero).tobytes() == sk


def test_roundtrip_and_dimensions():
    rng = np.random.default_rng(7)
    for _ in range(50):
        img = random_image(rng)
        sk = keygen(img.size, rng.bytes(8))
        ew = image_enc(sk, img)
        assert ew.shape == img.shape
        assert np.array_equal(image_dec(sk, ew), img)


def test_enc_dec_are_the_same_function():
    rng = np.random.default_rng(9)
    img = random_image(rng)
    sk = keygen(img.size, b"same")
    assert np.array_equal(image_enc(sk, img), image_dec(sk, img))


def test_wrong_key_does_not_decrypt():
    rng = np.random.default_rng(11)
    for trial in range(100):
        img = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
        k1 = keygen(img.size, b"right-%d" % trial)
        k2 = keygen(img.size, b"wrong-%d" % trial)
        assert k1 != k2
        assert not np.array_equal(image_dec(k2, image_enc(k1, img)), img)


def test_short_keystream_rejected():
    img = np.zeros((4, 4), dtype=np.uint8)
    with pytest.raises(KeyLengthError):
        image_enc(b"\x00" * 15, img)


def test_ciphertext_histogram_near_uniform():
    # constant plaintext, pseudorandom keystream: byte histogram should be
    # flat.  Chi-square with 255 dof; 400 is a deliberately loose cutoff
    # (99.9th percentile is ~330).
    img = np.full((256, 256), 200, dtype=np.uint8)
    sk = keygen(img.size, b"histogram")
    ew = image_enc(sk, img)
    counts = np.bincount(ew.ravel(), minlength=256)
    expected = img.size / 256
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 400


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    img = random_image(rng)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back, encrypted = read_pgm(path)
    assert np.array_equal(back, img)
    assert not encrypted


def test_pgm_encrypted_flag(tmp_path):
    img = np.zeros((2, 3), dtype=np.uint8)
    path = tmp_path / "enc.pgm"
    write_pgm(path, img, encrypted=True)
    raw = path.read_bytes()
    assert b"# MIPP-ENC" in raw
    back, encrypted = read_pgm(path)
    assert encrypted
    assert np.array_equal(back, img)


@pytest.mark.parametrize("data, message", [
    (b"P5\n# no end", "unterminated comment"),
    (b"P5\n4 x\n255\n", "bad PGM header token"),
    (b"P5\n1 1\n65535\n\0\0", "only maxval 255 supported"),
], ids=["unterminated-comment", "non-numeric-token", "maxval-not-255"])
def test_a_pgm_header_fault_names_the_file(tmp_path, data, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
        read_pgm(path)


def test_pgm_rejects_garbage(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n1 1\n255\nxxx")
    with pytest.raises(ValueError):
        read_pgm(path)
    path.write_bytes(b"P5\n4 4\n255\nshort")
    with pytest.raises(ValueError):
        read_pgm(path)
