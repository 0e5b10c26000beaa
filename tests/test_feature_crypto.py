import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipp.feature_crypto import (
    EncryptedFeature,
    ParamsMismatchError,
    encrypt_feature_pair,
    feature_from_text,
    feature_to_text,
    recover_sums,
)
from mipp.group_crypto import DegenerateRingError, gen_group_params


@pytest.fixture(scope="module")
def params():
    return gen_group_params(32, b"feature-tests")


def test_recover_sums_fixture(params):
    enc = encrypt_feature_pair(params, [2, 3, 4], b"s")
    assert recover_sums(params, enc) == (9, 29)  # 2+3+4, 4+9+16


def test_recover_sums_constant_vector(params):
    enc = encrypt_feature_pair(params, [5, 5, 5], b"s")
    assert recover_sums(params, enc) == (15, 75)


def test_zero_vector(params):
    enc = encrypt_feature_pair(params, [0, 0, 0], b"s")
    assert recover_sums(params, enc) == (0, 0)


def test_short_vector_rejected(params):
    with pytest.raises(DegenerateRingError):
        encrypt_feature_pair(params, [1, 2], b"s")


PARAMS_128 = gen_group_params(128, b"feature-tests-128")


@settings(max_examples=50, deadline=None)
@given(f=st.lists(st.integers(0, 2**40), min_size=3, max_size=80), seed=st.binary(max_size=8))
def test_recovered_sums_are_exact_for_wide_entries(f, seed):
    # squares reach 2^80, far beyond any fixed-width integer
    feature = encrypt_feature_pair(PARAMS_128, f, seed)
    assert recover_sums(PARAMS_128, feature) == (sum(f), sum(v * v for v in f))


def test_square_sum_overflow_rejected():
    tiny = gen_group_params(16, b"tiny")  # p just above 2^16
    values = [255, 255, 255]  # sum 765 < p but sum of squares 195075 >= p
    assert sum(v * v for v in values) >= tiny.p
    with pytest.raises(ValueError):
        encrypt_feature_pair(tiny, values, b"s")


def test_reencryption_leaves_sums_unchanged(params):
    rng = random.Random(42)
    for trial in range(50):
        f = [rng.randint(0, 255) for _ in range(rng.randint(3, 20))]
        a = encrypt_feature_pair(params, f, f"seed-a-{trial}")
        b = encrypt_feature_pair(params, f, f"seed-b-{trial}")
        assert a.ef != b.ef and a.eff != b.eff
        assert recover_sums(params, a) == recover_sums(params, b)


def test_companions_use_independent_blinding(params):
    # same plaintext for both halves, so equal ciphertexts would reveal
    # shared randomness between the ef and eff passes
    enc = encrypt_feature_pair(params, [1, 1, 1], b"independent")
    assert enc.ef != enc.eff


def test_cauchy_schwarz_on_recovered_sums(params):
    rng = random.Random(7)
    for trial in range(100):
        f = [rng.randint(0, 255) for _ in range(rng.randint(3, 12))]
        s1, s2 = recover_sums(params, encrypt_feature_pair(params, f, str(trial)))
        assert len(f) * s2 >= s1 * s1


def test_ciphertexts_differ_elementwise_for_equal_plaintexts(params):
    a = encrypt_feature_pair(params, [9, 9, 9, 9], b"x")
    b = encrypt_feature_pair(params, [9, 9, 9, 9], b"y")
    assert all(ca != cb for ca, cb in zip(a.ef, b.ef))


def test_params_mismatch_detected(params):
    other = gen_group_params(32, b"other-params")
    enc = encrypt_feature_pair(params, [2, 3, 4], b"s")
    with pytest.raises(ParamsMismatchError):
        recover_sums(other, enc)


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        EncryptedFeature(ef=(1, 2, 3), eff=(1, 2), params_id="deadbeef")


def test_text_roundtrip(params):
    enc = encrypt_feature_pair(params, [7, 1, 200, 33], b"roundtrip")
    text = feature_to_text(enc)
    assert text.startswith("MIPP-EFT-1 params=")
    assert len(text.strip().splitlines()) == 3
    assert feature_from_text(text) == enc


@pytest.mark.parametrize("text, message", [
    ("MIPP-EFT-1\n1,2\n3,4\n", "missing params id in header"),
    ("MIPP-EFT-1 params=ab\n1,x\n3,4\n", "non-decimal ciphertext entry"),
], ids=["no-params-id", "non-decimal-entry"])
def test_a_malformed_feature_file_is_refused(text, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        feature_from_text(text)


def test_text_rejects_malformed(params):
    enc = encrypt_feature_pair(params, [7, 1, 200], b"bad")
    text = feature_to_text(enc)
    with pytest.raises(ValueError):
        feature_from_text(text.replace("MIPP-EFT-1", "NOPE"))
    with pytest.raises(ValueError):
        feature_from_text(text + "1,2,3\n")
