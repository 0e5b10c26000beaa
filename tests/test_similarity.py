import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipp.feature_crypto import encrypt_feature_pair, recover_sums
from mipp.group_crypto import gen_group_params
from mipp.similarity import (
    CorruptedSumsError,
    SumPair,
    euc_dis,
    new_dis,
    rank_key,
    sim_from_sums,
    top_h,
)


def new_dis_oracle(x, y):
    """Direct evaluation of the mean-product distance formula."""
    u = len(x)
    return math.sqrt(
        sum(a * a for a in x) + sum(b * b for b in y) - 2 * sum(x) * sum(y) / u
    )


def test_euc_identity_and_fixture():
    assert euc_dis([1, 2, 3], [1, 2, 3]) == 0.0
    assert euc_dis([1, 2], [3, 4]) == pytest.approx(math.sqrt(8))


def test_euc_symmetry():
    rng = random.Random(1)
    for _ in range(50):
        x = [rng.randint(0, 255) for _ in range(8)]
        y = [rng.randint(0, 255) for _ in range(8)]
        assert euc_dis(x, y) == euc_dis(y, x)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        euc_dis([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        new_dis([1, 2], [1, 2, 3])


def test_new_dis_fixture():
    # sqrt(5 + 25 - 2*3*7/2) = sqrt(9)
    assert new_dis([1, 2], [3, 4]) == pytest.approx(3.0)


def test_new_dis_constant_self_distance_is_zero():
    assert new_dis([6, 6, 6, 6], [6, 6, 6, 6]) == pytest.approx(0.0)


def test_new_dis_nonzero_self_distance():
    # not a metric: identical vectors can be at positive distance
    assert new_dis([1, 0], [1, 0]) == pytest.approx(1.0)


def test_new_dis_symmetry():
    rng = random.Random(2)
    for _ in range(50):
        x = [rng.randint(0, 255) for _ in range(10)]
        y = [rng.randint(0, 255) for _ in range(10)]
        assert new_dis(x, y) == new_dis(y, x)


def test_sim_from_sums_fixture():
    a = SumPair(s1=9, s2=29, l=3)
    assert sim_from_sums(a, a) == pytest.approx(2.0)


def test_sim_zero_vectors():
    z = SumPair(s1=0, s2=0, l=5)
    assert sim_from_sums(z, z) == 0.0


def test_sim_matches_new_dis_oracle_on_encrypted_features():
    params = gen_group_params(32, b"similarity")
    rng = random.Random(3)
    for trial in range(500):
        u = rng.randint(3, 16)
        f = [rng.randint(0, 255) for _ in range(u)]
        q = [rng.randint(0, 255) for _ in range(u)]
        fs = recover_sums(params, encrypt_feature_pair(params, f, f"f{trial}"))
        qs = recover_sums(params, encrypt_feature_pair(params, q, f"q{trial}"))
        got = sim_from_sums(SumPair(*fs, u), SumPair(*qs, u))
        want = new_dis_oracle(f, q)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_radicand_never_negative_for_genuine_vectors():
    rng = random.Random(4)
    for _ in range(300):
        u = rng.randint(3, 12)
        a = SumPair.from_vector([rng.randint(0, 255) for _ in range(u)])
        b = SumPair.from_vector([rng.randint(0, 255) for _ in range(u)])
        assert rank_key(a, b) >= 0


def test_corrupted_sums_raise():
    good = SumPair.from_vector([1, 2, 3])
    bad = SumPair(s1=1000, s2=1, l=3)  # violates Cauchy-Schwarz
    assert not bad.is_consistent()
    with pytest.raises(CorruptedSumsError):
        sim_from_sums(good, bad)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        sim_from_sums(SumPair(1, 1, 3), SumPair(1, 1, 4))


def test_rank_key_orders_like_distance():
    rng = random.Random(5)
    q = SumPair.from_vector([rng.randint(0, 255) for _ in range(8)])
    pairs = [
        SumPair.from_vector([rng.randint(0, 255) for _ in range(8)])
        for _ in range(40)
    ]
    by_key = sorted(range(40), key=lambda i: rank_key(q, pairs[i]))
    by_dist = sorted(range(40), key=lambda i: sim_from_sums(q, pairs[i]))
    # same order wherever distances are not exactly tied
    assert [sim_from_sums(q, pairs[i]) for i in by_key] == pytest.approx(
        [sim_from_sums(q, pairs[i]) for i in by_dist]
    )


def test_rankings_can_diverge_between_distances():
    # fixed fixture: euclidean prefers y, mean-product distance prefers z
    x, y, z = [4, 0, 0], [4, 2, 0], [2, 2, 0]
    assert euc_dis(x, y) < euc_dis(x, z)
    assert new_dis(x, y) > new_dis(x, z)


@settings(max_examples=200, deadline=None)
@given(
    sums=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=30),
    query=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    data=st.data(),
)
def test_top_h_equals_sorted_keys_and_positions(sums, query, data):
    # sums in 0..3 make most keys tie; equal keys go by position
    q = SumPair(s1=query[0], s2=query[1], l=4)
    h = data.draw(st.integers(1, len(sums) + 2))
    s1 = np.array([a for a, _ in sums], dtype=np.int64)
    s2 = np.array([b for _, b in sums], dtype=np.int64)
    want = sorted((rank_key(q, SumPair(a, b, 4)), k) for k, (a, b) in enumerate(sums))[:h]
    got = top_h(q, s1, s2, h)
    assert got == want
    assert all(type(key) is int and type(k) is int for key, k in got)
