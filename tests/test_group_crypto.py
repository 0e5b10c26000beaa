import dataclasses
import functools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipp.group_crypto import (
    WINDOW_BITS,
    DegenerateRingError,
    GroupParams,
    MalformedCiphertextError,
    PlaintextRangeError,
    aggregate_and_recover,
    encrypt_vector,
    gen_group_params,
    is_probable_prime,
    params_from_primes,
    params_from_text,
    params_to_text,
    ring_randomness,
)


@pytest.fixture(scope="module")
def tiny_params():
    # p=23, q=11, h=2: small enough to check every step by hand
    return params_from_primes(23, 11, 2)


@pytest.fixture(scope="module")
def test_params():
    return gen_group_params(32, b"unit-test-params")


def test_forced_primes_match_hand_computation(tiny_params):
    # independent oracle: direct modular exponentiation
    assert tiny_params.g1 == pow(2, (23 - 1) // 11, 23) == 4
    assert tiny_params.g2 == pow(4, 23, 23 * 23) == 487


def test_params_are_p_q_and_g1_and_derive_the_rest(test_params):
    assert [f.name for f in dataclasses.fields(GroupParams)] == ["p", "q", "g1"]
    derived = GroupParams(test_params.p, test_params.q, test_params.g1)
    assert derived == test_params
    assert derived.g2 == pow(test_params.g1, test_params.p, test_params.p_squared)
    assert derived.security_bits == test_params.q.bit_length() == 32


def test_generated_params_invariants():
    for seed in (b"a", b"b", b"c"):
        params = gen_group_params(32, seed)
        assert (params.p - 1) % params.q == 0
        assert params.q.bit_length() == 32
        assert pow(params.g1, params.q, params.p) == 1
        assert params.g1 != 1
        assert params.g2 == pow(params.g1, params.p, params.p_squared)
        assert math.gcd(params.g2, params.p_squared) == 1
        params.validate()  # the search guarantees it, so generation skips it


@pytest.mark.parametrize("p, q, h, message", [
    (25, 3, 2, "p and q must both be prime"),  # 3 | 25 - 1, but 25 = 5^2
    (23, 22, 2, "p and q must both be prime"),  # 22 | 23 - 1, but 22 = 2 * 11
    (23, 7, 2, "q must divide p - 1"),
    (23, 11, 1, r"h must lie in \(1, p\)"),
    (23, 11, 23, r"h must lie in \(1, p\)"),
    (23, 11, 22, "h collapses to the trivial subgroup element"),
], ids=["composite-p", "composite-q", "q-not-dividing", "h-low", "h-high", "h-trivial"])
def test_params_from_primes_refuses_inconsistent_input(p, q, h, message):
    with pytest.raises(ValueError, match=message):
        params_from_primes(p, q, h)


def test_generation_is_deterministic():
    a = gen_group_params(32, b"same-seed")
    b = gen_group_params(32, b"same-seed")
    assert a == b
    c = gen_group_params(32, b"other-seed")
    assert a != c


def test_security_bits_floor():
    with pytest.raises(ValueError):
        gen_group_params(8, b"too-small")


def test_miller_rabin_against_sympy_free_oracle():
    # oracle: trial division over a small range
    def slow_prime(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(2, 2000):
        assert is_probable_prime(n) == slow_prime(n), n


def test_telescoping_cancellation():
    for seed in range(20):
        ring = ring_randomness(q=101, length=3 + seed, seed=str(seed))
        n = len(ring)
        total = sum(
            ring[(i + 1) % n] * ring[i] - ring[i] * ring[(i - 1) % n]
            for i in range(n)
        )
        assert total == 0


def test_ring_randomness_bounds_and_length():
    ring = ring_randomness(q=11, length=50, seed=b"bounds")
    assert len(ring) == 50
    assert all(1 <= r <= 10 for r in ring)
    with pytest.raises(DegenerateRingError):
        ring_randomness(q=11, length=2, seed=b"short")


def test_encrypt_recover_fixture(test_params):
    ct = encrypt_vector(test_params, [3, 5, 7], b"seed-357")
    assert aggregate_and_recover(test_params, ct) == 15


def test_zero_vector(test_params):
    ct = encrypt_vector(test_params, [0, 0, 0], b"seed-zero")
    assert aggregate_and_recover(test_params, ct) == 0


def test_degenerate_ring_rejected(test_params):
    with pytest.raises(DegenerateRingError):
        encrypt_vector(test_params, [1, 2], b"seed")


def test_plaintext_range_enforced(tiny_params):
    with pytest.raises(PlaintextRangeError):
        encrypt_vector(tiny_params, [23, 0, 0], b"seed")
    with pytest.raises(PlaintextRangeError):
        encrypt_vector(tiny_params, [10, 10, 10], b"seed")  # sum 30 >= 23
    with pytest.raises(PlaintextRangeError):
        encrypt_vector(tiny_params, [-1, 0, 2], b"seed")


def test_exact_recovery_property(test_params):
    # oracle: plain integer summation
    rng = random.Random(0xC0FFEE)
    for trial in range(500):
        length = rng.randint(3, 16)
        values = [rng.randint(0, 255) for _ in range(length)]
        ct = encrypt_vector(test_params, values, f"trial-{trial}")
        assert aggregate_and_recover(test_params, ct) == sum(values)


def test_blinding_freshness(test_params):
    values = [7, 7, 7, 7]
    seen = set()
    for trial in range(100):
        ct = encrypt_vector(test_params, values, f"fresh-{trial}")
        assert ct not in seen
        seen.add(ct)


def test_ciphertext_entries_are_units(test_params):
    ct = encrypt_vector(test_params, [1, 2, 3, 4], b"unit-check")
    for c in ct:
        assert math.gcd(c, test_params.p_squared) == 1
        pow(c, -1, test_params.p_squared)  # must not raise


def test_malformed_ciphertext_detected(test_params):
    other = gen_group_params(32, b"mismatched")
    ct = encrypt_vector(test_params, [3, 5, 7], b"seed")
    with pytest.raises(MalformedCiphertextError):
        aggregate_and_recover(other, ct)


def test_params_text_roundtrip(test_params):
    text = params_to_text(test_params)
    assert text.splitlines()[0] == "MIPP-PARAMS-1"
    assert params_from_text(text) == test_params


def test_params_text_rejects_bad_input(test_params):
    with pytest.raises(ValueError):
        params_from_text("NOT-A-HEADER\n1\n2\n3\n4\n5\n")
    mangled = params_to_text(test_params).replace("MIPP", "XIPP")
    with pytest.raises(ValueError):
        params_from_text(mangled)


def test_params_record_must_state_the_bits_of_q(test_params):
    lines = params_to_text(test_params).splitlines()
    lines[5] = "1024"
    with pytest.raises(ValueError, match="security_bits 1024 is not q's 32 bits"):
        params_from_text("\n".join(lines) + "\n")


def test_validate_rejects_inconsistent_params(tiny_params):
    lines = params_to_text(tiny_params).splitlines()
    lines[4] = str(tiny_params.g2 + 1)
    with pytest.raises(ValueError, match="g2 is not g1"):
        params_from_text("\n".join(lines) + "\n")


# records after the header: p, q, g1, g2, security_bits; each fault is
# refused before g2 and security_bits are compared with what p, q and g1 give
@pytest.mark.parametrize("fields, message", [
    (["25", "3", "4", "0", "2"], "p is not prime"),
    (["23", "22", "4", "0", "5"], "q is not prime"),
    (["23", "7", "4", "0", "3"], "q does not divide p - 1"),
    (["23", "11", "5", "0", "4"], "g1 does not lie in the q-order subgroup"),
    (["23", "11", "4", "0"], "expected exactly five fields after the header"),
    (["23", "11", "4", "0x10", "4"], "non-decimal field in parameter record"),
], ids=["composite-p", "composite-q", "q-not-dividing", "g1-outside-subgroup",
        "four-fields", "non-decimal-field"])
def test_a_params_record_that_is_no_group_is_refused(fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        params_from_text("\n".join(["MIPP-PARAMS-1", *fields]) + "\n")


def test_params_id_tracks_content(tiny_params, test_params):
    assert tiny_params.params_id != test_params.params_id
    assert tiny_params.params_id == params_from_primes(23, 11, 2).params_id


@settings(max_examples=100, deadline=None)
@given(
    bits=st.integers(16, 64),
    params_seed=st.binary(max_size=4),
    ring_seed=st.binary(max_size=8),
    data=st.data(),
)
def test_one_exponentiation_matches_two_exponentiation_formula(
    bits, params_seed, ring_seed, data
):
    params = gen_group_params(bits, params_seed)
    n = data.draw(st.integers(3, 128))
    xs = data.draw(st.lists(st.integers(0, (params.p - 1) // n), min_size=n, max_size=n))
    # the blinding factor as first written: (g2^{r_{i+1}} / g2^{r_{i-1}})^{r_i}
    p2 = params.p_squared
    ring = ring_randomness(params.q, n, ring_seed)
    shares = [pow(params.g2, r, p2) for r in ring]
    expected = tuple(
        (1 + x * params.p)
        * pow(shares[(i + 1) % n] * pow(shares[(i - 1) % n], -1, p2) % p2, ring[i], p2)
        % p2
        for i, x in enumerate(xs)
    )
    assert encrypt_vector(params, xs, ring_seed) == expected


# q and k of gen_group_params(bits, b"fixed-base-table"), whose p is k*q + 1;
# fixed so that the large sizes cost no prime search
_FIXED_PRIMES = {
    128: (0xabd9e3b545e50e11cbd59ea974e1bb29, 144),
    256: (0xabd9e3b545e50e11cbd59ea974e1bb2871a490af7987b91625d88a62525cbed5, 376),
    512: (int("a973ccda03ee1fefd121187e71da834a6d78faea42c62ecfae8b3d8be2043e2e"
              "8b221a077b1ef1d3044c413d3905af5735dec8bf8c7604eea3b6b80af21069d9", 16), 114),
    1024: (int("854d965cef9e6952d9850d04c226b68b3803afb79acf93828aea862813281e1a"
               "8c9bb3f5b8f4171459645618b433156eff206d7870ef28aba90d4a8208a768b4"
               "ecc298e33774d51a208150fe69475445f30ce303493958072b78160cfb56246e"
               "7209ff3263881e3269c3cc65a198796f2bd82daf781d7b2ca57da4782b2bd513", 16), 98),
}


@functools.cache
def _params_of_size(bits):
    """Params whose q has ``bits`` bits, their text and id taken before the
    table is built."""
    if bits in _FIXED_PRIMES:
        q, k = _FIXED_PRIMES[bits]
        params = params_from_primes(k * q + 1, q, 2)
    else:
        params = gen_group_params(bits, b"fixed-base-table")
    assert params.q.bit_length() == bits
    return params, params_to_text(params), params.params_id


@settings(max_examples=100, deadline=None)
@given(bits=st.sampled_from([16, 17, 24, 31, 32, 33, 64, 128, 256, 512, 1024]), data=st.data())
def test_the_g2_table_gives_pow_for_every_exponent_its_rows_cover(bits, data):
    params, text, params_id = _params_of_size(bits)
    table = params.g2_table
    p2 = params.p_squared
    rows = -(-params.q.bit_length() // WINDOW_BITS)
    assert len(table.rows) == rows
    limit = 1 << (WINDOW_BITS * rows)
    e = data.draw(st.one_of(st.sampled_from([0, 1, params.q - 1, limit - 1]),
                            st.integers(0, params.q - 1), st.integers(0, limit - 1)))
    assert table.pow(e) == pow(params.g2, e, p2)
    beyond = data.draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=limit)))
    with pytest.raises(ValueError):
        table.pow(beyond)
    # the table is memory only: the record, the id and equality ignore it
    assert params_to_text(params) == text
    assert params.params_id == params_id
    assert params == GroupParams(params.p, params.q, params.g1)
