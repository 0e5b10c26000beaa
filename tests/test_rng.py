import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from mipp.rng import ByteStream


def reference_stream(seed: bytes, label: bytes, n: int) -> bytes:
    """SHA-256 counter mode: block c is sha256(key || c as 8 big-endian bytes)."""
    key = hashlib.sha256(seed + b"\x00" + label).digest()
    blocks = (hashlib.sha256(key + c.to_bytes(8, "big")).digest() for c in range(n // 32 + 1))
    return b"".join(blocks)[:n]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.binary(max_size=16),
    label=st.binary(max_size=8),
    takes=st.lists(st.integers(0, 5000), max_size=20),
)
def test_any_split_of_takes_reads_the_counter_mode_stream(seed, label, takes):
    stream = ByteStream(seed, label)
    got = [stream.take(n) for n in takes]
    assert [len(chunk) for chunk in got] == takes
    assert b"".join(got) == reference_stream(seed, label, sum(takes))


def sequential_draws(stream: ByteStream, lo: int, hi: int, count: int) -> list[int]:
    """The sampler as first written: one ``randbits`` draw at a time, each
    one that reaches hi rejected."""
    bound = hi - lo
    values = []
    while len(values) < count:
        value = stream.randbits(bound.bit_length())
        if value < bound:
            values.append(lo + value)
    return values


@settings(max_examples=200, deadline=None)
@given(
    seed=st.binary(max_size=8),
    k=st.integers(1, 80),
    rejection=st.sampled_from(["common", "rare"]),
    lo=st.integers(-(2**40), 2**40),
    count=st.integers(0, 200),
)
def test_many_draws_in_one_pass_are_the_sequential_draws(seed, k, rejection, lo, count):
    # a bound of 2^k + 1 rejects almost half the draws, one of 2^k - 1 almost none
    bound = 2**k + 1 if rejection == "common" else max(2**k - 1, 1)
    hi = lo + bound
    batched, singles, reference = (ByteStream(seed, b"draws") for _ in range(3))
    got = batched.randrange_many(lo, hi, count)
    assert got == [singles.randrange(lo, hi) for _ in range(count)]
    assert got == sequential_draws(reference, lo, hi, count)
    assert all(lo <= value < hi for value in got)
    # the stream goes on where the sequential draws left it
    assert batched.take(64) == singles.take(64) == reference.take(64)
