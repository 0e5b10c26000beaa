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
