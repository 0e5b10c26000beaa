"""Deterministic byte-stream generator backing every seeded operation.

A SHA-256 counter-mode stream gives reproducible keys, ring randomness and
simulation nonces across platforms and Python versions.  It is *not* a
substitute for OS entropy: production key material must be drawn from
``secrets``/``os.urandom`` and fed in as the seed.
"""

from __future__ import annotations

import hashlib


def derive_seed(seed: bytes | str, label: bytes | str) -> bytes:
    """Derive an independent sub-seed for one named purpose."""
    return hashlib.sha256(_as_bytes(seed) + b"\x00" + _as_bytes(label)).digest()


def _as_bytes(value: bytes | str) -> bytes:
    if isinstance(value, str):
        return value.encode("utf-8")
    return bytes(value)


class ByteStream:
    """SHA-256 counter-mode pseudorandom byte stream over a seed.

    Two streams with equal (seed, label) produce identical output; any
    difference in either yields an unrelated stream.
    """

    def __init__(self, seed: bytes | str, label: bytes | str = b""):
        self._key = derive_seed(seed, label)
        self._counter = 0
        self._buffer = b""

    def take(self, n: int) -> bytes:
        """Return the next ``n`` bytes of the stream."""
        if n < 0:
            raise ValueError("byte count must be non-negative")
        blocks = [self._buffer]
        have = len(self._buffer)
        while have < n:
            blocks.append(hashlib.sha256(
                self._key + self._counter.to_bytes(8, "big")
            ).digest())
            self._counter += 1
            have += 32
        data = b"".join(blocks)
        self._buffer = data[n:]
        return data[:n]

    def randbits(self, k: int) -> int:
        """Return a uniform integer in [0, 2**k)."""
        if k <= 0:
            raise ValueError("bit count must be positive")
        nbytes = (k + 7) // 8
        value = int.from_bytes(self.take(nbytes), "big")
        return value >> (nbytes * 8 - k)

    def randrange(self, lo: int, hi: int) -> int:
        """Return a uniform integer in [lo, hi)."""
        return self.randrange_many(lo, hi, 1)[0]

    def randrange_many(self, lo: int, hi: int, count: int) -> list[int]:
        """Return ``count`` uniform integers in [lo, hi) by rejection sampling.

        Each draw is ``lo + randbits(k)`` with k the bit length of hi - lo,
        and one that reaches hi is rejected, so the values and the stream
        position afterwards are those of ``count`` calls of ``randrange``.
        The draws still missing are taken from the stream in one piece, so
        only rejected draws cost a further ``take``.
        """
        if hi <= lo:
            raise ValueError("empty range")
        bound = hi - lo
        k = bound.bit_length()
        nbytes = (k + 7) // 8
        shift = nbytes * 8 - k
        values: list[int] = []
        while len(values) < count:
            data = self.take((count - len(values)) * nbytes)
            for at in range(0, len(data), nbytes):
                value = int.from_bytes(data[at : at + nbytes], "big") >> shift
                if value < bound:
                    values.append(lo + value)
        return values
