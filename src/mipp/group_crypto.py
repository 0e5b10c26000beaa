"""Ring-blinded secure-sum primitives over Z_{p^2}.

A vector of non-negative integers is encrypted per entry as
``c_i = (1 + x_i*p) * R_i mod p^2`` where the blinding factors
``R_i = (g2^{r_{i+1}} / g2^{r_{i-1}})^{r_i}`` are built from a cyclic ring
of secret exponents.  Multiplying all entries makes the blinding exponents
telescope to zero, so the product is ``1 + p * sum(x)`` and the exact sum
comes back by one integer division.  Nothing about an individual entry is
recoverable from its ciphertext without the ring exponents.

Since ``g1^q = 1 mod p`` and ``g2 = g1^p mod p^2``, ``g2^q = 1 mod p^2``,
so exponents of ``g2`` may be reduced mod q and each blinding factor is
computed as the single power ``R_i = g2^{r_i*(r_{i+1} - r_{i-1}) mod q}``.

That power is a table lookup, not a square-and-multiply.  Every blinding
factor is a power of the one base g2, so ``GroupParams.g2_table`` holds
``g2^(d * 2^(8j)) mod p^2`` for every byte value d and every byte position
j of an exponent below q (Brickell, Gordon, McCurley & Wilson, "Fast
exponentiation with precomputation", EUROCRYPT 1992).  A power is then the
product of one entry per byte of its exponent: at most ceil(bits(q) / 8)
multiplications and no squarings.  Reducing exponents mod q is what bounds
the table: 4 x 256 entries at 32-bit q, 128 x 256 at 1024 bits (built in
about 0.7 s, and about 10 MiB).  The table is built on first use, kept with
the parameters in memory only, and never enters their text record, their
id or their equality.

The public parameters are set by (p, q, g1) alone: ``g2`` and
``security_bits`` (q's bit length) are derived from them.  The text record
still states all five numbers, and loading refuses a record whose stated
g2 or security_bits is not the derived one.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from .rng import ByteStream

PARAMS_HEADER = "MIPP-PARAMS-1"

#: Smallest accepted prime size; fine for tests, worthless for real secrecy.
MIN_SECURITY_BITS = 16
#: Contractual floor for real deployments (parameter choice is the caller's).
PRODUCTION_SECURITY_BITS = 1024

MILLER_RABIN_ROUNDS = 40
MIN_RING_LENGTH = 3
#: Width in bits of a fixed-base table's window: one digit per exponent byte.
WINDOW_BITS = 8

_PRIME_SEARCH_ATTEMPTS = 100_000
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


class ParameterGenerationError(Exception):
    """Prime or generator search exhausted its attempt budget."""


class DegenerateRingError(ValueError):
    """Ring shorter than 3: blinding factors collapse to 1 and leak."""


class PlaintextRangeError(ValueError):
    """A value or the vector sum reaches p, so recovery would wrap."""


class MalformedCiphertextError(ValueError):
    """Aggregate not of the form 1 + k*p: wrong params or corrupted data."""


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin test, ``MILLER_RABIN_ROUNDS`` witnesses drawn from a
    stream seeded by n."""
    if n < 2:
        return False
    for sp in _SMALL_PRIMES:
        if n == sp:
            return True
        if n % sp == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    witnesses = ByteStream(n.to_bytes((n.bit_length() + 7) // 8, "big"), b"mr")
    for _ in range(MILLER_RABIN_ROUNDS):
        a = witnesses.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


class FixedBaseTable:
    """``base^e mod modulus`` for every 0 <= e < 2^(8 * rows) by lookup.

    Row j holds ``base^(d * 2^(8j))`` for every byte value d, with enough
    rows for ``exponent_bits``-bit exponents, so a power is the product of
    one entry per byte of its exponent.  An exponent the rows do not cover,
    or a negative one, raises ValueError.
    """

    def __init__(self, base: int, modulus: int, exponent_bits: int):
        self.modulus = modulus
        rows = []
        for _ in range(-(-exponent_bits // WINDOW_BITS)):
            row = [1]
            for _ in range(1, 1 << WINDOW_BITS):
                row.append(row[-1] * base % modulus)
            rows.append(tuple(row))
            base = row[-1] * base % modulus
        self.rows = tuple(rows)

    def pow(self, e: int) -> int:
        try:
            digits = e.to_bytes(len(self.rows), "little")
        except OverflowError:
            raise ValueError(
                f"exponent outside [0, 2^{WINDOW_BITS * len(self.rows)})"
            ) from None
        modulus = self.modulus
        power = 1
        for row, d in zip(self.rows, digits):
            power = power * row[d] % modulus
        return power


@dataclass(frozen=True)
class GroupParams:
    """Public parameters shared by every encrypting party.

    ``g1`` generates the q-order subgroup mod p; ``g2 = g1^p mod p^2`` is the
    base of every blinding factor.  Only ``p`` is needed to aggregate and
    recover sums, and all fields are public by design.
    """

    p: int
    q: int
    g1: int

    @property
    def p_squared(self) -> int:
        return self.p * self.p

    @property
    def security_bits(self) -> int:
        return self.q.bit_length()

    @cached_property
    def g2(self) -> int:
        return pow(self.g1, self.p, self.p_squared)

    @cached_property
    def g2_table(self) -> FixedBaseTable:
        """Powers of g2 with exponents below q; in memory only."""
        return FixedBaseTable(self.g2, self.p_squared, self.q.bit_length())

    @cached_property
    def params_id(self) -> str:
        """Short stable identifier used to tag ciphertexts."""
        return hashlib.sha256(params_to_text(self).encode()).hexdigest()[:16]

    def validate(self) -> None:
        """Check the structural invariants; raise ValueError on violation."""
        if not is_probable_prime(self.p):
            raise ValueError("p is not prime")
        if not is_probable_prime(self.q):
            raise ValueError("q is not prime")
        if (self.p - 1) % self.q != 0:
            raise ValueError("q does not divide p - 1")
        if self.g1 % self.p in (0, 1):
            raise ValueError("g1 is trivial mod p")
        if pow(self.g1, self.q, self.p) != 1:
            raise ValueError("g1 does not lie in the q-order subgroup")


def gen_group_params(security_bits: int, seed: bytes | str) -> GroupParams:
    """Generate fresh parameters deterministically from ``seed``.

    ``security_bits`` is the size of q.  q is found first, then p is
    searched as k*q + 1 over even k so that q | p-1 holds by construction
    (p comes out a few bits longer than q, as in any such construction).
    The searches establish what ``validate()`` checks, so it is not re-run.
    """
    if security_bits < MIN_SECURITY_BITS:
        raise ValueError(
            f"security_bits must be >= {MIN_SECURITY_BITS}"
            f" ({PRODUCTION_SECURITY_BITS}+ for production use)"
        )
    stream = ByteStream(seed, b"group-params")

    q = 0
    for _ in range(_PRIME_SEARCH_ATTEMPTS):
        candidate = stream.randbits(security_bits)
        candidate |= (1 << (security_bits - 1)) | 1
        if is_probable_prime(candidate):
            q = candidate
            break
    else:
        raise ParameterGenerationError("no prime q found within attempt budget")

    p = 0
    for k in range(2, 2 * _PRIME_SEARCH_ATTEMPTS, 2):
        candidate = k * q + 1
        if is_probable_prime(candidate):
            p = candidate
            break
    else:
        raise ParameterGenerationError("no prime p = k*q + 1 found")

    return GroupParams(p=p, q=q, g1=_find_subgroup_generator(p, q, stream))


def params_from_primes(p: int, q: int, h: int) -> GroupParams:
    """Build parameters from explicit primes and subgroup seed ``h``.

    Intended for tests and interop with externally agreed parameters.  The
    checks below imply ``validate()``'s: g1^q = h^(p-1) = 1 mod p, g1 != 0.
    """
    if not is_probable_prime(p) or not is_probable_prime(q):
        raise ValueError("p and q must both be prime")
    if (p - 1) % q != 0:
        raise ValueError("q must divide p - 1")
    if not 1 < h < p:
        raise ValueError("h must lie in (1, p)")
    g1 = pow(h, (p - 1) // q, p)
    if g1 == 1:
        raise ValueError("h collapses to the trivial subgroup element")
    return GroupParams(p=p, q=q, g1=g1)


def _find_subgroup_generator(p: int, q: int, stream: ByteStream) -> int:
    for _ in range(_PRIME_SEARCH_ATTEMPTS):
        h = stream.randrange(2, p)
        g1 = pow(h, (p - 1) // q, p)
        if g1 != 1:
            return g1
    raise ParameterGenerationError("no non-trivial subgroup generator found")


def ring_randomness(q: int, length: int, seed: bytes | str) -> tuple[int, ...]:
    """Draw the cyclic ring of secret exponents r_1..r_l, each in [1, q-1].

    Index arithmetic is cyclic: the neighbour above r_l is r_1.  The ring is
    consumed once per encryption and never stored.
    """
    if length < MIN_RING_LENGTH:
        raise DegenerateRingError(
            f"ring length {length} < {MIN_RING_LENGTH}: blinding degenerates"
        )
    return tuple(ByteStream(seed, b"ring").randrange_many(1, q, length))


def encrypt_vector(
    params: GroupParams, values: Sequence[int], rng_seed: bytes | str
) -> tuple[int, ...]:
    """Encrypt a vector entry-wise under fresh ring randomness.

    Every entry and the total must stay below p; otherwise recovery would
    wrap mod p.  The ring randomness is derived from ``rng_seed`` and
    discarded on return.
    """
    xs = [int(v) for v in values]
    if len(xs) < MIN_RING_LENGTH:
        raise DegenerateRingError(
            f"vector length {len(xs)} < {MIN_RING_LENGTH}: blinding degenerates"
        )
    total = 0
    for x in xs:
        if x < 0:
            raise PlaintextRangeError("values must be non-negative")
        if x >= params.p:
            raise PlaintextRangeError(f"value {x} >= p")
        total += x
    if total >= params.p:
        raise PlaintextRangeError(f"vector sum {total} >= p")

    p, q, p2 = params.p, params.q, params.p_squared
    g2_pow = params.g2_table.pow
    ring = ring_randomness(q, len(xs), rng_seed)
    cipher = []
    n = len(xs)
    for i, x in enumerate(xs):
        exponent = ring[i] * (ring[(i + 1) % n] - ring[i - 1]) % q
        cipher.append((1 + x * p) * g2_pow(exponent) % p2)
    return tuple(cipher)


def aggregate_and_recover(params: GroupParams, ciphertext: Iterable[int]) -> int:
    """Multiply the ciphertext entries and recover the exact plaintext sum.

    Raises MalformedCiphertextError when the aggregate is not 1 + k*p, which
    signals mismatched parameters or corrupted entries.
    """
    p2 = params.p_squared
    product = 1
    for c in ciphertext:
        product = product * c % p2
    if (product - 1) % params.p != 0:
        raise MalformedCiphertextError("aggregate is not 1 mod p")
    return (product - 1) // params.p


def params_to_text(params: GroupParams) -> str:
    """Canonical text record: header then p, q, g1, g2, security_bits."""
    return "\n".join(
        [
            PARAMS_HEADER,
            str(params.p),
            str(params.q),
            str(params.g1),
            str(params.g2),
            str(params.security_bits),
        ]
    ) + "\n"


def params_from_text(text: str) -> GroupParams:
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if not lines or lines[0] != PARAMS_HEADER:
        raise ValueError(f"missing {PARAMS_HEADER} header")
    if len(lines) != 6:
        raise ValueError("expected exactly five fields after the header")
    try:
        p, q, g1, g2, bits = (int(ln) for ln in lines[1:])
    except ValueError as exc:
        raise ValueError("non-decimal field in parameter record") from exc
    params = GroupParams(p=p, q=q, g1=g1)
    params.validate()
    if bits != params.security_bits:
        raise ValueError(f"security_bits {bits} is not q's {params.security_bits} bits")
    if g2 != params.g2:
        raise ValueError("g2 is not g1^p mod p^2")
    return params


def save_params(params: GroupParams, path: str | Path) -> None:
    replace_file(path, params_to_text(params))


def replace_file(path: str | Path, text: str) -> None:
    """Write ``text`` into a new owner-only file beside ``path``, which
    replaces ``path`` only once whole; a failure removes it and re-raises."""
    fd, new = tempfile.mkstemp(prefix=".new-", dir=Path(path).parent)
    try:
        with open(fd, "w") as fh:
            fh.write(text)
        os.replace(new, path)
    except BaseException:
        os.unlink(new)
        raise


def load_params(path: str | Path) -> GroupParams:
    try:
        return params_from_text(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
