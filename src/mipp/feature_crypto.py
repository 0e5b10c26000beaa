"""Per-dimension encryption of feature vectors and their squared companions.

Each feature vector is encrypted twice under the ring-blinded scheme: once
as-is and once squared elementwise, with independent ring randomness for the
two passes.  Only the two aggregate sums (sum of entries, sum of squares)
are recoverable, which is exactly the information the retrieval index needs.
Re-encrypting a vector under a different seed changes every ciphertext entry
but never the recovered sums, so index rows survive key rotation untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import group_crypto
from .group_crypto import GroupParams
from .rng import derive_seed

FEATURE_HEADER = "MIPP-EFT-1"


class ParamsMismatchError(ValueError):
    """Ciphertext tagged with a different parameter set."""


@dataclass(frozen=True)
class EncryptedFeature:
    """Ciphertext pair (entries, squared entries) under one parameter set."""

    ef: tuple[int, ...]
    eff: tuple[int, ...]
    params_id: str

    def __post_init__(self):
        if len(self.ef) != len(self.eff):
            raise ValueError("ef and eff must have equal length")
        if len(self.ef) < group_crypto.MIN_RING_LENGTH:
            raise group_crypto.DegenerateRingError(
                f"feature length {len(self.ef)} < {group_crypto.MIN_RING_LENGTH}"
            )

    @property
    def dims(self) -> int:
        return len(self.ef)


def encrypt_feature_pair(
    params: GroupParams, f: Sequence[int], seed: bytes | str
) -> EncryptedFeature:
    """Encrypt ``f`` and its elementwise square, squared exactly in Python
    integers, under independent blinding."""
    values = [int(v) for v in f]
    squares = [v * v for v in values]
    ef = group_crypto.encrypt_vector(params, values, derive_seed(seed, b"ef"))
    eff = group_crypto.encrypt_vector(params, squares, derive_seed(seed, b"eff"))
    return EncryptedFeature(ef=ef, eff=eff, params_id=params.params_id)


def recover_sums(params: GroupParams, feature: EncryptedFeature) -> tuple[int, int]:
    """Recover (sum of entries, sum of squared entries) exactly."""
    if feature.params_id != params.params_id:
        raise ParamsMismatchError(
            f"feature encrypted under params {feature.params_id}, "
            f"got {params.params_id}"
        )
    s1 = group_crypto.aggregate_and_recover(params, feature.ef)
    s2 = group_crypto.aggregate_and_recover(params, feature.eff)
    return s1, s2


def feature_to_text(feature: EncryptedFeature) -> str:
    """Serialize as a params_id header plus two comma-separated lines."""
    return "\n".join(
        [
            f"{FEATURE_HEADER} params={feature.params_id}",
            ",".join(str(c) for c in feature.ef),
            ",".join(str(c) for c in feature.eff),
        ]
    ) + "\n"


def feature_from_text(text: str) -> EncryptedFeature:
    lines = text.strip().splitlines()
    if len(lines) != 3 or not lines[0].startswith(FEATURE_HEADER):
        raise ValueError(f"expected {FEATURE_HEADER} header and two lines")
    try:
        params_id = lines[0].split("params=", 1)[1].strip()
    except IndexError as exc:
        raise ValueError("missing params id in header") from exc
    try:
        ef = tuple(int(v) for v in lines[1].split(","))
        eff = tuple(int(v) for v in lines[2].split(","))
    except ValueError as exc:
        raise ValueError("non-decimal ciphertext entry") from exc
    return EncryptedFeature(ef=ef, eff=eff, params_id=params_id)
