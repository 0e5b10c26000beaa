"""Fully trusted key management center.

Holds each owner's image-encryption keystream long-term and a query user's
keystream only for the duration of one session.  Its single active duty is
result re-encryption: decrypt each returned image under its owner's key,
re-encrypt under the querying user's key, hand the batch back in order, and
discard the user key.  Any id may deposit a key, and an owner's key is never
replaced.  A digest of every discarded user key is remembered, so a
keystream spent in any session is refused for every user.

The vault file on disk contains owner keys only (hex-encoded) and relies on
the trusted-host assumption; it is owner-only from its first byte.
Session keys are never persisted.
"""

from __future__ import annotations

import hashlib
import threading
from pathlib import Path
from typing import Sequence

import numpy as np

from .cloud_node import credential_line, framed_text, read_credentials, read_framed
from .group_crypto import replace_file
from .image_cipher import image_dec, image_enc

VAULT_HEADER = "MIPP-VAULT-1"


class VaultError(KeyError):
    """Owner key missing, or a second key deposited for an owner."""

    def __str__(self) -> str:  # KeyError's would quote the message
        return str(self.args[0])


class SessionError(KeyError):
    """No user key deposited for the given (uid, session)."""


class KeyReuseError(ValueError):
    """A deposited keystream was already spent in an earlier session."""


class KmcNode:
    """Key vault and result re-encryption; no id registry, no owner-key replacement."""

    def __init__(self):
        self._owner_keys: dict[str, bytes] = {}
        self._user_keys: dict[str, tuple[bytes, str]] = {}
        self._spent_digests: set[bytes] = set()
        self._lock = threading.Lock()

    def _spend(self, uid: str) -> bytes:
        """Pop ``uid``'s deposited key and remember its digest (lock held)."""
        usk, _ = self._user_keys.pop(uid)
        self._spent_digests.add(hashlib.sha256(usk).digest())
        return usk

    def drop_user_key(self, uid: str) -> None:
        """Discard a deposited user key without using it (aborted session).

        The digest is still recorded so the keystream cannot be re-deposited.
        """
        with self._lock:
            if uid in self._user_keys:
                self._spend(uid)

    def store_owner_key(self, oid: str, sk: bytes) -> None:
        """Deposit an owner keystream; a second key for an owner is refused."""
        with self._lock:
            if oid in self._owner_keys:
                raise VaultError(f"owner key for {oid!r} exists")
            self._owner_keys[oid] = bytes(sk)

    def owner_key(self, oid: str) -> bytes:
        try:
            return self._owner_keys[oid]
        except KeyError:
            raise VaultError(f"no key stored for owner {oid!r}") from None

    def user_key_length(self) -> int:
        """The longest owner key; no owner stores an image longer than its key."""
        with self._lock:
            return max(map(len, self._owner_keys.values()), default=1)

    def store_user_key(self, uid: str, usk: bytes, session: str) -> None:
        """Deposit a per-query user keystream bound to one session."""
        digest = hashlib.sha256(usk).digest()
        with self._lock:
            if digest in self._spent_digests:
                raise KeyReuseError(
                    f"user {uid!r} deposited a keystream spent in an earlier session"
                )
            self._user_keys[uid] = (bytes(usk), session)

    def has_user_key(self, uid: str) -> bool:
        return uid in self._user_keys

    def reencrypt_results(
        self,
        er: Sequence[tuple[str, str, np.ndarray]],
        uid: str,
        session: str,
    ) -> list[tuple[str, str, np.ndarray]]:
        """Re-encrypt each (owner_id, image_id, image) for the query user.

        Order and cardinality are preserved.  The user key is discarded
        before any image is touched, so it serves exactly one call even if
        that call fails, and its digest is retained for the reuse check.
        """
        with self._lock:
            bound = self._user_keys.get(uid)
            if bound is None or bound[1] != session:
                raise SessionError(f"user {uid!r} holds no key for session {session!r}")
            # spend the key before using it, so no other call can use it too
            usk = self._spend(uid)
        out = []
        for owner_id, image_id, enc_image in er:
            plain = image_dec(self.owner_key(owner_id), enc_image)
            out.append((owner_id, image_id, image_enc(usk, plain)))
        return out

    # -- persistence ---------------------------------------------------------

    def save_vault(self, path: str | Path) -> None:
        """Write owner keys hex-encoded; session keys are never written."""
        replace_file(path, framed_text(VAULT_HEADER, (
            credential_line(oid, sk) for oid, sk in sorted(self._owner_keys.items()))))

    @classmethod
    def load_vault(cls, path: str | Path) -> "KmcNode":
        node = cls()
        node._owner_keys = read_credentials(path, read_framed(path, VAULT_HEADER), 2, "owner")
        return node
