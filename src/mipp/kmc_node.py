"""Fully trusted key management center.

Holds each owner's image-encryption keystream long-term and a query user's
keystream only for the duration of one session.  Its single active duty is
result re-encryption: decrypt each returned image under its owner's key,
re-encrypt under the querying user's key, hand the batch back in order, and
discard the user key.  A digest of every discarded user key is remembered so
key reuse across sessions can be refused.

The vault file on disk contains owner keys only (hex-encoded) and relies on
the trusted-host assumption; it is owner-only from its first byte.
Session keys are never persisted.
"""

from __future__ import annotations

import hashlib
import os
import threading
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .image_cipher import image_dec, image_enc

VAULT_HEADER = "MIPP-VAULT-1"


class VaultError(KeyError):
    """Owner key missing, or overwrite attempted without rotation."""


class SessionError(KeyError):
    """No user key deposited for the given (uid, session)."""


class KeyReuseError(ValueError):
    """User deposited the same keystream as in an earlier session."""


class KmcNode:
    """Key vault plus result re-encryption."""

    def __init__(
        self,
        known_owners: Iterable[str] | None = None,
        known_users: Iterable[str] | None = None,
    ):
        self._owner_keys: dict[str, bytes] = {}
        self._user_keys: dict[str, tuple[bytes, str]] = {}
        self._spent_user_digests: dict[str, set[bytes]] = {}
        self._known_owners = set(known_owners) if known_owners is not None else None
        self._known_users = set(known_users) if known_users is not None else None
        self._lock = threading.Lock()

    def register_owner_id(self, oid: str) -> None:
        """Add an owner to the registry (enabled registries only)."""
        if self._known_owners is not None:
            self._known_owners.add(oid)

    def register_user_id(self, uid: str) -> None:
        """Add a user to the registry (enabled registries only)."""
        if self._known_users is not None:
            self._known_users.add(uid)

    def drop_user_key(self, uid: str) -> None:
        """Discard a deposited user key without using it (aborted session).

        The digest is still recorded so the keystream cannot be re-deposited.
        """
        with self._lock:
            entry = self._user_keys.pop(uid, None)
            if entry is not None:
                self._spent_user_digests.setdefault(uid, set()).add(
                    hashlib.sha256(entry[0]).digest()
                )

    def store_owner_key(self, oid: str, sk: bytes, rotate: bool = False) -> None:
        """Deposit an owner keystream; overwriting requires ``rotate``."""
        if self._known_owners is not None and oid not in self._known_owners:
            raise VaultError(f"owner {oid!r} not registered")
        with self._lock:
            if oid in self._owner_keys and not rotate:
                raise VaultError(f"owner key for {oid!r} exists; pass rotate=True")
            self._owner_keys[oid] = bytes(sk)

    def owner_key(self, oid: str) -> bytes:
        try:
            return self._owner_keys[oid]
        except KeyError:
            raise VaultError(f"no key stored for owner {oid!r}") from None

    def store_user_key(self, uid: str, usk: bytes, session: str) -> None:
        """Deposit a per-query user keystream bound to one session."""
        if self._known_users is not None and uid not in self._known_users:
            raise SessionError(f"user {uid!r} not registered")
        digest = hashlib.sha256(usk).digest()
        with self._lock:
            if digest in self._spent_user_digests.get(uid, set()):
                raise KeyReuseError(
                    f"user {uid!r} reused a keystream from an earlier session"
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
            if uid not in self._user_keys:
                raise SessionError(f"no session key for user {uid!r}")
            usk, bound_session = self._user_keys[uid]
            if bound_session != session:
                raise SessionError(
                    f"key for user {uid!r} bound to session {bound_session!r}, "
                    f"not {session!r}"
                )
            # spend the key before using it, so no other call can use it too
            del self._user_keys[uid]
            self._spent_user_digests.setdefault(uid, set()).add(
                hashlib.sha256(usk).digest()
            )
        out = []
        for owner_id, image_id, enc_image in er:
            plain = image_dec(self.owner_key(owner_id), enc_image)
            out.append((owner_id, image_id, image_enc(usk, plain)))
        return out

    # -- persistence ---------------------------------------------------------

    def save_vault(self, path: str | Path) -> None:
        """Write owner keys hex-encoded; session keys are never written."""
        lines = [VAULT_HEADER]
        for oid, sk in sorted(self._owner_keys.items()):
            lines.append(f"{oid}\t{sk.hex()}")
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
        with open(fd, "w") as fh:
            os.fchmod(fd, 0o600)  # os.open's mode does not apply to an existing file
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load_vault(cls, path: str | Path, **kwargs) -> "KmcNode":
        lines = Path(path).read_text().strip().splitlines()
        if not lines or lines[0] != VAULT_HEADER:
            raise ValueError(f"missing {VAULT_HEADER} header")
        node = cls(**kwargs)
        for number, ln in enumerate(lines[1:], 2):
            oid, tab, hexkey = ln.partition("\t")
            if not tab:
                raise ValueError(f"{path}: line {number} has no tab")
            node._owner_keys[oid] = bytes.fromhex(hexkey)
        return node
