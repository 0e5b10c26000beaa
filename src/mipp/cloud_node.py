"""Honest-but-curious cloud: encrypted storage, retrieval index, top-h search.

The cloud stores encrypted images and encrypted features per owner, plus an
authorized-user list per owner.  At registration it aggregates each feature
pair once and keeps the recovered sums (s1, s2) in the retrieval index; this
is the scheme's deliberate leakage surface (the cloud learns per-image sums,
nothing entrywise).  The cloud is one table of five columns sorted by
(owner id, image id): owner ids, image ids, s1 and s2 as int64, and each
row's ``StoredImage``, so each owner's rows are one run, found by bisecting
the owner column.  A query ranks the authorized owners' runs with
``similarity.top_h`` in owner-id order, so a row's position follows (owner
id, image id) and equal keys go by that pair, as in ``sorted((key, owner,
image))``.  ``retrieve_top_h(use_index=False)`` ranks the same rows by sums
re-aggregated from their ciphertexts; it is the reference the index path is
checked and timed against.

The int64 keys are exact because the cloud refuses sums no edge histogram
has: 80 entries in [0, 255] give 0 <= s1 <= 20,400 and
0 <= s2 <= 5,202,000, so every key lies within +-8.33e8.  Every recovered
sum pair, an upload's or a query's, and every ``index.tsv`` row is checked
against that range and against Cauchy-Schwarz.

Every feature and query the cloud takes is an edge histogram, of
``ehd_features.FEATURE_DIMS`` entries; one check refuses any other length,
the first feature into an empty cloud included.  The table is the only
copy of the cloud's images and sums; registration and each update rebuild
it once, after every check.  One lock, ``CloudNode.lock``, serves
readers and writers: queries, ``verify_user`` and ``index`` read under it,
registration and updates hold it while they stage and then store the rows,
so no retrieval ever observes a half-applied update.

On disk a cloud is ``index.tsv`` plus ``owners/<id>/`` with a manifest and
each image's ``img/<image>.pgm`` and ``feat/<image>.eft``, which
``_write_image`` writes; ``index.tsv`` and each manifest, like the key
center's ``vault`` and the store's ``users.tsv``, are a header line and
then records, written by ``framed_text`` and read by ``read_framed``.
``open_store`` reads only the index, the manifests and the listings, and a
row of an opened or built store gets its image when it is first read; that
image reads its pixels and feature on first use, under the lock, so a query
makes and reads the h images it returns and reads no ``.eft``.  One writer,
``_write_tree``, writes every tree, for ``build_store`` and ``save_store``
alike: each image as it comes (``save_store`` reads the kept ones from the
old tree as it goes), then the tables, into a new directory whose
``owners/`` and ``index.tsv`` replace ``root``'s only once it is whole.
"""

from __future__ import annotations

import bisect
import errno
import math
import os
import re
import shutil
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Container, Iterable, NamedTuple, Sequence

import numpy as np

from . import feature_crypto
from .ehd_features import BIN_MAX, FEATURE_DIMS
from .feature_crypto import EncryptedFeature
from .group_crypto import GroupParams
from .image_cipher import read_pgm, write_pgm
from .similarity import CorruptedSumsError, SumPair, top_h

INDEX_HEADER = "owner_id\timage_id\ts1\ts2"
MANIFEST_HEADER = "MIPP-OWNER-1"

DEFAULT_TOP_H = 100  # results a query asks for unless it says otherwise
TOP_H_BOUND = 2**32  # h < TOP_H_BOUND: the wire carries a query's result count in 32 bits

_SAFE_ID = re.compile(r"^[A-Za-z0-9_.-]+$")


class CloudError(Exception):
    """Base class for cloud-side failures."""


class DuplicateOwnerError(CloudError):
    pass


class DuplicateImageError(CloudError):
    pass


class UnknownOwnerError(CloudError):
    pass


class OwnershipError(CloudError):
    """Image id does not belong to the requesting owner."""


class AuthorizationError(CloudError):
    """Query user not present in any owner's authorized-user list."""


class IndexEntry(NamedTuple):
    """One retrieval-index row: the four columns of ``index.tsv``."""

    owner_id: str
    image_id: str
    s1: int
    s2: int


@dataclass(slots=True, eq=False)
class StoredImage:
    """One stored image: its encrypted pixels and encrypted feature.

    A row of a store the cloud was opened from or built into gets its image
    the first time the row is read, without its pixels or its feature; the
    image reads each from the store the first time it is used, under its
    cloud's lock, and keeps it.  Its ``_source`` is that lock, its owner's
    directory and its image id; it holds no reference to the cloud, so a
    cloud that is dropped is freed at once.
    """

    _enc_image: np.ndarray | None
    _feature: EncryptedFeature | None
    _source: tuple | None = None

    @property
    def enc_image(self) -> np.ndarray:
        if self._enc_image is None:
            lock, base, image_id = self._source
            with lock:
                if self._enc_image is None:
                    self._enc_image = read_pgm(base / "img" / f"{image_id}.pgm")[0]
        return self._enc_image

    @property
    def feature(self) -> EncryptedFeature:
        if self._feature is None:
            lock, base, image_id = self._source
            with lock:
                if self._feature is None:
                    self._feature = _read_feature(base / "feat" / f"{image_id}.eft")
        return self._feature


@dataclass
class OwnerRecord:
    """A snapshot of an owner's authorized users and images, by image id."""

    owner_id: str
    aul: frozenset[tuple[str, bytes]]
    images: dict[str, StoredImage]

    def require_owned(self, image_ids: Iterable[str]) -> None:
        """Refuse an unsafe or repeated image id, or one this owner does not hold."""
        image_ids = list(image_ids)
        for image_id in image_ids:
            _check_id(image_id, "image id")
        _require_distinct(self.owner_id, image_ids)
        for image_id in image_ids:
            if image_id not in self.images:
                raise OwnershipError(f"{self.owner_id} does not own {image_id!r}")


@dataclass(frozen=True)
class QueryEnvelope:
    """Encrypted query as received by the cloud."""

    eq: EncryptedFeature
    uid: str
    ak: bytes
    h: int = DEFAULT_TOP_H

    def __post_init__(self):
        require_top_h(self.h)


@dataclass(frozen=True)
class RetrievalResult:
    owner_id: str
    image_id: str
    enc_image: np.ndarray
    distance: float


@dataclass(frozen=True)
class AddImages:
    items: tuple[tuple[str, np.ndarray, EncryptedFeature], ...]


@dataclass(frozen=True)
class DeleteImages:
    image_ids: tuple[str, ...]


@dataclass(frozen=True)
class UpdateImages:
    """Re-encrypted replacements; each must recover its indexed row's sums."""

    items: tuple[tuple[str, np.ndarray, EncryptedFeature], ...]


def require_top_h(h: int) -> None:
    """Refuse a result count outside [1, ``TOP_H_BOUND``)."""
    if h < 1:
        raise ValueError("result count h must be >= 1")
    if h >= TOP_H_BOUND:
        raise ValueError(f"result count h must be < {TOP_H_BOUND}")


def _check_id(value: str, what: str) -> None:
    if not _SAFE_ID.match(value):
        raise ValueError(f"{what} {value!r} must match {_SAFE_ID.pattern}")


def credential_line(key_id: str, key: bytes) -> str:
    """One line of a key file: the id, a tab and the key in hex."""
    return f"{key_id}\t{key.hex()}"


def framed_text(header: str, records: Iterable[str]) -> str:
    """The text of a header-framed store file: ``header``, then one record
    per line, each line ended by a newline; ``read_framed`` reads it back."""
    return "\n".join([header, *records]) + "\n"


def read_framed(path: str | Path, header: str) -> list[str]:
    """The lines of store file ``path`` after its first, which must be ``header``."""
    try:
        lines = Path(path).read_text().strip().splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not lines or lines[0] != header:
        raise ValueError(f"{path}: missing or malformed header")
    return lines[1:]


def read_credentials(path: Path, lines: Sequence[str], first: int, noun: str) -> dict[str, bytes]:
    """The key of each ``noun`` id in ``lines``, lines ``first``... of
    ``path``: each a ``credential_line``, and no id twice."""
    keys: dict[str, bytes] = {}
    for number, line in enumerate(lines, first):
        key_id, tab, key_hex = line.partition("\t")
        if not tab:
            raise ValueError(f"{path}: line {number} has no tab")
        try:
            key = bytes.fromhex(key_hex)
        except ValueError:
            raise ValueError(f"{path}: line {number} has a malformed hex field") from None
        if key_id in keys:
            raise ValueError(f"{path}: line {number} repeats {noun} {key_id!r}")
        keys[key_id] = key
    return keys


def _require_distinct(owner_id: str, image_ids: Iterable[str]) -> None:
    seen = set()
    for image_id in image_ids:
        if image_id in seen:
            raise DuplicateImageError(f"{owner_id}/{image_id}")
        seen.add(image_id)


class CloudNode:
    """Stores encrypted data for many owners and answers top-h queries."""

    def __init__(self, params: GroupParams):
        self.params = params
        self.lock = threading.RLock()
        self._auls: dict[str, frozenset[tuple[str, bytes]]] = {}
        self._owners_dir: Path | None = None  # where a row without an image reads it
        self._owner_col, self._image_col, self._stored = [], [], []
        self._s1 = self._s2 = np.zeros(0, dtype=np.int64)

    @property
    def index(self) -> tuple[IndexEntry, ...]:
        """Every stored image's row, in (owner id, image id) order."""
        with self.lock:
            return tuple(map(IndexEntry, self._owner_col, self._image_col,
                             self._s1.tolist(), self._s2.tolist()))

    @property
    def owner_ids(self) -> tuple[str, ...]:
        return tuple(self._auls)

    def owner_record(self, owner_id: str) -> OwnerRecord:
        """A snapshot of ``owner_id``'s authorized users and the images of its rows."""
        with self.lock:
            if owner_id not in self._auls:
                raise UnknownOwnerError(owner_id)
            return OwnerRecord(owner_id, self._auls[owner_id], {
                self._image_col[row]: self._image(row) for row in range(*self._run(owner_id))})

    def register_owner(
        self,
        owner_id: str,
        aul: Iterable[tuple[str, bytes]],
        images: Sequence[tuple[str, np.ndarray, EncryptedFeature]],
    ) -> int:
        """Store a new owner's uploads and index them; returns rows added."""
        _check_id(owner_id, "owner id")
        with self.lock:
            if owner_id in self._auls:
                raise DuplicateOwnerError(owner_id)
            aul = frozenset((uid, bytes(ak)) for uid, ak in aul)
            if len({uid for uid, _ in aul}) < len(aul):
                raise ValueError(f"{owner_id}: authorized-user list repeats a user")
            added = self._add_images(owner_id, images)
            self._auls[owner_id] = aul
            return added

    def verify_user(self, uid: str, ak: bytes) -> set[str]:
        """Owners whose authorized-user list contains (uid, ak)."""
        token = (uid, bytes(ak))
        with self.lock:
            return {oid for oid, aul in self._auls.items() if token in aul}

    def retrieve_top_h(
        self, q: QueryEnvelope, use_index: bool = True
    ) -> list[RetrievalResult]:
        """Rank all authorized images by encrypted-domain distance.

        The query sums are recovered once; the rows are the authorized
        owners' runs, whose sums ``use_index`` reads from the columns and
        without it re-aggregates from each row's ciphertext pair.  Both paths
        make the same ranking call and return identical rankings.
        """
        with self.lock:
            authorized = self.verify_user(q.uid, q.ak)
            if not authorized:
                raise AuthorizationError(f"user {q.uid!r} matches no owner's list")
            query = self._sums(q.eq, f"query sums of user {q.uid!r}")
            rows = np.concatenate([np.arange(*self._run(oid)) for oid in sorted(authorized)])
            if use_index:
                s1, s2 = self._s1[rows], self._s2[rows]
            else:
                sums = [self._sums(self._image(row).feature,
                                   f"sums for {self._owner_col[row]}/{self._image_col[row]}")
                        for row in rows.tolist()]
                s1, s2 = (np.array([getattr(s, n) for s in sums], dtype=np.int64)
                          for n in ("s1", "s2"))
            results = []
            for key, position in top_h(query, s1, s2, q.h):
                row = rows[position]
                results.append(RetrievalResult(
                    owner_id=self._owner_col[row],
                    image_id=self._image_col[row],
                    enc_image=self._image(row).enc_image,
                    distance=math.sqrt(key / query.l),
                ))
            return results

    def apply_update(
        self, owner_id: str, command: AddImages | DeleteImages | UpdateImages
    ) -> None:
        """Apply an owner's add / delete / update command atomically."""
        with self.lock:
            record = self.owner_record(owner_id)
            if isinstance(command, AddImages):
                self._add_images(owner_id, command.items)
            elif isinstance(command, DeleteImages):
                record.require_owned(command.image_ids)
                self._reindex(drop={(owner_id, image_id) for image_id in command.image_ids})
            elif isinstance(command, UpdateImages):
                record.require_owned(iid for iid, _, _ in command.items)
                rows = [self._row(owner_id, *item) for item in command.items]
                start, stop = self._run(owner_id)
                for _, image_id, s1, s2, _ in rows:
                    i = bisect.bisect_left(self._image_col, image_id, start, stop)
                    if self._s1[i] != s1 or self._s2[i] != s2:
                        raise CloudError(f"{owner_id}/{image_id}: replacement changes its sums")
                self._reindex(rows, drop={row[:2] for row in rows})
            else:
                raise TypeError(f"unknown update command {type(command).__name__}")

    def _run(self, owner_id: str) -> tuple[int, int]:
        """The start and stop of ``owner_id``'s rows in the columns."""
        return (bisect.bisect_left(self._owner_col, owner_id),
                bisect.bisect_right(self._owner_col, owner_id))

    def _image(self, row: int) -> StoredImage:
        """Position ``row``'s image; a row without one gets it, reading from the store."""
        if self._stored[row] is None:
            base = self._owners_dir / self._owner_col[row]
            self._stored[row] = StoredImage(None, None, (self.lock, base, self._image_col[row]))
        return self._stored[row]

    def _reindex(self, rows: Iterable[tuple] = (), drop: Container[tuple] = ()) -> None:
        """Rebuild the columns from ``rows``, each (owner id, image id, s1, s2, image or
        ``None``), and the held rows whose ids ``drop`` lacks; no two share their ids."""
        held = zip(self._owner_col, self._image_col, self._s1.tolist(), self._s2.tolist(),
                   self._stored)
        rows = sorted([*(row for row in held if row[:2] not in drop), *rows])
        owners, images, s1, s2, stored = zip(*rows) if rows else [()] * 5
        self._owner_col, self._image_col, self._stored = list(owners), list(images), list(stored)
        self._s1, self._s2 = np.array(s1, dtype=np.int64), np.array(s2, dtype=np.int64)

    def _add_images(self, owner_id: str, items: Sequence[tuple]) -> int:
        """Add rows for ``items``, new images of ``owner_id``, all of them or
        none; returns how many."""
        held = set(self._image_col[slice(*self._run(owner_id))])
        for image_id, _, _ in items:
            _check_id(image_id, "image id")
            if image_id in held:
                raise DuplicateImageError(f"{owner_id}/{image_id}")
        _require_distinct(owner_id, (image_id for image_id, _, _ in items))
        rows = [self._row(owner_id, *item) for item in items]
        self._reindex(rows)
        return len(rows)

    def _row(self, owner_id: str, image_id: str, enc_image: np.ndarray | None,
             feature: EncryptedFeature) -> tuple:
        """The row of ``owner_id``'s image ``image_id``, its feature's sums checked;
        without its pixels the row has no image until it is read."""
        sums = self._sums(feature, f"sums for {owner_id}/{image_id}")
        stored = None if enc_image is None else StoredImage(enc_image, feature)
        return owner_id, image_id, sums.s1, sums.s2, stored

    def _sums(self, feature: EncryptedFeature, what: str) -> SumPair:
        """The recovered sums of ``feature``, which must be sums an edge
        histogram can have; ``what`` names them in a refusal."""
        _require_ehd_length(feature)
        s1, s2 = feature_crypto.recover_sums(self.params, feature)
        return _require_ehd_sums(s1, s2, what)

    def index_table(self) -> str:
        """The retrieval index as the text of ``index.tsv``."""
        return framed_text(INDEX_HEADER,
                           (f"{e.owner_id}\t{e.image_id}\t{e.s1}\t{e.s2}" for e in self.index))

    # -- on-disk layout ----------------------------------------------------

    def save_store(self, root: str | Path) -> None:
        """Persist owners/<OID>/{manifest,img,feat} plus index.tsv, reading each image
        as ``_write_tree`` writes it, so a file that fails to read changes nothing."""
        self._write_tree(root, (
            (self._owner_col[row], self._image_col[row], stored.enc_image, stored.feature)
            for row, stored in enumerate(map(self._image, range(len(self._stored))))
        ))

    @classmethod
    def build_store(cls, root: str | Path, params: GroupParams, aul: Sequence[tuple[str, bytes]],
                    uploads: Iterable[tuple[str, tuple]]) -> "CloudNode":
        """A cloud of ``uploads``, each an owner id and an (image id, pixels, feature) checked
        as ``register_owner`` would, every owner authorizing ``aul``, written as it arrives
        and kept as its row; the new tree replaces ``root``'s once whole, or not at all."""
        root = Path(root)
        node = cls(params)
        node._owners_dir = root / "owners"

        def registered():
            rows = {}
            for owner_id, (image_id, enc_image, feature) in uploads:
                if owner_id not in node._auls:
                    node.register_owner(owner_id, aul, [])
                _check_id(image_id, "image id")
                if (owner_id, image_id) in rows:
                    raise DuplicateImageError(f"{owner_id}/{image_id}")
                rows[owner_id, image_id] = node._row(owner_id, image_id, None, feature)
                yield owner_id, image_id, enc_image, feature
            node._reindex(rows.values())  # once, before _write_tree writes index.tsv

        node._write_tree(root, registered())
        return node

    def _write_tree(self, root: str | Path, images: Iterable[tuple]) -> None:
        """Write ``images``, each (owner id, image id, pixels, feature), as they come,
        then ``index.tsv`` and every manifest, into a new directory in ``root``; once
        it is whole, move ``root``'s ``owners/`` into it, then its ``owners/`` and
        ``index.tsv`` into ``root``.  A failure before then removes the new directory
        and whatever of ``root`` it made, and re-raises."""
        root = Path(root)
        made = next((p for p in (*reversed(root.parents), root) if not p.exists()), None)
        root.mkdir(parents=True, exist_ok=True)
        new = Path(tempfile.mkdtemp(prefix=".new-", dir=root))
        try:
            with self.lock:
                (new / "owners").mkdir()
                bases: dict[str, Path] = {}
                for owner_id, image_id, enc_image, feature in images:
                    if owner_id not in bases:
                        bases[owner_id] = _make_owner_dir(new / "owners" / owner_id)
                    _write_image(bases[owner_id], image_id, enc_image, feature)
                (new / "index.tsv").write_text(self.index_table())
                for oid, aul in self._auls.items():
                    base = bases.get(oid) or _make_owner_dir(new / "owners" / oid)
                    users = (credential_line(*user) for user in sorted(aul))
                    (base / "manifest").write_text(framed_text(MANIFEST_HEADER, [oid, *users]))
        except BaseException:
            shutil.rmtree(made or new)
            raise
        if (root / "owners").exists():
            os.replace(root / "owners", new / "old")
        for name in ("owners", "index.tsv"):
            os.replace(new / name, root / name)
        shutil.rmtree(new)

    @classmethod
    def open_store(cls, root: str | Path, params: GroupParams) -> "CloudNode":
        """Open a store reading only ``index.tsv``, each manifest and the
        ``img/`` and ``feat/`` listings; no ``.eft``, no ``.pgm``, and no row
        gets its image until it is read.  Each image must have exactly one
        ``index.tsv`` row and a ``.eft`` file."""
        root = Path(root)
        node = cls(params)
        index_path = root / "index.tsv"
        unmatched = {}  # each row by (owner id, image id), until its image is listed
        for number, ln in enumerate(read_framed(index_path, INDEX_HEADER), 2):
            try:
                owner_id, image_id, s1, s2 = ln.split("\t")
                row = (owner_id, image_id, int(s1), int(s2), None)
            except ValueError:
                raise ValueError(f"{index_path}: line {number} is malformed: {ln!r}") from None
            _require_ehd_sums(row[2], row[3], f"{index_path}: line {number}: sums")
            if row[:2] in unmatched:
                raise CloudError(f"index row {owner_id}/{image_id} is listed twice")
            unmatched[row[:2]] = row
        node._reindex(unmatched.values())  # sorted, as a hand-edited file need not be

        node._owners_dir = owners_dir = root / "owners"
        for name in sorted(_listing(owners_dir)):
            base = owners_dir / name
            manifest = read_framed(base / "manifest", MANIFEST_HEADER)
            owner_id = manifest[0] if manifest else ""
            _check_id(owner_id, "owner id")
            if owner_id != name:
                raise ValueError(f"{base}/manifest: owner id {owner_id!r} is not {name!r}")
            aul = read_credentials(base / "manifest", manifest[1:], 3, "user")
            node._auls[owner_id] = frozenset(aul.items())
            features = set(_listing(base / "feat"))
            pgms = (n.removesuffix(".pgm") for n in _listing(base / "img") if n.endswith(".pgm"))
            for image_id in sorted(pgms):
                if f"{image_id}.eft" not in features:
                    eft = base / "feat" / f"{image_id}.eft"
                    raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(eft))
                if (owner_id, image_id) not in unmatched:
                    raise CloudError(f"image {owner_id}/{image_id} has no index row")
                del unmatched[owner_id, image_id]
        if unmatched:
            raise CloudError("index row {}/{} has no image".format(*min(unmatched)))
        return node

    @classmethod
    def load_store(cls, root: str | Path, params: GroupParams) -> "CloudNode":
        """``open_store``, then read every row's pixels and feature; no command uses it."""
        node = cls.open_store(root, params)
        for stored in map(node._image, range(len(node._stored))):
            stored.enc_image, stored.feature  # each property reads its file
        return node


def _require_ehd_length(feature: EncryptedFeature) -> None:
    """Refuse a feature that is not an edge histogram, ``FEATURE_DIMS`` long."""
    if feature.dims != FEATURE_DIMS:
        raise ValueError(f"feature dimension {feature.dims}, not the edge histogram's "
                         f"{FEATURE_DIMS}")


def _require_ehd_sums(s1: int, s2: int, what: str) -> SumPair:
    """(s1, s2) as an edge histogram's sums, refused unless they lie in the
    range its ``FEATURE_DIMS`` entries in [0, ``BIN_MAX``] give and satisfy
    Cauchy-Schwarz; ``what`` names them in a refusal."""
    if not (0 <= s1 <= FEATURE_DIMS * BIN_MAX and 0 <= s2 <= FEATURE_DIMS * BIN_MAX**2):
        raise CorruptedSumsError(f"{what} lie outside an edge histogram's range")
    sums = SumPair(s1=s1, s2=s2, l=FEATURE_DIMS)
    if not sums.is_consistent():
        raise CorruptedSumsError(f"{what} violate Cauchy-Schwarz")
    return sums


def _read_feature(eft: Path) -> EncryptedFeature:
    """The feature in ``eft``, an edge histogram's."""
    try:
        feature = feature_crypto.feature_from_text(eft.read_text())
        _require_ehd_length(feature)
    except ValueError as exc:
        raise ValueError(f"{eft}: {exc}") from None
    return feature


def _write_image(base: Path, image_id: str, pixels: np.ndarray, feature: EncryptedFeature) -> None:
    """Write ``img/<image>.pgm`` and ``feat/<image>.eft`` in owner directory ``base``."""
    write_pgm(base / "img" / f"{image_id}.pgm", pixels, encrypted=True)
    (base / "feat" / f"{image_id}.eft").write_text(feature_crypto.feature_to_text(feature))


def _make_owner_dir(base: Path) -> Path:
    """Make owner directory ``base`` with its ``img/`` and ``feat/``; returns ``base``."""
    (base / "img").mkdir(parents=True)
    (base / "feat").mkdir()
    return base


def _listing(directory: Path) -> list[str]:
    """The names in ``directory``; none if it does not exist."""
    return os.listdir(directory) if directory.is_dir() else []
