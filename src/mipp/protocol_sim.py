"""Deterministic simulation of the owner / user / cloud / KMC workflow.

Setup: each owner extracts features, encrypts images and features, uploads
them to the cloud (step 1) and deposits its image key at the KMC (step 2).
A query session then runs steps 3..7: encrypted query to the cloud, fresh
user key to the KMC, encrypted results from cloud to KMC, re-encrypted
results back to the cloud, and final delivery to the user, who decrypts,
re-extracts features locally and sorts by plaintext Euclidean distance.

Steps 3..7 are written once, in ``query_session``, which hands each message
to its recipient through a transport it is given.  All actors live in one
process.  ``World`` hops go through the wire: every message is serialized to
the canonical wire format, recorded in the transcript and parsed back before
the recipient acts, so a socket transport can be dropped in without touching
actor logic.  ``mipp query`` hands the same messages over in process.  Each
``MessageKind`` value is the number of the protocol step that sends it, so
a transcript entry's step is its message's kind.  Every random choice
derives from the seed, making transcripts byte-identical across runs.
"""

from __future__ import annotations

import enum
import hashlib
import struct
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import feature_crypto
from .cloud_node import DEFAULT_TOP_H, AuthorizationError, CloudNode, QueryEnvelope
from .ehd_features import extract_ehd
from .feature_crypto import EncryptedFeature
from .group_crypto import GroupParams
from .image_cipher import image_dec, image_enc, keygen
from .kmc_node import KmcNode
from .rng import ByteStream, derive_seed

SESSION_ID_BYTES = 16


class DecodeError(ValueError):
    """Malformed wire bytes; ``offset`` points at the failing position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class MessageKind(enum.IntEnum):
    OWNER_UPLOAD = 1
    OWNER_KEY_DEPOSIT = 2
    USER_QUERY = 3
    USER_KEY_DEPOSIT = 4
    CLOUD_TO_KMC = 5
    KMC_TO_CLOUD = 6
    CLOUD_TO_USER = 7


@dataclass(frozen=True)
class OwnerUpload:
    owner_id: str
    aul: tuple[tuple[str, bytes], ...]
    images: tuple[tuple[str, np.ndarray, EncryptedFeature], ...]


@dataclass(frozen=True)
class OwnerKeyDeposit:
    owner_id: str
    sk: bytes


@dataclass(frozen=True)
class UserKeyDeposit:
    uid: str
    usk: bytes


@dataclass(frozen=True)
class CloudToKmc:
    uid: str
    ak: bytes
    results: tuple[tuple[str, str, np.ndarray], ...]


@dataclass(frozen=True)
class KmcToCloud:
    uid: str
    results: tuple[tuple[str, str, np.ndarray], ...]


@dataclass(frozen=True)
class CloudToUser:
    uid: str
    results: tuple[tuple[str, str, np.ndarray], ...]


@dataclass(frozen=True)
class Message:
    """One protocol message; its kind is the kind of its payload."""

    session: bytes
    payload: object

    def __post_init__(self):
        if len(self.session) != SESSION_ID_BYTES:
            raise ValueError(f"session id must be {SESSION_ID_BYTES} bytes")

    @property
    def kind(self) -> MessageKind:
        return _KIND_OF[type(self.payload)]


# -- wire encoding -----------------------------------------------------------
#
# Frame: u32 length of the rest, u8 kind, 16-byte session id, body.
# Strings are u16-length utf-8; byte blobs u32-length; big integers
# u16-length big-endian magnitudes; images u32 height, u32 width, raw
# pixels.  Encoding is canonical: equal messages encode byte-identically
# (the sole set-valued field, the AUL, is sorted).


def _w_str(out: bytearray, s: str) -> None:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValueError("string field too long")
    out += struct.pack(">H", len(raw)) + raw


def _w_bytes(out: bytearray, b: bytes) -> None:
    out += struct.pack(">I", len(b)) + b


def _w_u32(out: bytearray, value: int) -> None:
    out += struct.pack(">I", value)


def _w_image(out: bytearray, img: np.ndarray) -> None:
    arr = np.asarray(img)
    if arr.ndim != 2 or arr.dtype != np.uint8:
        raise ValueError("wire images must be 2-D uint8 arrays")
    out += struct.pack(">II", arr.shape[0], arr.shape[1])
    out += arr.tobytes()


def _w_feature(out: bytearray, f: EncryptedFeature) -> None:
    """The params id, a u16 dims, then every entry of ef and of eff as a
    big integer."""
    _w_str(out, f.params_id)
    parts = [struct.pack(">H", f.dims)]
    for value in f.ef + f.eff:
        if value < 0:
            raise ValueError("negative integers not supported on the wire")
        n = (value.bit_length() + 7) // 8
        if n > 0xFFFF:
            raise ValueError("integer field too long")
        parts.append(n.to_bytes(2, "big") + value.to_bytes(n, "big"))
    out += b"".join(parts)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.data):
            raise DecodeError(f"need {n} bytes", self.offset)
        out = self.data[self.offset : self.offset + n]
        self.offset += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def r_str(self) -> str:
        n = self.u16()
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError:
            raise DecodeError("invalid utf-8 in string field", self.offset) from None

    def r_bytes(self) -> bytes:
        return self.take(self.u32())

    def r_image(self) -> np.ndarray:
        m, n = self.u32(), self.u32()
        if m == 0 or n == 0 or m * n > 1 << 30:
            raise DecodeError(f"implausible image shape {m}x{n}", self.offset)
        raw = self.take(m * n)
        return np.frombuffer(raw, dtype=np.uint8).reshape(m, n).copy()

    def r_feature(self) -> EncryptedFeature:
        params_id = self.r_str()
        dims = self.u16()
        # 2 * dims big integers, each read as ``take`` would read it
        data, at, end = self.data, self.offset, len(self.data)
        values = []
        for _ in range(2 * dims):
            if at + 2 > end:
                raise DecodeError("need 2 bytes", at)
            n = data[at] << 8 | data[at + 1]
            at += 2
            if at + n > end:
                raise DecodeError(f"need {n} bytes", at)
            values.append(int.from_bytes(data[at : at + n], "big"))
            at += n
        self.offset = at
        return EncryptedFeature(ef=tuple(values[:dims]), eff=tuple(values[dims:]),
                                params_id=params_id)


def _seq(*fields, sort: bool = False):
    """Codec of a u32 count, then that many tuples of ``fields``, in order
    or, with ``sort``, sorted; a count beyond the remaining bytes is refused."""
    writers, readers = zip(*fields)

    def write(out: bytearray, items) -> None:
        items = sorted(items) if sort else items
        out += struct.pack(">I", len(items))
        for item in items:
            for write_field, value in zip(writers, item):
                write_field(out, value)

    def read(reader: _Reader) -> tuple:
        count = reader.u32()
        if count > len(reader.data) - reader.offset:
            raise DecodeError(f"count {count} exceeds the remaining bytes", reader.offset)
        return tuple([tuple([read_field(reader) for read_field in readers])
                      for _ in range(count)])

    return write, read


# Each kind's payload type and its fields in wire order, with the writer
# and reader of each field.
_STR = (_w_str, _Reader.r_str)
_BYTES = (_w_bytes, _Reader.r_bytes)
_U32 = (_w_u32, _Reader.u32)
_FEATURE = (_w_feature, _Reader.r_feature)
_IMAGE = (_w_image, _Reader.r_image)
_RESULTS = _seq(_STR, _STR, _IMAGE)
_WIRE = {
    MessageKind.OWNER_UPLOAD: (OwnerUpload, (
        ("owner_id", _STR), ("aul", _seq(_STR, _BYTES, sort=True)),
        ("images", _seq(_STR, _IMAGE, _FEATURE)),
    )),
    MessageKind.OWNER_KEY_DEPOSIT: (OwnerKeyDeposit, (("owner_id", _STR), ("sk", _BYTES))),
    MessageKind.USER_QUERY: (QueryEnvelope, (
        ("uid", _STR), ("ak", _BYTES), ("h", _U32), ("eq", _FEATURE),
    )),
    MessageKind.USER_KEY_DEPOSIT: (UserKeyDeposit, (("uid", _STR), ("usk", _BYTES))),
    MessageKind.CLOUD_TO_KMC: (CloudToKmc, (
        ("uid", _STR), ("ak", _BYTES), ("results", _RESULTS),
    )),
    MessageKind.KMC_TO_CLOUD: (KmcToCloud, (("uid", _STR), ("results", _RESULTS))),
    MessageKind.CLOUD_TO_USER: (CloudToUser, (("uid", _STR), ("results", _RESULTS))),
}
_KIND_OF = {payload_type: kind for kind, (payload_type, _) in _WIRE.items()}


def encode_message(m: Message) -> bytes:
    body = bytearray()
    for name, (write, _) in _WIRE[m.kind][1]:
        write(body, getattr(m.payload, name))

    frame = bytearray()
    frame += struct.pack(">I", 1 + SESSION_ID_BYTES + len(body))
    frame += struct.pack(">B", int(m.kind))
    frame += m.session
    frame += body
    return bytes(frame)


def decode_message(data: bytes) -> Message:
    reader = _Reader(data)
    length = reader.u32()
    if length != len(data) - 4:
        raise DecodeError(
            f"frame length {length} != {len(data) - 4} available", 0
        )
    kind_value = reader.u8()
    try:
        kind = MessageKind(kind_value)
    except ValueError:
        raise DecodeError(f"unknown message kind {kind_value}", 4) from None
    session = reader.take(SESSION_ID_BYTES)

    payload_type, fields = _WIRE[kind]
    try:
        payload = payload_type(**{name: read(reader) for name, (_, read) in fields})
    except DecodeError:
        raise
    except ValueError as exc:  # a field or payload constructor refused its value
        raise DecodeError(str(exc), reader.offset) from None

    if reader.offset != len(data):
        raise DecodeError("trailing bytes after message body", reader.offset)
    return Message(session, payload)


# -- transcripts ---------------------------------------------------------------


@dataclass(frozen=True)
class TranscriptEntry:
    kind: MessageKind  # its value is the step
    session: str
    n_bytes: int
    digest: str

    def line(self) -> str:
        return (
            f"{self.kind.value} {self.kind.name} session={self.session} "
            f"bytes={self.n_bytes} sha256={self.digest}"
        )


@dataclass
class SessionTranscript:
    entries: list[TranscriptEntry] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def record(self, message: Message, message_bytes: bytes) -> None:
        """Log ``message``, sent as ``message_bytes``, under its step."""
        self.entries.append(
            TranscriptEntry(
                kind=message.kind,
                session=message.session.hex(),
                n_bytes=len(message_bytes),
                digest=hashlib.sha256(message_bytes).hexdigest()[:16],
            )
        )

    def note(self, text: str) -> None:
        self.notes.append(text)

    def steps(self) -> list[int]:
        return [e.kind.value for e in self.entries]

    def to_text(self) -> str:
        lines = [e.line() for e in self.entries]
        lines += [f"! {n}" for n in self.notes]
        return "\n".join(lines) + "\n"


# -- client steps ----------------------------------------------------------------


def encrypt_uploads(
    params: GroupParams,
    sk: bytes,
    images: Iterable[tuple[str, np.ndarray]],
    seed: bytes | str,
    label: str,
) -> tuple[list[tuple[str, np.ndarray, EncryptedFeature]], dict[str, np.ndarray]]:
    """The owner's step 1 for a batch of images.

    Each image's EHD is encrypted as a feature pair under
    ``derive_seed(seed, label + image_id)`` and the image is XORed with the
    owner keystream ``sk``.  Returns the (image id, encrypted image,
    encrypted feature) triples to upload, and the plaintext features.  A
    refusal keeps its type and gains the image id; its cause is the original.
    """
    uploads = []
    features = {}
    for image_id, img in images:
        try:
            feature = extract_ehd(img)
            enc = feature_crypto.encrypt_feature_pair(
                params, feature, derive_seed(seed, label + image_id)
            )
            uploads.append((image_id, image_enc(sk, img), enc))
        except ValueError as exc:
            raise type(exc)(f"{image_id}: {exc}") from exc
        features[image_id] = feature
    return uploads, features


def rank_by_euclidean(
    query_feature: np.ndarray, candidates: Iterable[tuple[str, str, np.ndarray]]
) -> list[tuple[int, str, str]]:
    """(squared distance, owner id, image id) per candidate feature, nearest
    first; equal distances go by (owner id, image id)."""
    return sorted(
        (int(((feature - query_feature) ** 2).sum()), owner_id, image_id)
        for owner_id, image_id, feature in candidates
    )


def decrypt_and_rerank(
    usk: bytes,
    query_feature: np.ndarray,
    delivered: Iterable[tuple[str, str, np.ndarray]],
) -> tuple[dict[tuple[str, str], np.ndarray], list[tuple[int, str, str]]]:
    """The user's last step: decrypt each delivered image under ``usk``,
    re-extract its EHD and re-rank by plaintext Euclidean distance.

    Returns the plaintext images by (owner id, image id) and the ranking.
    """
    images = {(o, i): image_dec(usk, enc_img) for o, i, enc_img in delivered}
    ranked = rank_by_euclidean(
        query_feature, ((o, i, extract_ehd(img)) for (o, i), img in images.items())
    )
    return images, ranked


# -- actors and the world ------------------------------------------------------


@dataclass
class OwnerActor:
    plain_images: dict[str, np.ndarray]
    plain_features: dict[str, np.ndarray]


@dataclass
class UserActor:
    ak: bytes
    sessions_run: int = 0


@dataclass
class SessionResult:
    """One query's outcome: the cloud's top-h in its order with each image's
    cloud distance, the decrypted images, and the user's re-rank as
    (squared Euclidean distance, owner id, image id), nearest first."""

    session: str
    authorized: bool
    transcript: SessionTranscript
    returned: list[tuple[str, str]]
    cloud_distance: dict[tuple[str, str], float]
    images: dict[tuple[str, str], np.ndarray]
    ranking: list[tuple[int, str, str]]

    @property
    def user_ranking(self) -> list[tuple[str, str]]:
        return [(o, i) for _, o, i in self.ranking]


def query_session(
    params: GroupParams,
    cloud: CloudNode,
    kmc: KmcNode,
    uid: str,
    ak: bytes,
    query_feature: np.ndarray,
    h: int,
    seed: bytes | str,
    ordinal: int,
    send: Callable[[Message, SessionTranscript, Callable[[Message], object]], object],
) -> SessionResult:
    """Steps 3..7 of user ``uid``'s ``ordinal``-th query, whose image has
    the EHD ``query_feature``, then the user's local re-rank.

    ``send(message, transcript, handler)`` carries each message to its
    recipient and returns ``handler``'s result on it.  The cloud's
    ``retrieve_top_h`` is the only authorization check: when it refuses the
    user, the session notes the failure, drops the user key at the KMC and
    ends unauthorized.  Everything random derives from (seed, uid, ordinal);
    the user key is as long as the longest owner key the KMC holds.
    """
    session = ByteStream(derive_seed(seed, f"session:{uid}:{ordinal}")).take(SESSION_ID_BYTES)
    sid = session.hex()
    transcript = SessionTranscript()
    eq = feature_crypto.encrypt_feature_pair(
        params, query_feature, derive_seed(seed, f"query-feature:{uid}:{ordinal}")
    )
    usk = keygen(kmc.user_key_length(), derive_seed(seed, f"usk:{uid}:{ordinal}"))

    def hop(payload, handler: Callable[[Message], object]):
        return send(Message(session, payload), transcript, handler)

    envelope = hop(QueryEnvelope(eq=eq, uid=uid, ak=ak, h=h), lambda m: m.payload)
    hop(UserKeyDeposit(uid=uid, usk=usk),
        lambda m: kmc.store_user_key(m.payload.uid, m.payload.usk, sid))
    try:
        retrieved = cloud.retrieve_top_h(envelope)
    except AuthorizationError:
        transcript.note(f"authorization failed for uid={uid}")
        kmc.drop_user_key(uid)
        return SessionResult(session=sid, authorized=False, transcript=transcript,
                             returned=[], cloud_distance={}, images={}, ranking=[])
    er = tuple((r.owner_id, r.image_id, r.enc_image) for r in retrieved)

    ner = hop(CloudToKmc(uid=uid, ak=ak, results=er),
              lambda m: tuple(kmc.reencrypt_results(list(m.payload.results), m.payload.uid, sid)))
    forwarded = hop(KmcToCloud(uid=uid, results=ner), lambda m: m.payload.results)
    delivered = hop(CloudToUser(uid=uid, results=forwarded), lambda m: m.payload.results)

    images, ranking = decrypt_and_rerank(usk, query_feature, delivered)
    return SessionResult(session=sid, authorized=True, transcript=transcript,
                         returned=[(o, i) for o, i, _ in er],
                         cloud_distance={(r.owner_id, r.image_id): r.distance for r in retrieved},
                         images=images, ranking=ranking)


class World:
    """One cloud, one KMC, any number of owners and users.

    ``max_image_pixels`` fixes the length of every owner key.  A user key
    is as long as the longest owner key, so the key deposited at step 4
    covers whatever result images arrive at step 7.
    """

    def __init__(
        self,
        params: GroupParams,
        seed: bytes | str,
        top_h: int = DEFAULT_TOP_H,
        max_image_pixels: int = 256 * 256,
    ):
        self.params = params
        self.seed = seed
        self.top_h = top_h
        self.max_image_pixels = max_image_pixels
        self.cloud = CloudNode(params)
        self.kmc = KmcNode()
        self.owners: dict[str, OwnerActor] = {}
        self.users: dict[str, UserActor] = {}
        self.setup_transcript = SessionTranscript()
        self._lock = threading.Lock()

    # -- population ------------------------------------------------------

    def add_user(self, uid: str) -> UserActor:
        if uid in self.users:
            raise ValueError(f"user {uid!r} already exists")
        ak = ByteStream(derive_seed(self.seed, f"ak:{uid}")).take(32)
        actor = UserActor(ak=ak)
        self.users[uid] = actor
        return actor

    def add_owner(
        self,
        owner_id: str,
        images: Sequence[tuple[str, np.ndarray]],
        authorize: Iterable[str] = (),
    ) -> OwnerActor:
        """Run steps 1 and 2 for one owner.

        The owner key covers ``max_image_pixels`` pixels; a larger image
        (``KeyLengthError``) or one too small for an EHD is refused, by its
        id, before anything is sent.  Both steps run under the cloud's lock,
        so no session ranks the owner's images before the KMC holds its key.
        """
        if owner_id in self.owners:
            raise ValueError(f"owner {owner_id!r} already exists")
        sk = keygen(self.max_image_pixels, derive_seed(self.seed, f"owner-sk:{owner_id}"))
        uploads, plain_features = encrypt_uploads(
            self.params, sk, images, self.seed, f"feature:{owner_id}:"
        )

        aul = tuple(sorted((uid, self.users[uid].ak) for uid in authorize))
        setup_session = ByteStream(
            derive_seed(self.seed, f"setup:{owner_id}")
        ).take(SESSION_ID_BYTES)

        upload = Message(setup_session, OwnerUpload(owner_id=owner_id, aul=aul,
                                                    images=tuple(uploads)))
        deposit = Message(setup_session, OwnerKeyDeposit(owner_id=owner_id, sk=sk))
        with self.cloud.lock:
            self._send(upload, self.setup_transcript, lambda m: self.cloud.register_owner(
                m.payload.owner_id, m.payload.aul, m.payload.images))
            self._send(deposit, self.setup_transcript, lambda m: self.kmc.store_owner_key(
                m.payload.owner_id, m.payload.sk))

        actor = OwnerActor(plain_images=dict(images), plain_features=plain_features)
        self.owners[owner_id] = actor
        return actor

    # -- query sessions ----------------------------------------------------

    def run_session(
        self, uid: str, query_image: np.ndarray, h: int | None = None
    ) -> SessionResult:
        """Run steps 3..7 for one query through ``query_session``, every hop
        over the wire; a query image too small for an EHD raises
        ``ImageTooSmallError`` before the session starts.

        Sessions of distinct users may run concurrently; everything random
        derives from (world seed, uid, per-user ordinal), so results do not
        depend on scheduling.
        """
        user = self.users[uid]
        query_feature = extract_ehd(query_image)
        with self._lock:
            ordinal = user.sessions_run
            user.sessions_run += 1
        return query_session(self.params, self.cloud, self.kmc, uid, user.ak, query_feature,
                             self.top_h if h is None else h, self.seed, ordinal, self._send)

    # -- message handlers --------------------------------------------------

    def _send(
        self,
        message: Message,
        transcript: SessionTranscript,
        handler: Callable[[Message], object],
    ):
        data = encode_message(message)
        transcript.record(message, data)
        return handler(decode_message(data))


def scan_cloud_for_plaintext(world: World) -> list[str]:
    """Compare the cloud's observable state against every owner plaintext.

    Returns findings; an empty list means no plaintext image bytes and no
    plaintext feature vectors are visible cloud-side.
    """
    findings = []
    plain_blobs = {
        (oid, iid): actor.plain_images[iid].tobytes()
        for oid, actor in world.owners.items()
        for iid in actor.plain_images
    }
    for oid, record in ((o, world.cloud.owner_record(o)) for o in world.cloud.owner_ids):
        for iid, stored in record.images.items():
            blob = stored.enc_image.tobytes()
            for key, plain in plain_blobs.items():
                if blob == plain:
                    findings.append(f"stored image {oid}/{iid} equals plaintext {key}")
        actor = world.owners.get(oid)
        if actor is None:
            continue
        for iid, stored in record.images.items():
            feature = actor.plain_features.get(iid)
            if feature is None:
                continue
            as_ints = tuple(int(v) for v in feature)
            if stored.feature.ef == as_ints or stored.feature.eff == as_ints:
                findings.append(f"stored feature {oid}/{iid} equals plaintext")
    return findings
