import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipp.cloud_node import QueryEnvelope
from mipp.ehd_features import ImageTooSmallError
from mipp.feature_crypto import EncryptedFeature, encrypt_feature_pair
from mipp.group_crypto import gen_group_params
from mipp.protocol_sim import (
    CloudToKmc,
    CloudToUser,
    DecodeError,
    KmcToCloud,
    Message,
    MessageKind,
    OwnerKeyDeposit,
    OwnerUpload,
    UserKeyDeposit,
    World,
    decode_message,
    encode_message,
    scan_cloud_for_plaintext,
)
from mipp.similarity import new_dis

PARAMS = gen_group_params(32, b"protocol-tests")
SESSION = bytes(range(16))


def tiny_feature(seed=b"f"):
    return encrypt_feature_pair(PARAMS, [1, 2, 3], seed)


def tiny_image(value=7):
    return np.full((1, 2), value, dtype=np.uint8)


def minimal_messages():
    feature = tiny_feature()
    img = tiny_image()
    return [
        Message(SESSION, OwnerUpload("o1", (("u1", b"\x01"),), (("im1", img, feature),))),
        Message(SESSION, OwnerKeyDeposit("o1", b"\x02\x03")),
        Message(SESSION, QueryEnvelope(uid="u1", ak=b"\x01", h=5, eq=feature)),
        Message(SESSION, UserKeyDeposit("u1", b"\x04")),
        Message(SESSION, CloudToKmc("u1", b"\x01", (("o1", "im1", img),))),
        Message(SESSION, KmcToCloud("u1", (("o1", "im1", img),))),
        Message(SESSION, CloudToUser("u1", ())),
    ]


def test_a_message_kind_is_its_payload_kind():
    assert [m.kind for m in minimal_messages()] == list(MessageKind)
    data = encode_message(minimal_messages()[3])
    assert data[4] == MessageKind.USER_KEY_DEPOSIT


def test_roundtrip_all_kinds():
    for m in minimal_messages():
        data = encode_message(m)
        back = decode_message(data)
        assert back.kind == m.kind
        assert back.session == m.session
        assert encode_message(back) == data  # identity at the byte level


def test_roundtrip_preserves_fields():
    m = minimal_messages()[0]
    back = decode_message(encode_message(m))
    assert back.payload.owner_id == "o1"
    assert back.payload.aul == (("u1", b"\x01"),)
    image_id, img, feature = back.payload.images[0]
    assert image_id == "im1"
    assert np.array_equal(img, tiny_image())
    assert feature == tiny_feature()


def test_encoding_is_canonical():
    feature = tiny_feature()
    img = tiny_image()
    a = Message(SESSION, OwnerUpload("o1", (("u1", b"\x01"), ("a0", b"\x09")),
                                     (("im1", img, feature),)))
    b = Message(SESSION, OwnerUpload("o1", (("a0", b"\x09"), ("u1", b"\x01")),
                                     (("im1", img, feature),)))
    assert encode_message(a) == encode_message(b)
    assert encode_message(a) == encode_message(a)


def test_truncation_raises_decode_error():
    data = encode_message(minimal_messages()[2])
    for cut in (0, 3, 10, len(data) - 1):
        with pytest.raises(DecodeError):
            decode_message(data[:cut])


def test_flipped_length_byte_raises_decode_error():
    data = bytearray(encode_message(minimal_messages()[3]))
    data[3] ^= 0xFF  # low byte of the frame length
    with pytest.raises(DecodeError) as err:
        decode_message(bytes(data))
    assert err.value.offset >= 0


def test_trailing_bytes_rejected():
    data = encode_message(minimal_messages()[1])
    with pytest.raises(DecodeError):
        decode_message(data[:4] + data[4:] + b"\x00")


def test_user_query_with_h_zero_raises_decode_error():
    data = bytearray(encode_message(minimal_messages()[2]))
    # frame header (4 + 1 + 16), uid "u1" (2 + 2), ak b"\x01" (4 + 1), then h
    at = 21 + 4 + 5
    assert data[at:at + 4] == struct.pack(">I", 5)
    data[at:at + 4] = struct.pack(">I", 0)
    with pytest.raises(DecodeError, match="h must be >= 1") as err:
        decode_message(bytes(data))
    assert err.value.offset == len(data)


@pytest.mark.parametrize("index, at", [
    (0, 21 + 4),  # the AUL, after the owner id "o1"
    (0, 21 + 4 + 4 + 4 + 5),  # the uploads, after one AUL entry
    (4, 21 + 4 + 5),  # the results, after uid "u1" and ak b"\x01"
], ids=["aul", "uploads", "results"])
def test_sequence_count_beyond_the_remaining_bytes_is_refused(index, at):
    data = bytearray(encode_message(minimal_messages()[index]))
    assert data[at:at + 4] == struct.pack(">I", 1)
    data[at:at + 4] = struct.pack(">I", 0xFFFFFFFF)
    with pytest.raises(DecodeError, match="exceeds the remaining bytes") as err:
        decode_message(bytes(data))
    assert err.value.offset == at + 4


def test_unknown_kind_rejected():
    data = bytearray(encode_message(minimal_messages()[1]))
    data[4] = 99
    with pytest.raises(DecodeError):
        decode_message(bytes(data))


def test_fuzz_random_flips_never_panic():
    rng = np.random.default_rng(0)
    data = encode_message(minimal_messages()[0])
    for _ in range(300):
        mutated = bytearray(data)
        for _ in range(rng.integers(1, 4)):
            mutated[rng.integers(0, len(mutated))] ^= int(rng.integers(1, 256))
        try:
            decode_message(bytes(mutated))
        except DecodeError:
            pass  # graceful rejection is the contract


def features():
    """Features of 3..80 entries, each 0, 1 or any value below p^2."""
    entry = st.one_of(st.sampled_from([0, 1, PARAMS.p_squared - 1]),
                      st.integers(0, PARAMS.p_squared - 1))
    return st.integers(3, 80).flatmap(lambda dims: st.builds(
        EncryptedFeature,
        ef=st.lists(entry, min_size=dims, max_size=dims).map(tuple),
        eff=st.lists(entry, min_size=dims, max_size=dims).map(tuple),
        params_id=st.just(PARAMS.params_id),
    ))


@settings(max_examples=100, deadline=None)
@given(feature=features(), h=st.integers(1, 2**32 - 1))
def test_a_feature_survives_the_wire(feature, h):
    m = Message(SESSION, QueryEnvelope(uid="u1", ak=b"\x01", h=h, eq=feature))
    assert decode_message(encode_message(m)) == m


@settings(max_examples=10, deadline=None)
@given(feature=features())
def test_every_prefix_of_an_owner_upload_is_refused_inside_its_frame(feature):
    data = encode_message(Message(SESSION, OwnerUpload("o1", (("u1", b"\x01"),),
                                                       (("im1", tiny_image(), feature),))))
    for cut in range(len(data)):
        prefix = data[:cut]
        # as sent, whose frame length no longer matches, and re-framed, so
        # that the body's own fields run out
        candidates = [prefix]
        if cut >= 4:
            candidates.append(struct.pack(">I", cut - 4) + prefix[4:])
        for candidate in candidates:
            with pytest.raises(DecodeError) as err:
                decode_message(candidate)
            assert 0 <= err.value.offset <= cut


def make_world(seed=b"world-seed", top_h=100):
    rng = np.random.default_rng(11)
    world = World(PARAMS, seed, top_h=top_h, max_image_pixels=32 * 32)
    world.add_user("alice")
    world.add_user("eve")
    world.add_owner(
        "owner-1",
        images=[("im-%d" % i, rng.integers(0, 256, size=(16, 16), dtype=np.uint8))
                for i in range(3)],
        authorize=["alice"],
    )
    world.add_owner(
        "owner-2",
        images=[("im-%d" % i, rng.integers(0, 256, size=(16, 16), dtype=np.uint8))
                for i in range(2)],
        authorize=["alice"],
    )
    return world


def test_image_beyond_the_owner_key_is_refused_before_anything_is_sent():
    world = World(PARAMS, b"budget", max_image_pixels=16 * 16)
    world.add_user("alice")
    images = [("small", np.zeros((16, 16), np.uint8)), ("large", np.zeros((16, 17), np.uint8))]
    with pytest.raises(ValueError):
        world.add_owner("owner-1", images, authorize=["alice"])
    assert world.cloud.owner_ids == () and world.owners == {}
    with pytest.raises(KeyError):
        world.kmc.owner_key("owner-1")
    assert world.setup_transcript.entries == []


def test_an_image_too_small_for_an_ehd_is_refused_by_its_id():
    world = World(PARAMS, b"tiny", max_image_pixels=16 * 16)
    images = [("fine", np.zeros((16, 16), np.uint8)), ("tiny-7", np.zeros((4, 4), np.uint8))]
    with pytest.raises(ImageTooSmallError,
                       match=r"^tiny-7: 4x4 image too small for a 4x4 grid of 2x2 blocks$"):
        world.add_owner("owner-1", images)
    assert world.cloud.owner_ids == () and world.setup_transcript.entries == []


def test_session_transcript_order_and_fidelity():
    world = make_world()
    query = world.owners["owner-1"].plain_images["im-0"]
    result = world.run_session("alice", query)
    assert result.authorized
    assert result.transcript.steps() == [3, 4, 5, 6, 7]
    assert len(result.returned) == 5  # whole corpus, ranked
    for key, plain in result.images.items():
        oid, iid = key
        assert np.array_equal(plain, world.owners[oid].plain_images[iid])


def test_setup_transcript_covers_steps_1_and_2():
    world = make_world()
    assert world.setup_transcript.steps() == [1, 2, 1, 2]


def test_unauthorized_session_aborts_after_verification():
    world = make_world()
    query = world.owners["owner-1"].plain_images["im-0"]
    result = world.run_session("eve", query)
    assert not result.authorized
    assert result.transcript.steps() == [3, 4]
    assert result.transcript.notes and "authorization failed" in result.transcript.notes[0]
    assert result.returned == [] and result.images == {}
    assert not world.kmc.has_user_key("eve")


def test_stored_query_image_is_found():
    world = make_world()
    target = world.owners["owner-2"].plain_images["im-1"]
    result = world.run_session("alice", target, h=5)
    assert ("owner-2", "im-1") in result.returned

    # oracle: rank the plaintext features with the sum-based distance and
    # the same tie-break; the encrypted pipeline must agree exactly
    f = world.owners["owner-2"].plain_features["im-1"]
    oracle = sorted(
        ((new_dis(f, actor.plain_features[iid]), oid, iid)
         for oid, actor in world.owners.items()
         for iid in actor.plain_features),
    )
    assert result.returned == [(oid, iid) for _, oid, iid in oracle]
    # the user's local Euclidean re-rank puts the exact image first
    assert result.user_ranking[0] == ("owner-2", "im-1")


def test_transcripts_are_deterministic():
    r1 = make_world(seed=b"det").run_session(
        "alice", make_world(seed=b"det").owners["owner-1"].plain_images["im-1"]
    )
    world_a = make_world(seed=b"det")
    world_b = make_world(seed=b"det")
    query = world_a.owners["owner-1"].plain_images["im-1"]
    t1 = world_a.run_session("alice", query).transcript.to_text()
    t2 = world_b.run_session("alice", query).transcript.to_text()
    assert t1 == t2
    assert world_a.setup_transcript.to_text() == world_b.setup_transcript.to_text()
    world_c = make_world(seed=b"different")
    t3 = world_c.run_session("alice", query).transcript.to_text()
    assert t1 != t3


def test_fresh_user_key_each_session():
    world = make_world()
    query = world.owners["owner-1"].plain_images["im-0"]
    a = world.run_session("alice", query)
    b = world.run_session("alice", query)
    assert a.session != b.session
    assert a.authorized and b.authorized  # reuse would raise KeyReuseError


def test_cloud_never_sees_plaintext():
    world = make_world()
    world.run_session("alice", world.owners["owner-1"].plain_images["im-0"])
    assert scan_cloud_for_plaintext(world) == []


def test_transcript_text_format():
    world = make_world()
    result = world.run_session("alice", world.owners["owner-1"].plain_images["im-0"])
    lines = result.transcript.to_text().strip().splitlines()
    assert lines[0].startswith("3 USER_QUERY session=")
    assert all("sha256=" in ln for ln in lines)
