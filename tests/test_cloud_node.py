import math
import random
import re
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipp import cloud_node, feature_crypto
from mipp.ehd_features import FEATURE_DIMS
from mipp.cloud_node import (
    AddImages,
    AuthorizationError,
    CloudError,
    CloudNode,
    DeleteImages,
    DuplicateImageError,
    DuplicateOwnerError,
    OwnershipError,
    QueryEnvelope,
    UnknownOwnerError,
    UpdateImages,
)
from mipp.feature_crypto import EncryptedFeature, encrypt_feature_pair, feature_to_text
from mipp.group_crypto import encrypt_vector, gen_group_params
from mipp.similarity import CorruptedSumsError, SumPair, new_dis, rank_key

PARAMS = gen_group_params(32, b"cloud-tests")
AK1 = bytes(range(32))
AK2 = bytes(range(32, 64))


def enc_img(seed, shape=(8, 8)):
    return np.random.default_rng(seed).integers(0, 256, size=shape, dtype=np.uint8)


def padded(vector):
    """``vector`` with zeros appended to an edge histogram's length; its sums
    do not change."""
    return list(vector) + [0] * (FEATURE_DIMS - len(vector))


def upload(vector, seed):
    return encrypt_feature_pair(PARAMS, padded(vector), seed)


FOUR = encrypt_feature_pair(PARAMS, [1, 2, 3, 4], b"four")  # not an edge histogram


def make_cloud():
    cloud = CloudNode(PARAMS)
    cloud.register_owner(
        "owner-1",
        aul=[("alice", AK1)],
        images=[
            ("img-a", enc_img(1), upload([2, 3, 4], b"a")),
            ("img-b", enc_img(2), upload([10, 0, 0], b"b")),
            ("img-c", enc_img(3), upload([200, 200, 200], b"c")),
        ],
    )
    cloud.register_owner(
        "owner-2",
        aul=[("alice", AK1), ("bob", AK2)],
        images=[
            ("img-a", enc_img(4), upload([5, 5, 5], b"d")),
            ("img-d", enc_img(5), upload([0, 0, 0], b"e")),
            ("img-e", enc_img(6), upload([7, 8, 9], b"f")),
        ],
    )
    return cloud


def query(vector, uid="alice", ak=AK1, h=100, seed=b"q"):
    return QueryEnvelope(eq=upload(vector, seed), uid=uid, ak=ak, h=h)


def test_registration_builds_index_rows():
    cloud = make_cloud()
    assert len(cloud.index) == 6
    row = next(e for e in cloud.index if (e.owner_id, e.image_id) == ("owner-1", "img-a"))
    assert (row.s1, row.s2) == (9, 29)  # oracle: 2+3+4 and 4+9+16


def test_duplicate_owner_rejected():
    cloud = make_cloud()
    with pytest.raises(DuplicateOwnerError):
        cloud.register_owner("owner-1", aul=[], images=[])


def test_duplicate_image_rejected_and_index_unchanged():
    cloud = make_cloud()
    before = cloud.index
    with pytest.raises(DuplicateImageError):
        cloud.register_owner(
            "owner-3",
            aul=[],
            images=[
                ("dup", enc_img(7), upload([1, 1, 1], b"x")),
                ("dup", enc_img(8), upload([2, 2, 2], b"y")),
            ],
        )
    assert cloud.index == before
    assert "owner-3" not in cloud.owner_ids


def test_verify_user_membership():
    cloud = make_cloud()
    assert cloud.verify_user("alice", AK1) == {"owner-1", "owner-2"}
    assert cloud.verify_user("bob", AK2) == {"owner-2"}
    assert cloud.verify_user("mallory", AK1) == set()
    assert cloud.verify_user("alice", AK2) == set()


def test_verify_user_across_many_owners():
    cloud = CloudNode(PARAMS)
    for i in range(5):
        authorized = [("carol", AK1)] if i in (0, 2, 4) else []
        cloud.register_owner(
            f"o{i}", aul=authorized,
            images=[(f"im{i}", enc_img(i), upload([i + 1, 2, 3], str(i)))],
        )
    assert cloud.verify_user("carol", AK1) == {"o0", "o2", "o4"}


def test_single_image_corpus_always_returned():
    cloud = CloudNode(PARAMS)
    cloud.register_owner(
        "solo", aul=[("alice", AK1)],
        images=[("only", enc_img(9), upload([50, 60, 70], b"s"))],
    )
    results = cloud.retrieve_top_h(query([0, 0, 0]))
    assert [(r.owner_id, r.image_id) for r in results] == [("solo", "only")]


def test_exact_match_ranks_first():
    # make_cloud's vectors repeated over all 80 entries: zero padding would
    # let the sum-based distance favour the all-zero vector
    def spread(vector):
        return [int(v) for v in np.resize(vector, FEATURE_DIMS)]

    vectors = {"img-a": [2, 3, 4], "img-b": [10, 0, 0], "img-c": [200, 200, 200],
               "img-d": [5, 5, 5], "img-e": [0, 0, 0], "img-f": [7, 8, 9]}
    cloud = CloudNode(PARAMS)
    cloud.register_owner("owner-1", aul=[("alice", AK1)], images=[
        (image_id, enc_img(k), encrypt_feature_pair(PARAMS, spread(v), image_id))
        for k, (image_id, v) in enumerate(vectors.items())
    ])
    f = spread([2, 3, 4])
    results = cloud.retrieve_top_h(
        QueryEnvelope(eq=encrypt_feature_pair(PARAMS, f, b"q"), uid="alice", ak=AK1, h=6))
    # oracle: distance of f to itself under the sum-based formula
    self_dist = new_dis(f, f)
    others = [new_dis(f, spread(g)) for image_id, g in vectors.items() if image_id != "img-a"]
    assert self_dist < min(others)
    assert (results[0].owner_id, results[0].image_id) == ("owner-1", "img-a")
    assert results[0].distance == pytest.approx(self_dist)


def test_unauthorized_query_rejected():
    cloud = make_cloud()
    with pytest.raises(AuthorizationError):
        cloud.retrieve_top_h(query([1, 2, 3], uid="mallory", ak=b"\x00" * 32))


def test_authorization_containment():
    cloud = make_cloud()
    results = cloud.retrieve_top_h(query([1, 2, 3], uid="bob", ak=AK2))
    assert {r.owner_id for r in results} == {"owner-2"}


def test_h_larger_than_corpus_returns_all():
    cloud = make_cloud()
    assert len(cloud.retrieve_top_h(query([1, 2, 3], h=500))) == 6


def test_h_truncates():
    cloud = make_cloud()
    assert len(cloud.retrieve_top_h(query([1, 2, 3], h=2))) == 2


@pytest.mark.parametrize("h", [0, 2**32])  # the wire carries h in 32 bits
def test_invalid_h_rejected(h):
    with pytest.raises(ValueError):
        QueryEnvelope(eq=upload([1, 2, 3], b"q"), uid="u", ak=b"k", h=h)


def test_deterministic_ranking_with_ties():
    cloud = CloudNode(PARAMS)
    # same vector everywhere: every distance ties, so ordering must fall
    # back to (owner_id, image_id)
    for oid in ("o-b", "o-a"):
        cloud.register_owner(
            oid, aul=[("alice", AK1)],
            images=[
                ("im-2", enc_img(1), upload([4, 4, 4], oid + "2")),
                ("im-1", enc_img(2), upload([4, 4, 4], oid + "1")),
            ],
        )
    results = cloud.retrieve_top_h(query([4, 4, 4]))
    ids = [(r.owner_id, r.image_id) for r in results]
    assert ids == [("o-a", "im-1"), ("o-a", "im-2"), ("o-b", "im-1"), ("o-b", "im-2")]
    again = cloud.retrieve_top_h(query([4, 4, 4], seed=b"q2"))
    assert ids == [(r.owner_id, r.image_id) for r in again]


def test_index_and_no_index_paths_agree():
    cloud = make_cloud()
    rng = random.Random(0)
    for trial in range(10):
        f = [rng.randint(0, 255) for _ in range(3)]
        fast = cloud.retrieve_top_h(query(f, seed=f"t{trial}"))
        slow = cloud.retrieve_top_h(query(f, seed=f"t{trial}"), use_index=False)
        assert [(r.owner_id, r.image_id) for r in fast] == [
            (r.owner_id, r.image_id) for r in slow
        ]


def test_add_grows_index():
    cloud = make_cloud()
    items = tuple(
        (f"new-{i}", enc_img(20 + i), upload([i, i, i], f"n{i}")) for i in range(5)
    )
    cloud.apply_update("owner-1", AddImages(items))
    assert len(cloud.index) == 11


def test_delete_removes_everything():
    cloud = make_cloud()
    cloud.apply_update("owner-1", DeleteImages(("img-a", "img-b")))
    assert len(cloud.index) == 4
    results = cloud.retrieve_top_h(query([2, 3, 4]))
    assert ("owner-1", "img-a") not in [(r.owner_id, r.image_id) for r in results]


def test_update_replaces_ciphertext_but_not_index():
    cloud = make_cloud()
    before = cloud.index
    fresh = upload([2, 3, 4], b"rotated-seed")
    old = cloud.owner_record("owner-1").images["img-a"]
    assert fresh.ef != old.feature.ef
    cloud.apply_update(
        "owner-1", UpdateImages(((("img-a"), enc_img(99), fresh),))
    )
    assert cloud.index == before  # rows bit-identical
    assert cloud.owner_record("owner-1").images["img-a"].feature == fresh


def test_update_foreign_image_rejected():
    cloud = make_cloud()
    with pytest.raises(OwnershipError):
        cloud.apply_update("owner-1", DeleteImages(("img-d",)))
    with pytest.raises(UnknownOwnerError):
        cloud.apply_update("nobody", DeleteImages(("img-a",)))


def test_update_that_changes_sums_rejected():
    cloud = make_cloud()
    before = cloud.index
    stored = dict(cloud.owner_record("owner-1").images)
    same_sums = upload([4, 3, 2], b"same-sums")  # a permutation keeps s1, s2
    other_sums = upload([200, 200, 200], b"other-sums")
    with pytest.raises(CloudError, match="owner-1/img-b"):
        cloud.apply_update(
            "owner-1",
            UpdateImages((("img-a", enc_img(7), same_sums), ("img-b", enc_img(8), other_sums))),
        )
    assert cloud.index == before
    images = cloud.owner_record("owner-1").images
    assert all(images[iid] is kept for iid, kept in stored.items())
    q = query([2, 3, 4], h=6)
    paths = [
        [(r.owner_id, r.image_id) for r in cloud.retrieve_top_h(q, use_index=use_index)]
        for use_index in (True, False)
    ]
    assert paths[0] == paths[1]


def test_store_roundtrip(tmp_path):
    cloud = make_cloud()
    cloud.save_store(tmp_path / "store")
    assert (tmp_path / "store" / "index.tsv").exists()
    assert (tmp_path / "store" / "owners" / "owner-1" / "img" / "img-a.pgm").exists()
    assert (tmp_path / "store" / "owners" / "owner-1" / "feat" / "img-a.eft").exists()

    loaded = CloudNode.load_store(tmp_path / "store", PARAMS)
    assert loaded.index == cloud.index
    assert loaded.verify_user("alice", AK1) == {"owner-1", "owner-2"}
    got = loaded.retrieve_top_h(query([2, 3, 4]))
    want = cloud.retrieve_top_h(query([2, 3, 4]))
    assert [(r.owner_id, r.image_id) for r in got] == [
        (r.owner_id, r.image_id) for r in want
    ]
    img_before = cloud.owner_record("owner-1").images["img-b"].enc_image
    img_after = loaded.owner_record("owner-1").images["img-b"].enc_image
    assert np.array_equal(img_before, img_after)


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_build_store_writes_and_holds_what_save_store_would(tmp_path):
    uploads = [
        ("owner-2", ("img-a", enc_img(4), upload([5, 5, 5], b"d"))),
        ("owner-1", ("img-b", enc_img(2), upload([10, 0, 0], b"b"))),
        ("owner-2", ("img-d", enc_img(5, (16, 8)), upload([0, 0, 0], b"e"))),
        ("owner-1", ("img-a", enc_img(1), upload([2, 3, 4], b"a"))),
    ]
    saved = CloudNode(PARAMS)
    for owner_id in ("owner-1", "owner-2"):
        saved.register_owner(owner_id, [("alice", AK1)],
                             [image for oid, image in uploads if oid == owner_id])
    saved.save_store(tmp_path / "saved")
    built = CloudNode.build_store(tmp_path / "built", PARAMS, [("alice", AK1)], iter(uploads))
    assert _files(tmp_path / "built") == _files(tmp_path / "saved")
    assert built.index == saved.index
    # each image reads its files back from the store on first use
    for owner_id, (image_id, enc_image, feature) in uploads:
        stored = built.owner_record(owner_id).images[image_id]
        assert np.array_equal(stored.enc_image, enc_image)
        assert feature_to_text(stored.feature) == feature_to_text(feature)
    got, want = (c.retrieve_top_h(query([2, 3, 4])) for c in (built, saved))
    assert [(r.owner_id, r.image_id, r.distance) for r in got] == [
        (r.owner_id, r.image_id, r.distance) for r in want]


def _snapshot(root):
    """Every path under ``root``, a file's with its bytes."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.mark.parametrize("case", ["new", "over-a-store", "save-over-a-store"])
def test_a_refused_build_store_leaves_the_tree_as_it_was(tmp_path, disk_full_after, case):
    root = tmp_path / "store" / "cloud"
    if case != "new":
        make_cloud().save_store(root)
    before = _snapshot(tmp_path)
    if case == "save-over-a-store":
        # the disk fills at the third of the five images kept
        cloud = CloudNode.open_store(root, PARAMS)
        cloud.apply_update("owner-1", DeleteImages(("img-b",)))
        disk_full_after(2)
        with pytest.raises(OSError, match="No space left on device"):
            cloud.save_store(root)
    else:
        image = ("img-a", enc_img(1), upload([2, 3, 4], b"a"))
        with pytest.raises(DuplicateImageError, match="^owner-1/img-a$"):
            CloudNode.build_store(root, PARAMS, [("alice", AK1)],
                                  iter([("owner-2", image), ("owner-1", image), ("owner-1", image)]))
    assert _snapshot(tmp_path) == before
    assert not list(tmp_path.rglob(".new-*"))
    if case != "new":
        assert CloudNode.open_store(root, PARAMS).index == make_cloud().index


def test_index_tsv_matches_table_layout(tmp_path):
    cloud = make_cloud()
    cloud.save_store(tmp_path / "store")
    lines = (tmp_path / "store" / "index.tsv").read_text().strip().splitlines()
    assert lines[0] == "owner_id\timage_id\ts1\ts2"
    assert lines[1].split("\t") == ["owner-1", "img-a", "9", "29"]


def test_unsafe_ids_rejected():
    cloud = CloudNode(PARAMS)
    with pytest.raises(ValueError):
        cloud.register_owner("bad/owner", aul=[], images=[])


def test_manifest_line_without_tab_names_the_file(tmp_path):
    cloud = make_cloud()
    cloud.save_store(tmp_path / "store")
    manifest = tmp_path / "store" / "owners" / "owner-1" / "manifest"
    manifest.write_text(manifest.read_text() + "alice\n")
    with pytest.raises(ValueError, match="owner-1/manifest: line 4 has no tab"):
        CloudNode.load_store(tmp_path / "store", PARAMS)


def test_manifest_repeating_a_user_names_the_file_and_line(tmp_path):
    # a second key for alice would otherwise authorize her as well
    cloud = make_cloud()
    cloud.save_store(tmp_path / "store")
    manifest = tmp_path / "store" / "owners" / "owner-1" / "manifest"
    manifest.write_text(manifest.read_text() + f"alice\t{bytes(32).hex()}\n")
    with pytest.raises(ValueError, match="owner-1/manifest: line 4 repeats user 'alice'"):
        CloudNode.load_store(tmp_path / "store", PARAMS)


def test_registration_listing_a_user_with_two_keys_is_refused():
    cloud = CloudNode(PARAMS)
    with pytest.raises(ValueError, match="owner-1: authorized-user list repeats a user"):
        cloud.register_owner("owner-1", [("alice", AK1), ("alice", AK2)],
                             [("img-a", enc_img(1), upload([1, 2, 3], b"a"))])
    assert cloud.owner_ids == () and cloud.verify_user("alice", AK2) == set()


@pytest.mark.parametrize("owner_id, message", [
    ("../../escaped", "owner id '../../escaped' must match"),
    ("owner-3", "owner id 'owner-3' is not 'owner-1'"),
], ids=["escaping", "other-owner"])
def test_manifest_owner_id_must_be_its_directory(tmp_path, owner_id, message):
    # a manifest naming another directory would make the next save_store
    # write that owner's files there, outside owners/ for '../../escaped'
    cloud = make_cloud()
    cloud.save_store(tmp_path / "store")
    manifest = tmp_path / "store" / "owners" / "owner-1" / "manifest"
    manifest.write_text(manifest.read_text().replace("\nowner-1\n", f"\n{owner_id}\n"))
    index = tmp_path / "store" / "index.tsv"
    index.write_text(index.read_text().replace("\nowner-1\t", f"\n{owner_id}\t"))
    with pytest.raises(ValueError, match=message):
        CloudNode.load_store(tmp_path / "store", PARAMS)


@pytest.mark.parametrize("use_index", [True, False])
def test_query_whose_sums_violate_cauchy_schwarz_is_refused(use_index):
    # sum 80 * 255 with a zero sum of squares: no real vector has these sums
    eq = EncryptedFeature(
        ef=encrypt_vector(PARAMS, [255] * 80, b"ef"),
        eff=encrypt_vector(PARAMS, [0] * 80, b"eff"),
        params_id=PARAMS.params_id,
    )
    cloud = CloudNode(PARAMS)
    cloud.register_owner("owner-1", [("alice", AK1)],
                         [("img-a", enc_img(1), upload([1] * 80, b"a"))])
    with pytest.raises(CorruptedSumsError, match="query sums of user 'alice'"):
        cloud.retrieve_top_h(QueryEnvelope(eq=eq, uid="alice", ak=AK1), use_index=use_index)


def test_index_rows_are_the_four_table_columns():
    cloud = make_cloud()
    assert all(len(row) == 4 for row in cloud.index)
    assert cloud.index[0] == ("owner-1", "img-a", 9, 29)


def test_queries_overlapping_add_and_delete_never_fail():
    cloud = make_cloud()
    batch = tuple(
        (f"churn-{i}", enc_img(40 + i), upload([2, 3, 4 + i % 3], f"churn{i}"))
        for i in range(20)
    )
    churn_ids = tuple(image_id for image_id, _, _ in batch)
    done = threading.Event()
    errors = []

    def reader(use_index):
        q = query([2, 3, 4], h=10)
        while not done.is_set():
            try:
                cloud.retrieve_top_h(q, use_index=use_index)
            except Exception as exc:  # recorded; the assertion below reports it
                errors.append(exc)

    def writer():
        try:
            for _ in range(50):
                cloud.apply_update("owner-1", AddImages(batch))
                cloud.apply_update("owner-1", DeleteImages(churn_ids))
        except Exception as exc:
            errors.append(exc)
        finally:
            done.set()

    threads = [
        threading.Thread(target=reader, args=(True,)),
        threading.Thread(target=reader, args=(False,)),
        threading.Thread(target=writer),
    ]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        done.set()
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(cloud.index) == 6


def test_dimension_mismatch_rejected(tmp_path):
    cloud = make_cloud()
    four = FOUR
    with pytest.raises(ValueError, match="dimension 4"):
        cloud.retrieve_top_h(QueryEnvelope(eq=four, uid="alice", ak=AK1))
    with pytest.raises(ValueError, match="dimension 4"):
        cloud.register_owner("owner-3", aul=[], images=[("x", enc_img(1), four)])
    with pytest.raises(ValueError, match="dimension 4"):
        cloud.apply_update("owner-1", AddImages((("x", enc_img(1), four),)))
    with pytest.raises(ValueError, match="dimension 4"):
        cloud.apply_update("owner-1", UpdateImages((("img-a", enc_img(1), four),)))
    assert "owner-3" not in cloud.owner_ids
    assert cloud.index == make_cloud().index
    assert cloud.owner_record("owner-1").images["img-a"].feature.dims == FEATURE_DIMS

    mixed = CloudNode(PARAMS)
    with pytest.raises(ValueError, match="dimension 4"):
        mixed.register_owner(
            "o", aul=[], images=[("a", enc_img(1), upload([1, 2, 3], b"a")),
                                 ("b", enc_img(2), four)],
        )

    cloud.save_store(tmp_path / "store")
    eft = tmp_path / "store" / "owners" / "owner-2" / "feat" / "img-e.eft"
    eft.write_text(feature_to_text(four))
    with pytest.raises(ValueError, match="dimension 4"):
        CloudNode.load_store(tmp_path / "store", PARAMS)


def test_an_empty_cloud_refuses_a_feature_that_is_not_an_edge_histogram():
    cloud = CloudNode(PARAMS)
    with pytest.raises(ValueError, match="dimension 4, not the edge histogram's 80"):
        cloud.register_owner("o1", aul=[("alice", AK1)], images=[("a", enc_img(1), FOUR)])
    assert cloud.owner_ids == ()
    cloud.register_owner("o1", aul=[("alice", AK1)], images=[])
    with pytest.raises(ValueError, match="dimension 4, not the edge histogram's 80"):
        cloud.retrieve_top_h(QueryEnvelope(eq=FOUR, uid="alice", ak=AK1))


_SMALL_VECTORS = st.lists(st.integers(0, 3), min_size=3, max_size=3)


@settings(max_examples=60, deadline=None)
@given(
    owners=st.lists(
        st.tuples(st.sets(st.sampled_from(["alice", "bob"])),
                  st.lists(_SMALL_VECTORS, max_size=5)),
        min_size=1, max_size=4,
    ),
    query_vector=_SMALL_VECTORS,
    data=st.data(),
)
def test_both_paths_return_the_h_smallest_rank_keys(owners, query_vector, data):
    # entries in 0..3 give sums in 0..9 and 0..27, so keys tie often
    keys = {"alice": AK1, "bob": AK2}
    q = SumPair.from_vector(padded(query_vector))
    cloud = CloudNode(PARAMS)
    expected = []
    for o, (users, vectors) in enumerate(owners):
        owner_id = f"o{o}"
        cloud.register_owner(
            owner_id, aul=[(uid, keys[uid]) for uid in users],
            images=[(f"i{k}", enc_img(k), upload(v, f"{o}:{k}"))
                    for k, v in enumerate(vectors)],
        )
        if "alice" in users:
            expected += [(rank_key(q, SumPair.from_vector(padded(v))), owner_id, f"i{k}")
                         for k, v in enumerate(vectors)]
    h = data.draw(st.integers(1, len(expected) + 2))
    envelope = query(query_vector, h=h)
    for use_index in (True, False):
        if not any("alice" in users for users, _ in owners):
            with pytest.raises(AuthorizationError):
                cloud.retrieve_top_h(envelope, use_index=use_index)
            continue
        got = cloud.retrieve_top_h(envelope, use_index=use_index)
        want = sorted(expected)[:h]
        assert [(r.owner_id, r.image_id) for r in got] == [(o, i) for _, o, i in want]
        assert [r.distance for r in got] == [math.sqrt(k / FEATURE_DIMS) for k, _, _ in want]


def test_malformed_index_row_names_the_file_and_line(tmp_path):
    cloud = make_cloud()
    cloud.save_store(tmp_path / "store")
    index = tmp_path / "store" / "index.tsv"
    good = index.read_text()
    index.write_text(good + "owner-1\timg-a\t9\n")
    with pytest.raises(ValueError, match="index.tsv: line 8 "):
        CloudNode.load_store(tmp_path / "store", PARAMS)
    index.write_text(good.replace("owner-1\timg-b\t10\t", "owner-1\timg-b\tten\t"))
    with pytest.raises(ValueError, match="index.tsv: line 3 "):
        CloudNode.load_store(tmp_path / "store", PARAMS)


def _ranked(cloud, use_index):
    q = query([2, 3, 4], h=6)
    return [(r.owner_id, r.image_id) for r in cloud.retrieve_top_h(q, use_index=use_index)]


@pytest.mark.parametrize("command, error, message", [
    (DeleteImages(("img-a", "img-a")), DuplicateImageError, "owner-1/img-a"),
    (AddImages((("new", enc_img(7), upload([1, 1, 1], b"n1")),
                ("new", enc_img(8), upload([2, 2, 2], b"n2")))), DuplicateImageError, "owner-1/new"),
    (UpdateImages((("img-a", enc_img(7), upload([4, 3, 2], b"u1")),
                   ("img-a", enc_img(8), upload([3, 4, 2], b"u2")))),
     DuplicateImageError, "owner-1/img-a"),
    # refused at the last item, once the items before it are checked and staged
    (AddImages((("new", enc_img(7), upload([1, 1, 1], b"n1")),
                ("big", enc_img(8), upload([20_480], b"beyond")))),
     CorruptedSumsError, "sums for owner-1/big lie outside an edge histogram's range"),
    (UpdateImages((("img-a", enc_img(7), upload([4, 3, 2], b"u1")),
                   ("img-b", enc_img(8), upload([200, 200, 200], b"u2")))),
     CloudError, "owner-1/img-b: replacement changes its sums"),
], ids=["delete", "add", "update", "add-beyond-ehd", "update-changes-sums"])
def test_repeated_image_id_in_an_update_changes_nothing(command, error, message):
    cloud = make_cloud()
    before = cloud.index
    stored = dict(cloud.owner_record("owner-1").images)
    ranked = [_ranked(cloud, use_index) for use_index in (True, False)]
    with pytest.raises(error, match=message):
        cloud.apply_update("owner-1", command)
    assert cloud.index == before
    images = cloud.owner_record("owner-1").images
    assert images.keys() == stored.keys()
    assert all(images[iid] is kept for iid, kept in stored.items())
    assert [_ranked(cloud, use_index) for use_index in (True, False)] == ranked


@pytest.mark.parametrize("edit, message", [
    (lambda text: text + "owner-1\timg-b\t10\t100\n", "index row owner-1/img-b is listed twice"),
    (lambda text: text.replace("owner-2\timg-d\t0\t0\n", ""), "image owner-2/img-d has no index row"),
    (lambda text: text + "owner-1\tghost\t1\t1\n", "index row owner-1/ghost has no image"),
], ids=["repeated-row", "image-without-row", "row-without-image"])
def test_index_that_does_not_match_the_images_is_refused(tmp_path, edit, message):
    cloud = make_cloud()
    cloud.save_store(tmp_path / "store")
    index = tmp_path / "store" / "index.tsv"
    index.write_text(edit(index.read_text()))
    with pytest.raises(CloudError, match=message):
        CloudNode.load_store(tmp_path / "store", PARAMS)


def _ranking(cloud, vector, h, use_index):
    return [(r.owner_id, r.image_id, r.distance, r.enc_image.tobytes())
            for r in cloud.retrieve_top_h(query(vector, h=h), use_index=use_index)]


def test_open_store_answers_as_load_store_does(tmp_path):
    make_cloud().save_store(tmp_path / "store")
    loaded = CloudNode.load_store(tmp_path / "store", PARAMS)
    opened = CloudNode.open_store(tmp_path / "store", PARAMS)
    assert opened.index == loaded.index
    assert opened.owner_ids == loaded.owner_ids
    with pytest.raises(ValueError, match="dimension 4"):
        opened.retrieve_top_h(QueryEnvelope(eq=FOUR, uid="alice", ak=AK1))
    for use_index in (True, False):
        for vector, h in (([2, 3, 4], 6), ([0, 0, 0], 2), ([200, 200, 200], 1)):
            # a fresh store each time, so the ranking makes the first reads
            fresh = CloudNode.open_store(tmp_path / "store", PARAMS)
            assert _ranking(fresh, vector, h, use_index) == _ranking(loaded, vector, h, use_index)
    for owner_id in loaded.owner_ids:
        want, got = loaded.owner_record(owner_id), opened.owner_record(owner_id)
        assert got.aul == want.aul and got.images.keys() == want.images.keys()
        for image_id, stored in want.images.items():
            assert got.images[image_id].enc_image.dtype == stored.enc_image.dtype
            assert np.array_equal(got.images[image_id].enc_image, stored.enc_image)
            assert got.images[image_id].feature == stored.feature


def test_an_index_out_of_order_opens_as_the_sorted_one(tmp_path):
    make_cloud().save_store(tmp_path / "store")
    index = tmp_path / "store" / "index.tsv"
    sorted_ = CloudNode.open_store(tmp_path / "store", PARAMS)
    header, *rows = index.read_text().splitlines(True)
    index.write_text(header + "".join(reversed(rows)))
    reversed_ = CloudNode.open_store(tmp_path / "store", PARAMS)
    assert reversed_.index == sorted_.index
    assert reversed_.index_table() == sorted_.index_table() == header + "".join(rows)
    for use_index in (True, False):
        for vector, h in (([2, 3, 4], 6), ([0, 0, 0], 2), ([200, 200, 200], 1)):
            assert (_ranking(reversed_, vector, h, use_index)
                    == _ranking(sorted_, vector, h, use_index))


def _drop_line(prefix):
    return lambda text: "".join(ln for ln in text.splitlines(True) if not ln.startswith(prefix))


@pytest.mark.parametrize("path, edit, error, message", [
    ("index.tsv", lambda text: text + "owner-1\timg-b\t10\t100\n", CloudError,
     "index row owner-1/img-b is listed twice"),
    ("index.tsv", _drop_line("owner-2\timg-d\t"), CloudError,
     "image owner-2/img-d has no index row"),
    ("index.tsv", lambda text: text + "owner-1\tghost\t1\t1\n", CloudError,
     "index row owner-1/ghost has no image"),
    ("index.tsv", lambda text: text + "owner-1\timg-a\t9\n", ValueError,
     "{path}: line 8 is malformed"),
    ("index.tsv", lambda text: "owner\timage\n" + text.split("\n", 1)[1], ValueError,
     "{path}: missing or malformed header"),
    ("owners/owner-1/manifest", lambda text: "MIPP-OWNER-0" + text[len("MIPP-OWNER-1"):],
     ValueError, "{path}: missing or malformed header"),
    ("owners/owner-1/manifest", lambda text: text + "alice\n", ValueError,
     "{path}: line 4 has no tab"),
    ("owners/owner-1/manifest", lambda text: text + f"alice\t{bytes(32).hex()}\n", ValueError,
     "{path}: line 4 repeats user 'alice'"),
    ("owners/owner-1/manifest", lambda text: text.replace("\nowner-1\n", "\n../escaped\n"),
     ValueError, "owner id '../escaped' must match"),
    ("owners/owner-1/manifest", lambda text: text.replace("\nowner-1\n", "\nowner-2\n"),
     ValueError, "owner id 'owner-2' is not 'owner-1'"),
    ("owners/owner-2/feat/img-e.eft", None, FileNotFoundError, "{path}"),
], ids=["repeated-row", "image-without-row", "row-without-image", "malformed-row",
        "index-header", "manifest-header", "manifest-no-tab", "manifest-repeated-user",
        "manifest-escaping-id", "manifest-other-owner", "image-without-eft"])
@pytest.mark.parametrize("loader", ["load_store", "open_store"])
def test_both_loaders_refuse_a_store_that_does_not_hold_together(
    tmp_path, loader, path, edit, error, message
):
    make_cloud().save_store(tmp_path / "store")
    target = tmp_path / "store" / path
    if edit is None:
        target.unlink()
    else:
        target.write_text(edit(target.read_text()))
    with pytest.raises(error, match=re.escape(message.format(path=target))):
        getattr(CloudNode, loader)(tmp_path / "store", PARAMS)


def _count_reads(monkeypatch):
    """Paths read through ``read_pgm`` and texts parsed as features, as the
    cloud reads them."""
    pgms, efts = [], []
    read_pgm, feature_from_text = cloud_node.read_pgm, feature_crypto.feature_from_text
    monkeypatch.setattr(cloud_node, "read_pgm", lambda path: pgms.append(path) or read_pgm(path))
    monkeypatch.setattr(feature_crypto, "feature_from_text",
                        lambda text: efts.append(text) or feature_from_text(text))
    return pgms, efts


def test_concurrent_reads_of_an_opened_store_read_each_image_once(tmp_path, monkeypatch):
    make_cloud().save_store(tmp_path / "store")
    pgms, efts = _count_reads(monkeypatch)
    q = query([2, 3, 4], h=6)

    def read_directly(cloud):
        images = {}
        for owner_id in cloud.owner_ids:
            for image_id, stored in cloud.owner_record(owner_id).images.items():
                if stored.feature.dims != FEATURE_DIMS:
                    raise AssertionError(f"{owner_id}/{image_id}: dimension {stored.feature.dims}")
                images[owner_id, image_id] = stored.enc_image
        return images

    def reader(cloud, start, k, results, errors):
        try:
            start.wait(timeout=60)
            if k % 2:
                results.append(read_directly(cloud))
            else:
                # without the index every feature is read; h=6 returns every image
                found = cloud.retrieve_top_h(q, use_index=False)
                results.append({(r.owner_id, r.image_id): r.enc_image for r in found})
        except Exception as exc:  # recorded; the assertion below reports it
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            cloud = CloudNode.open_store(tmp_path / "store", PARAMS)
            pgms.clear()
            efts.clear()
            start, results, errors = threading.Barrier(8), [], []
            threads = [threading.Thread(target=reader, args=(cloud, start, k, results, errors))
                       for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert errors == [] and len(results) == 8
            assert len(pgms) == 6 and len(efts) == 6
            for got in results[1:]:
                assert got.keys() == results[0].keys()
                assert all(got[key] is image for key, image in results[0].items())
    finally:
        sys.setswitchinterval(old_interval)


def test_saving_an_opened_store_over_itself_changes_no_byte(tmp_path):
    root = tmp_path / "store"
    make_cloud().save_store(root)
    intact = _snapshot(root)
    CloudNode.open_store(root, PARAMS).save_store(root)
    assert _snapshot(root) == intact

    eft = root / "owners" / "owner-2" / "feat" / "img-e.eft"
    eft.write_text(eft.read_text().splitlines()[0] + "\n")
    broken = _snapshot(root)
    opened = CloudNode.open_store(root, PARAMS)
    with pytest.raises(ValueError, match=f"^{re.escape(str(eft))}: "):
        opened.save_store(root)
    assert _snapshot(root) == broken


# owner ids whose string order differs from their numeric order
_OWNER_IDS = ("o9", "o10", "o11")
_TIE_VECTORS = st.lists(st.integers(0, 1), min_size=2, max_size=2)


def _check_both_paths(cloud, plain, query_vector, data):
    """Both paths return ``sorted((rank_key, owner, image))[:h]`` over
    ``plain``, the vector of every (owner, image) alice may see."""
    q = SumPair.from_vector(padded(query_vector))
    ranked = sorted((rank_key(q, SumPair.from_vector(padded(v))), o, i)
                    for (o, i), v in plain.items())
    h = data.draw(st.integers(1, len(ranked) + 2))
    want = [(o, i, math.sqrt(k / FEATURE_DIMS)) for k, o, i in ranked[:h]]
    for use_index in (True, False):
        got = cloud.retrieve_top_h(query(query_vector, h=h), use_index=use_index)
        assert [(r.owner_id, r.image_id, r.distance) for r in got] == want


@settings(max_examples=30, deadline=None)
@given(
    owners=st.lists(st.lists(_TIE_VECTORS, max_size=4), min_size=len(_OWNER_IDS),
                    max_size=len(_OWNER_IDS)),
    query_vector=_TIE_VECTORS,
    data=st.data(),
)
def test_columnar_ranking_equals_the_sorted_reference_after_every_mutation(
    owners, query_vector, data
):
    # entries in 0..1 give sums in 0..2: most keys tie across the h-th place
    cloud, plain = CloudNode(PARAMS), {}
    for owner_id, vectors in reversed(list(zip(_OWNER_IDS, owners))):
        cloud.register_owner(owner_id, [("alice", AK1)], [
            (f"i{k}", enc_img(k), upload(v, f"{owner_id}:{k}")) for k, v in enumerate(vectors)
        ])
        plain.update(((owner_id, f"i{k}"), v) for k, v in enumerate(vectors))
    _check_both_paths(cloud, plain, query_vector, data)

    owner_id, vector = data.draw(st.sampled_from(_OWNER_IDS)), data.draw(_TIE_VECTORS)
    cloud.apply_update(owner_id, AddImages((("added", enc_img(9), upload(vector, b"add")),)))
    plain[owner_id, "added"] = vector
    _check_both_paths(cloud, plain, query_vector, data)

    (owner_id, image_id), vector = data.draw(st.sampled_from(sorted(plain.items())))
    cloud.apply_update(owner_id, UpdateImages(
        ((image_id, enc_img(10), upload(vector, b"reencrypted")),)))
    _check_both_paths(cloud, plain, query_vector, data)

    owner_id, image_id = data.draw(st.sampled_from(sorted(plain)))
    cloud.apply_update(owner_id, DeleteImages((image_id,)))
    del plain[owner_id, image_id]
    _check_both_paths(cloud, plain, query_vector, data)

    with tempfile.TemporaryDirectory() as root:
        cloud.save_store(root)
        for loader in (CloudNode.open_store, CloudNode.load_store):
            _check_both_paths(loader(root, PARAMS), plain, query_vector, data)


def _edit_row(line, s1, s2):
    def edit(text):
        lines = text.splitlines(True)
        owner_id, image_id, _, _ = lines[line - 1].split("\t")
        lines[line - 1] = f"{owner_id}\t{image_id}\t{s1}\t{s2}\n"
        return "".join(lines)
    return edit


@pytest.mark.parametrize("edit, message", [
    (_edit_row(2, 2**63, 29), "line 2: sums lie outside an edge histogram's range"),
    (_edit_row(3, 20_401, 5_202_000), "line 3: sums lie outside an edge histogram's range"),
    (_edit_row(4, 9, 5_202_001), "line 4: sums lie outside an edge histogram's range"),
    (_edit_row(5, -1, 0), "line 5: sums lie outside an edge histogram's range"),
    (_edit_row(2, 9, 0), "line 2: sums violate Cauchy-Schwarz"),
], ids=["s1-2**63", "s1-20401", "s2-beyond", "s1-negative", "cauchy-schwarz"])
@pytest.mark.parametrize("loader", ["load_store", "open_store"])
def test_an_index_row_no_edge_histogram_has_is_refused(tmp_path, loader, edit, message):
    make_cloud().save_store(tmp_path / "store")
    index = tmp_path / "store" / "index.tsv"
    index.write_text(edit(index.read_text()))
    with pytest.raises(CorruptedSumsError, match=re.escape(f"{index}: {message}")):
        getattr(CloudNode, loader)(tmp_path / "store", PARAMS)


# one entry of 20,480 is beyond 80 * 255, so no edge histogram has its sums
BEYOND_EHD = upload([20_480], b"beyond")


def test_an_upload_no_edge_histogram_has_is_refused():
    cloud = CloudNode(PARAMS)
    with pytest.raises(CorruptedSumsError,
                       match="sums for o1/big lie outside an edge histogram's range"):
        cloud.register_owner("o1", [("alice", AK1)], [("big", enc_img(1), BEYOND_EHD)])
    assert cloud.owner_ids == ()
    cloud = make_cloud()
    with pytest.raises(CorruptedSumsError, match="sums for owner-1/big lie outside"):
        cloud.apply_update("owner-1", AddImages((("big", enc_img(1), BEYOND_EHD),)))
    assert cloud.index == make_cloud().index


@pytest.mark.parametrize("use_index", [True, False])
def test_a_query_no_edge_histogram_has_is_refused(use_index):
    envelope = QueryEnvelope(eq=BEYOND_EHD, uid="alice", ak=AK1)
    with pytest.raises(CorruptedSumsError,
                       match="query sums of user 'alice' lie outside an edge histogram's range"):
        make_cloud().retrieve_top_h(envelope, use_index=use_index)


def test_an_empty_image_id_in_an_update_is_refused_as_an_id():
    cloud = make_cloud()
    for command in (DeleteImages(("",)), DeleteImages(("img-a", "")),
                    UpdateImages((("", enc_img(1), upload([1], b"e")),))):
        with pytest.raises(ValueError, match="^image id '' must match "):
            cloud.apply_update("owner-1", command)
    assert cloud.index == make_cloud().index
