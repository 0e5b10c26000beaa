"""Stateful model test of the cloud, the key center and the on-disk store.

Hypothesis drives a ``CloudNode`` and a ``KmcNode`` through registrations,
adds, deletes, re-encryption updates, queries on both ``retrieve_top_h``
paths, result re-encryption, ``save_store``/``load_store`` round trips and
stores saved over themselves and reopened by ``open_store``, and runs the
same commands on a plaintext model.  Refused commands include repeated ids,
images the owner lacks, changed sums, a wrong feature dimension, a spent
user key and an unauthorized user.  A command the model refuses must raise
the same error type and change nothing; after every step the stored rows,
lists, keys and images must equal the model's, and a query must return the
model's top h by ``rank_key``, equal keys going by (owner id, image id).
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

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
from mipp.ehd_features import FEATURE_DIMS
from mipp.feature_crypto import encrypt_feature_pair
from mipp.group_crypto import gen_group_params
from mipp.image_cipher import image_dec, image_enc, keygen
from mipp.kmc_node import KeyReuseError, KmcNode, VaultError
from mipp.similarity import SumPair, rank_key

PARAMS = gen_group_params(32, b"model-tests")
DRAWN = 4  # entries drawn per feature; the rest of its FEATURE_DIMS are zero
KEY_LEN = 16
OWNERS = ("o1", "o2", "o3", "o4")
IMAGE_IDS = ("a", "b", "c", "d", "e", "f", "g", "h")
USERS = ("u1", "u2")
# two access keys per user: a list names one, a query may present either
KEYS = {(uid, k): bytes([i, k]) * 16 for i, uid in enumerate(USERS) for k in (0, 1)}

# entries in 0..2 in four of the dimensions make equal rank keys common, so
# the (owner id, image id) tie order is exercised
features = st.lists(st.integers(0, 2), min_size=DRAWN, max_size=DRAWN).map(
    lambda f: tuple(f) + (0,) * (FEATURE_DIMS - DRAWN))
images = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1)).map(
    lambda t: np.random.default_rng(t[2]).integers(0, 256, size=t[:2], dtype=np.uint8)
)
uploads = st.tuples(st.sampled_from(IMAGE_IDS), images, features)
credentials = st.tuples(st.sampled_from(USERS), st.integers(0, 1))
# an authorized-user list naming each user once, with one of its keys
lists_of_users = st.dictionaries(st.sampled_from(USERS), st.integers(0, 1), min_size=1).map(
    lambda d: list(d.items()))


def sums(f) -> tuple[int, int]:
    return sum(f), sum(v * v for v in f)


def owner_sk(owner_id: str) -> bytes:
    return keygen(KEY_LEN, b"sk-" + owner_id.encode())


class CloudModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cloud = CloudNode(PARAMS)
        self.kmc = KmcNode()
        # owner -> (authorized (uid, ak) pairs, image id -> (plain image, feature))
        self.owners: dict[str, tuple[frozenset, dict]] = {}
        self.seeds = 0
        self.spent: list[bytes] = []
        # a store opened by open_store reads from here for the rest of the run
        self.store = tempfile.TemporaryDirectory()

    def teardown(self):
        self.store.cleanup()

    def fresh_seed(self) -> bytes:
        self.seeds += 1
        return b"model-%d" % self.seeds

    def encrypt(self, owner_id, batch):
        sk = owner_sk(owner_id)
        return tuple((iid, image_enc(sk, img), encrypt_feature_pair(PARAMS, f, self.fresh_seed()))
                     for iid, img, f in batch)

    def held(self, owner_id) -> dict:
        return self.owners[owner_id][1] if owner_id in self.owners else {}

    def draw_ids(self, data, owner_id):
        """Distinct ids, mostly ones the owner holds, sometimes one it does not."""
        pool = sorted(self.held(owner_id)) + ["zz"]
        return data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))

    def refused(self, error, command) -> None:
        with pytest.raises(error):
            command()

    # -- owners and updates --------------------------------------------------

    @initialize(first=lists_of_users, second=lists_of_users,
                batches=st.tuples(*[st.lists(uploads, max_size=4, unique_by=lambda u: u[0])] * 2))
    def two_owners(self, first, second, batches):
        self.register("o1", first, batches[0])
        self.register("o2", second, batches[1])

    @rule(owner_id=st.sampled_from(OWNERS), aul=st.lists(credentials, max_size=3),
          batch=st.lists(uploads, max_size=3))
    def register(self, owner_id, aul, batch):
        pairs = [(uid, KEYS[uid, k]) for uid, k in aul]
        ids = [iid for iid, _, _ in batch]

        def command():
            self.cloud.register_owner(owner_id, pairs, self.encrypt(owner_id, batch))

        if owner_id in self.owners:
            return self.refused(DuplicateOwnerError, command)
        if len({uid for uid, _ in set(pairs)}) < len(set(pairs)):
            return self.refused(ValueError, command)
        if len(set(ids)) < len(ids):
            return self.refused(DuplicateImageError, command)
        command()
        self.kmc.store_owner_key(owner_id, owner_sk(owner_id))
        self.owners[owner_id] = (frozenset(pairs), {iid: (img, f) for iid, img, f in batch})

    @rule(owner_id=st.sampled_from(OWNERS))
    def second_owner_key(self, owner_id):
        if owner_id in self.owners:
            self.refused(VaultError, lambda: self.kmc.store_owner_key(owner_id, bytes(KEY_LEN)))
        else:
            self.refused(VaultError, lambda: self.kmc.owner_key(owner_id))

    @rule(owner_id=st.sampled_from(OWNERS), batch=st.lists(uploads, min_size=1, max_size=3))
    def add(self, owner_id, batch):
        ids = [iid for iid, _, _ in batch]

        def command():
            self.cloud.apply_update(owner_id, AddImages(self.encrypt(owner_id, batch)))

        if owner_id not in self.owners:
            return self.refused(UnknownOwnerError, command)
        held = self.held(owner_id)
        if len(set(ids)) < len(ids) or set(ids) & set(held):
            return self.refused(DuplicateImageError, command)
        command()
        held.update((iid, (img, f)) for iid, img, f in batch)

    @rule(owner_id=st.sampled_from(OWNERS), repeat=st.booleans(), data=st.data())
    def delete(self, owner_id, repeat, data):
        ids = self.draw_ids(data, owner_id) * (2 if repeat else 1)

        def command():
            self.cloud.apply_update(owner_id, DeleteImages(tuple(ids)))

        if owner_id not in self.owners:
            return self.refused(UnknownOwnerError, command)
        held = self.held(owner_id)
        if len(set(ids)) < len(ids):
            return self.refused(DuplicateImageError, command)
        if not set(ids) <= set(held):
            return self.refused(OwnershipError, command)
        command()
        for iid in ids:
            del held[iid]

    @rule(owner_id=st.sampled_from(OWNERS), other=st.none() | features, data=st.data())
    def reencrypt(self, owner_id, other, data):
        """Re-encrypt features under fresh seeds; ``other`` replaces the
        first image's feature, which the cloud must refuse if its sums differ."""
        ids = self.draw_ids(data, owner_id)
        held = self.held(owner_id)
        batch = [(iid, *held.get(iid, (np.zeros((1, 1), np.uint8), (1,) * FEATURE_DIMS)))
                 for iid in ids]
        if other is not None:
            batch[0] = (ids[0], batch[0][1], other)

        def command():
            self.cloud.apply_update(owner_id, UpdateImages(self.encrypt(owner_id, batch)))

        if owner_id not in self.owners:
            return self.refused(UnknownOwnerError, command)
        if not set(ids) <= set(held):
            return self.refused(OwnershipError, command)
        if other is not None and sums(other) != sums(held[ids[0]][1]):
            return self.refused(CloudError, command)
        command()
        held.update((iid, (img, f)) for iid, img, f in batch)

    @rule(owner_id=st.sampled_from(OWNERS), credential=credentials)
    def wrong_dimension(self, owner_id, credential):
        """A feature that is not an edge histogram's length is refused, in an
        upload and in a query."""
        if owner_id not in self.owners:
            return
        wide = encrypt_feature_pair(PARAMS, (1,) * (DRAWN + 1), self.fresh_seed())
        self.refused(ValueError, lambda: self.cloud.apply_update(
            owner_id, AddImages((("new", np.zeros((1, 1), np.uint8), wide),))))
        uid, ak = credential[0], KEYS[credential]
        if self.authorized(uid, ak):
            envelope = QueryEnvelope(eq=wide, uid=uid, ak=ak)
            self.refused(ValueError, lambda: self.cloud.retrieve_top_h(envelope))

    # -- queries and the key center ---------------------------------------------

    def top_h(self, uid, ak, query, h):
        """The model's answer: every authorized image by (rank key, owner id,
        image id), the first h."""
        q = SumPair.from_vector(query)
        return sorted(
            (rank_key(q, SumPair.from_vector(f)), oid, iid)
            for oid, (aul, held) in self.owners.items() if (uid, ak) in aul
            for iid, (_, f) in held.items()
        )[:h]

    def authorized(self, uid, ak) -> bool:
        return any((uid, ak) in aul for aul, _ in self.owners.values())

    @rule(credential=credentials, query=features, h=st.integers(1, 8), use_index=st.booleans())
    def query(self, credential, query, h, use_index):
        uid, ak = credential[0], KEYS[credential]
        envelope = QueryEnvelope(eq=encrypt_feature_pair(PARAMS, query, self.fresh_seed()),
                                 uid=uid, ak=ak, h=h)

        def command():
            return self.cloud.retrieve_top_h(envelope, use_index)

        if not self.authorized(uid, ak):
            return self.refused(AuthorizationError, command)
        results = command()
        expected = self.top_h(uid, ak, query, h)
        assert [(r.owner_id, r.image_id) for r in results] == [(o, i) for _, o, i in expected]
        assert [r.distance for r in results] == [
            math.sqrt(key / FEATURE_DIMS) for key, _, _ in expected]
        for r in results:
            plain = self.owners[r.owner_id][1][r.image_id][0]
            assert np.array_equal(image_dec(owner_sk(r.owner_id), r.enc_image), plain)

    @rule(credential=credentials, query=features)
    def reencrypt_results(self, credential, query):
        """A query's results re-encrypted by the key center under a fresh
        user key, which is spent by the call."""
        uid, ak = credential[0], KEYS[credential]
        if not self.authorized(uid, ak):
            return
        envelope = QueryEnvelope(eq=encrypt_feature_pair(PARAMS, query, self.fresh_seed()),
                                 uid=uid, ak=ak, h=5)
        er = [(r.owner_id, r.image_id, r.enc_image) for r in self.cloud.retrieve_top_h(envelope)]
        usk = keygen(KEY_LEN, self.fresh_seed())
        session = self.fresh_seed().hex()
        self.kmc.store_user_key(uid, usk, session)
        out = self.kmc.reencrypt_results(er, uid, session)
        assert [(o, i) for o, i, _ in out] == [(o, i) for o, i, _ in er]
        for owner_id, image_id, img in out:
            assert np.array_equal(image_dec(usk, img), self.owners[owner_id][1][image_id][0])
        assert not self.kmc.has_user_key(uid)
        self.spent.append(usk)

    @rule(uid=st.sampled_from(USERS), data=st.data())
    def redeposit_spent_key(self, uid, data):
        if self.spent:
            usk = data.draw(st.sampled_from(self.spent))
            self.refused(KeyReuseError, lambda: self.kmc.store_user_key(uid, usk, "again"))
            assert not self.kmc.has_user_key(uid)

    # -- persistence -----------------------------------------------------------

    @rule(kmc=st.booleans())
    def save_and_load(self, kmc):
        """Reload the cloud from its store, and with ``kmc`` the key center
        from its vault."""
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            self.cloud.save_store(root / "cloud")
            self.cloud = CloudNode.load_store(root / "cloud", PARAMS)
            if kmc:
                self.kmc.save_vault(root / "vault")
                self.kmc = KmcNode.load_vault(root / "vault")
                # the vault holds owner keys only: a reloaded key center knows
                # no spent user key
                self.spent.clear()

    @rule(credential=credentials, query=features, h=st.integers(1, 8), use_index=st.booleans())
    def save_and_open(self, credential, query, h, use_index):
        """Save the cloud over the store it may have been opened from, reopen
        it with ``open_store`` and query it before anything else reads it."""
        root = Path(self.store.name) / "cloud"
        self.cloud.save_store(root)
        self.cloud = CloudNode.open_store(root, PARAMS)
        self.query(credential, query, h, use_index)

    # -- the system equals the model ---------------------------------------------

    @invariant()
    def matches_the_model(self):
        assert set(self.cloud.owner_ids) == set(self.owners)
        assert self.cloud.index == tuple(sorted(
            (oid, iid, *sums(f))
            for oid, (_, held) in self.owners.items() for iid, (_, f) in held.items()
        ))
        for oid, (aul, held) in self.owners.items():
            record = self.cloud.owner_record(oid)
            assert record.aul == aul
            assert self.kmc.owner_key(oid) == owner_sk(oid)
            assert set(record.images) == set(held)
            for iid, stored in record.images.items():
                assert np.array_equal(image_dec(owner_sk(oid), stored.enc_image), held[iid][0])


CloudModel.TestCase.settings = settings(
    max_examples=100, stateful_step_count=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
test_cloud_kmc_and_store_follow_the_model = CloudModel.TestCase
