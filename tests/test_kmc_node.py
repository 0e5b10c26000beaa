import os

import numpy as np
import pytest

from mipp.image_cipher import image_dec, image_enc, keygen
from mipp.kmc_node import KeyReuseError, KmcNode, SessionError, VaultError


def img(seed, shape=(6, 6)):
    return np.random.default_rng(seed).integers(0, 256, size=shape, dtype=np.uint8)


def test_store_and_fetch_owner_key():
    kmc = KmcNode()
    sk = keygen(36, b"owner")
    kmc.store_owner_key("o1", sk)
    assert kmc.owner_key("o1") == sk


def test_owner_key_overwrite_needs_rotate():
    kmc = KmcNode()
    kmc.store_owner_key("o1", b"\x01" * 8)
    with pytest.raises(VaultError):
        kmc.store_owner_key("o1", b"\x02" * 8)
    assert kmc.owner_key("o1") == b"\x01" * 8


def test_a_user_key_is_as_long_as_the_longest_owner_key():
    kmc = KmcNode()
    assert kmc.user_key_length() == 1  # keygen's shortest key
    kmc.store_owner_key("o1", b"\x01" * 9)
    kmc.store_owner_key("o2", b"\x02" * 5)
    assert kmc.user_key_length() == 9


def test_a_vault_error_prints_its_message_unquoted():
    assert str(VaultError("no key stored for owner 'o1'")) == "no key stored for owner 'o1'"


def test_reencrypt_roundtrip():
    kmc = KmcNode()
    w = img(1)
    sk = keygen(w.size, b"sk")
    usk = keygen(w.size, b"usk")
    kmc.store_owner_key("o1", sk)
    kmc.store_user_key("u1", usk, "s1")
    ner = kmc.reencrypt_results([("o1", "im1", image_enc(sk, w))], "u1", "s1")
    assert len(ner) == 1
    assert np.array_equal(image_dec(usk, ner[0][2]), w)


def test_equal_keys_make_reencryption_identity():
    kmc = KmcNode()
    w = img(2)
    k = keygen(w.size, b"shared")
    kmc.store_owner_key("o1", k)
    kmc.store_user_key("u1", k, "s1")
    ew = image_enc(k, w)
    ner = kmc.reencrypt_results([("o1", "im1", ew)], "u1", "s1")
    assert np.array_equal(ner[0][2], ew)


def test_order_and_cardinality_preserved():
    kmc = KmcNode()
    images = [img(i) for i in range(5)]
    sk = keygen(images[0].size, b"o")
    usk = keygen(images[0].size, b"u")
    kmc.store_owner_key("o1", sk)
    kmc.store_user_key("u1", usk, "s1")
    er = [("o1", f"im{i}", image_enc(sk, w)) for i, w in enumerate(images)]
    ner = kmc.reencrypt_results(er, "u1", "s1")
    assert [(o, i) for o, i, _ in ner] == [(o, i) for o, i, _ in er]
    for (_, _, enc), w in zip(ner, images):
        assert np.array_equal(image_dec(usk, enc), w)


def test_empty_results_pass_through():
    kmc = KmcNode()
    kmc.store_user_key("u1", b"\x05" * 4, "s1")
    assert kmc.reencrypt_results([], "u1", "s1") == []


def test_user_key_discarded_after_session():
    kmc = KmcNode()
    kmc.store_owner_key("o1", b"\x01" * 36)
    kmc.store_user_key("u1", b"\x02" * 36, "s1")
    kmc.reencrypt_results([("o1", "im", img(3))], "u1", "s1")
    assert not kmc.has_user_key("u1")
    with pytest.raises(SessionError):
        kmc.reencrypt_results([("o1", "im", img(3))], "u1", "s1")


def test_key_reuse_across_sessions_flagged():
    kmc = KmcNode()
    kmc.store_owner_key("o1", b"\x01" * 36)
    kmc.store_user_key("u1", b"\x02" * 36, "s1")
    kmc.reencrypt_results([("o1", "im", img(4))], "u1", "s1")
    with pytest.raises(KeyReuseError):
        kmc.store_user_key("u1", b"\x02" * 36, "s2")
    kmc.store_user_key("u1", b"\x03" * 36, "s2")  # fresh key accepted


def test_spent_keystream_refused_for_every_user():
    kmc = KmcNode()
    kmc.store_user_key("u1", b"\x02" * 36, "s1")
    kmc.drop_user_key("u1")
    with pytest.raises(KeyReuseError):
        kmc.store_user_key("u2", b"\x02" * 36, "s2")
    assert not kmc.has_user_key("u2")


def test_session_binding_enforced():
    kmc = KmcNode()
    kmc.store_owner_key("o1", b"\x01" * 36)
    kmc.store_user_key("u1", b"\x02" * 36, "s1")
    with pytest.raises(SessionError):
        kmc.reencrypt_results([("o1", "im", img(5))], "u1", "other-session")


def test_missing_owner_key_detected():
    kmc = KmcNode()
    kmc.store_user_key("u1", b"\x02" * 36, "s1")
    with pytest.raises(VaultError):
        kmc.reencrypt_results([("o1", "im", img(6))], "u1", "s1")


def test_vault_roundtrip(tmp_path):
    kmc = KmcNode()
    kmc.store_owner_key("o1", b"\xaa\xbb")
    kmc.store_owner_key("o2", b"\xcc" * 4)
    kmc.store_user_key("u1", b"\x01" * 4, "s1")  # must not be persisted
    path = tmp_path / "vault"
    kmc.save_vault(path)
    text = path.read_text()
    assert text.splitlines()[0] == "MIPP-VAULT-1"
    assert "aabb" in text and "01010101" not in text
    assert (path.stat().st_mode & 0o777) == 0o600

    loaded = KmcNode.load_vault(path)
    assert loaded.owner_key("o1") == b"\xaa\xbb"
    assert loaded.owner_key("o2") == b"\xcc" * 4
    assert not loaded.has_user_key("u1")


def test_reencrypt_spends_key_before_use(monkeypatch):
    # a second call for the same session, made while the first is still
    # re-encrypting, must find the key already spent
    from mipp import kmc_node

    kmc = KmcNode()
    w = img(8)
    sk = keygen(w.size, b"sk")
    usk = keygen(w.size, b"usk")
    kmc.store_owner_key("o1", sk)
    kmc.store_user_key("u1", usk, "s1")
    er = [("o1", "im1", image_enc(sk, w))]
    nested = []
    real_dec = kmc_node.image_dec

    def reentrant_dec(key, data):
        if not nested:
            nested.append("entered")
            try:
                kmc.reencrypt_results(er, "u1", "s1")
                nested.append("reused")
            except SessionError:
                nested.append("refused")
        return real_dec(key, data)

    monkeypatch.setattr(kmc_node, "image_dec", reentrant_dec)
    ner = kmc.reencrypt_results(er, "u1", "s1")
    assert nested == ["entered", "refused"]
    assert np.array_equal(image_dec(usk, ner[0][2]), w)
    assert not kmc.has_user_key("u1")
    with pytest.raises(KeyReuseError):
        kmc.store_user_key("u1", usk, "s2")


def test_wrong_session_leaves_key_in_place():
    kmc = KmcNode()
    w = img(9)
    sk = keygen(w.size, b"sk")
    usk = keygen(w.size, b"usk")
    kmc.store_owner_key("o1", sk)
    kmc.store_user_key("u1", usk, "s1")
    er = [("o1", "im1", image_enc(sk, w))]
    with pytest.raises(SessionError):
        kmc.reencrypt_results(er, "u1", "other-session")
    assert kmc.has_user_key("u1")
    ner = kmc.reencrypt_results(er, "u1", "s1")
    assert np.array_equal(image_dec(usk, ner[0][2]), w)


def test_concurrent_reencrypt_spends_key_once():
    import sys
    import threading

    kmc = KmcNode()
    images = [img(20 + i) for i in range(20)]
    sk = keygen(images[0].size, b"sk")
    kmc.store_owner_key("o1", sk)
    kmc.store_user_key("u1", keygen(images[0].size, b"usk"), "s1")
    er = [("o1", f"im{i}", image_enc(sk, w)) for i, w in enumerate(images)]
    start = threading.Barrier(8)
    outcomes = []

    def worker():
        start.wait(timeout=10)
        try:
            kmc.reencrypt_results(er, "u1", "s1")
            outcomes.append("used")
        except SessionError:
            outcomes.append("refused")

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(outcomes) == ["refused"] * 7 + ["used"]


def test_vault_is_owner_only_from_its_first_byte(tmp_path, monkeypatch):
    # an existing world-readable vault, and no chmod after the write
    path = tmp_path / "vault"
    path.write_text("stale")
    path.chmod(0o644)
    monkeypatch.setattr(os, "chmod", lambda *args, **kwargs: None)
    kmc = KmcNode()
    kmc.store_owner_key("o1", b"\xaa\xbb")
    old_umask = os.umask(0o022)
    try:
        kmc.save_vault(path)
    finally:
        os.umask(old_umask)
    assert (path.stat().st_mode & 0o777) == 0o600
    assert KmcNode.load_vault(path).owner_key("o1") == b"\xaa\xbb"


def test_vault_line_without_tab_names_the_file(tmp_path):
    kmc = KmcNode()
    kmc.store_owner_key("o1", b"\xaa\xbb")
    path = tmp_path / "vault"
    kmc.save_vault(path)
    path.write_text(path.read_text() + "o2\n")
    with pytest.raises(ValueError, match="vault: line 3 has no tab"):
        KmcNode.load_vault(path)


def test_vault_repeating_an_owner_names_the_file_and_line(tmp_path):
    kmc = KmcNode()
    kmc.store_owner_key("owner-1", b"\xaa\xbb")
    path = tmp_path / "vault"
    kmc.save_vault(path)
    path.write_text(path.read_text() + "owner-1\tccdd\n")
    with pytest.raises(ValueError, match="vault: line 3 repeats owner 'owner-1'"):
        KmcNode.load_vault(path)
