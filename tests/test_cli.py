import builtins
import errno
import io
import os
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import mipp
from mipp import cli, cloud_node, feature_crypto
from mipp.cli import build_parser, main
from mipp.cloud_node import CloudNode, DeleteImages
from mipp.ehd_features import extract_ehd
from mipp.evaluation import SynthSpec, load_corpus, synth_corpus, write_corpus
from mipp.group_crypto import load_params
from mipp.image_cipher import image_enc, keygen, read_pgm, write_pgm
from mipp.kmc_node import KmcNode
from mipp.protocol_sim import World
from mipp.rng import derive_seed
from mipp.similarity import SumPair, sim_from_sums

TINY = SynthSpec(categories=4, per_category=8)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    write_corpus(synth_corpus(TINY, owners=2, seed=b"cli"), root)
    return root


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory, corpus_dir):
    store = tmp_path_factory.mktemp("stores") / "store"
    rc = main([
        "ingest", "--corpus", str(corpus_dir), "--store", str(store),
        "--owners", "2", "--seed", "cli-test",
    ])
    assert rc == 0
    return store


def test_gen_params(tmp_path, capsys):
    out = tmp_path / "params.txt"
    assert main(["gen-params", "--bits", "32", "--seed", "x", "--out", str(out)]) == 0
    params = load_params(out)
    assert params.q.bit_length() == 32
    assert "wrote" in capsys.readouterr().out


def test_ingest_store_layout(store_dir):
    assert (store_dir / "params.txt").exists()
    assert (store_dir / "cloud" / "index.tsv").exists()
    assert (store_dir / "vault").exists()
    users = (store_dir / "users.tsv").read_text().strip().splitlines()
    assert users[0] == "uid\tak_hex"
    assert users[1].startswith("user-1\t")
    index_rows = (store_dir / "cloud" / "index.tsv").read_text().strip().splitlines()
    assert len(index_rows) == 1 + 32  # header + 4 categories x 8 images


def test_query_roundtrip(store_dir, corpus_dir, tmp_path, capsys):
    query_image = sorted((corpus_dir / "cat00").glob("*.pgm"))[0]
    out = tmp_path / "results.tsv"
    saved = tmp_path / "decrypted"
    rc = main([
        "query", "--store", str(store_dir), "--image", str(query_image),
        "--top-h", "5", "--seed", "cli-q", "--out", str(out),
        "--save-images", str(saved),
    ])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "user_rank\towner_id\timage_id\tcloud_distance\tlocal_euclidean"
    assert len(lines) == 6
    # the stored copy of the query image decrypts bit-exactly and leads the
    # user's local ranking
    best = lines[1].split("\t")
    assert best[2] == "cat00_000"
    original, _ = read_pgm(query_image)
    decrypted, _ = read_pgm(sorted(saved.glob("001_*.pgm"))[0])
    assert np.array_equal(decrypted, original)


def test_update_add_delete_reencrypt(store_dir, tmp_path, capsys):
    new_dir = tmp_path / "new"
    new_dir.mkdir()
    rng = np.random.default_rng(5)
    for i in range(2):
        write_pgm(new_dir / f"extra-{i}.pgm",
                  rng.integers(0, 256, size=(64, 64), dtype=np.uint8))

    assert main(["update", "--store", str(store_dir), "--owner", "owner-1",
                 "--add", str(new_dir), "--seed", "u1"]) == 0
    index = (store_dir / "cloud" / "index.tsv").read_text()
    assert "extra-0" in index and "extra-1" in index

    assert main(["update", "--store", str(store_dir), "--owner", "owner-1",
                 "--delete", "extra-0,extra-1", "--seed", "u2"]) == 0
    index = (store_dir / "cloud" / "index.tsv").read_text()
    assert "extra-0" not in index

    before = (store_dir / "cloud" / "index.tsv").read_text()
    owned = next(
        ln.split("\t")[1]
        for ln in before.strip().splitlines()[1:]
        if ln.startswith("owner-1\t")
    )
    rc = main(["update", "--store", str(store_dir), "--owner", "owner-1",
               "--reencrypt", owned, "--seed", "u3"])
    assert rc == 0
    assert "index rows unchanged: True" in capsys.readouterr().out
    assert (store_dir / "cloud" / "index.tsv").read_text() == before


def test_eval_on_disk_corpus(corpus_dir, tmp_path, capsys):
    out = tmp_path / "metrics.tsv"
    rc = main([
        "eval", "--corpus", str(corpus_dir), "--owners", "2",
        "--queries-per-category", "1", "--top-h", "10",
        "--seed", "cli-eval", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "method\tcutoff\tprecision\trecall\tf1"
    assert any(ln.startswith("new_dis\t10\t") for ln in lines)
    assert any(ln.startswith("euc_dis\t10\t") for ln in lines)


def test_leakage_output(corpus_dir, tmp_path):
    from mipp.evaluation import StatisticalPowerWarning

    out = tmp_path / "leakage.tsv"
    with pytest.warns(StatisticalPowerWarning):  # only 4 queries here
        rc = main([
            "leakage", "--corpus", str(corpus_dir), "--owners", "2",
            "--queries-per-category", "1", "--top-h", "10",
            "--seed", "cli-leak", "--out", str(out),
        ])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "decile\teuc_dis\tnew_dis\tuser"
    assert len(lines) == 11


def test_bench_output(tmp_path):
    out = tmp_path / "bench.tsv"
    rc = main([
        "bench", "--sizes", "30,60", "--reps", "2", "--seed", "cli-bench",
        "--out", str(out),
    ])
    assert rc == 0
    text = out.read_text()
    assert text.splitlines()[0] == "size\tmode\tmedian_seconds\treps"
    assert "enc_with_index" in text and "storage" in text


def _tree(store):
    """Every file of ``store`` but its session counter, with its bytes."""
    return {p: p.read_bytes() for p in store.rglob("*")
            if p.is_file() and p.name != "session.counter"}


def refusal(argv, store, capsys) -> str:
    """The one line ``main`` prints on stderr for ``argv`` on ``store``; it
    must exit 1, print nothing on stdout and change no byte of the store
    but its session counter."""
    before = _tree(store)
    capsys.readouterr()
    assert main(argv + ["--store", str(store)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("\n") and captured.err.count("\n") == 1
    assert _tree(store) == before
    return captured.err[:-1]


def _first_image(store, owner_id):
    return sorted((store / "cloud" / "owners" / owner_id / "img").glob("*.pgm"))[0].stem


def test_users_line_without_tab_names_the_file(store_dir, tmp_path, capsys):
    store = tmp_path / "store"
    shutil.copytree(store_dir, store)
    users = store / "users.tsv"
    users.write_text(users.read_text() + "user-2\n")
    err = refusal(["update", "--owner", "owner-1", "--delete", "x"], store, capsys)
    assert err == f"{users}: line 3 has no tab"


def _refused_before_the_session_counter(store_dir, tmp_path, capsys, owner, option, ids,
                                        message):
    store = tmp_path / "store"
    shutil.copytree(store_dir, store)
    (store / "session.counter").write_text("5")
    image = _first_image(store, "owner-1")
    err = refusal(["update", "--owner", owner, option, ids.format(image=image),
                   "--seed", "u4"], store, capsys)
    assert err == message.format(image=image)
    assert (store / "session.counter").read_text() == "5"


@pytest.mark.parametrize("owner, ids, message", [
    ("owner-9", "{image}", "no key stored for owner 'owner-9'"),
    ("owner-1", "nope", "owner-1 does not own 'nope'"),
    ("owner-1", "{image},{image}", "owner-1/{image}"),
], ids=["unknown-owner", "lacked-id", "repeated-id"])
def test_refused_delete_exits_1_and_changes_nothing(
    store_dir, tmp_path, capsys, owner, ids, message
):
    _refused_before_the_session_counter(store_dir, tmp_path, capsys, owner, "--delete", ids,
                                        message)


_EMPTY_ID = "image id '' must match ^[A-Za-z0-9_.-]+$"


@pytest.mark.parametrize("option, ids", [
    ("--delete", ","), ("--delete", "{image},"), ("--reencrypt", ","),
    ("--reencrypt", ",{image}"),
], ids=["delete-comma", "delete-trailing-comma", "reencrypt-comma", "reencrypt-leading-comma"])
def test_an_empty_id_in_an_update_list_is_refused_as_an_id(
    store_dir, tmp_path, capsys, option, ids
):
    _refused_before_the_session_counter(store_dir, tmp_path, capsys, "owner-1", option, ids,
                                        _EMPTY_ID)


def test_reencrypt_of_an_image_the_owner_lacks_changes_nothing(store_dir, tmp_path, capsys):
    _refused_before_the_session_counter(store_dir, tmp_path, capsys, "owner-1", "--reencrypt",
                                        "nope", "owner-1 does not own 'nope'")


def test_repeated_reencrypt_id_refused_before_the_session_counter(store_dir, tmp_path, capsys):
    _refused_before_the_session_counter(store_dir, tmp_path, capsys, "owner-1", "--reencrypt",
                                        "{image},{image}", "owner-1/{image}")


@pytest.mark.parametrize("name, make, message", [
    ("text.pgm", lambda path: path.write_text("P2 not binary\n"),
     "{path}: not a binary PGM (P5) file"),
    ("tiny.pgm", lambda path: write_pgm(path, np.zeros((4, 4), dtype=np.uint8)),
     "{path}: 4x4 image too small for a 4x4 grid of 2x2 blocks"),
    # the owners' keystreams cover the largest ingested image, 64x64
    ("wide.pgm", lambda path: write_pgm(path, np.zeros((64, 65), dtype=np.uint8)),
     "{path}: keystream of 4096 bytes < 64x65 image"),
], ids=["not-a-pgm", "too-small", "beyond-the-keystream"])
def test_an_add_file_the_owner_cannot_store_exits_1(
    store_dir, tmp_path, capsys, name, make, message
):
    store, added = tmp_path / "store", tmp_path / "added"
    shutil.copytree(store_dir, store)
    added.mkdir()
    write_pgm(added / "fine.pgm", np.full((64, 64), 9, dtype=np.uint8))
    make(added / name)
    err = refusal(["update", "--owner", "owner-1", "--add", str(added)], store, capsys)
    assert err == message.format(path=added / name)


def test_lazy_delete_saves_what_an_eager_load_saves(store_dir, tmp_path, capsys):
    lazy, eager = tmp_path / "lazy", tmp_path / "eager"
    shutil.copytree(store_dir, lazy)
    shutil.copytree(store_dir, eager)
    image_id = _first_image(lazy, "owner-2")
    assert main(["update", "--store", str(lazy), "--owner", "owner-2",
                 "--delete", image_id]) == 0
    cloud = CloudNode.load_store(eager / "cloud", load_params(eager / "params.txt"))
    cloud.apply_update("owner-2", DeleteImages((image_id,)))
    cloud.save_store(eager / "cloud")
    assert f"owner-2\t{image_id}\t" not in (lazy / "cloud" / "index.tsv").read_text()
    assert {p.relative_to(lazy): b for p, b in _tree(lazy).items()} == {
        p.relative_to(eager): b for p, b in _tree(eager).items()}


def test_an_update_the_disk_cannot_hold_changes_nothing(
    store_dir, tmp_path, capsys, disk_full_after
):
    store = tmp_path / "store"
    shutil.copytree(store_dir, store)
    disk_full_after(3)
    err = refusal(["update", "--owner", "owner-1", "--delete", _first_image(store, "owner-1")],
                  store, capsys)
    assert "No space left on device" in err and "Traceback" not in err
    assert not list(store.rglob(".new-*"))


def _ingest_again(store, corpus):
    args = build_parser().parse_args(["ingest", "--corpus", str(corpus), "--store", str(store),
                                      "--owners", "2", "--seed", "cli-test"])
    args.func(args)


def _save_vault_again(store, corpus):
    KmcNode.load_vault(store / "vault").save_vault(store / "vault")


def test_concurrent_sessions_take_distinct_ordinals(tmp_path):
    taken = []

    def take():
        taken.extend(cli._next_session(tmp_path) for _ in range(200))

    threads = [threading.Thread(target=take) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert sorted(taken) == list(range(400))
    assert (tmp_path / "session.counter").read_text() == "400"


@pytest.mark.parametrize("name, header, write", [
    ("params.txt", "MIPP-PARAMS-1\n", _ingest_again),
    ("users.tsv", "uid\tak_hex\n", _ingest_again),
    ("vault", "MIPP-VAULT-1\n", _save_vault_again),
    ("session.counter", "", lambda store, corpus: cli._next_session(store)),
], ids=["params.txt", "users.tsv", "vault", "session.counter"])
def test_a_store_file_the_disk_cannot_hold_keeps_its_old_bytes(
    store_dir, corpus_dir, tmp_path, monkeypatch, name, header, write
):
    store = tmp_path / "store"
    shutil.copytree(store_dir, store)
    (store / "session.counter").write_text("5")
    old = (store / name).read_bytes()
    real_open = io.open

    class Full:
        """A file open for writing whose text writes that start with
        ``header`` find the disk full."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def __getattr__(self, attr):
            return getattr(self.fh, attr)

        def write(self, data):
            if isinstance(data, str) and data.startswith(header):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return self.fh.write(data)

    def open_full(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return Full(fh) if "w" in mode else fh

    monkeypatch.setattr(io, "open", open_full)  # pathlib opens through io.open
    monkeypatch.setattr(builtins, "open", open_full)
    with pytest.raises(OSError, match="No space left on device"):
        write(store, corpus_dir)
    monkeypatch.undo()
    assert (store / name).read_bytes() == old
    assert not list(store.glob(".new-*"))


@pytest.mark.parametrize("path, line", [
    ("vault", 2),
    ("users.tsv", 2),
    ("cloud/owners/owner-1/manifest", 3),
], ids=["vault", "users", "manifest"])
def test_bad_hex_field_names_the_file_and_line(store_dir, tmp_path, capsys, path, line):
    store = tmp_path / "store"
    shutil.copytree(store_dir, store)
    target = store / path
    lines = target.read_text().splitlines()
    key, hex_field = lines[line - 1].split("\t")
    lines[line - 1] = f"{key}\tzz{hex_field[2:]}"
    target.write_text("\n".join(lines) + "\n")
    err = refusal(["update", "--owner", "owner-1", "--delete", "x"], store, capsys)
    assert err == f"{target}: line {line} has a malformed hex field"


def test_users_file_without_users_names_the_file(store_dir, corpus_dir, tmp_path, capsys):
    store = tmp_path / "store"
    shutil.copytree(store_dir, store)
    users = store / "users.tsv"
    users.write_text(users.read_text().splitlines()[0] + "\n")
    query_image = sorted((corpus_dir / "cat00").glob("*.pgm"))[0]
    err = refusal(["query", "--image", str(query_image)], store, capsys)
    assert err == f"{users} lists no user"


def test_users_file_repeating_a_user_names_the_file_and_line(store_dir, tmp_path, capsys):
    store = tmp_path / "store"
    shutil.copytree(store_dir, store)
    users = store / "users.tsv"
    lines = users.read_text().splitlines()
    users.write_text("\n".join(lines + [lines[1]]) + "\n")
    err = refusal(["update", "--owner", "owner-1", "--delete", "x"], store, capsys)
    assert err == f"{users}: line 3 repeats user 'user-1'"


def test_query_by_a_user_no_owner_authorizes_exits_1(store_dir, corpus_dir, tmp_path, capsys):
    store = tmp_path / "store"
    shutil.copytree(store_dir, store)
    (store / "users.tsv").write_text(f"uid\tak_hex\nuser-1\t{'00' * 32}\n")

    def files():
        return {p: p.read_bytes() for p in store.rglob("*")
                if p.is_file() and p.name != "session.counter"}

    before = files()
    query_image = sorted((corpus_dir / "cat00").glob("*.pgm"))[0]
    capsys.readouterr()
    rc = main(["query", "--store", str(store), "--image", str(query_image)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "'user-1'" in captured.err and captured.out == ""
    assert files() == before


def test_cli_query_matches_a_world_session_on_the_same_corpus(corpus_dir, tmp_path):
    store = tmp_path / "store"
    assert main(["ingest", "--corpus", str(corpus_dir), "--store", str(store),
                 "--owners", "2", "--seed", "diff"]) == 0
    query_path = sorted((corpus_dir / "cat01").glob("*.pgm"))[2]
    out = tmp_path / "results.tsv"
    assert main(["query", "--store", str(store), "--image", str(query_path),
                 "--top-h", "10", "--seed", "diff", "--out", str(out)]) == 0
    rows = [ln.split("\t") for ln in out.read_text().splitlines()[1:]]

    corpus = load_corpus(corpus_dir, owners=2)
    world = World(load_params(store / "params.txt"), b"diff",
                  max_image_pixels=max(item.image.size for item in corpus.items))
    world.add_user("user-1")
    for owner_id, items in sorted(corpus.by_owner().items()):
        world.add_owner(owner_id, [(item.item_id, item.image) for item in items],
                        authorize=["user-1"])
    query = read_pgm(query_path)[0]
    result = world.run_session("user-1", query, 10)
    # the World's cloud distance of each image, from the sums in its index
    query_sums = SumPair.from_vector(extract_ehd(query))
    world_distance = {
        (e.owner_id, e.image_id): sim_from_sums(query_sums, SumPair(e.s1, e.s2, query_sums.l))
        for e in world.cloud.index
    }

    assert result.authorized and len(result.returned) == 10
    assert {(o, i) for _, o, i, _, _ in rows} == set(result.returned)
    assert [(o, i) for _, o, i, _, _ in rows] == result.user_ranking
    assert [d for _, o, i, d, _ in rows] == [
        f"{world_distance[key]:.4f}" for key in result.user_ranking
    ]


@pytest.mark.parametrize("image, top_h, message", [
    (None, "0", "--top-h must be >= 1, not 0"),
    ("missing.pgm", "10", "--image: [Errno 2] No such file or directory: '{path}'"),
    ("params.txt", "10", "--image: {path}: not a binary PGM (P5) file"),
    ("tiny.pgm", "10", "--image: 4x4 image too small for a 4x4 grid of 2x2 blocks"),
], ids=["h-zero", "missing-image", "not-a-pgm", "too-small-image"])
def test_query_input_errors_exit_1_before_the_session_counter(
    store_dir, corpus_dir, tmp_path, capsys, image, top_h, message
):
    store = tmp_path / "store"
    shutil.copytree(store_dir, store)
    (store / "session.counter").write_text("5")
    write_pgm(store / "tiny.pgm", np.zeros((4, 4), dtype=np.uint8))
    query_image = store / image if image else sorted((corpus_dir / "cat00").glob("*.pgm"))[0]
    capsys.readouterr()
    assert main(["query", "--store", str(store), "--image", str(query_image),
                 "--top-h", top_h]) == 1
    captured = capsys.readouterr()
    assert captured.err == message.format(path=query_image) + "\n"
    assert captured.out == ""
    assert (store / "session.counter").read_text() == "5"


@pytest.mark.parametrize("command", ["eval", "leakage"])
def test_an_experiment_asking_for_no_results_is_refused_before_any_owner(
    monkeypatch, capsys, command
):
    def no_owner(*args, **kwargs):
        raise AssertionError("an owner was added")

    monkeypatch.setattr(World, "add_owner", no_owner)
    assert main([command, "--top-h", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "--top-h must be >= 1, not 0\n" and captured.out == ""


def test_a_malformed_store_file_is_named_in_its_error(store_dir, tmp_path, capsys):
    store = tmp_path / "store"
    shutil.copytree(store_dir, store)
    # the update keeps owner-2's images, so saving the store reads this one
    eft = sorted((store / "cloud" / "owners" / "owner-2" / "feat").glob("*.eft"))[3]
    eft.write_text(eft.read_text().splitlines()[0] + "\n")
    update = ["update", "--owner", "owner-1", "--delete", _first_image(store, "owner-1")]
    assert refusal(update, store, capsys).startswith(f"{eft}: expected MIPP-EFT-1 header")

    pgm = store / "cloud" / "owners" / "owner-2" / "img" / f"{eft.stem}.pgm"
    eft.write_text((store_dir / eft.relative_to(store)).read_text())
    pgm.write_bytes(b"P5\n")
    assert refusal(update, store, capsys) == f"{pgm}: truncated PGM header"

    params = store / "params.txt"
    params.write_text("MIPP-PARAMS-0\n" + params.read_text().split("\n", 1)[1])
    assert refusal(update, store, capsys).startswith(f"{params}: missing MIPP-PARAMS-1")


def test_query_of_a_store_without_owners_is_authorized_by_no_owner(
    store_dir, corpus_dir, tmp_path, capsys
):
    store = tmp_path / "store"
    shutil.copytree(store_dir, store)
    shutil.rmtree(store / "cloud" / "owners")
    (store / "cloud" / "index.tsv").write_text("owner_id\timage_id\ts1\ts2\n")
    (store / "vault").write_text("MIPP-VAULT-1\n")
    query_image = sorted((corpus_dir / "cat00").glob("*.pgm"))[0]
    capsys.readouterr()
    assert main(["query", "--store", str(store), "--image", str(query_image)]) == 1
    assert capsys.readouterr().err == "user 'user-1' is authorized by no owner\n"


@pytest.mark.parametrize("path", ["vault", "users.tsv", "cloud/index.tsv",
                                  "cloud/owners/owner-2/manifest"])
def test_a_bad_header_names_the_file(store_dir, corpus_dir, tmp_path, capsys, path):
    store = tmp_path / "store"
    shutil.copytree(store_dir, store)
    target = store / path
    target.write_text("BAD-HEADER\n" + target.read_text().split("\n", 1)[1])
    query_image = sorted((corpus_dir / "cat00").glob("*.pgm"))[0]
    for argv in (["query", "--image", str(query_image)],
                 ["update", "--owner", "owner-1", "--delete", "x"]):
        assert refusal(argv, store, capsys) == f"{target}: missing or malformed header"


def test_query_reads_only_the_images_it_returns(
    store_dir, corpus_dir, tmp_path, capsys, monkeypatch
):
    intact, store = tmp_path / "intact", tmp_path / "store"
    shutil.copytree(store_dir, intact)
    shutil.copytree(store_dir, store)
    query_image = sorted((corpus_dir / "cat01").glob("*.pgm"))[0]
    argv = ["query", "--image", str(query_image), "--top-h", "5", "--seed", "lazy"]
    capsys.readouterr()
    assert main(argv + ["--store", str(intact)]) == 0
    want = capsys.readouterr().out
    returned = {tuple(ln.split("\t")[1:3]) for ln in want.splitlines()[1:]}
    assert len(returned) == 5
    feat = store / "cloud" / "owners" / "owner-1" / "feat"
    eft = next(p for p in sorted(feat.glob("*.eft")) if ("owner-1", p.stem) not in returned)
    eft.write_text(eft.read_text().splitlines()[0] + "\n")

    pgm_reads, eft_parses = [], []
    read_pgm, feature_from_text = cloud_node.read_pgm, feature_crypto.feature_from_text
    monkeypatch.setattr(cloud_node, "read_pgm",
                        lambda path: pgm_reads.append(path) or read_pgm(path))
    monkeypatch.setattr(feature_crypto, "feature_from_text",
                        lambda text: eft_parses.append(text) or feature_from_text(text))
    assert main(argv + ["--store", str(store)]) == 0
    assert capsys.readouterr().out == want
    assert len(pgm_reads) == 5 and eft_parses == []
    # an update that keeps the image reads its feature when it saves the store
    update = ["update", "--owner", "owner-2", "--delete", _first_image(store, "owner-2")]
    assert refusal(update, store, capsys).startswith(f"{eft}: expected MIPP-EFT-1 header")


def _tiny_pgm(directory):
    directory.mkdir(parents=True, exist_ok=True)
    write_pgm(directory / "tiny.pgm", np.zeros((4, 4), dtype=np.uint8))


def _corpus_with(root, make):
    cat = root / "cat"
    cat.mkdir(parents=True)
    write_pgm(cat / "fine.pgm", np.full((16, 16), 9, dtype=np.uint8))
    make(cat)


def _truncated_pgm(directory):
    path = directory / "z.pgm"
    write_pgm(path, np.full((16, 16), 9, dtype=np.uint8))
    path.write_bytes(path.read_bytes()[:-1])


def _not_utf8(path):
    path.write_bytes(b"\xff" + path.read_bytes())


def _edit_first_index_row(store, s1):
    index = store / "cloud" / "index.tsv"
    header, first, rest = index.read_text().split("\n", 2)
    owner_id, image_id, _, s2 = first.split("\t")
    index.write_text("\n".join([header, f"{owner_id}\t{image_id}\t{s1}\t{s2}", rest]))


_PREPARE = {
    "bad-header": lambda store, tmp: (store / "cloud" / "index.tsv").write_text("BAD-HEADER\n"),
    "stranger": lambda store, tmp: (store / "users.tsv").write_text(
        f"uid\tak_hex\nuser-1\t{'00' * 32}\n"),
    "tiny-add": lambda store, tmp: _tiny_pgm(tmp / "add"),
    "text-in-corpus": lambda store, tmp: _corpus_with(
        tmp / "corpus", lambda cat: (cat / "notes.txt").write_text("notes\n")),
    "tiny-in-corpus": lambda store, tmp: _corpus_with(tmp / "corpus", _tiny_pgm),
    # the refusals below come at the last corpus file, after every owner has stored images
    "unsafe-id-last": lambda store, tmp: _corpus_with(
        tmp / "corpus", lambda cat: write_pgm(cat / "z bad.pgm", np.full((16, 16), 9, np.uint8))),
    "tiny-last": lambda store, tmp: (
        write_corpus(synth_corpus(TINY, owners=2, seed=b"cli"), tmp / "corpus"),
        _tiny_pgm(tmp / "corpus" / "zz")),
    "truncated-last": lambda store, tmp: _corpus_with(tmp / "corpus", _truncated_pgm),
    "empty-corpus": lambda store, tmp: (tmp / "corpus" / "cat").mkdir(parents=True),
    "sum-beyond-ehd": lambda store, tmp: _edit_first_index_row(store, s1=2**63),
    "empty-add-dir": lambda store, tmp: (tmp / "add").mkdir(),
    "counter-not-an-integer": lambda store, tmp: (store / "session.counter").write_text("x\n"),
    "users-not-utf8": lambda store, tmp: _not_utf8(store / "users.tsv"),
    "vault-not-utf8": lambda store, tmp: _not_utf8(store / "vault"),
    "index-not-utf8": lambda store, tmp: _not_utf8(store / "cloud" / "index.tsv"),
    "manifest-not-utf8": lambda store, tmp: _not_utf8(
        store / "cloud" / "owners" / "owner-1" / "manifest"),
}

_QUERY = ["query", "--store", "{store}", "--image", "{query}"]
_UPDATE = ["update", "--store", "{store}", "--owner", "owner-1"]
_INGEST = ["ingest", "--corpus", "{tmp}/corpus", "--store", "{tmp}/new"]
_TOO_SMALL = "4x4 image too small for a 4x4 grid of 2x2 blocks"
_TOO_MANY = "--top-h must be < 4294967296, not 4294967296"
_NO_PGM = "--add: {} is not a directory holding a .pgm file"
_NOT_UTF8 = "{store}/%s: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


@pytest.mark.parametrize("prepare, argv, message", [
    ("bad-header", _QUERY, "{store}/cloud/index.tsv: missing or malformed header"),
    ("sum-beyond-ehd", _QUERY,
     "{store}/cloud/index.tsv: line 2: sums lie outside an edge histogram's range"),
    (None, _QUERY + ["--top-h", "0"], "--top-h must be >= 1, not 0"),
    (None, ["query", "--store", "{store}", "--image", "{store}/params.txt"],
     "--image: {store}/params.txt: not a binary PGM (P5) file"),
    ("stranger", _QUERY, "user 'user-1' is authorized by no owner"),
    ("tiny-add", _UPDATE + ["--add", "{tmp}/add"], "{tmp}/add/tiny.pgm: " + _TOO_SMALL),
    (None, ["update", "--store", "{store}", "--owner", "owner-9", "--delete", "x"],
     "no key stored for owner 'owner-9'"),
    (None, _UPDATE + ["--add", ""], "--add needs a value"),
    (None, _UPDATE + ["--delete", ""], "--delete needs a value"),
    (None, _UPDATE + ["--reencrypt", ""], "--reencrypt needs a value"),
    ("text-in-corpus", _INGEST,
     "1 corpus file(s) rejected: {tmp}/corpus/cat/notes.txt: not a binary PGM (P5) file"),
    ("tiny-in-corpus", _INGEST, "cat_tiny: " + _TOO_SMALL),
    ("empty-corpus", _INGEST, "nothing to ingest"),
    (None, ["eval", "--corpus", "{corpus}", "--owners", "2", "--queries-per-category", "0"],
     "no queries to run"),
    (None, ["eval", "--top-h", "0"], "--top-h must be >= 1, not 0"),
    (None, ["leakage", "--top-h", "0"], "--top-h must be >= 1, not 0"),
    (None, _UPDATE + ["--delete", ","], _EMPTY_ID),
    (None, ["leakage", "--corpus", "{corpus}", "--owners", "2", "--queries-per-category", "0"],
     "no queries to run"),
    (None, ["bench", "--sizes", "0", "--reps", "1"],
     "sizes must be non-empty, ascending and >= 1"),
    (None, _QUERY + ["--top-h", "4294967296"], _TOO_MANY),
    (None, ["eval", "--top-h", "4294967296"], _TOO_MANY),
    (None, ["leakage", "--top-h", "4294967296"], _TOO_MANY),
    (None, ["eval", "--owners", "0"], "--owners must be >= 1, not 0"),
    (None, ["ingest", "--corpus", "{corpus}", "--store", "{tmp}/new", "--owners", "0"],
     "--owners must be >= 1, not 0"),
    (None, ["gen-params", "--bits", "8", "--out", "{tmp}/new"], "--bits must be >= 16, not 8"),
    (None, ["bench", "--reps", "0"], "--reps must be >= 1, not 0"),
    (None, ["bench", "--sizes", "5,x"], "--sizes must be comma-separated integers, not '5,x'"),
    (None, _UPDATE + ["--add", "{tmp}/no-such-dir"], _NO_PGM.format("{tmp}/no-such-dir")),
    (None, _UPDATE + ["--add", "{store}/params.txt"], _NO_PGM.format("{store}/params.txt")),
    ("empty-add-dir", _UPDATE + ["--add", "{tmp}/add"], _NO_PGM.format("{tmp}/add")),
    ("counter-not-an-integer", _QUERY,
     "{store}/session.counter: invalid literal for int() with base 10: 'x\\n'"),
    ("users-not-utf8", _QUERY, _NOT_UTF8 % "users.tsv"),
    ("vault-not-utf8", _QUERY, _NOT_UTF8 % "vault"),
    ("index-not-utf8", _QUERY, _NOT_UTF8 % "cloud/index.tsv"),
    ("manifest-not-utf8", _QUERY, _NOT_UTF8 % "cloud/owners/owner-1/manifest"),
    (None, ["ingest", "--corpus", "{corpus}", "--store", "{tmp}/new", "--params",
            "{store}/users.tsv"], "{store}/users.tsv: missing MIPP-PARAMS-1 header"),
    (None, ["eval", "--queries-per-category", "0"], "no queries to run"),
    (None, ["leakage", "--queries-per-category", "0"], "no queries to run"),
    ("unsafe-id-last", _INGEST, "image id 'cat_z bad' must match ^[A-Za-z0-9_.-]+$"),
    ("tiny-last", _INGEST, "zz_tiny: " + _TOO_SMALL),
    ("truncated-last", _INGEST,
     "1 corpus file(s) rejected: {tmp}/corpus/cat/z.pgm: raster size mismatch"),
], ids=["malformed-store-file", "sum-beyond-ehd", "top-h-zero", "bad-image",
        "authorized-by-no-owner", "bad-add-file", "unknown-owner", "empty-add", "empty-delete",
        "empty-reencrypt", "bad-corpus-file", "too-small-corpus-file", "nothing-to-ingest",
        "eval-no-queries", "eval-top-h-zero", "leakage-top-h-zero", "empty-id-in-delete",
        "leakage-no-queries", "bench-size-0", "query-top-h-beyond-u32", "eval-top-h-beyond-u32",
        "leakage-top-h-beyond-u32", "eval-owners-0", "ingest-owners-0", "bits-below-16",
        "bench-reps-0", "bench-size-not-an-integer", "add-missing-dir", "add-plain-file",
        "add-dir-without-pgm", "counter-not-an-integer", "users-not-utf8", "vault-not-utf8",
        "index-not-utf8", "manifest-not-utf8", "ingest-bad-params-file",
        "eval-synthetic-no-queries", "leakage-synthetic-no-queries", "unsafe-id-last-in-corpus",
        "too-small-last-in-corpus", "truncated-last-in-corpus"])
def test_no_refusal_ends_in_a_traceback(
    store_dir, corpus_dir, tmp_path, capsys, prepare, argv, message
):
    store = tmp_path / "store"
    shutil.copytree(store_dir, store)
    (store / "session.counter").write_text("5")
    if prepare:
        _PREPARE[prepare](store, tmp_path)
    counter, before = (store / "session.counter").read_text(), _tree(store)
    names = dict(store=store, tmp=tmp_path, corpus=corpus_dir,
                 query=sorted((corpus_dir / "cat00").glob("*.pgm"))[0])
    capsys.readouterr()
    assert main([a.format(**names) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == message.format(**names) + "\n"
    assert captured.out == ""
    assert _tree(store) == before and not (tmp_path / "new").exists()
    if prepare != "stranger":  # authorization is checked after the session starts
        assert (store / "session.counter").read_text() == counter


@pytest.mark.parametrize("command", [["ingest", "--store", "{tmp}/new"], ["eval"]],
                         ids=["ingest", "eval"])
def test_an_empty_corpus_is_refused_in_one_line_by_the_program(tmp_path, command):
    # a fresh interpreter, where no test harness holds logging's handlers
    (tmp_path / "corpus" / "cat").mkdir(parents=True)
    argv = [a.format(tmp=tmp_path) for a in command] + ["--corpus", str(tmp_path / "corpus")]
    done = subprocess.run([sys.executable, "-m", "mipp.cli", *argv], capture_output=True,
                          text=True, env=_fresh_env(), timeout=120)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


def _fresh_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this ``mipp``."""
    src = str(Path(mipp.__file__).parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


# The probe reads the high-water mark of its own memory map.  Its ru_maxrss
# would not do: Linux carries a process's ru_maxrss across exec, so a child
# of the test process would start from that process's resident size.
_INGEST_PEAK = ("import pathlib, re, sys; from mipp.cli import main; rc = main(sys.argv[1:]); "
                "status = pathlib.Path('/proc/self/status').read_text(); "
                "print(re.search(r'VmHWM:\\s*(\\d+) kB', status)[1]); sys.exit(rc)")


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux's /proc")
def test_ingest_memory_does_not_grow_with_the_corpus(tmp_path):
    # a fresh interpreter each for 200 and for 800 images of 128x128; an
    # ingest that held the corpus, or its ciphertexts, would add about 9.4 MiB
    # to the larger one's peak for each copy
    peaks = []
    for per_category in (50, 200):
        corpus = tmp_path / f"corpus-{per_category}"
        spec = SynthSpec(categories=4, per_category=per_category, image_size=128)
        write_corpus(synth_corpus(spec, owners=3, seed=b"memory"), corpus)
        store = tmp_path / f"store-{per_category}"
        done = subprocess.run([sys.executable, "-c", _INGEST_PEAK, "ingest", "--corpus",
                               str(corpus), "--store", str(store)],
                              capture_output=True, text=True, env=_fresh_env(), timeout=300)
        assert done.returncode == 0, done.stderr
        peaks.append(int(done.stdout.split()[-1]) * 1024)
    extra_pixel_bytes = 600 * 128 * 128
    assert peaks[1] - peaks[0] < extra_pixel_bytes / 4


def _snapshot(root):
    """Every path under ``root``, a file's with its bytes."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def test_a_refused_ingest_leaves_an_existing_store_as_it_was(corpus_dir, tmp_path, capsys):
    store, corpus = tmp_path / "store", tmp_path / "corpus"
    argv = ["ingest", "--corpus", str(corpus), "--store", str(store), "--owners", "2"]
    shutil.copytree(corpus_dir, corpus)
    assert main(argv + ["--seed", "before"]) == 0
    before = _snapshot(store)
    _tiny_pgm(corpus / "zz")
    capsys.readouterr()
    assert main(argv + ["--seed", "after"]) == 1
    assert capsys.readouterr().err == "zz_tiny: " + _TOO_SMALL + "\n"
    assert _snapshot(store) == before


def test_an_ingest_over_a_store_rewrites_it_as_a_new_one(corpus_dir, tmp_path):
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    argv = ["ingest", "--corpus", str(corpus_dir), "--owners", "2", "--seed", "over"]
    assert main(argv + ["--store", str(fresh)]) == 0
    # three owners and another seed first, so every file and owner is replaced
    assert main(["ingest", "--corpus", str(corpus_dir), "--store", str(reused),
                 "--owners", "3", "--seed", "other"]) == 0
    assert main(argv + ["--store", str(reused)]) == 0
    assert ({p.relative_to(reused): b for p, b in _snapshot(reused).items()}
            == {p.relative_to(fresh): b for p, b in _snapshot(fresh).items()})


def test_every_owner_key_covers_the_largest_image_wherever_it_comes(tmp_path):
    # owner-1 meets the largest image second, owners 2 and 3 never: each key
    # grows as larger images arrive, and the store must be what keys cut to
    # the largest image up front give
    cat = tmp_path / "corpus" / "cat"
    cat.mkdir(parents=True)
    rng = np.random.default_rng(3)
    images = [rng.integers(0, 256, size=shape, dtype=np.uint8)
              for shape in [(16, 16), (24, 20), (16, 16), (40, 32), (20, 16)]]
    for k, image in enumerate(images):
        write_pgm(cat / f"{k}.pgm", image)
    store = tmp_path / "store"
    assert main(["ingest", "--corpus", str(tmp_path / "corpus"), "--store", str(store),
                 "--seed", "grow"]) == 0
    kmc = KmcNode.load_vault(store / "vault")
    keys = {f"owner-{i}": keygen(40 * 32, derive_seed(b"grow", f"owner-sk:owner-{i}"))
            for i in (1, 2, 3)}
    assert {owner_id: kmc.owner_key(owner_id) for owner_id in keys} == keys
    for k, image in enumerate(images):
        owner_id = f"owner-{k % 3 + 1}"
        stored = read_pgm(store / "cloud" / "owners" / owner_id / "img" / f"cat_{k}.pgm")[0]
        assert np.array_equal(stored, image_enc(keys[owner_id], image))
