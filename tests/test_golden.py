"""Golden digests: fixed seeds must keep producing byte-identical output.

Three end-to-end paths are pinned by sha256 digest: an in-memory ``World``
(setup transcript, then per session its transcript, returned ids, user
ranking and decrypted image bytes), a ``mipp`` CLI run (ingest, query,
update --add, update --reencrypt, query; stdout with the temporary
directory masked, plus every file of the store and of the saved results),
and the storage report of ``bench([30, 60])``.  A change meant to keep
ciphertexts, rankings and stores bit-identical must leave these alone.
"""

import hashlib
from pathlib import Path

import numpy as np

from mipp.cli import main
from mipp.evaluation import SynthSpec, bench, bench_tsv, synth_corpus, write_corpus
from mipp.group_crypto import gen_group_params
from mipp.image_cipher import write_pgm
from mipp.protocol_sim import World

WORLD_DIGEST = "4d08f35a65cb1a2b874c2c5601c4f37a4fa77aab86e1b9034ed862d4150073d2"
CLI_STDOUT_DIGEST = "9354728be71a269d241b634bb2293057c74668abac513bdbaf51346a8da69130"
CLI_TREE_DIGEST = "d9162574a4b5c7ad99343de6735cd40cb3e553eaff565f207351c53477b220d2"
BENCH_STORAGE_DIGEST = "fd554e3d252708480f4d4923b56679e6449a5f49f3f1f336cd70532938a9a447"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tree_digest(*roots: Path) -> str:
    """Digest of every file under ``roots``: relative path, then contents."""
    h = hashlib.sha256()
    for root in roots:
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(root.parent)).encode() + b"\0")
            h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def world_digest() -> str:
    params = gen_group_params(32, b"golden-world-params")
    rng = np.random.default_rng(2018)
    world = World(params, b"golden-world", top_h=4, max_image_pixels=32 * 32)
    for uid in ("alice", "bob", "mallory"):
        world.add_user(uid)
    for owner_id, authorize in (("owner-a", ("alice", "bob")), ("owner-b", ("alice",))):
        images = [
            (f"img-{i}", rng.integers(0, 256, size=(32, 32 - 8 * (i % 2)), dtype=np.uint8))
            for i in range(4)
        ]
        world.add_owner(owner_id, images, authorize=authorize)

    h = hashlib.sha256(world.setup_transcript.to_text().encode())
    queries = [
        ("alice", world.owners["owner-b"].plain_images["img-1"], None),
        ("bob", rng.integers(0, 256, size=(32, 32), dtype=np.uint8), 3),
        ("alice", world.owners["owner-a"].plain_images["img-2"], 8),
        ("mallory", world.owners["owner-a"].plain_images["img-0"], None),
    ]
    for uid, image, top in queries:
        result = world.run_session(uid, image, top)
        h.update(result.transcript.to_text().encode())
        h.update(repr((result.authorized, result.returned, result.user_ranking)).encode())
        for key in sorted(result.images):
            h.update(repr(key).encode() + result.images[key].tobytes())
    return h.hexdigest()


def cli_digests(tmp_path: Path, capsys) -> tuple[str, str]:
    corpus = tmp_path / "corpus"
    store = tmp_path / "store"
    added = tmp_path / "added"
    saved = tmp_path / "saved"
    spec = SynthSpec(categories=3, per_category=4, image_size=32)
    write_corpus(synth_corpus(spec, owners=2, seed=b"golden-cli"), corpus)
    added.mkdir()
    rng = np.random.default_rng(33)
    for i in range(2):
        write_pgm(added / f"extra-{i}.pgm",
                  rng.integers(0, 256, size=(32, 32), dtype=np.uint8))

    query = str(corpus / "cat01" / "000.pgm")
    runs = [
        ["ingest", "--corpus", str(corpus), "--store", str(store), "--owners", "2",
         "--seed", "golden"],
        ["query", "--store", str(store), "--image", query, "--top-h", "5",
         "--seed", "golden-q", "--save-images", str(saved / "first")],
        ["update", "--store", str(store), "--owner", "owner-1", "--add", str(added),
         "--seed", "golden-add"],
        ["update", "--store", str(store), "--owner", "owner-2", "--reencrypt",
         "cat00_001,cat02_003", "--seed", "golden-reenc"],
        ["query", "--store", str(store), "--image", query, "--top-h", "7",
         "--seed", "golden-q", "--save-images", str(saved / "second")],
    ]
    capsys.readouterr()
    for argv in runs:
        assert main(argv) == 0, argv
    stdout = capsys.readouterr().out.replace(str(tmp_path), "<tmp>")
    return _sha(stdout.encode()), _tree_digest(store, saved)


def bench_storage_digest() -> str:
    report = bench([30, 60], params=gen_group_params(32, b"golden-bench"),
                   seed=b"golden-bench", reps=1)
    assert report.rankings_match
    text = bench_tsv(report)
    return _sha(text[text.index("storage"):].encode())


def test_world_sessions_are_byte_identical():
    assert world_digest() == WORLD_DIGEST


def test_cli_stdout_and_store_are_byte_identical(tmp_path, capsys):
    assert cli_digests(tmp_path, capsys) == (CLI_STDOUT_DIGEST, CLI_TREE_DIGEST)


def test_bench_storage_report_is_byte_identical():
    assert bench_storage_digest() == BENCH_STORAGE_DIGEST
