"""Command-line front end.

Subcommands: gen-params, ingest, query, eval, leakage, bench, update.
``ingest`` builds an on-disk store (public parameters, the cloud's owner
directories and index table, the KMC vault, and one authorized user's
credentials); ``query`` and ``update`` operate on such a store; ``eval``,
``leakage`` and ``bench`` reproduce the accuracy, leakage-distribution and
efficiency experiments, on the built-in synthetic corpus unless a corpus
directory is given.  Reports are TSV on stdout, mirrored to ``--out``.
"""

from __future__ import annotations

import argparse
import fcntl
import itertools
import math
import os
import sys
from pathlib import Path

from . import evaluation, group_crypto
from .cloud_node import (DEFAULT_TOP_H, TOP_H_BOUND, AddImages, AuthorizationError, CloudError,
                         CloudNode, DeleteImages, UpdateImages, credential_line, framed_text,
                         read_credentials, read_framed)
from .ehd_features import extract_ehd
# image_enc is not called here; it stays bound so that instrumentation
# which wraps this module's names finds every one of them.
from .image_cipher import image_dec, image_enc, keygen, read_pgm, write_pgm  # noqa: F401
from .kmc_node import KmcNode, VaultError
from .protocol_sim import encrypt_uploads, query_session
from .rng import derive_seed

USERS_HEADER = "uid\tak_hex"
# images ingest reads, encrypts and stores a stage at a time: one by one cost ~15% more CPU
INGEST_BATCH = 16


def _emit(text: str, out: str | None) -> None:
    sys.stdout.write(text)
    if out:
        Path(out).write_text(text)


def _load_store(store: Path):
    """The store's params, cloud (opened lazily), KMC and users."""
    params = group_crypto.load_params(store / "params.txt")
    cloud = CloudNode.open_store(store / "cloud", params)
    kmc = KmcNode.load_vault(store / "vault")
    users_path = store / "users.tsv"
    users = read_credentials(users_path, read_framed(users_path, USERS_HEADER), 2, "user")
    if not users:
        raise ValueError(f"{users_path} lists no user")
    return params, cloud, kmc, users


# each numeric flag's range [least, bound); --queries-per-category and
# --sizes are refused by the experiment and the benchmark they feed
_FLAG_RANGES = {
    "bits": (group_crypto.MIN_SECURITY_BITS, math.inf),
    "owners": (1, math.inf),
    "top_h": (1, TOP_H_BOUND),
    "reps": (1, math.inf),
}


def _require_flag_ranges(args) -> None:
    """Refuse a numeric flag outside its range, naming the flag, before any work."""
    for name, (least, bound) in _FLAG_RANGES.items():
        value = vars(args).get(name)
        if value is None:  # a flag this command does not take
            continue
        flag = "--" + name.replace("_", "-")
        if value < least:
            raise ValueError(f"{flag} must be >= {least}, not {value}")
        if value >= bound:
            raise ValueError(f"{flag} must be < {bound}, not {value}")


def _next_session(store: Path) -> int:
    """Take the store's next session ordinal, holding the store directory's
    lock from the read through the write, so no two processes take one.
    The write overwrites the old value in place, never shorter, so a failed
    write leaves the old bytes and no session creates or renames a file."""
    counter_file = store / "session.counter"
    lock = os.open(store, os.O_RDONLY)
    try:
        fcntl.flock(lock, fcntl.LOCK_EX)  # closing the directory releases it
        value = int(counter_file.read_text()) if counter_file.exists() else 0
        with open(os.open(counter_file, os.O_WRONLY | os.O_CREAT, 0o600), "w") as fh:
            fh.write(str(value + 1))
            fh.truncate()  # drops what a hand-edited counter held past the value
        return value
    except ValueError as exc:  # not an integer, or not UTF-8
        raise ValueError(f"{counter_file}: {exc}") from None
    finally:
        os.close(lock)


def cmd_gen_params(args) -> int:
    params = group_crypto.gen_group_params(args.bits, args.seed.encode())
    group_crypto.save_params(params, args.out)
    print(f"wrote {args.out} (p: {params.p.bit_length()} bits, "
          f"q: {params.q.bit_length()} bits, id {params.params_id})")
    return 0


def cmd_ingest(args) -> int:
    store = Path(args.store)
    seed = args.seed.encode()
    paths, categories = evaluation.list_corpus(args.corpus)
    if not paths:
        raise ValueError("nothing to ingest")
    if args.params:
        params = group_crypto.load_params(args.params)
    else:
        params = group_crypto.gen_group_params(evaluation.DESK_SECURITY_BITS,
                                               derive_seed(seed, b"params"))
    ak = derive_seed(seed, f"ak:{args.user}")
    keys: dict[str, bytes] = {}

    def owner_key(owner_id: str, length: int) -> bytes:
        # keygen is prefix-stable: a key grown for a larger image encrypts alike
        if len(keys.get(owner_id, b"")) < length:
            keys[owner_id] = keygen(length, derive_seed(seed, f"owner-sk:{owner_id}"))
        return keys[owner_id]

    def uploads():
        items = evaluation.read_corpus(paths, args.owners)
        while batch := list(itertools.islice(items, INGEST_BATCH)):
            yield from [(item.owner_id, encrypt_uploads(
                params, owner_key(item.owner_id, item.image.size), [(item.item_id, item.image)],
                seed, "feature:")[0][0]) for item in batch]

    cloud = CloudNode.build_store(store / "cloud", params, [(args.user, ak)], uploads())
    max_pixels = max(map(len, keys.values()))  # every owner's key covers the largest image
    kmc = KmcNode()
    for owner_id in sorted(keys):
        kmc.store_owner_key(owner_id, owner_key(owner_id, max_pixels))
    group_crypto.save_params(params, store / "params.txt")
    kmc.save_vault(store / "vault")
    group_crypto.replace_file(store / "users.tsv",
                              framed_text(USERS_HEADER, [credential_line(args.user, ak)]))
    rows = len(cloud.index)
    print(f"ingested {rows} images from {len(categories)} categories into {store} "
          f"({len(keys)} owners, index rows: {rows})")
    return 0


def cmd_query(args) -> int:
    store = Path(args.store)
    params, cloud, kmc, users = _load_store(store)
    uid, ak = next(iter(users.items()))
    try:
        query_feature = extract_ehd(read_pgm(args.image)[0])
    except (OSError, ValueError) as exc:  # unreadable, not a PGM, or too small
        raise ValueError(f"--image: {exc}") from exc
    result = query_session(
        params, cloud, kmc, uid, ak, query_feature, args.top_h, args.seed.encode(),
        _next_session(store), lambda message, transcript, handler: handler(message),
    )
    if not result.authorized:
        raise AuthorizationError(f"user {uid!r} is authorized by no owner")

    if args.save_images:
        Path(args.save_images).mkdir(parents=True, exist_ok=True)
    lines = ["user_rank\towner_id\timage_id\tcloud_distance\tlocal_euclidean"]
    for rank, (gap, owner_id, image_id) in enumerate(result.ranking, 1):
        key = (owner_id, image_id)
        lines.append(
            f"{rank}\t{owner_id}\t{image_id}\t{result.cloud_distance[key]:.4f}"
            f"\t{gap ** 0.5:.4f}"
        )
        if args.save_images:
            write_pgm(Path(args.save_images) / f"{rank:03d}_{owner_id}_{image_id}.pgm",
                      result.images[key])
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _eval_inputs(args):
    seed = args.seed.encode()
    if args.corpus:
        corpus = evaluation.load_corpus(args.corpus, owners=args.owners)
        corpus, queries = evaluation.split_queries(corpus, args.queries_per_category)
    else:
        spec = evaluation.SynthSpec()
        corpus = evaluation.synth_corpus(spec, owners=args.owners,
                                         seed=derive_seed(seed, b"corpus"))
        queries = evaluation.synth_queries(spec, args.queries_per_category,
                                           seed=derive_seed(seed, b"queries"))
    params = group_crypto.gen_group_params(
        evaluation.DESK_SECURITY_BITS, derive_seed(seed, b"params")
    )
    outcomes = evaluation.run_retrieval_experiment(
        corpus, queries, params, seed=derive_seed(seed, b"experiment"),
        h=args.top_h,
    )
    return corpus, outcomes


def cmd_eval(args) -> int:
    corpus, outcomes = _eval_inputs(args)
    # a cutoff beyond the returned lists, so beyond --top-h, is skipped
    reports = evaluation.experiment_metrics(outcomes, corpus.labels())
    _emit(evaluation.metrics_tsv(reports), args.out)
    return 0


def cmd_leakage(args) -> int:
    _, outcomes = _eval_inputs(args)
    histogram = evaluation.leakage_histogram(outcomes)
    _emit(evaluation.leakage_tsv(histogram), args.out)
    return 0


def cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        raise ValueError(f"--sizes must be comma-separated integers, not {args.sizes!r}") from None
    report = evaluation.bench(sizes, seed=args.seed.encode(), reps=args.reps)
    text = evaluation.bench_tsv(report)
    if not report.rankings_match:
        text += "WARNING: encrypted retrieval paths disagreed on rankings\n"
    _emit(text, args.out)
    return 0 if report.rankings_match else 1


def cmd_update(args) -> int:
    for flag in ("add", "delete", "reencrypt"):
        if getattr(args, flag) == "":
            raise ValueError(f"--{flag} needs a value")
    if args.add is not None:
        added = sorted(Path(args.add).glob("*.pgm"))
        if not added:
            raise ValueError(f"--add: {args.add} is not a directory holding a .pgm file")
    store = Path(args.store)
    params, cloud, kmc, _ = _load_store(store)
    seed = args.seed.encode()
    sk = kmc.owner_key(args.owner)

    if args.add is not None:
        items = []
        for path in added:
            image = read_pgm(path)[0]
            try:
                uploads, _ = encrypt_uploads(params, sk, [(path.stem, image)], seed, "add:")
            except ValueError as exc:  # named by the file, not by its image id
                raise type(exc)(f"{path}: {exc.__cause__}") from None
            items += uploads
        cloud.apply_update(args.owner, AddImages(tuple(items)))
        done = f"added {len(items)} images to {args.owner}"
    elif args.delete is not None:
        ids = tuple(args.delete.split(","))
        cloud.apply_update(args.owner, DeleteImages(ids))
        done = f"deleted {len(ids)} images from {args.owner}"
    else:
        ids = tuple(args.reencrypt.split(","))
        record = cloud.owner_record(args.owner)
        record.require_owned(ids)
        ordinal = _next_session(store)
        # image_enc(sk, image_dec(sk, e)) == e, so the stored images come back
        # unchanged and only the features are re-encrypted
        images = [(iid, image_dec(sk, record.images[iid].enc_image)) for iid in ids]
        items, _ = encrypt_uploads(params, sk, images, seed, f"reenc:{ordinal}:")
        # UpdateImages refuses a replacement whose sums differ from its row
        cloud.apply_update(args.owner, UpdateImages(tuple(items)))
        done = f"re-encrypted {len(ids)} features for {args.owner}; index rows unchanged: True"

    # a new tree replaces the old once whole, so a failed read or write changes nothing
    cloud.save_store(store / "cloud")
    print(done)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mipp",
        description="multi-owner encrypted image storage and retrieval toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-params", help="generate public group parameters")
    p.add_argument("--bits", type=int, default=evaluation.DESK_SECURITY_BITS)
    p.add_argument("--seed", default="mipp")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_params)

    p = sub.add_parser("ingest", help="encrypt a corpus into an on-disk store")
    p.add_argument("--corpus", required=True, help="directory of category subdirs")
    p.add_argument("--store", required=True)
    p.add_argument("--params", help="existing parameter file (default: generate)")
    p.add_argument("--owners", type=int, default=3)
    p.add_argument("--seed", default="mipp")
    p.add_argument("--user", default="user-1", help="authorized query user id")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("query", help="run one retrieval against a store")
    p.add_argument("--store", required=True)
    p.add_argument("--image", required=True, help="query image (PGM)")
    p.add_argument("--top-h", type=int, default=DEFAULT_TOP_H)
    p.add_argument("--seed", default="mipp")
    p.add_argument("--out")
    p.add_argument("--save-images", help="directory for decrypted results")
    p.set_defaults(func=cmd_query)

    for name, fn, extra in (
        ("eval", cmd_eval, "retrieval-quality metrics"),
        ("leakage", cmd_leakage, "rank-position distribution of true matches"),
    ):
        p = sub.add_parser(name, help=extra)
        p.add_argument("--corpus", help="PGM corpus (default: synthetic)")
        p.add_argument("--owners", type=int, default=3)
        p.add_argument("--seed", default="mipp")
        p.add_argument("--top-h", type=int, default=DEFAULT_TOP_H)
        p.add_argument("--queries-per-category", type=int, default=5)
        p.add_argument("--out")
        p.set_defaults(func=fn)

    p = sub.add_parser("bench", help="timing and storage benchmarks")
    p.add_argument("--sizes", default="100,1000,10000")
    p.add_argument("--seed", default="mipp")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("update", help="add, delete or re-encrypt stored images")
    p.add_argument("--store", required=True)
    p.add_argument("--owner", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--add", help="directory of plaintext PGMs to add")
    group.add_argument("--delete", help="comma-separated image ids")
    group.add_argument("--reencrypt", help="comma-separated image ids")
    p.add_argument("--seed", default="mipp")
    p.set_defaults(func=cmd_update)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _require_flag_ranges(args)
        return args.func(args)
    except (CloudError, VaultError, ValueError, OSError) as exc:  # the program's refusals
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
