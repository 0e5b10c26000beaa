"""The benchmark's workloads, run closed loop through the public entry points.

``desk_search`` drives the in-memory system (``World.add_owner``,
``World.run_session``); ``corel_cli`` drives the on-disk store through
``mipp.cli.main``.  One user waits for each answer before asking again, so
each op's wall time is the delay that user sees.  Oracle checks run
outside the timed regions; a failed check or an exception fails the op and
the run carries on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from mipp import cli, evaluation, group_crypto
from mipp.cloud_node import CloudNode
from mipp.image_cipher import write_pgm
from mipp.protocol_sim import World
from mipp.rng import derive_seed

from layers import INGEST, SESSION, UPDATE
from oracle import Catalogue, check_index, check_query_tsv, check_session, reference_ehd
from spans import Tracer

USER = "bench-user"
DIGEST_SESSIONS = 100  # sessions folded into the transcript digest


@dataclass
class Outcome:
    """Samples, counts and facts one workload run produced."""

    setup_s: list[float] = field(default_factory=list)
    ingest_images_per_s: float = 0.0
    session_s: list[float] = field(default_factory=list)
    traced_session_s: list[float] = field(default_factory=list)
    update_s: list[float] = field(default_factory=list)
    wire_bytes: list[int] = field(default_factory=list)
    store_bytes_per_image: float | None = None
    digest: str = ""
    digest_note: str = ""
    params_bits: int = 0
    store_path: Path | None = None
    attempted: int = 0
    failed: int = 0

    def run(self, tracer: Tracer | None, phase: str, name: str, fn, *args):
        """Time one op; returns (seconds, result), or None if it raised."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            if tracer is None:
                result = fn(*args)
            else:
                result = tracer.op(phase, name, fn, *args)
            return time.perf_counter() - start, result
        except (Exception, SystemExit):
            self.fail(name, traceback.format_exc(limit=-3))
            return None

    def check(self, name: str, problems) -> None:
        """Fail ``name`` on any problem; ``problems`` is a list, or a callable
        that returns one, and a callable that raises fails the op too."""
        if callable(problems):
            try:
                problems = problems()
            except Exception:
                self.fail(name, traceback.format_exc(limit=-3))
                return
        if problems:
            self.fail(name, "; ".join(problems))

    def fail(self, name: str, why: str) -> None:
        self.failed += 1
        if self.failed <= 10:
            print(f"FAILED {name}: {why.strip()}", file=sys.stderr)


# -- desk_search ----------------------------------------------------------------

DESK_SPEC = evaluation.SynthSpec(categories=10, per_category=400, image_size=64)
DESK_H = 10
# setup_s is the median of this many set-ups.  The extra ones run first and
# are thrown away, so the memory high-water mark holds one set-up plus the
# workload's own ops.
DESK_SETUPS = 9


def _desk_inputs(seed: bytes):
    params = group_crypto.gen_group_params(
        evaluation.DESK_SECURITY_BITS, derive_seed(seed, "params")
    )
    corpus = evaluation.synth_corpus(DESK_SPEC, owners=3, seed=derive_seed(seed, "corpus"))
    queries = evaluation.synth_queries(DESK_SPEC, 10, seed=derive_seed(seed, "queries"))
    return params, corpus, queries


def desk_search(seed: bytes, seconds: float, tracer: Tracer | None, work: Path) -> Outcome:
    """32-bit params, 4,000 64x64 images over 3 owners, then sessions at h=10."""
    out = Outcome()

    def set_up():
        start = time.perf_counter()
        inputs = _desk_inputs(seed)
        out.setup_s.append(time.perf_counter() - start)
        return inputs

    for _ in range(0 if tracer else DESK_SETUPS - 1):
        set_up()
    params, corpus, queries = set_up()
    out.params_bits = params.security_bits

    features = {(it.owner_id, it.item_id): reference_ehd(it.image) for it in corpus.items}
    plain_images = {(it.owner_id, it.item_id): it.image for it in corpus.items}
    query_features = [reference_ehd(img) for _, img in queries]

    world = World(
        params,
        derive_seed(seed, "world"),
        top_h=DESK_H,
        max_image_pixels=max(it.image.size for it in corpus.items),
    )
    world.add_user(USER)

    ingested = Catalogue()
    ingest_s = 0.0
    for owner_id, items in sorted(corpus.by_owner().items()):
        images = [(it.item_id, it.image) for it in items]
        done = out.run(tracer, INGEST, "protocol_sim.add_owner",
                       world.add_owner, owner_id, images, [USER])
        if done is None:
            continue
        ingest_s += done[0]
        for it in items:
            ingested.add(owner_id, it.item_id, features[(owner_id, it.item_id)])
        out.check("protocol_sim.add_owner", lambda: check_index(
            {(e.owner_id, e.image_id): (e.s1, e.s2) for e in world.cloud.index}, ingested
        ))
    if ingest_s:
        out.ingest_images_per_s = len(corpus.items) / ingest_s

    digest = hashlib.sha256(world.setup_transcript.to_text().encode())
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline:
        _, image = queries[k % len(queries)]
        traced = tracer is not None and k % 2 == 1
        done = out.run(tracer if traced else None, SESSION, "protocol_sim.run_session",
                       world.run_session, USER, image, DESK_H)
        if done is not None:
            elapsed, result = done
            (out.traced_session_s if traced else out.session_s).append(elapsed)
            out.wire_bytes.append(sum(e.n_bytes for e in result.transcript.entries))
            if k < DIGEST_SESSIONS:
                digest.update(result.transcript.to_text().encode())
            out.check("protocol_sim.run_session", lambda: check_session(
                result, query_features[k % len(queries)], ingested, plain_images, DESK_H
            ))
        k += 1
    out.digest = digest.hexdigest()
    out.digest_note = f"setup transcript + first {min(k, DIGEST_SESSIONS)} sessions"
    return out


# -- corel_cli ------------------------------------------------------------------

COREL_SPEC = evaluation.SynthSpec(categories=10, per_category=100, image_size=256)
COREL_H = 100  # the default of ``mipp query``
# setup_s and ingest_images_per_s are medians over this many set-ups.  The
# extra one runs after the loop, so the two samples are about a minute apart
# and the figure leans less on one stretch of machine load; the first
# set-up's corpus is dropped before, so the memory high-water mark still
# holds one set-up plus the workload's own ops.
COREL_SETUPS = 2
COREL_QUERIES_PER_CYCLE = 3
COREL_OWNER = "owner-1"
COREL_ADDS = 2  # fresh images per cycle


def _cli(argv: list[str]) -> tuple[int, str]:
    """``mipp.cli.main`` with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    return code, buf.getvalue()


def _load_index(store: Path) -> dict[tuple[str, str], tuple[int, int]]:
    params = group_crypto.load_params(store / "params.txt")
    cloud = CloudNode.load_store(store / "cloud", params)
    return {(e.owner_id, e.image_id): (e.s1, e.s2) for e in cloud.index}


def _corel_inputs(out: Outcome, tracer: Tracer | None, seed: bytes, cli_seed: str,
                  root: Path):
    """Corpus and query files, then the store built by ``mipp ingest``;
    the last item is the ingest command's wall time, or None if it failed."""
    corpus = evaluation.synth_corpus(COREL_SPEC, owners=3, seed=derive_seed(seed, "corpus"))
    queries = evaluation.synth_queries(COREL_SPEC, 3, seed=derive_seed(seed, "queries"))
    evaluation.write_corpus(corpus, root / "corpus")
    (root / "queries").mkdir()
    query_paths = []
    for k, (_, image) in enumerate(queries):
        query_paths.append(root / "queries" / f"q{k:03d}.pgm")
        write_pgm(query_paths[-1], image)
    done = out.run(tracer, INGEST, "cli.main", _cli,
                   ["ingest", "--corpus", root / "corpus", "--store", root / "store",
                    "--owners", 3, "--seed", cli_seed])
    if done is not None and done[1][0] != 0:
        out.fail("mipp ingest", f"exit code {done[1][0]}")
        done = None
    return corpus, queries, query_paths, None if done is None else done[0]


def corel_cli(seed: bytes, seconds: float, tracer: Tracer | None, work: Path) -> Outcome:
    """1,000 256x256 images in a store built by ``mipp ingest``; closed loop of
    three queries, then --add of two fresh images, --reencrypt of one, and
    --delete of both, so the store returns to 1,000 images every cycle."""
    out = Outcome()
    cli_seed = derive_seed(seed, "cli").hex()
    ingest_s = []

    def set_up(root: Path):
        start = time.perf_counter()
        inputs = _corel_inputs(out, tracer, seed, cli_seed, root)
        out.setup_s.append(time.perf_counter() - start)
        if inputs[-1] is not None:
            ingest_s.append(inputs[-1])
        return inputs

    root = work / "setup0"
    corpus, queries, query_paths, elapsed = set_up(root)
    if elapsed is None:
        return out
    store = root / "store"
    out.store_path = store
    out.params_bits = group_crypto.load_params(store / "params.txt").security_bits

    catalogue = Catalogue()
    for it in corpus.items:
        catalogue.add(it.owner_id, it.item_id, reference_ehd(it.image))
    n_images = len(corpus.items)
    del corpus
    query_features = [reference_ehd(img) for _, img in queries]
    try:
        start_rows = _load_index(store)
    except Exception:
        out.fail("mipp ingest", traceback.format_exc(limit=-3))
        return out
    out.check("mipp ingest", check_index(start_rows, catalogue))

    digest = hashlib.sha256()
    deadline = time.perf_counter() + seconds
    cycle = 0
    while time.perf_counter() < deadline:
        tr = tracer if tracer is not None and cycle % 2 == 1 else None
        for j in range(COREL_QUERIES_PER_CYCLE):
            q = (cycle * COREL_QUERIES_PER_CYCLE + j) % len(queries)
            done = out.run(tr, SESSION, "cli.main", _cli,
                           ["query", "--store", store, "--image", query_paths[q],
                            "--seed", cli_seed])
            if done is None:
                continue
            elapsed, (code, text) = done
            (out.traced_session_s if tr else out.session_s).append(elapsed)
            if cycle < 3:
                digest.update(text.encode())
            out.check("mipp query", [f"exit code {code}"] if code else
                      check_query_tsv(text, query_features[q], catalogue, COREL_H))

        rng = np.random.default_rng(
            int.from_bytes(derive_seed(seed, f"add:{cycle}")[:8], "big")
        )
        add_dir = work / "add" / f"c{cycle:05d}"
        add_dir.mkdir(parents=True)
        ids = [f"a{cycle:05d}x{k}" for k in range(COREL_ADDS)]
        for k, image_id in enumerate(ids):
            image = evaluation.synth_image(COREL_SPEC, (cycle + k) % COREL_SPEC.categories, rng)
            write_pgm(add_dir / f"{image_id}.pgm", image)
            catalogue.add(COREL_OWNER, image_id, reference_ehd(image))

        base = ["update", "--store", store, "--owner", COREL_OWNER, "--seed", cli_seed]
        for extra, after in (
            (["--add", add_dir], None),
            (["--reencrypt", ids[0]], lambda: check_index(_load_index(store), catalogue)),
            (["--delete", ",".join(ids)], None),
        ):
            done = out.run(tr, UPDATE, "cli.main", _cli, base + extra)
            if extra[0] == "--delete":
                for image_id in ids:
                    catalogue.remove(COREL_OWNER, image_id)
            if done is None:
                continue
            elapsed, (code, _) = done
            if not tr:
                out.update_s.append(elapsed)
            out.check(f"mipp update {extra[0]}", [f"exit code {code}"] if code else after or [])
        shutil.rmtree(add_dir)
        cycle += 1

    def final_store() -> list[str]:
        end_rows = _load_index(store)
        files = [p for p in store.rglob("*") if p.is_file()]
        out.store_bytes_per_image = sum(p.stat().st_size for p in files) / max(len(end_rows), 1)
        if len(end_rows) != len(start_rows):
            return [f"store holds {len(end_rows)} rows, started with {len(start_rows)}"]
        return check_index(end_rows, catalogue)

    out.check("final store", final_store)
    out.digest = digest.hexdigest()
    out.digest_note = f"stdout of the first {min(cycle, 3) * COREL_QUERIES_PER_CYCLE} queries"
    for rep in range(1, 1 if tracer else COREL_SETUPS):
        set_up(work / f"setup{rep}")
        shutil.rmtree(work / f"setup{rep}")
    out.ingest_images_per_s = n_images / statistics.median(ingest_s)
    return out


WORKLOADS = {"desk_search": desk_search, "corel_cli": corel_cli}
