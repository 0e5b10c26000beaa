"""Tests of the benchmark's own parts: oracle, tracer and metric lists.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from mipp import evaluation, group_crypto, protocol_sim  # noqa: E402
from mipp.cloud_node import CloudNode  # noqa: E402
from mipp.ehd_features import extract_ehd  # noqa: E402
from mipp.image_cipher import write_pgm  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
from oracle import (Catalogue, check_index, check_query_tsv, check_session,  # noqa: E402
                    reference_ehd)
from spans import Tracer  # noqa: E402
from workloads import Outcome, _cli, _load_index  # noqa: E402

SPEC = evaluation.SynthSpec(categories=10, per_category=6, image_size=64)


@pytest.fixture(scope="module")
def small_world():
    params = group_crypto.gen_group_params(32, b"perfbench-test")
    corpus = evaluation.synth_corpus(SPEC, owners=3, seed=b"corpus")
    world = protocol_sim.World(params, b"world", top_h=10, max_image_pixels=64 * 64)
    world.add_user("u")
    catalogue = Catalogue()
    plain = {}
    for owner_id, items in sorted(corpus.by_owner().items()):
        world.add_owner(owner_id, [(it.item_id, it.image) for it in items], ["u"])
        for it in items:
            catalogue.add(owner_id, it.item_id, reference_ehd(it.image))
            plain[(owner_id, it.item_id)] = it.image
    query = evaluation.synth_queries(SPEC, 1, seed=b"queries")[0][1]
    return world, catalogue, plain, query


@pytest.mark.parametrize("shape", [(64, 64), (256, 256), (67, 93), (8, 8)])
def test_reference_ehd_matches_program(shape):
    rng = np.random.default_rng(sum(shape))
    for _ in range(5):
        img = rng.integers(0, 256, size=shape, dtype=np.uint8)
        assert reference_ehd(img) == tuple(int(v) for v in extract_ehd(img))


def test_oracle_accepts_a_real_session(small_world):
    world, catalogue, plain, query = small_world
    result = world.run_session("u", query, 10)
    assert check_session(result, reference_ehd(query), catalogue, plain, 10) == []


def test_oracle_catches_two_swapped_results(small_world):
    world, catalogue, plain, query = small_world
    result = world.run_session("u", query, 10)
    result.returned[0], result.returned[1] = result.returned[1], result.returned[0]
    assert check_session(result, reference_ehd(query), catalogue, plain, 10)


def test_oracle_catches_one_flipped_pixel(small_world):
    world, catalogue, plain, query = small_world
    result = world.run_session("u", query, 10)
    key = result.returned[3]
    result.images[key] = result.images[key].copy()
    result.images[key][5, 7] ^= 1
    assert check_session(result, reference_ehd(query), catalogue, plain, 10)


def test_a_result_the_oracle_cannot_read_fails_the_op(small_world):
    world, catalogue, plain, query = small_world
    result = world.run_session("u", query, 10)
    result.returned[0] = ("nobody", "nothing")
    out = Outcome()
    out.check("session", lambda: check_session(result, reference_ehd(query), catalogue,
                                               plain, 10))
    assert out.failed == 1


def test_oracle_checks_cli_query_output(tmp_path):
    corpus = evaluation.synth_corpus(SPEC, owners=3, seed=b"corpus")
    evaluation.write_corpus(corpus, tmp_path / "corpus")
    store = tmp_path / "store"
    assert _cli(["ingest", "--corpus", tmp_path / "corpus", "--store", store])[0] == 0
    query = evaluation.synth_queries(SPEC, 1, seed=b"queries")[0][1]
    write_pgm(tmp_path / "q.pgm", query)
    code, text = _cli(["query", "--store", store, "--image", tmp_path / "q.pgm",
                       "--top-h", 20])
    assert code == 0
    catalogue = Catalogue()
    for it in corpus.items:
        catalogue.add(it.owner_id, it.item_id, reference_ehd(it.image))
    assert check_query_tsv(text, reference_ehd(query), catalogue, 20) == []

    lines = text.splitlines()
    swapped = [lines[0], lines[2], lines[1]] + lines[3:]
    assert check_query_tsv("\n".join(swapped), reference_ehd(query), catalogue, 20)


def _ingested_store(root):
    corpus = evaluation.synth_corpus(SPEC, owners=3, seed=b"corpus")
    evaluation.write_corpus(corpus, root / "corpus")
    return corpus, ["ingest", "--corpus", root / "corpus", "--store", root / "store"]


def test_a_store_that_fails_to_load_fails_the_check_not_the_run(tmp_path):
    corpus, argv = _ingested_store(tmp_path)
    assert _cli(argv)[0] == 0
    index = tmp_path / "store" / "cloud" / "index.tsv"
    text = index.read_text()
    index.write_text(text[: len(text) // 2])
    out = Outcome()
    out.check("final store", lambda: check_index(_load_index(tmp_path / "store"), Catalogue()))
    assert out.failed == 1


def test_traced_ingest_records_the_corpus_reads(tmp_path):
    corpus, argv = _ingested_store(tmp_path)
    tracer = Tracer()
    assert tracer.op(layers.INGEST, "cli.main", _cli, argv)[0] == 0
    _, totals = tracer.totals(layers.INGEST)
    # one read per corpus file, one write per stored image
    assert totals["image_cipher.pgm"]["calls"] == 2 * len(corpus.items)
    assert totals["image_cipher.pgm"]["count"] == 2 * sum(it.image.nbytes for it in corpus.items)


def test_tracer_records_nested_spans_and_restores_every_original(small_world):
    world, _, _, query = small_world
    tracer = Tracer()
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in tracer._patches]
    tracer.op(layers.SESSION, "protocol_sim.run_session", world.run_session, "u", query, 10)
    assert all(owner.__dict__[attr] is orig for owner, attr, orig in originals)
    assert {"group_crypto", "ehd_features", "cloud_node", "kmc_node",
            "protocol_sim", "image_cipher"} <= tracer.called_layers()
    _, totals = tracer.totals(layers.SESSION)
    assert totals["feature_crypto.encrypt_feature_pair"]["calls"] == 1
    assert totals["group_crypto.encrypt_vector"]["calls"] == 2
    top = tracer.spans[0]
    assert top.parent is None and top.name == "protocol_sim.run_session"
    assert 0 < totals[top.name]["self_ms"] < totals[top.name]["ms"]


def test_tracer_wraps_classmethods(tmp_path):
    params = group_crypto.gen_group_params(32, b"cm")
    CloudNode(params).save_store(tmp_path / "cloud")
    tracer = Tracer()
    node = tracer.op(layers.SESSION, "x",
                     lambda: CloudNode.load_store(tmp_path / "cloud", params))
    assert isinstance(node, CloudNode)
    assert [s.name for s in tracer.spans] == ["x", "cloud_node.load_store"]
    assert isinstance(CloudNode.__dict__["load_store"], classmethod)


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.metric_names()
    assert [w["name"] for w in spec["workloads"]] == ["desk_search", "corel_cli"]
