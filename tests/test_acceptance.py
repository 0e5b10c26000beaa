"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they are produced.  Expensive setups (the synthetic-corpus experiment,
the 10k-feature benchmark) are shared between the criteria that need them.
"""

import random
import time

import numpy as np
import pytest

from mipp.evaluation import (
    SynthSpec,
    bench,
    experiment_metrics,
    leakage_histogram,
    run_retrieval_experiment,
    synth_corpus,
    synth_queries,
)
from mipp.feature_crypto import encrypt_feature_pair, recover_sums
from mipp.group_crypto import aggregate_and_recover, encrypt_vector, gen_group_params
from mipp.image_cipher import image_dec, image_enc, keygen
from mipp.protocol_sim import World, scan_cloud_for_plaintext
from mipp.similarity import SumPair, new_dis, sim_from_sums


def report(number, name, ok, detail=""):
    suffix = f"  [{detail}]" if detail else ""
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {name}{suffix}")
    assert ok, f"criterion {number} failed: {name} {detail}"


@pytest.fixture(scope="module")
def experiment():
    """Synthetic 10x100 corpus, 50 full-protocol queries at h=100."""
    spec = SynthSpec()
    corpus = synth_corpus(spec, owners=3, seed=b"acceptance-corpus")
    queries = synth_queries(spec, per_category=5, seed=b"acceptance-queries")
    params = gen_group_params(32, b"acceptance-params")
    start = time.perf_counter()
    outcomes = run_retrieval_experiment(
        corpus, queries, params, seed=b"acceptance-exp", h=100
    )
    elapsed = time.perf_counter() - start
    return corpus, outcomes, elapsed


@pytest.fixture(scope="module")
def bench_10k():
    """Benchmark and storage report over 10,000 encrypted features."""
    return bench(
        [10_000],
        modes=("enc_no_index", "enc_with_index"),
        seed=b"acceptance-bench",
        reps=5,
    )


def test_criterion_1_secure_sum_exactness():
    params = gen_group_params(64, b"acceptance-sum")
    rng = random.Random(0xACCE55)
    start = time.perf_counter()
    for trial in range(500):
        length = rng.randint(3, 128)
        values = [rng.randint(0, 255) for _ in range(length)]
        ct = encrypt_vector(params, values, f"acc-{trial}")
        assert aggregate_and_recover(params, ct) == sum(values)
    elapsed = time.perf_counter() - start
    report(
        1,
        "secure-sum exactness (500 vectors, 64-bit primes)",
        elapsed < 10.0,
        f"exact on all 500, {elapsed:.2f}s < 10s",
    )


def test_criterion_2_cipher_roundtrip():
    rng = np.random.default_rng(0xC1F)
    failures = 0
    for _ in range(100):
        m, n = rng.integers(1, 257, size=2)
        img = rng.integers(0, 256, size=(m, n), dtype=np.uint8)
        sk = keygen(img.size, rng.bytes(16))
        if not np.array_equal(image_dec(sk, image_enc(sk, img)), img):
            failures += 1
    report(
        2,
        "cipher roundtrip identity (100 images up to 256x256)",
        failures == 0,
        "bit-exact on all 100",
    )


def test_criterion_3_distance_equivalence():
    params = gen_group_params(32, b"acceptance-sim")
    rng = random.Random(0x51A)
    worst = 0.0
    for trial in range(500):
        u = rng.randint(3, 80)
        f = [rng.randint(0, 255) for _ in range(u)]
        q = [rng.randint(0, 255) for _ in range(u)]
        fs = recover_sums(params, encrypt_feature_pair(params, f, f"f{trial}"))
        qs = recover_sums(params, encrypt_feature_pair(params, q, f"q{trial}"))
        enc_side = sim_from_sums(SumPair(*fs, u), SumPair(*qs, u))
        plain_side = new_dis(f, q)
        if plain_side:
            worst = max(worst, abs(enc_side - plain_side) / plain_side)
        else:
            worst = max(worst, abs(enc_side))
    report(
        3,
        "encrypted/plaintext distance equivalence (500 pairs)",
        worst <= 1e-9,
        f"worst relative error {worst:.2e} <= 1e-9",
    )


def test_criterion_4_update_invariance():
    params = gen_group_params(32, b"acceptance-update")
    rng = random.Random(0x0DD)
    mismatches = 0
    for trial in range(200):
        f = [rng.randint(0, 255) for _ in range(rng.randint(3, 80))]
        first = recover_sums(params, encrypt_feature_pair(params, f, f"a{trial}"))
        second = recover_sums(params, encrypt_feature_pair(params, f, f"b{trial}"))
        if first != second:
            mismatches += 1
    report(
        4,
        "re-encryption leaves index sums bit-identical (200 trials)",
        mismatches == 0,
        "all 200 (s1, s2) rows unchanged",
    )


def test_criterion_5_retrieval_quality(experiment):
    corpus, outcomes, elapsed = experiment
    reports = experiment_metrics(outcomes, corpus.labels(), cutoffs=(100,))
    f1_new = reports["new_dis"][100].f1
    f1_euc = reports["euc_dis"][100].f1
    ok = f1_new >= f1_euc - 0.15 and elapsed < 300.0
    report(
        5,
        "retrieval quality: F1(sum-based) within 0.15 of F1(euclidean)",
        ok,
        f"F1 {f1_new:.3f} vs {f1_euc:.3f} (gap {f1_euc - f1_new:+.3f}), "
        f"{elapsed:.1f}s < 300s",
    )


def test_criterion_6_leakage_distribution(experiment):
    _, outcomes, _ = experiment
    histogram = leakage_histogram(outcomes, deciles=10)
    euc = histogram["euc_dis"]
    new = histogram["new_dis"]
    euc_ok = euc[0] == max(euc) and euc[0] > 0.20
    new_ok = all(0.10 - 0.07 <= fraction <= 0.10 + 0.07 for fraction in new)
    report(
        6,
        "leakage: euclidean ranking front-loaded, sum-based ranking uniform",
        euc_ok and new_ok,
        f"euc top decile {euc[0]:.3f} (max {max(euc):.3f}), "
        f"sum-based deciles in [{min(new):.3f}, {max(new):.3f}]",
    )


def test_criterion_7_index_speedup(bench_10k):
    timing = {row.mode: row.median_seconds for row in bench_10k.rows}
    speedup = timing["enc_no_index"] / timing["enc_with_index"]
    ok = speedup >= 10.0 and bench_10k.rankings_match
    report(
        7,
        "index speedup at 10,000 features (>= 10x, identical rankings)",
        ok,
        f"{speedup:.0f}x ({timing['enc_no_index'] * 1e3:.1f}ms vs "
        f"{timing['enc_with_index'] * 1e3:.1f}ms), rankings match: "
        f"{bench_10k.rankings_match}",
    )


def test_criterion_8_end_to_end_fidelity():
    spec = SynthSpec(categories=4, per_category=10)
    corpus = synth_corpus(spec, owners=3, seed=b"acceptance-e2e")
    params = gen_group_params(32, b"acceptance-e2e-params")
    world = World(params, b"acceptance-e2e-world", top_h=10,
                  max_image_pixels=64 * 64)
    world.add_user("acceptance-user")
    for owner_id, items in sorted(corpus.by_owner().items()):
        world.add_owner(owner_id,
                        images=[(item.item_id, item.image) for item in items],
                        authorize=["acceptance-user"])

    queries = synth_queries(spec, per_category=13, seed=b"acceptance-e2e-q")[:50]
    mismatches = 0
    sessions = 0
    for _, image in queries:
        result = world.run_session("acceptance-user", image)
        assert result.authorized
        sessions += 1
        for (owner_id, image_id), plain in result.images.items():
            if not np.array_equal(plain, world.owners[owner_id].plain_images[image_id]):
                mismatches += 1
    findings = scan_cloud_for_plaintext(world)
    ok = sessions == 50 and mismatches == 0 and findings == []
    report(
        8,
        "end-to-end fidelity over 50 sessions, no plaintext at the cloud",
        ok,
        f"{sessions} sessions, 0 pixel mismatches, plaintext findings: "
        f"{len(findings)}",
    )


def test_criterion_9_storage_shape(bench_10k):
    storage = bench_10k.storage
    ok = storage.n_features == 10_000 and storage.ratio < 1 / 100
    report(
        9,
        "index bytes / encrypted-feature bytes < 1/100 at 10,000 features",
        ok,
        f"{storage.index_bytes} / {storage.feature_bytes} = "
        f"1/{storage.feature_bytes / storage.index_bytes:.0f}",
    )
