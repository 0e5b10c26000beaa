import math

import numpy as np
import pytest

from mipp import evaluation
from mipp.evaluation import (
    IngestError,
    QueryOutcome,
    StatisticalPowerWarning,
    SynthSpec,
    aggregate_metrics,
    bench,
    bench_tsv,
    compute_metrics,
    leakage_histogram,
    leakage_tsv,
    load_corpus,
    metrics_tsv,
    run_retrieval_experiment,
    experiment_metrics,
    synth_corpus,
    synth_queries,
    write_corpus,
)
from mipp.group_crypto import gen_group_params
from mipp.image_cipher import write_pgm

PARAMS = gen_group_params(32, b"eval-tests")
TINY = SynthSpec(categories=4, per_category=10)


# -- corpora -------------------------------------------------------------


def test_synth_corpus_shape_and_determinism():
    a = synth_corpus(TINY, owners=3, seed=b"s")
    b = synth_corpus(TINY, owners=3, seed=b"s")
    assert len(a.items) == 40
    assert a.categories == ("cat00", "cat01", "cat02", "cat03")
    assert all(item.image.shape == (64, 64) for item in a.items)
    for x, y in zip(a.items, b.items):
        assert x.item_id == y.item_id and np.array_equal(x.image, y.image)
    c = synth_corpus(TINY, owners=3, seed=b"other")
    assert any(not np.array_equal(x.image, y.image) for x, y in zip(a.items, c.items))


def test_owner_assignment_is_balanced_round_robin():
    corpus = synth_corpus(TINY, owners=3, seed=b"rr")
    counts = {oid: len(items) for oid, items in corpus.by_owner().items()}
    assert sum(counts.values()) == 40
    assert set(counts.values()) <= {math.floor(40 / 3), math.ceil(40 / 3)}


@pytest.mark.parametrize("make", [
    lambda root: load_corpus(root, owners=0),
    lambda root: synth_corpus(TINY, owners=0),
], ids=["load", "synth"])
def test_a_corpus_for_no_owner_is_refused(tmp_path, make):
    with pytest.raises(ValueError, match="^owner count must be >= 1$"):
        make(tmp_path)


def test_corpus_directory_roundtrip(tmp_path):
    corpus = synth_corpus(TINY, owners=2, seed=b"disk")
    write_corpus(corpus, tmp_path / "corpus")
    assert sorted(p.name for p in (tmp_path / "corpus").iterdir()) == [
        "cat00", "cat01", "cat02", "cat03",
    ]
    loaded = load_corpus(tmp_path / "corpus", owners=2)
    assert len(loaded.items) == 40
    assert loaded.categories == corpus.categories
    by_id = {item.item_id: item for item in loaded.items}
    for item in corpus.items:
        assert np.array_equal(by_id[item.item_id].image, item.image)


def test_load_corpus_counts(tmp_path):
    root = tmp_path / "corpus"
    for cat in range(10):
        d = root / f"c{cat}"
        d.mkdir(parents=True)
        for i in range(4):
            write_pgm(d / f"{i}.pgm", np.zeros((8, 8), dtype=np.uint8))
    corpus = load_corpus(root, owners=3)
    assert len(corpus.items) == 40
    assert len(corpus.categories) == 10


def test_load_corpus_empty_warns_not_raises(tmp_path, caplog):
    root = tmp_path / "empty"
    root.mkdir()
    with caplog.at_level("WARNING"):
        corpus = load_corpus(root)
    assert corpus.items == ()
    assert "no category directories" in caplog.text


def test_load_corpus_reports_every_bad_file(tmp_path):
    root = tmp_path / "corpus"
    d = root / "cat"
    d.mkdir(parents=True)
    write_pgm(d / "good.pgm", np.zeros((8, 8), dtype=np.uint8))
    (d / "bad1.pgm").write_bytes(b"not a pgm")
    (d / "bad2.pgm").write_bytes(b"P5\n8 8\n255\nshort")
    with pytest.raises(IngestError) as err:
        load_corpus(root)
    assert len(err.value.errors) == 2


def test_each_corpus_error_names_its_path_once(tmp_path):
    d = tmp_path / "corpus" / "cat"
    d.mkdir(parents=True)
    bad = [d / "bad1.pgm", d / "bad2.pgm"]
    bad[0].write_bytes(b"not a pgm")
    bad[1].write_bytes(b"P5\n8 8\n255\nshort")
    with pytest.raises(IngestError) as err:
        load_corpus(tmp_path / "corpus")
    assert isinstance(err.value, ValueError)
    assert err.value.errors == [f"{bad[0]}: not a binary PGM (P5) file",
                                f"{bad[1]}: raster size mismatch"]
    assert str(err.value) == "2 corpus file(s) rejected: " + "; ".join(err.value.errors)


# -- metrics -------------------------------------------------------------


def test_precision_fixture():
    labels = {f"r{i}": "A" for i in range(100)}
    labels.update({f"x{i}": "B" for i in range(200)})
    ranked = [f"r{i}" for i in range(30)] + [f"x{i}" for i in range(70)]
    m = compute_metrics(ranked, labels, "A", cutoff=100)
    assert m.tp == 30
    assert m.precision == pytest.approx(0.3)
    assert m.recall == pytest.approx(0.3)


def test_f1_equals_p_when_p_equals_r():
    labels = {f"a{i}": "A" for i in range(50)}
    labels.update({f"b{i}": "B" for i in range(50)})
    ranked = [f"a{i}" for i in range(20)] + [f"b{i}" for i in range(30)]
    m = compute_metrics(ranked, labels, "A", cutoff=50)
    assert m.precision == pytest.approx(m.recall)
    assert m.f1 == pytest.approx(m.precision)


def test_perfect_retrieval():
    labels = {f"a{i}": "A" for i in range(100)}
    labels.update({f"b{i}": "B" for i in range(100)})
    ranked = [f"a{i}" for i in range(100)]
    m = compute_metrics(ranked, labels, "A", cutoff=100)
    assert m.precision == m.recall == m.f1 == 1.0


def test_zero_denominator_f1():
    labels = {"a": "A", "b": "B"}
    m = compute_metrics(["b"], labels, "A", cutoff=1)
    assert m.precision == 0.0 and m.f1 == 0.0


def test_unknown_result_id_rejected():
    with pytest.raises(ValueError):
        compute_metrics(["ghost"], {"a": "A"}, "A", cutoff=1)


def test_cutoff_beyond_results_rejected():
    with pytest.raises(ValueError):
        compute_metrics(["a"], {"a": "A"}, "A", cutoff=2)


def test_aggregate_metrics_means():
    labels = {"a": "A", "b": "B"}
    m1 = compute_metrics(["a"], labels, "A", cutoff=1)
    m2 = compute_metrics(["b"], labels, "A", cutoff=1)
    report = aggregate_metrics([m1, m2])
    assert report.precision == pytest.approx(0.5)
    assert len(report.per_query) == 2


# -- leakage -------------------------------------------------------------


def fake_outcomes(rng, queries=50, h=100, relevant_in_h=20):
    outcomes = []
    for q in range(queries):
        ids = [f"q{q}-i{i}" for i in range(h)]
        relevant = set(rng.choice(ids, size=relevant_in_h, replace=False))
        rng.shuffle(ids)
        outcomes.append(
            QueryOutcome(
                query_label="A",
                rankings={"rand": tuple(ids)},
                relevant=frozenset(relevant),
            )
        )
    return outcomes


def test_decile_fractions_sum_to_one():
    rng = np.random.default_rng(0)
    hist = leakage_histogram(fake_outcomes(rng))
    assert sum(hist["rand"]) == pytest.approx(1.0)


def test_random_ranking_is_uniform_within_sampling_error():
    # Monte-Carlo oracle: seeded shuffles should put ~1/10 of the true
    # matches in each decile
    rng = np.random.default_rng(1)
    hist = leakage_histogram(fake_outcomes(rng, queries=200))
    for fraction in hist["rand"]:
        assert abs(fraction - 0.1) < 0.03


def test_too_few_queries_warns():
    rng = np.random.default_rng(2)
    with pytest.warns(StatisticalPowerWarning):
        leakage_histogram(fake_outcomes(rng, queries=5))


def test_front_loaded_ranking_detected():
    # all matches in the first decile
    outcomes = [
        QueryOutcome(
            query_label="A",
            rankings={"sharp": tuple(f"i{i}" for i in range(100))},
            relevant=frozenset(f"i{i}" for i in range(10)),
        )
        for _ in range(30)
    ]
    hist = leakage_histogram(outcomes)
    assert hist["sharp"][0] == pytest.approx(1.0)
    assert sum(hist["sharp"][1:]) == pytest.approx(0.0)


# -- experiment ----------------------------------------------------------


def test_experiment_smoke():
    corpus = synth_corpus(TINY, owners=2, seed=b"exp")
    queries = synth_queries(TINY, per_category=1, seed=b"exp-q")
    with pytest.warns(StatisticalPowerWarning):
        outcomes = run_retrieval_experiment(corpus, queries, PARAMS, seed=b"exp-x", h=10)
        hist = leakage_histogram(outcomes)
    assert len(outcomes) == 4
    for o in outcomes:
        assert set(o.rankings) == {"new_dis", "euc_dis", "user"}
        assert len(o.rankings["new_dis"]) == 10
        assert len(o.relevant) == 10
        # user re-rank is a permutation of what the cloud returned
        assert sorted(o.rankings["user"]) == sorted(o.rankings["new_dis"])
    assert set(hist) == {"new_dis", "euc_dis", "user"}

    reports = experiment_metrics(outcomes, corpus.labels(), cutoffs=(5, 10))
    assert set(reports["new_dis"]) == {5, 10}


def test_experiment_determinism():
    corpus = synth_corpus(TINY, owners=2, seed=b"det")
    queries = synth_queries(TINY, per_category=1, seed=b"det-q")
    a = run_retrieval_experiment(corpus, queries, PARAMS, seed=b"det-x", h=10)
    b = run_retrieval_experiment(corpus, queries, PARAMS, seed=b"det-x", h=10)
    assert a == b


# -- bench ---------------------------------------------------------------


@pytest.fixture(scope="module")
def small_bench():
    return bench([50, 500], params=PARAMS, seed=b"bench-unit", reps=3)


def test_bench_rows_and_modes(small_bench):
    assert {row.mode for row in small_bench.rows} == {
        "plain", "enc_no_index", "enc_with_index", "index_build",
    }
    assert {row.size for row in small_bench.rows} == {50, 500}
    assert all(row.median_seconds >= 0 for row in small_bench.rows)


def test_bench_rankings_match(small_bench):
    assert small_bench.rankings_match


def test_bench_timing_grows_with_corpus(small_bench):
    # 10x the work for the aggregation-heavy mode is robustly slower
    by_size = {
        row.size: row.median_seconds
        for row in small_bench.rows
        if row.mode == "enc_no_index"
    }
    assert by_size[500] > by_size[50]


def test_an_experiment_without_queries_is_refused_before_its_world(monkeypatch):
    def no_world(*args, **kwargs):
        raise AssertionError("the World was built")

    monkeypatch.setattr(evaluation, "World", no_world)
    corpus = synth_corpus(TINY, owners=2, seed=b"no-queries")
    with pytest.raises(ValueError, match="^no queries to run$"):
        run_retrieval_experiment(corpus, [], PARAMS)


def test_an_experiment_asking_for_no_results_is_refused_before_any_owner(monkeypatch):
    def no_owner(*args, **kwargs):
        raise AssertionError("an owner was added")

    monkeypatch.setattr(evaluation.World, "add_owner", no_owner)
    corpus = synth_corpus(TINY, owners=2, seed=b"no-results")
    queries = synth_queries(TINY, per_category=1, seed=b"no-results")
    with pytest.raises(ValueError, match="^result count h must be >= 1$"):
        run_retrieval_experiment(corpus, queries, PARAMS, h=0)


def test_an_interrupted_bench_raises_rather_than_reporting(monkeypatch):
    # a partial report would claim the two encrypted paths agreed on sizes never compared
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(evaluation, "rank_by_euclidean", interrupted)
    with pytest.raises(KeyboardInterrupt):
        bench([5], params=PARAMS, reps=1)


def test_bench_storage_report(small_bench):
    storage = small_bench.storage
    assert storage.n_features == 500
    assert storage.feature_bytes > storage.index_bytes > 0


def test_bench_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bench([100, 50], params=PARAMS)
    with pytest.raises(ValueError):
        bench([10], modes=("warp",), params=PARAMS)


# -- report formatting ----------------------------------------------------


def test_tsv_formatters(small_bench):
    labels = {"a": "A", "b": "B"}
    m = compute_metrics(["a", "b"], labels, "A", cutoff=2)
    text = metrics_tsv({"euc": {2: aggregate_metrics([m])}})
    assert text.startswith("method\tcutoff\tprecision")
    assert "euc\t2\t" in text

    hist_text = leakage_tsv({"m": [0.5, 0.5]})
    assert hist_text.splitlines()[0] == "decile\tm"

    bench_text = bench_tsv(small_bench)
    assert bench_text.splitlines()[0] == "size\tmode\tmedian_seconds\treps"
    assert "storage\t500\t" in bench_text
