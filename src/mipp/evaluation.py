"""Evaluation harness: corpora, retrieval metrics, leakage and benchmarks.

The synthetic corpus is a desk-scale stand-in for a labeled photo
collection: ten texture categories, each combining one of five edge
orientations with one of two edge densities.  Most images of a category are
heavily "scrambled" (cells repainted with random orientations), a minority
are clean exemplars.  Scrambling moves edge mass between orientation bins
without changing the per-image bin totals, so the plaintext Euclidean
ranking can see it while the sum-based encrypted ranking cannot; that is
what produces the concentrated-versus-uniform leakage profiles measured
here.

The benchmark times the real cloud: ``CloudNode.register_owner`` builds the
index, ``CloudNode.retrieve_top_h`` ranks with and without it, and the
plaintext baseline is the user's Euclidean re-rank.  Its storage report
measures the serialized features and the cloud's ``index.tsv`` table.
"""

from __future__ import annotations

import logging
import statistics
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import feature_crypto, group_crypto
from .cloud_node import DEFAULT_TOP_H, CloudNode, QueryEnvelope, require_top_h
from .ehd_features import FEATURE_DIMS, GRID, extract_ehd
from .group_crypto import GroupParams
from .image_cipher import read_pgm, write_pgm
from .protocol_sim import World, rank_by_euclidean
from .rng import derive_seed

log = logging.getLogger(__name__)

EVAL_USER = "query-user"

#: q size used by the desk-scale experiments; large enough that the sum of
#: squared feature bins (at most 80 * 255^2, under 2^23) never wraps.
DESK_SECURITY_BITS = 32


class IngestError(ValueError):
    """Corpus files that could not be ingested; ``errors`` names each."""

    def __init__(self, errors: list[str]):
        super().__init__(f"{len(errors)} corpus file(s) rejected: {'; '.join(errors)}")
        self.errors = errors


class StatisticalPowerWarning(UserWarning):
    """Too few queries for a stable leakage histogram."""


# -- corpora -------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusItem:
    item_id: str
    image: np.ndarray
    label: str
    owner_id: str


@dataclass(frozen=True)
class LabeledCorpus:
    items: tuple[CorpusItem, ...]
    categories: tuple[str, ...]

    def labels(self) -> dict[str, str]:
        return {item.item_id: item.label for item in self.items}

    def by_owner(self) -> dict[str, list[CorpusItem]]:
        owners: dict[str, list[CorpusItem]] = {}
        for item in self.items:
            owners.setdefault(item.owner_id, []).append(item)
        return owners


def _owner_ids(count: int) -> list[str]:
    if count < 1:
        raise ValueError("owner count must be >= 1")
    return [f"owner-{i + 1}" for i in range(count)]


def list_corpus(root: str | Path) -> tuple[list[Path], tuple[str, ...]]:
    """The files of a corpus of one subdirectory per category, in order
    (sorted directories, sorted files), and its category names; no file is read."""
    root = Path(root)
    category_dirs = sorted(d for d in root.iterdir() if d.is_dir())
    paths = [path for d in category_dirs for path in sorted(d.iterdir()) if path.is_file()]
    if not category_dirs:
        log.warning("corpus root %s has no category directories", root)
    elif not paths:
        log.warning("corpus root %s contained no images", root)
    return paths, tuple(d.name for d in category_dirs)


def read_corpus(paths: Iterable[Path], owners: int = 3) -> Iterator[CorpusItem]:
    """Each PGM file of ``paths``, read as it is asked for, as a ``CorpusItem``
    ``<category>_<stem>`` dealt round-robin over ``owners`` owner ids.  None follows an
    unreadable or non-PGM file; after the last file, one ``IngestError`` names each."""
    ids = _owner_ids(owners)
    errors: list[str] = []
    for position, path in enumerate(paths):
        try:
            image, _ = read_pgm(path)
        except (ValueError, OSError) as exc:  # each names the path
            errors.append(str(exc))
            continue
        if not errors:
            label = path.parent.name
            yield CorpusItem(f"{label}_{path.stem}", image, label, ids[position % owners])
    if errors:
        raise IngestError(errors)


def load_corpus(root: str | Path, owners: int = 3) -> LabeledCorpus:
    """Every item ``read_corpus`` reads from ``list_corpus(root)``, held in memory."""
    paths, categories = list_corpus(root)
    return LabeledCorpus(items=tuple(read_corpus(paths, owners)), categories=categories)


def write_corpus(corpus: LabeledCorpus, root: str | Path) -> None:
    """Materialize a corpus as PGM files in per-category directories."""
    root = Path(root)
    for label in {item.label for item in corpus.items}:
        (root / label).mkdir(parents=True, exist_ok=True)
    for item in corpus.items:
        stem = item.item_id.removeprefix(item.label + "_")
        write_pgm(root / item.label / f"{stem}.pgm", item.image)


# -- synthetic textures ----------------------------------------------------------

# 2x2 block paints, one per edge orientation (vertical, horizontal, 45, 135,
# non-directional).  Each is built so its own filter wins by a clear margin.
_BLOCKS = np.array(
    [
        [[0, 255], [0, 255]],
        [[0, 0], [255, 255]],
        [[255, 128], [128, 0]],
        [[128, 255], [0, 128]],
        [[0, 255], [255, 0]],
    ],
    dtype=np.uint8,
)
_N_ORIENTS = len(_BLOCKS)


# Each density level pairs an edge density with a dominance share (the
# probability that an edge block takes the cell's dominant orientation rather
# than a random other one).  The pairs (0.35, 1.0) and (0.7, 0.6) equalize the
# feature-bin variance of the two levels, which keeps the sum-based distance an
# honest nearest-neighbour rule on the per-image edge total instead of a bias
# toward low-energy images.
_DENSITY_LEVELS = (0.35, 0.7)
_DOMINANCE_LEVELS = (1.0, 0.6)
_DENSITY_JITTER = 0.02
_CLEAN_FRACTION = 0.1
_CLEAN_SCRAMBLE = (0.0, 0.1)
_DIRTY_SCRAMBLE = (0.95, 1.0)


@dataclass(frozen=True)
class SynthSpec:
    """Size of a synthetic texture corpus."""

    categories: int = 10
    per_category: int = 100
    image_size: int = 64

    def __post_init__(self):
        if self.categories > _N_ORIENTS * len(_DENSITY_LEVELS):
            raise ValueError("not enough orientation/density combinations")
        if self.image_size % (2 * GRID) != 0:
            raise ValueError(f"image size must be a multiple of {2 * GRID}")

    def category_names(self) -> tuple[str, ...]:
        return tuple(f"cat{k:02d}" for k in range(self.categories))

    def recipe(self, k: int) -> tuple[int, float, float]:
        """(dominant orientation, edge density, dominance) of category k."""
        level = k // _N_ORIENTS
        return k % _N_ORIENTS, _DENSITY_LEVELS[level], _DOMINANCE_LEVELS[level]


def _render(spec: SynthSpec, dominant_per_cell: np.ndarray, density: float,
            dominance: float, rng: np.random.Generator) -> np.ndarray:
    """Paint an image from a GRID x GRID map of dominant cell orientations."""
    size = spec.image_size
    blocks_per_cell = size // (2 * GRID)  # cell side in 2x2 blocks
    n_blocks = size // 2
    dom = np.repeat(
        np.repeat(dominant_per_cell, blocks_per_cell, axis=0),
        blocks_per_cell, axis=1,
    )
    is_edge = rng.random((n_blocks, n_blocks)) < density
    takes_dom = rng.random((n_blocks, n_blocks)) < dominance
    alt = rng.integers(1, _N_ORIENTS, size=(n_blocks, n_blocks))
    orient = np.where(takes_dom, dom, (dom + alt) % _N_ORIENTS)
    flat_levels = rng.integers(90, 166, size=(n_blocks, n_blocks), dtype=np.int64)

    tiles = _BLOCKS[orient]  # (n_blocks, n_blocks, 2, 2)
    flat = np.repeat(flat_levels[:, :, None, None], 2, axis=2).repeat(2, axis=3)
    chosen = np.where(is_edge[:, :, None, None], tiles, flat).astype(np.uint8)
    return chosen.transpose(0, 2, 1, 3).reshape(size, size)


def synth_image(spec: SynthSpec, category: int, rng: np.random.Generator,
                clean: bool | None = None) -> np.ndarray:
    """Draw one image of ``category``; scrambling is decided per image.

    Scrambling repoints a cell's dominant orientation at random.  It moves
    edge mass between orientation bins without touching the per-image bin
    totals, so the plaintext Euclidean view changes while the sums the
    cloud sees do not.
    """
    orient, density, dominance = spec.recipe(category)
    if clean is None:
        clean = rng.random() < _CLEAN_FRACTION
    lo, hi = _CLEAN_SCRAMBLE if clean else _DIRTY_SCRAMBLE
    scramble = rng.uniform(lo, hi)
    density = density * (1.0 + rng.uniform(-_DENSITY_JITTER, _DENSITY_JITTER))

    cells = np.full((GRID, GRID), orient, dtype=np.int64)
    mask = rng.random((GRID, GRID)) < scramble
    cells[mask] = rng.integers(0, _N_ORIENTS, size=int(mask.sum()))
    return _render(spec, cells, density, dominance, rng)


def synth_query_image(spec: SynthSpec, category: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Draw a clean, unscrambled exemplar used as a query."""
    orient, density, dominance = spec.recipe(category)
    cells = np.full((GRID, GRID), orient, dtype=np.int64)
    return _render(spec, cells, density, dominance, rng)


def synth_corpus(spec: SynthSpec = SynthSpec(), owners: int = 3,
                 seed: bytes | str = b"synth") -> LabeledCorpus:
    """Generate the default labeled corpus deterministically from ``seed``."""
    ids = _owner_ids(owners)
    items: list[CorpusItem] = []
    names = spec.category_names()
    position = 0
    for k, label in enumerate(names):
        rng = np.random.default_rng(
            int.from_bytes(derive_seed(seed, f"category:{k}")[:8], "big")
        )
        for i in range(spec.per_category):
            clean = i < round(_CLEAN_FRACTION * spec.per_category)
            items.append(
                CorpusItem(
                    item_id=f"{label}_{i:03d}",
                    image=synth_image(spec, k, rng, clean=clean),
                    label=label,
                    owner_id=ids[position % owners],
                )
            )
            position += 1
    return LabeledCorpus(items=tuple(items), categories=names)


def split_queries(
    corpus: LabeledCorpus, per_category: int
) -> tuple[LabeledCorpus, list[tuple[str, np.ndarray]]]:
    """Hold out the first ``per_category`` items of each label as queries.

    Used for disk corpora, where no generator exists to draw fresh query
    images.  Items are taken in sorted id order, so the split is stable.
    """
    held: dict[str, int] = {}
    queries: list[tuple[str, np.ndarray]] = []
    kept: list[CorpusItem] = []
    for item in sorted(corpus.items, key=lambda it: (it.label, it.item_id)):
        if held.get(item.label, 0) < per_category:
            held[item.label] = held.get(item.label, 0) + 1
            queries.append((item.label, item.image))
        else:
            kept.append(item)
    if not kept:
        raise ValueError("query split would leave the corpus empty")
    return LabeledCorpus(items=tuple(kept), categories=corpus.categories), queries


def synth_queries(spec: SynthSpec, per_category: int = 5,
                  seed: bytes | str = b"queries") -> list[tuple[str, np.ndarray]]:
    """Fresh query exemplars, ``per_category`` for each category."""
    queries = []
    for k, label in enumerate(spec.category_names()):
        rng = np.random.default_rng(
            int.from_bytes(derive_seed(seed, f"query:{k}")[:8], "big")
        )
        for _ in range(per_category):
            queries.append((label, synth_query_image(spec, k, rng)))
    return queries


# -- retrieval metrics -----------------------------------------------------------


@dataclass(frozen=True)
class QueryMetrics:
    query_label: str
    cutoff: int
    tp: int
    relevant: int
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class MetricsReport:
    precision: float
    recall: float
    f1: float
    per_query: tuple[QueryMetrics, ...]


def compute_metrics(ranked_ids: Sequence[str], labels: Mapping[str, str],
                    query_label: str, cutoff: int) -> QueryMetrics:
    """Precision / recall / F1 of one ranked result list at ``cutoff``."""
    if cutoff > len(ranked_ids):
        raise ValueError(f"cutoff {cutoff} exceeds result length {len(ranked_ids)}")
    for item_id in ranked_ids:
        if item_id not in labels:
            raise ValueError(f"result id {item_id!r} missing from ground truth")
    relevant = sum(1 for lbl in labels.values() if lbl == query_label)
    tp = sum(1 for item_id in ranked_ids[:cutoff] if labels[item_id] == query_label)
    precision = tp / cutoff if cutoff else 0.0
    recall = tp / relevant if relevant else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return QueryMetrics(
        query_label=query_label,
        cutoff=cutoff,
        tp=tp,
        relevant=relevant,
        precision=precision,
        recall=recall,
        f1=f1,
    )


def aggregate_metrics(per_query: Sequence[QueryMetrics]) -> MetricsReport:
    """Macro-average over queries."""
    if not per_query:
        raise ValueError("no per-query metrics to aggregate")
    return MetricsReport(
        precision=statistics.fmean(m.precision for m in per_query),
        recall=statistics.fmean(m.recall for m in per_query),
        f1=statistics.fmean(m.f1 for m in per_query),
        per_query=tuple(per_query),
    )


# -- the retrieval experiment ------------------------------------------------------


@dataclass(frozen=True)
class QueryOutcome:
    """Result lists of one query under every ranking being compared."""

    query_label: str
    rankings: dict[str, tuple[str, ...]]
    relevant: frozenset[str]


def run_retrieval_experiment(
    corpus: LabeledCorpus,
    queries: Sequence[tuple[str, np.ndarray]],
    params: GroupParams,
    seed: bytes | str = b"experiment",
    h: int = DEFAULT_TOP_H,
) -> list[QueryOutcome]:
    """Run full protocol sessions and collect cloud vs. baseline rankings.

    Each outcome carries three rankings over global item ids: ``new_dis``
    (what the cloud returns), ``euc_dis`` (the plaintext Euclidean baseline
    the harness computes for comparison) and ``user`` (the user's local
    re-rank of the returned set).  Every query runs as one authorized
    user, ``EVAL_USER``, in its own session.
    """
    if not corpus.items:
        raise ValueError("corpus is empty")
    if not queries:
        raise ValueError("no queries to run")
    require_top_h(h)
    max_pixels = max(item.image.size for item in corpus.items)
    world = World(params, seed, top_h=h, max_image_pixels=max_pixels)
    world.add_user(EVAL_USER)
    for owner_id, items in sorted(corpus.by_owner().items()):
        world.add_owner(
            owner_id,
            images=[(item.item_id, item.image) for item in items],
            authorize=[EVAL_USER],
        )

    # plaintext features, reused for the Euclidean baseline
    plain = [
        (oid, item_id, feature)
        for oid, actor in world.owners.items()
        for item_id, feature in actor.plain_features.items()
    ]
    labels = corpus.labels()

    outcomes = []
    for label, image in queries:
        session = world.run_session(EVAL_USER, image)
        scored = rank_by_euclidean(extract_ehd(image), plain)
        outcomes.append(QueryOutcome(
            query_label=label,
            rankings={
                "new_dis": tuple(item_id for _, item_id in session.returned),
                "euc_dis": tuple(item_id for _, _, item_id in scored[:h]),
                "user": tuple(item_id for _, item_id in session.user_ranking),
            },
            relevant=frozenset(
                item_id for item_id, lbl in labels.items() if lbl == label
            ),
        ))
    return outcomes


def experiment_metrics(
    outcomes: Sequence[QueryOutcome],
    labels: Mapping[str, str],
    cutoffs: Sequence[int] = (10, 20, 50, 100),
) -> dict[str, dict[int, MetricsReport]]:
    """Aggregate metrics per ranking method per cutoff."""
    methods = sorted(outcomes[0].rankings)
    out: dict[str, dict[int, MetricsReport]] = {}
    for method in methods:
        out[method] = {}
        for cutoff in cutoffs:
            per_query = [
                compute_metrics(o.rankings[method], labels, o.query_label, cutoff)
                for o in outcomes
                if cutoff <= len(o.rankings[method])
            ]
            if per_query:
                out[method][cutoff] = aggregate_metrics(per_query)
    return out


def leakage_histogram(
    outcomes: Sequence[QueryOutcome], deciles: int = 10
) -> dict[str, list[float]]:
    """Fraction of true matches landing in each rank decile, per method.

    Positions are pooled over all queries inside each method's returned
    list; the fractions of one method sum to 1.
    """
    if len(outcomes) < 30:
        warnings.warn(
            f"only {len(outcomes)} queries; decile fractions will be noisy",
            StatisticalPowerWarning,
            stacklevel=2,
        )
    methods = sorted(outcomes[0].rankings)
    histogram: dict[str, list[float]] = {}
    for method in methods:
        counts = [0] * deciles
        total = 0
        for outcome in outcomes:
            ranking = outcome.rankings[method]
            width = len(ranking) / deciles
            for position, item_id in enumerate(ranking):
                if item_id in outcome.relevant:
                    counts[min(int(position / width), deciles - 1)] += 1
                    total += 1
        histogram[method] = [c / total if total else 0.0 for c in counts]
    return histogram


# -- benchmarks --------------------------------------------------------------------


@dataclass(frozen=True)
class BenchRow:
    size: int
    mode: str
    median_seconds: float
    reps: int


@dataclass(frozen=True)
class StorageReport:
    n_features: int
    feature_bytes: int
    index_bytes: int

    @property
    def ratio(self) -> float:
        return self.index_bytes / self.feature_bytes


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]
    storage: StorageReport
    rankings_match: bool


BENCH_MODES = ("plain", "enc_no_index", "enc_with_index", "index_build")


def bench(
    sizes: Sequence[int],
    modes: Sequence[str] = BENCH_MODES,
    params: GroupParams | None = None,
    seed: bytes | str = b"bench",
    reps: int = 5,
) -> BenchReport:
    """Time the cloud's retrieval paths over synthetic features of each size.

    One owner holds ``size`` random ``FEATURE_DIMS``-entry features in a
    ``CloudNode``, and a query asks for the top ``DEFAULT_TOP_H``.  ``index_build``
    times its ``register_owner``; ``enc_with_index`` and ``enc_no_index``
    time ``retrieve_top_h`` with and without the index; ``plain`` ranks the
    plaintext vectors by Euclidean distance.  The rankings of the two
    encrypted paths are checked for equality; wall clock medians are taken
    over ``reps`` runs per size and mode.  The storage report covers the
    largest size.
    """
    sizes = list(sizes)
    if sizes != sorted(sizes) or not sizes or sizes[0] < 1:
        raise ValueError("sizes must be non-empty, ascending and >= 1")
    unknown = set(modes) - set(BENCH_MODES)
    if unknown:
        raise ValueError(f"unknown bench modes: {sorted(unknown)}")
    if params is None:
        params = group_crypto.gen_group_params(DESK_SECURITY_BITS, seed)
    if reps < 1:
        raise ValueError("reps must be >= 1")

    rng = np.random.default_rng(int.from_bytes(derive_seed(seed, b"vectors")[:8], "big"))
    largest = sizes[-1]
    vectors = rng.integers(0, 256, size=(largest, FEATURE_DIMS))
    ids = [f"img-{i:05d}" for i in range(largest)]
    features = [
        feature_crypto.encrypt_feature_pair(params, vectors[i], derive_seed(seed, f"v{i}"))
        for i in range(largest)
    ]
    query_vec = rng.integers(0, 256, size=FEATURE_DIMS)
    query = QueryEnvelope(
        eq=feature_crypto.encrypt_feature_pair(params, query_vec, derive_seed(seed, b"q")),
        uid="bench-user",
        ak=derive_seed(seed, b"ak"),
    )
    owner = "owner-1"
    # the cloud never looks inside the images, so one pixel stands in
    blank = np.zeros((1, 1), dtype=np.uint8)

    def build_cloud(n: int) -> CloudNode:
        cloud = CloudNode(params)
        cloud.register_owner(
            owner,
            [(query.uid, query.ak)],
            [(ids[i], blank, features[i]) for i in range(n)],
        )
        return cloud

    def run(mode: str, size: int, cloud: CloudNode):
        if mode == "plain":
            return rank_by_euclidean(
                query_vec, ((owner, ids[i], vectors[i]) for i in range(size))
            )[:DEFAULT_TOP_H]
        if mode == "index_build":
            return build_cloud(size)
        return [(r.owner_id, r.image_id)
                for r in cloud.retrieve_top_h(query, use_index=mode == "enc_with_index")]

    full = build_cloud(largest)
    rows = []
    rankings_match = True
    for size in sizes:
        cloud = full if size == largest else build_cloud(size)
        for mode in modes:
            timings = []
            result = None
            for _ in range(reps):
                start = time.perf_counter()
                result = run(mode, size, cloud)
                timings.append(time.perf_counter() - start)
            rows.append(
                BenchRow(size=size, mode=mode,
                         median_seconds=statistics.median(timings), reps=reps)
            )
            if mode == "enc_no_index" and "enc_with_index" in modes:
                rankings_match = rankings_match and result == run(
                    "enc_with_index", size, cloud
                )

    storage = StorageReport(
        n_features=largest,
        feature_bytes=sum(len(feature_crypto.feature_to_text(f).encode()) for f in features),
        index_bytes=len(full.index_table().encode()),
    )
    return BenchReport(rows=tuple(rows), storage=storage, rankings_match=rankings_match)


# -- plain-text report formatting ---------------------------------------------------


def metrics_tsv(reports: Mapping[str, Mapping[int, MetricsReport]]) -> str:
    lines = ["method\tcutoff\tprecision\trecall\tf1"]
    for method in sorted(reports):
        for cutoff in sorted(reports[method]):
            r = reports[method][cutoff]
            lines.append(
                f"{method}\t{cutoff}\t{r.precision:.4f}\t{r.recall:.4f}\t{r.f1:.4f}"
            )
    return "\n".join(lines) + "\n"


def leakage_tsv(histogram: Mapping[str, Sequence[float]]) -> str:
    methods = sorted(histogram)
    deciles = len(next(iter(histogram.values())))
    lines = ["decile\t" + "\t".join(methods)]
    for d in range(deciles):
        cells = "\t".join(f"{histogram[m][d]:.4f}" for m in methods)
        lines.append(f"{d + 1}\t{cells}")
    return "\n".join(lines) + "\n"


def bench_tsv(report: BenchReport) -> str:
    lines = ["size\tmode\tmedian_seconds\treps"]
    for row in report.rows:
        lines.append(f"{row.size}\t{row.mode}\t{row.median_seconds:.6f}\t{row.reps}")
    s = report.storage
    lines.append("")
    lines.append("storage\tn_features\tfeature_bytes\tindex_bytes\tratio")
    lines.append(
        f"storage\t{s.n_features}\t{s.feature_bytes}\t{s.index_bytes}"
        f"\t{s.ratio:.6f}"
    )
    return "\n".join(lines) + "\n"
