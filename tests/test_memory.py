"""Peak memory of loading, generating and evaluating data at slide scale,
measured with tracemalloc.

numpy reports its array allocations to tracemalloc, so a peak here is the
largest total of live arrays (plus small Python objects) during one call.
The block size is shrunk so that a whole-store or whole-query temporary
would stand out against one block.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from fewcache import numerics, sampler
from fewcache.cache_branch import CacheModel, retrieve
from fewcache.cli import main
from fewcache.dataset import load_manifest, read_layout, write_embeddings
from fewcache.encoders import resolve_source
from fewcache.numerics import l2_normalize_rows
from fewcache.prior_branch import prior_from_features
from fewcache.sampler import FewShotSpec, FewShotSplit, sample_split, save_split
from fewcache.trainer import snapshot

BLOCK_ELEMENTS = 1 << 14
BLOCK_BYTES = BLOCK_ELEMENTS * 8
# Small vectors, Python objects and numpy's ufunc buffer (8192 doubles,
# used by in-place broadcasting operations).
SLACK = 128 * 1024
# Each further thread of retrieve: its own ufunc buffer (64 KiB), live at
# the same time as the calling thread's, plus the pool thread and future
# objects. Two threads measured at most 74 KiB above one.
PER_THREAD = 80 * 1024


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    monkeypatch.setattr(numerics, "_BLOCK_ELEMENTS", BLOCK_ELEMENTS)


def _peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _manifest(directory, n_bags, n, dim, rng):
    entries = []
    for i in range(n_bags):
        write_embeddings(directory / f"b{i}.femb", rng.normal(size=(n, dim)).astype(np.float32))
        entries.append({"id": f"b{i}", "label": i % 2, "embeddings": f"b{i}.femb", "n": n})
    path = directory / "manifest.json"
    path.write_text(json.dumps({"dim": dim, "classes": ["a", "b"], "bags": entries}))
    return path


def test_load_manifest_holds_store_plus_one_bag_and_blocks(tmp_path, rng):
    dim, total = 64, 4096
    peaks = {}
    for n_bags in (4, 16, 64):
        n = total // n_bags
        directory = tmp_path / str(n_bags)
        directory.mkdir()
        path = _manifest(directory, n_bags, n, dim, rng)
        peaks[n_bags] = _peak(load_manifest, path)
        store = total * dim * 8
        # One bag as read (float32 payload); it is widened into the store.
        bag = n * dim * 4
        assert peaks[n_bags] <= store + bag + 2 * BLOCK_BYTES + SLACK, n_bags
    # More, smaller bags over the same store never cost more.
    assert peaks[64] <= peaks[16] <= peaks[4]


def _synthetic_source(bags_per_class, n, dim):
    spec = {"num_classes": 2, "dim": dim, "bags_per_class": bags_per_class,
            "instances_per_bag": n, "noise_sigma": 0.6, "seed": 0}
    return {"kind": "synthetic", "spec": spec, "test_bags_per_class": 4}


def test_synthetic_source_holds_its_stores_plus_one_bag_and_block():
    n, dim = 512, 64
    # A store's rows and instance labels, per class and bag.
    bag_store = n * (dim + 1) * 8
    resolve_source(_synthetic_source(1, 1, 2))  # the first draw imports numpy.random
    peaks = {}
    for bags_per_class in (8, 16):
        peaks[bags_per_class] = _peak(resolve_source, _synthetic_source(bags_per_class, n, dim))
        stores = 2 * (bags_per_class + 4) * bag_store
        # One bag's rows (prototypes plus noise) before they are normalized.
        bag = n * dim * 8
        bound = stores + bag + BLOCK_BYTES + SLACK
        assert peaks[bags_per_class] <= bound, (bags_per_class, peaks[bags_per_class], bound)
    # Only the train store and its Bag objects grow with the bag count: no
    # copy of the store is made.
    assert peaks[16] - peaks[8] <= 2 * 8 * (bag_store + 512)


def _retrieve_model(rng):
    n_cache, dim = 512, 32
    return CacheModel(
        keys=l2_normalize_rows(rng.normal(size=(n_cache, dim))),
        value_logits=rng.normal(size=(n_cache, 2)),
        frozen_mask=np.zeros(n_cache, dtype=bool),
        beta=10.0,
        classes=["a", "b"],
    )


def test_retrieve_holds_output_plus_one_block(rng, monkeypatch):
    monkeypatch.setattr(numerics, "_WORKERS", 1)
    model = _retrieve_model(rng)
    values = model.n_cache * model.num_classes * 8
    peaks = {}
    for m in (4096, 16384):
        q = l2_normalize_rows(rng.normal(size=(m, model.dim)))
        peaks[m] = _peak(retrieve, model, q)
        output = m * model.num_classes * 8
        assert peaks[m] <= output + BLOCK_BYTES + values + SLACK, m
    # Only the output grows with the query count.
    assert peaks[16384] - peaks[4096] <= (16384 - 4096) * model.num_classes * 8 + 4096


def test_retrieve_holds_output_plus_one_block_per_worker(rng, monkeypatch):
    monkeypatch.setattr(numerics, "_WORKERS", 2)
    model = _retrieve_model(rng)
    values = model.n_cache * model.num_classes * 8
    for m in (4096, 16384):
        q = l2_normalize_rows(rng.normal(size=(m, model.dim)))
        output = m * model.num_classes * 8
        peak = _peak(retrieve, model, q)
        assert peak <= output + 2 * BLOCK_BYTES + values + SLACK + PER_THREAD, m


def _labeled_manifest(directory, n_bags, n, dim, rng):
    """_manifest with an instance-label file per bag."""
    path = _manifest(directory, n_bags, n, dim, rng)
    doc = json.loads(path.read_text())
    for i, entry in enumerate(doc["bags"]):
        labels = directory / f"b{i}.labels.json"
        labels.write_text(json.dumps([int(x) for x in rng.integers(0, 2, n)]))
        entry["instance_labels"] = labels.name
    path.write_text(json.dumps(doc))
    return path


# Bytes per test row that an eval holds at its peak: three (m, N = 2)
# outputs (cache, prior, fused) and twelve (m,) vectors, namely the bags'
# labels, the label vector `score` builds and the midrank sort's work
# arrays (`fusion_eval._midranks`). Rows of the d = 64 test set below
# take 512 bytes each; an eval that holds them cannot pass.
EVAL_DIM, EVAL_CACHE = 64, 512
ROW_BYTES = 3 * 2 * 8 + 12 * 8


@pytest.mark.parametrize("workers", [1, 2])
def test_streamed_eval_holds_outputs_labels_and_one_block_per_worker(
        tmp_path, rng, monkeypatch, workers):
    monkeypatch.setattr(numerics, "_WORKERS", workers)
    cache = _retrieve_model(rng)
    cache.keys = l2_normalize_rows(rng.normal(size=(EVAL_CACHE, EVAL_DIM)))
    prior = prior_from_features(rng.normal(size=(2, EVAL_DIM)), cache.classes)
    snapshot(cache, prior, tmp_path / "checkpoint")
    # The checkpoint's keys and value rows, as restored.
    model = EVAL_CACHE * (EVAL_DIM + 2 * 2) * 8
    # Each worker's block: its scores, its query rows, and a float32 bag
    # chunk or the squares of its rows while they are normalized.
    rows = BLOCK_ELEMENTS // EVAL_CACHE
    block = BLOCK_BYTES + rows * EVAL_DIM * (8 + 8)
    assert ROW_BYTES < EVAL_DIM * 8
    peaks = {}
    for m in (4096, 16384):
        directory = tmp_path / str(m)
        directory.mkdir()
        manifest = _labeled_manifest(directory, m // 512, 512, EVAL_DIM, rng)
        # Alpha is tuned on 32 labeled rows of the same set: tuning reads
        # those rows, not the whole set.
        labeled = np.arange(0, m, m // 32)
        save_split(FewShotSplit(selected_bags=[], labeled_rows=labeled,
                                labeled_classes=np.arange(32) % 2,
                                unlabeled_rows=np.empty(0, dtype=np.int64), seed=0),
                   directory / "split.json")
        config = directory / "config.json"
        config.write_text(json.dumps({"dataset": str(manifest),
                                      "checkpoint": str(tmp_path / "checkpoint"),
                                      "tune": {"dataset": str(manifest),
                                               "split": str(directory / "split.json")}}))
        argv = ["eval", "--config", str(config), "--out", str(directory / "out")]
        if not peaks:
            assert main(argv) == 0  # the first tuning imports numpy.ma, once per process
        peaks[m] = _peak(main, argv)
        assert (directory / "out" / "alpha_sweep.csv").exists()
        bound = m * ROW_BYTES + workers * block + model + SLACK + (workers - 1) * PER_THREAD
        assert peaks[m] <= bound, (m, peaks[m], bound)
    # Only the outputs and the labels grow with the row count.
    assert peaks[16384] - peaks[4096] <= (16384 - 4096) * ROW_BYTES


# Row vectors that k-means holds at its peak, in the centroid update: the
# squared norms, both assignment vectors, the picked distances, the grouping
# argsort and its sort buffer, and the moved flags.
KMEANS_ROW_VECTORS = 6
# Row vectors of the k-means++ seeding: its norms, its distances, the bound,
# the expansion and the cumulative sum, the index of the rows it recomputes,
# and two boolean masks.
SEEDING_ROW_VECTORS = 7


@pytest.mark.parametrize("workers", [1, 2])
def test_kmeans_holds_one_grouped_copy_and_one_block_per_worker(rng, monkeypatch, workers):
    # The Lloyd pass holds one block of distances per worker, not an (n, k)
    # matrix, and the seeding and the distance passes take their exact
    # distances one row block at a time: the only (n, d) array made is the
    # copy of the rows that the centroid update groups by cluster.
    monkeypatch.setattr(numerics, "_WORKERS", workers)
    d, k = 16, 128
    assert k > d + KMEANS_ROW_VECTORS  # an (n, k) term could not pass
    centroids = k * d * 8
    peaks = {}
    for n in (4096, 16384):
        x = rng.normal(size=(n, d))
        # The seeding alone: its row vectors and the two one-block temporaries
        # of its exact distances.
        seeding = _peak(sampler._kmeanspp_init, x, (x * x).sum(axis=1), k, rng)
        bound = n * SEEDING_ROW_VECTORS * 8 + 2 * BLOCK_BYTES + centroids + SLACK
        assert seeding <= bound, (n, seeding, bound)
        peaks[n] = _peak(sampler.kmeans, x, k, 2)
        bound = (n * (d + KMEANS_ROW_VECTORS) * 8 + workers * BLOCK_BYTES + centroids + SLACK
                 + (workers - 1) * PER_THREAD)
        assert peaks[n] <= bound, (n, peaks[n], bound)
    # Only the grouped copy and the row vectors grow with n.
    assert peaks[16384] - peaks[4096] <= (16384 - 4096) * (d + KMEANS_ROW_VECTORS) * 8


# Bytes per store row that a sample holds for every bag, read or not: the
# bag's int64 instance labels (8) and its share of the bag's manifest entry,
# file path and label-file read (measured 1.8-2.2 for these 512-row bags).
# A row of the d = 64 sets below takes 512 bytes.
LABEL_BYTES = 8 + 3


def test_sample_holds_selected_rows_and_label_vectors(tmp_path, rng):
    # At bag shot 1, sample reads one 512-row bag per class whatever the bag
    # count; each further bag costs its labels, not its rows.
    n, dim = 512, 64
    selected = 2 * n
    k = math.ceil(0.1 * selected)  # the default core-set fraction
    workers = numerics._block_workers(numerics._row_blocks(selected, k))
    # The selected rows, the copy of them that the centroid update groups,
    # k-means' row vectors and the sample's row indices, and one block of
    # Lloyd distances per worker.
    sampling = (selected * (2 * dim + KMEANS_ROW_VECTORS + 2) * 8
                + workers * BLOCK_BYTES + (workers - 1) * PER_THREAD)
    assert LABEL_BYTES < dim * 8
    peaks = {}
    for n_bags in (4, 16, 64):
        directory = tmp_path / str(n_bags)
        directory.mkdir()
        manifest = _labeled_manifest(directory, n_bags, n, dim, rng)
        config = directory / "config.json"
        config.write_text(json.dumps({"dataset": str(manifest), "bag_shot": 1,
                                      "instance_shot": 2}))
        argv = ["sample", "--config", str(config), "--out", str(directory / "out")]
        if not peaks:
            assert main(argv) == 0  # the first sample imports what it needs, once
        peaks[n_bags] = _peak(main, argv)
        assert (directory / "out" / "split.json").exists()
        bound = sampling + n_bags * n * LABEL_BYTES + SLACK
        assert peaks[n_bags] <= bound, (n_bags, peaks[n_bags], bound)
    # Only the labels grow with the bag count.
    assert peaks[64] - peaks[4] <= (64 - 4) * n * LABEL_BYTES


@pytest.mark.parametrize("per_bag", [False, True])
def test_sample_split_gathers_labels_of_selected_bags_only(tmp_path, rng, monkeypatch,
                                                          per_bag):
    # With the k-means stubbed out, what is left of sample_split grows with
    # the selected bags only: no label or bag-position vector over every
    # row of the store (8 bytes a row each).
    monkeypatch.setattr(sampler, "select_core_set",
                        lambda points, spec, seed: np.arange(0, len(points), 64))
    n, dim = 512, 8
    spec = FewShotSpec(bag_shot=1, instance_shot=2, per_bag=per_bag)
    peaks = {}
    for n_bags in (4, 64):
        directory = tmp_path / str(n_bags)
        directory.mkdir()
        dataset = read_layout(_labeled_manifest(directory, n_bags, n, dim, rng))
        sample_split(dataset, spec)  # the first call imports what it needs
        peaks[n_bags] = _peak(sample_split, dataset, spec)
    assert peaks[64] - peaks[4] <= (64 - 4) * n, peaks
