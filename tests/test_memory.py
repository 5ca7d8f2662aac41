"""Peak memory of the slide-scale eval path, measured with tracemalloc.

numpy reports its array allocations to tracemalloc, so a peak here is the
largest total of live arrays (plus small Python objects) during one call.
The block size is shrunk so that a whole-store or whole-query temporary
would stand out against one block.
"""

import json
import tracemalloc

import numpy as np
import pytest

from fewcache import numerics
from fewcache.cache_branch import CacheModel, retrieve
from fewcache.dataset import load_manifest, write_embeddings
from fewcache.numerics import l2_normalize_rows

BLOCK_ELEMENTS = 1 << 14
BLOCK_BYTES = BLOCK_ELEMENTS * 8
# Small vectors, Python objects and numpy's ufunc buffer (8192 doubles,
# used by in-place broadcasting operations).
SLACK = 128 * 1024


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
        # One bag as read (float32 payload) and widened to float64.
        bag = n * dim * (4 + 8)
        assert peaks[n_bags] <= store + bag + 2 * BLOCK_BYTES + SLACK, n_bags
    # More, smaller bags over the same store never cost more.
    assert peaks[64] <= peaks[16] <= peaks[4]


def test_retrieve_holds_output_plus_one_block(rng):
    n_cache, dim, num_classes = 512, 32, 2
    model = CacheModel(
        keys=l2_normalize_rows(rng.normal(size=(n_cache, dim))),
        value_logits=rng.normal(size=(n_cache, num_classes)),
        frozen_mask=np.zeros(n_cache, dtype=bool),
        beta=10.0,
        classes=["a", "b"],
    )
    values = n_cache * num_classes * 8
    peaks = {}
    for m in (4096, 16384):
        q = l2_normalize_rows(rng.normal(size=(m, dim)))
        peaks[m] = _peak(retrieve, model, q)
        output = m * num_classes * 8
        assert peaks[m] <= output + BLOCK_BYTES + values + SLACK, m
    # Only the output grows with the query count.
    assert peaks[16384] - peaks[4096] <= (16384 - 4096) * num_classes * 8 + 4096
