import json
import math
import struct
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from fewcache import dataset, numerics
from fewcache.dataset import (
    Bag,
    Dataset,
    EmbeddingStore,
    SynthSpec,
    class_prototypes,
    load_manifest,
    read_embeddings,
    read_layout,
    save_dataset,
    synth_generate,
    write_embeddings,
)
from fewcache.errors import (
    BadMagicError,
    DegenerateRowError,
    DimensionMismatchError,
    FembError,
    LabelRangeError,
    MissingFileError,
    NonFiniteInputError,
    NonFiniteValueError,
    OverlappingRangesError,
    TruncatedPayloadError,
    UnsupportedVersionError,
)
from fewcache.fusion_eval import binary_auc
from fewcache.numerics import l2_normalize_rows


class TestFembFormat:
    def test_header_and_shape(self, tmp_path, rng):
        rows = rng.normal(size=(2, 3)).astype(np.float32)
        path = write_embeddings(tmp_path / "a.femb", rows)
        store = read_embeddings(path)
        assert (store.n, store.d) == (2, 3)

    def test_round_trip_exact(self, tmp_path, rng):
        rows = rng.normal(size=(17, 5)).astype(np.float32)
        store = read_embeddings(write_embeddings(tmp_path / "a.femb", rows))
        assert np.array_equal(store.rows, rows.astype(np.float64))

    def test_version_2_round_trip_exact(self, tmp_path, rng):
        rows = rng.normal(size=(4, 6))
        store = read_embeddings(write_embeddings(tmp_path / "a.femb", rows, version=2))
        assert np.array_equal(store.rows, rows)

    @pytest.mark.parametrize("version, dtype", [(1, "<f4"), (2, "<f8")])
    @pytest.mark.parametrize("layout", ["contiguous", "strided", "fortran"])
    def test_file_bytes(self, tmp_path, rng, version, dtype, layout):
        rows = rng.normal(size=(5, 6))
        rows = {"contiguous": rows, "strided": rows[::2, 1::2],
                "fortran": np.asfortranarray(rows)}[layout]
        path = write_embeddings(tmp_path / "a.femb", rows, version=version)
        n, d = rows.shape
        expected = struct.pack("<4sIQQ", b"FEMB", version, n, d) + rows.astype(dtype).tobytes()
        assert path.read_bytes() == expected

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.femb"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(BadMagicError):
            read_embeddings(path)

    def test_truncated_payload(self, tmp_path, rng):
        path = write_embeddings(tmp_path / "t.femb", rng.normal(size=(3, 3)).astype(np.float32))
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(TruncatedPayloadError):
            read_embeddings(path)

    def test_trailing_bytes(self, tmp_path, rng):
        path = write_embeddings(tmp_path / "t.femb", rng.normal(size=(3, 3)).astype(np.float32))
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(FembError):
            read_embeddings(path)

    def test_non_finite_payload(self, tmp_path):
        rows = np.array([[np.inf, 1.0]], dtype=np.float32)
        path = write_embeddings(tmp_path / "inf.femb", rows)
        with pytest.raises(NonFiniteValueError):
            read_embeddings(path)

    def test_unknown_version(self, tmp_path, rng):
        path = write_embeddings(tmp_path / "v.femb", rng.normal(size=(1, 2)).astype(np.float32))
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedVersionError):
            read_embeddings(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFileError):
            read_embeddings(tmp_path / "absent.femb")


def _write_manifest_fixture(tmp_path, rng, *, dim=8, n_per_bag=4, labels=(0, 1),
                            instance_labels=True, declared_n=None, bad_label=None):
    entries = []
    for i, label in enumerate(labels):
        rows = rng.normal(size=(n_per_bag, dim)).astype(np.float32)
        write_embeddings(tmp_path / f"bag{i}.femb", rows)
        entry = {
            "id": f"bag{i}",
            "label": int(label) if bad_label is None else bad_label,
            "embeddings": f"bag{i}.femb",
            "n": declared_n if declared_n is not None else n_per_bag,
        }
        if instance_labels:
            with open(tmp_path / f"bag{i}.labels.json", "w") as f:
                json.dump([int(label)] * n_per_bag, f)
            entry["instance_labels"] = f"bag{i}.labels.json"
        entries.append(entry)
    manifest = {"name": "fixture", "dim": dim, "classes": ["neg", "pos"], "bags": entries}
    path = tmp_path / "manifest.json"
    with open(path, "w") as f:
        json.dump(manifest, f)
    return path


class TestManifest:
    def test_load_counts(self, tmp_path, rng):
        path = _write_manifest_fixture(tmp_path, rng)
        ds = load_manifest(path)
        assert len(ds.bags) == 2
        assert ds.num_instances == 8
        assert ds.dim == 8

    def test_rows_normalized_on_load(self, tmp_path, rng):
        ds = load_manifest(_write_manifest_fixture(tmp_path, rng))
        np.testing.assert_allclose(np.linalg.norm(ds.store.rows, axis=1), 1.0, atol=1e-9)

    def test_declared_count_mismatch(self, tmp_path, rng):
        path = _write_manifest_fixture(tmp_path, rng, declared_n=5)
        with pytest.raises(DimensionMismatchError, match="bag0"):
            load_manifest(path)

    def test_label_out_of_range(self, tmp_path, rng):
        path = _write_manifest_fixture(tmp_path, rng, bad_label=3, instance_labels=False)
        with pytest.raises(LabelRangeError, match="bag0"):
            load_manifest(path)

    def test_instance_label_out_of_range(self, tmp_path, rng):
        path = _write_manifest_fixture(tmp_path, rng)
        with open(tmp_path / "bag0.labels.json", "w") as f:
            json.dump([3, 0, 0, 0], f)
        with pytest.raises(LabelRangeError, match="bag0"):
            load_manifest(path)

    def test_missing_embedding_file(self, tmp_path, rng):
        path = _write_manifest_fixture(tmp_path, rng)
        (tmp_path / "bag1.femb").unlink()
        with pytest.raises(MissingFileError):
            load_manifest(path)

    def test_dim_mismatch_across_files(self, tmp_path, rng):
        path = _write_manifest_fixture(tmp_path, rng)
        write_embeddings(tmp_path / "bag1.femb", rng.normal(size=(4, 5)).astype(np.float32))
        with pytest.raises(DimensionMismatchError, match="bag1"):
            load_manifest(path)

    def test_overlapping_ranges_detected(self, rng):
        rows = l2_normalize_rows(rng.normal(size=(6, 4)))
        ds = Dataset(
            name="overlap",
            dim=4,
            classes=["a", "b"],
            bags=[Bag("x", 0, 0, 4), Bag("y", 1, 2, 6)],
            store=EmbeddingStore.from_array(rows),
        )
        with pytest.raises(OverlappingRangesError, match="y"):
            ds.validate()

    def test_save_load_round_trip(self, tmp_path):
        ds = synth_generate(SynthSpec(dim=8, bags_per_class=2, instances_per_bag=5, seed=3))
        manifest = save_dataset(ds, tmp_path / "out")
        ds2 = load_manifest(manifest)
        assert ds2.name == ds.name
        assert ds2.classes == ds.classes
        assert [b.id for b in ds2.bags] == [b.id for b in ds.bags]
        assert [b.label for b in ds2.bags] == [b.label for b in ds.bags]
        for b1, b2 in zip(ds.bags, ds2.bags):
            assert np.array_equal(b1.instance_labels, b2.instance_labels)
        # rows survive the float32 interchange format to ~1e-7
        np.testing.assert_allclose(ds2.store.rows, ds.store.rows, atol=1e-6)

    def test_second_round_trip_stable(self, tmp_path):
        ds = synth_generate(SynthSpec(dim=8, bags_per_class=2, instances_per_bag=5, seed=3))
        m1 = save_dataset(ds, tmp_path / "a")
        ds1 = load_manifest(m1)
        m2 = save_dataset(ds1, tmp_path / "b")
        ds2 = load_manifest(m2)
        assert np.array_equal(ds1.store.rows, ds2.store.rows)


def _write_bags(tmp_path, bags, *, version=1, declared_n=None):
    """Write one FEMB file per row array plus a manifest over them."""
    entries = []
    for i, rows in enumerate(bags):
        write_embeddings(tmp_path / f"bag{i}.femb", rows, version=version)
        n = rows.shape[0] if declared_n is None else declared_n
        entries.append({"id": f"bag{i}", "label": i % 2, "embeddings": f"bag{i}.femb", "n": n})
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"dim": bags[0].shape[1], "classes": ["neg", "pos"],
                                "bags": entries}))
    return path


class TestStreamedLoad:
    """load_manifest fills one preallocated store bag by bag and normalizes
    it in row blocks; the rows equal the whole-store normalization."""

    @pytest.mark.parametrize(
        "version, scale",
        # float32 cannot hold rows small or large enough for the rescaled paths
        [(1, 1.0), (2, 1.0), (2, 2.0**-500), (2, 2.0**600)],
        ids=["v1", "v2", "v2-tiny", "v2-huge"],
    )
    def test_rows_match_whole_store_normalize(self, tmp_path, rng, version, scale):
        bags = [scale * rng.normal(size=(n, 6)) for n in (7, 1, 12, 5)]
        path = _write_bags(tmp_path, bags, version=version)
        files = [tmp_path / f"bag{i}.femb" for i in range(len(bags))]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "_BLOCK_ELEMENTS", 1 << 30)  # the whole store is one block
            expected = l2_normalize_rows(np.concatenate([read_embeddings(f).rows for f in files]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "_BLOCK_ELEMENTS", 4 * 6)  # blocks of 4 rows cross the bags
            ds = load_manifest(path)
        assert ds.store.rows.tobytes() == expected.tobytes()
        assert [(b.start, b.end) for b in ds.bags] == [(0, 7), (7, 8), (8, 20), (20, 25)]

    def test_default_blocks_match_textbook_form(self, tmp_path, rng):
        # 3 x 1500 x 64 entries span two default blocks.
        bags = [rng.normal(size=(1500, 64)) for _ in range(3)]
        ds = load_manifest(_write_bags(tmp_path, bags, version=2))
        store = np.concatenate(bags)
        expected = store / np.linalg.norm(store, axis=1)[:, None]
        assert ds.store.rows.tobytes() == expected.tobytes()

    def test_zero_row_in_later_bag_names_store_row(self, tmp_path, rng):
        bags = [rng.normal(size=(n, 3)) for n in (4, 4, 5)]
        bags[2][3] = 0.0
        path = _write_bags(tmp_path, bags)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "_BLOCK_ELEMENTS", 3 * 3)
            with pytest.raises(DegenerateRowError) as exc:
                load_manifest(path)
        assert exc.value.row == 11

    @pytest.mark.parametrize("header_n", [4, 2**40], ids=["manifest-only", "header-too"])
    def test_huge_declared_count_fails_before_allocating(self, tmp_path, rng, header_n):
        path = _write_bags(tmp_path, [rng.normal(size=(4, 8))], declared_n=2**40)
        femb = tmp_path / "bag0.femb"
        blob = bytearray(femb.read_bytes())
        struct.pack_into("<Q", blob, 8, header_n)
        femb.write_bytes(bytes(blob))
        error = DimensionMismatchError if header_n == 4 else TruncatedPayloadError
        tracemalloc.start()
        try:
            with pytest.raises(error):
                load_manifest(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize(
        "corrupt, error",
        [
            pytest.param(lambda b: b[:-4], TruncatedPayloadError, id="truncated"),
            pytest.param(lambda b: b + b"\x00\x00", FembError, id="trailing-bytes"),
            pytest.param(lambda b: b[:-4] + struct.pack("<f", np.nan), NonFiniteValueError,
                         id="nan"),
            pytest.param(lambda b: b"NOPE" + b[4:], BadMagicError, id="bad-magic"),
            pytest.param(lambda b: b[:4] + struct.pack("<I", 9) + b[8:],
                         UnsupportedVersionError, id="unknown-version"),
            pytest.param(lambda b: b[:10], TruncatedPayloadError, id="short-header"),
        ],
    )
    def test_bad_file_in_later_bag_keeps_its_error(self, tmp_path, rng, corrupt, error):
        path = _write_bags(tmp_path, [rng.normal(size=(3, 4)) for _ in range(3)])
        femb = tmp_path / "bag2.femb"
        femb.write_bytes(corrupt(femb.read_bytes()))
        with pytest.raises(error):
            load_manifest(path)
        with pytest.raises(error):
            read_embeddings(femb)


def _read_all(ds) -> np.ndarray:
    """Every row of a read_layout dataset, read block by block as an
    evaluation reads them (numerics._row_blocks over the store's width)."""
    out = np.empty((ds.num_instances, ds.dim))
    starts = numerics._row_blocks(ds.num_instances, ds.dim)
    buf = np.empty((starts.step, ds.dim))
    for start in starts:
        stop = min(start + starts.step, ds.num_instances)
        out[start:stop] = ds.store._read(start, stop, buf)
    return out


class TestLayout:
    """read_layout checks what load_manifest checks but holds no rows; its
    store reads them block by block, across bag files, as the same bits."""

    @pytest.mark.parametrize(
        "version, scale",
        [(1, 1.0), (2, 1.0), (2, 2.0**-500), (2, 2.0**600)],
        ids=["v1", "v2", "v2-tiny", "v2-huge"],
    )
    def test_blocks_match_load_manifest(self, tmp_path, rng, version, scale):
        bags = [scale * rng.normal(size=(n, 6)) for n in (7, 1, 12, 5)]
        path = _write_bags(tmp_path, bags, version=version)
        loaded = load_manifest(path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "_BLOCK_ELEMENTS", 4 * 6)  # blocks of 4 rows cross the bags
            layout = read_layout(path)
            rows = _read_all(layout)
        assert rows.tobytes() == loaded.store.rows.tobytes()
        # load_manifest reads through the same FembStore, so also compare
        # with the whole store read at once and normalized as one block.
        files = [tmp_path / f"bag{i}.femb" for i in range(len(bags))]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "_BLOCK_ELEMENTS", 1 << 30)
            expected = l2_normalize_rows(np.concatenate([read_embeddings(f).rows for f in files]))
        assert rows.tobytes() == expected.tobytes()
        assert [(b.start, b.end) for b in layout.bags] == [(b.start, b.end) for b in loaded.bags]
        assert layout.num_instances == loaded.num_instances == 25
        picked = np.array([24, 0, 7, 7, 19])
        assert layout.store.take(picked).tobytes() == loaded.store.take(picked).tobytes()

    def test_take_opens_each_bag_once(self, tmp_path, rng, monkeypatch):
        bags = [rng.normal(size=(n, 6)) for n in (7, 1, 12, 5)]  # rows end at 7, 8, 20, 25
        path = _write_bags(tmp_path, bags, version=2)
        layout = read_layout(path)
        # Shuffled rows of bags 0, 2 and 3 with repeats, then rows 9..15 of
        # bag 2, then rows 18..22, which cross from bag 2 into bag 3.
        picked = np.concatenate([[24, 0, 19, 3, 3, 20, 8, 24, 11], np.arange(9, 16),
                                 np.arange(18, 23)])
        expected = load_manifest(path).store.take(picked)
        opened, reads = [], []

        class CountingFile:
            """A bag file that records the row count of each read."""

            def __init__(self, f, name):
                self.f, self.name = f, name

            def __getattr__(self, attr):
                return getattr(self.f, attr)

            def readinto(self, buf):
                reads.append((self.name, len(buf)))
                return self.f.readinto(buf)

        @contextmanager
        def counting_header(femb):
            opened.append(femb.name)
            with header(femb) as (f, dtype, n, d):
                yield CountingFile(f, femb.name), dtype, n, d

        header = dataset._femb_header
        monkeypatch.setattr(dataset, "_femb_header", counting_header)
        assert layout.store.take(picked).tobytes() == expected.tobytes()
        assert sorted(opened) == ["bag0.femb", "bag2.femb", "bag3.femb"]
        runs = {"bag0.femb": [1, 1, 1], "bag2.femb": [1, 1, 1, 7, 2], "bag3.femb": [1, 1, 1, 3]}
        assert sorted(reads) == sorted((name, n) for name, ns in runs.items() for n in ns)

        opened.clear()
        reads.clear()
        none = layout.store.take(np.empty(0, dtype=np.int64))
        assert none.shape == (0, 6) and none.dtype == expected.dtype
        assert opened == reads == []

    def test_labels_and_layout_match_load_manifest(self, tmp_path, rng):
        path = _write_manifest_fixture(tmp_path, rng)
        layout, loaded = read_layout(path), load_manifest(path)
        assert (layout.name, layout.dim, layout.classes) == (
            loaded.name, loaded.dim, loaded.classes)
        assert np.array_equal(layout.instance_labels_vector(), loaded.instance_labels_vector())
        assert np.array_equal(layout.bag_labels(), loaded.bag_labels())

    @pytest.mark.parametrize(
        "corrupt, error",
        [
            pytest.param(lambda b: b[:-4], TruncatedPayloadError, id="truncated"),
            pytest.param(lambda b: b + b"\x00\x00", FembError, id="trailing-bytes"),
            pytest.param(lambda b: b"NOPE" + b[4:], BadMagicError, id="bad-magic"),
            pytest.param(lambda b: b[:4] + struct.pack("<I", 9) + b[8:],
                         UnsupportedVersionError, id="unknown-version"),
            pytest.param(lambda b: b[:10], TruncatedPayloadError, id="short-header"),
            pytest.param(lambda b: b[:8] + struct.pack("<QQ", 4, 3) + b[24:],
                         DimensionMismatchError, id="other-dim"),
        ],
    )
    def test_bad_header_in_last_bag_fails_the_layout(self, tmp_path, rng, corrupt, error):
        path = _write_bags(tmp_path, [rng.normal(size=(3, 4)) for _ in range(3)])
        femb = tmp_path / "bag2.femb"
        femb.write_bytes(corrupt(femb.read_bytes()))
        with pytest.raises(error):
            load_manifest(path)
        with pytest.raises(error):
            read_layout(path)

    def test_label_errors_fail_the_layout(self, tmp_path, rng):
        path = _write_manifest_fixture(tmp_path, rng)
        with open(tmp_path / "bag1.labels.json", "w") as f:
            json.dump([0, 0, 2, 0], f)
        with pytest.raises(LabelRangeError, match="bag1"):
            read_layout(path)
        (tmp_path / "bag1.labels.json").unlink()
        with pytest.raises(MissingFileError, match="bag1"):
            read_layout(path)

    def test_nan_in_last_bag_fails_its_block(self, tmp_path, rng):
        bags = [rng.normal(size=(4, 3)) for _ in range(3)]
        bags[2][3, 1] = np.nan
        layout = read_layout(_write_bags(tmp_path, bags))
        buf = np.empty((12, 3))
        layout.store._read(0, 8, buf)  # the first two bags read fine
        with pytest.raises(NonFiniteValueError, match="bag2.femb"):
            layout.store._read(6, 12, buf)
        with pytest.raises(NonFiniteValueError, match="bag2.femb"):
            layout.store.take(np.array([11, 0]))

    def test_zero_row_names_store_row(self, tmp_path, rng):
        bags = [rng.normal(size=(n, 3)) for n in (4, 4, 5)]
        bags[2][3] = 0.0
        layout = read_layout(_write_bags(tmp_path, bags))
        with pytest.raises(DegenerateRowError) as exc:
            layout.store._read(6, 13, np.empty((7, 3)))
        assert exc.value.row == 11
        with pytest.raises(DegenerateRowError) as exc:
            layout.store.take(np.array([12, 0, 11, 11]))
        assert exc.value.row == 11

    def test_layout_reads_no_rows(self, tmp_path, rng):
        # 8 bags of 512 x 64 float32 rows: a 2 MiB float64 store.
        path = _write_bags(tmp_path, [rng.normal(size=(512, 64)) for _ in range(8)])
        tracemalloc.start()
        try:
            layout = read_layout(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert layout.num_instances == 4096
        assert peak < 64 * 1024


def reference_synth(spec: SynthSpec) -> tuple[np.ndarray, list[Bag]]:
    """The generator as one chunk per bag joined by np.concatenate: the
    store bytes and bags `synth_generate` must reproduce."""
    rng = np.random.default_rng(spec.seed)
    protos = class_prototypes(spec.num_classes, spec.dim)
    n_pos = math.ceil(spec.positive_fraction * spec.instances_per_bag)
    chunks, bags, cursor = [], [], 0
    for c in range(spec.num_classes):
        for b in range(spec.bags_per_class):
            labels = np.zeros(spec.instances_per_bag, dtype=np.int64)
            labels[:n_pos] = c
            x = protos[labels]
            if spec.noise_sigma > 0.0:
                x = x + spec.noise_sigma * rng.standard_normal((spec.instances_per_bag, spec.dim))
            chunks.append(l2_normalize_rows(x))
            bags.append(Bag(f"c{c}_b{b}", c, cursor, cursor + spec.instances_per_bag, labels))
            cursor += spec.instances_per_bag
    return np.concatenate(chunks, axis=0), bags


# Zero noise, noise below 1e-300, noise whose squares overflow (rows take
# the rescaled normalize path), one-row bags and four classes.
ORACLE_SPECS = [
    pytest.param(dict(noise_sigma=0.0), id="noiseless"),
    pytest.param(dict(noise_sigma=1e-300), id="tiny-noise"),
    pytest.param(dict(noise_sigma=1e160), id="overflowing-squares"),
    pytest.param(dict(instances_per_bag=1, bags_per_class=5), id="one-row-bags"),
    pytest.param(dict(num_classes=4, dim=16, noise_sigma=0.6, seed=3), id="four-classes"),
]


class TestSynthGenerate:
    @pytest.mark.parametrize("overrides", ORACLE_SPECS)
    def test_matches_per_bag_reference(self, overrides):
        spec = SynthSpec(**{"dim": 8, "bags_per_class": 3, "instances_per_bag": 20,
                            "noise_sigma": 0.3, "seed": 9, **overrides})
        rows, bags = reference_synth(spec)
        ds = synth_generate(spec)
        assert ds.store.rows.tobytes() == rows.tobytes()
        assert [(b.id, b.label, b.start, b.end) for b in ds.bags] == [
            (b.id, b.label, b.start, b.end) for b in bags]
        for got, want in zip(ds.bags, bags):
            assert got.instance_labels.tobytes() == want.instance_labels.tobytes()

    def test_overflowing_squares_take_rescaled_path(self):
        spec = SynthSpec(dim=8, bags_per_class=1, instances_per_bag=4, noise_sigma=1e160)
        noisy = 1e160 * np.random.default_rng(spec.seed).standard_normal((4, 8))
        with np.errstate(over="ignore"):
            assert np.isinf(np.add.reduce(noisy * noisy, axis=1)).all()
        np.testing.assert_allclose(np.linalg.norm(synth_generate(spec).store.rows, axis=1), 1.0)

    def test_overflowing_noise_raises(self):
        # No RuntimeWarning on the way: the suite turns one into an error.
        with pytest.raises(NonFiniteInputError, match="normalize input contains NaN or infinity"):
            synth_generate(SynthSpec(noise_sigma=1e308))

    def test_zero_noise_hits_prototypes(self):
        spec = SynthSpec(
            num_classes=3, dim=5, bags_per_class=2, instances_per_bag=4,
            positive_fraction=1.0, noise_sigma=0.0, seed=1,
        )
        ds = synth_generate(spec)
        protos = class_prototypes(3, 5)
        for bag in ds.bags:
            rows = ds.store.rows[bag.start : bag.end]
            assert np.array_equal(rows, np.tile(protos[bag.label], (4, 1)))

    def test_deterministic(self):
        spec = SynthSpec(seed=7, bags_per_class=2, instances_per_bag=10)
        a = synth_generate(spec)
        b = synth_generate(spec)
        assert np.array_equal(a.store.rows, b.store.rows)
        assert [bag.id for bag in a.bags] == [bag.id for bag in b.bags]

    def test_positive_fraction_counts(self):
        spec = SynthSpec(
            num_classes=2, dim=8, bags_per_class=1, instances_per_bag=10,
            positive_fraction=0.25, noise_sigma=0.1, seed=2,
        )
        ds = synth_generate(spec)
        pos_bag = [b for b in ds.bags if b.label == 1][0]
        assert int((pos_bag.instance_labels == 1).sum()) == 3  # ceil(0.25 * 10)

    def test_validates_and_unit_norm(self, small_dataset):
        small_dataset.validate()
        norms = np.linalg.norm(small_dataset.store.rows, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_bayes_oracle_auc_on_large_draw(self):
        # nearest-prototype scores must be near-perfect at sigma 0.15
        spec = SynthSpec(
            num_classes=2, dim=32, bags_per_class=25, instances_per_bag=200,
            positive_fraction=0.2, noise_sigma=0.15, seed=11,
        )
        ds = synth_generate(spec)
        labels = ds.instance_labels_vector()
        protos = class_prototypes(2, 32)
        scores = ds.store.rows @ (protos[1] - protos[0])
        auc = binary_auc(scores, labels == 1)
        assert ds.num_instances == 10000
        assert auc >= 0.999

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            SynthSpec(positive_fraction=0.0)
        with pytest.raises(ValueError):
            SynthSpec(num_classes=4, dim=2)
        with pytest.raises(ValueError, match="noise_sigma must be >= 0"):
            SynthSpec(noise_sigma=-0.6)
