"""Data model and I/O for embedding-level datasets, and the file formats.

A dataset is a list of bags (one per slide/source), each owning a
contiguous row range of a shared embedding store, plus optional
per-instance labels. All rows are L2-normalized as they are read: every
consumer compares features by cosine/dot product, so the contract is
centralized here.

Memory contract: every command opens a manifest with `read_layout`,
which checks every FEMB header against the manifest, then the labels,
and allocates no rows. Its dataset's `FembStore` reads rows on demand
and normalizes and checks them in place: `take` reads the rows a caller
names, one call per run of rows that lie consecutive in one bag file,
and `_read` reads one row block (numerics._BLOCK_ELEMENTS) of a blocked
pass. Every row is normalized on its own, so neither runs nor blocks
change a bit. So a command holds the bags and labels, the rows it takes
and one block per reader, never the store, and it sees a NaN only in a
row it reads; `check_rows` reads every row once, one block at a time.
`load_manifest`, the in-memory reference, allocates the float64 store
once and fills it through that FembStore one bag at a time, so it holds
the store, plus one bag in its file's width (none for a float64 file,
read straight into the store), plus one block. `synth_generate` keeps
the same rule for the bags it draws.

File formats, each with the error a bad file raises. The CLI prints it
as one stderr line and exits 1; usage errors (bad flag, missing file
named in a config, malformed config) exit 2. Each JSON format is a
dataclass decoded by codec.from_doc, so a file that cannot be read, is
not JSON, or has a missing or unknown key or a wrongly typed value fails.

* FEMB (FembError): magic b"FEMB", little-endian u32 version (1 = float32,
  the interchange format for encoder dumps; 2 = float64, so checkpoints
  round-trip exactly), u64 rows n, u64 columns d, n*d row-major values.
* manifest.json (ManifestDoc; ManifestFormatError, or another
  ManifestError for a missing file or a count or label that does not
  fit): {"name"?, "dim", "classes", "bags": [{"id", "label", "embeddings":
  relpath, "n", "instance_labels"?: relpath to a JSON array of n ints}]}
* split.json (sampler.SplitDoc; SplitError, also for rows or classes
  outside the dataset): {"version": 1, "selected_bags", "labeled":
  [[row, class]], "unlabeled_core", "seed", "flags"}
* checkpoint.json beside FEMB v2 matrices (trainer.CheckpointDoc;
  CorruptCheckpointError, or CheckpointVersionError if version != 1):
  {"version", "cache": {"beta", "frozen_mask", "classes"}, "prior":
  {"mode", "tau", "classes", and in toy-encoder mode "tokens_per_class",
  "learnable_per_class"}}

A prompt-feature file is a FEMB file of one d-wide row per class
(encoders.read_prompt_features); a file of another shape raises
DimensionConflictError.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import groupby
from pathlib import Path
from typing import BinaryIO, Iterator, Optional

import numpy as np

from .codec import OMIT_NONE, from_doc, read_json, to_doc
from .errors import (
    BadMagicError,
    DegenerateRowError,
    DimensionMismatchError,
    FembError,
    LabelRangeError,
    ManifestFormatError,
    MissingFileError,
    NonFiniteValueError,
    OverlappingRangesError,
    TruncatedPayloadError,
    UnsupportedVersionError,
)
from .numerics import REAL, _all_finite, _l2_normalize_rows, _row_blocks, as_matrix

FEMB_MAGIC = b"FEMB"
_FEMB_HEADER = struct.Struct("<4sIQQ")
_FEMB_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}


@dataclass
class EmbeddingStore:
    """Row-major matrix of instance feature vectors, one row per instance."""

    n: int
    d: int
    rows: np.ndarray

    @classmethod
    def from_array(cls, rows: np.ndarray) -> "EmbeddingStore":
        a = np.asarray(rows, dtype=REAL)
        return cls(n=a.shape[0], d=a.shape[1], rows=a)

    def _read(self, start: int, stop: int, out: np.ndarray | None) -> np.ndarray:
        """Rows [start, stop): a view of the store; `out` is not used."""
        return self.rows[start:stop]

    def take(self, rows: np.ndarray) -> np.ndarray:
        """A copy of the given rows, in order."""
        return self.rows[rows]


@dataclass
class FembStore:
    """The rows of a manifest's bag files, read on demand (`read_layout`).

    `files[i]` holds rows [ends[i - 1], ends[i]) (from 0 for i = 0); its
    header was checked against the manifest when the layout was read.
    """

    n: int
    d: int
    files: list[Path]
    ends: list[int]

    def _read(self, start: int, stop: int, out: np.ndarray) -> np.ndarray:
        """Rows [start, stop) into out[: stop - start]; returns that view."""
        lo, hi = bisect.bisect_right(self.ends, start), bisect.bisect_left(self.ends, stop)
        cuts = [0, *(end - start for end in self.ends[lo:hi]), stop - start]
        runs = zip(range(lo, hi + 1), cuts, cuts[1:])
        return self._gather(range(start, stop), out[: stop - start], runs)

    def take(self, rows: np.ndarray) -> np.ndarray:
        """The given rows, in order. Each run of them that also lies
        consecutive in one bag file is read with one call."""
        bags = np.searchsorted(self.ends, rows, side="right")
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (np.diff(rows) != 1) | (np.diff(bags) != 0)
        starts = np.flatnonzero(first)
        stops = np.append(starts[1:], len(rows))
        runs = sorted(zip(bags[starts].tolist(), starts.tolist(), stops.tolist()))
        return self._gather(rows, np.empty((len(rows), self.d), dtype=REAL), runs)

    def _gather(self, rows, out: np.ndarray, runs) -> np.ndarray:
        """`rows` into `out`, each normalized on its own and checked to unit
        norm; returns `out`. `runs` are (bag file, start, stop) slices of
        `out`, grouped by file, whose rows lie consecutive in that file: each
        file is opened once and each run read with one call. Raises
        NonFiniteValueError naming the file of a NaN or infinity,
        DegenerateRowError naming a zero row's store row."""
        for i, runs_in_file in groupby(runs, key=lambda run: run[0]):
            path, first = self.files[i], self.ends[i - 1] if i else 0
            with _femb_header(path) as (f, dtype, _, _):
                payload = f.tell()
                for _, a, b in runs_in_file:
                    chunk = out[a:b]
                    raw = chunk if dtype == chunk.dtype else np.empty(chunk.shape, dtype=dtype)
                    f.seek(payload + (int(rows[a]) - first) * raw.itemsize * self.d)
                    f.readinto(raw)
                    chunk[...] = raw  # skipped by numpy when raw is chunk
                    if not _all_finite(chunk):
                        raise NonFiniteValueError(f"{path}: payload contains NaN or infinity")
        try:
            _l2_normalize_rows(out, out=out)
        except DegenerateRowError as exc:
            raise DegenerateRowError(int(rows[exc.row])) from None
        _check_unit_norm(out)
        return out


# A dataset's rows, held in memory or read from its bag files.
Store = EmbeddingStore | FembStore


def _check_unit_norm(rows: np.ndarray) -> None:
    """Raise DimensionMismatchError unless every row has unit norm;
    checked one row block at a time."""
    starts = _row_blocks(rows.shape[0], rows.shape[1])
    for start in starts:
        norms = np.linalg.norm(rows[start : start + starts.step], axis=1)
        if np.abs(norms - 1.0).max() > 1e-9:
            raise DimensionMismatchError("store rows are not unit-norm")


@dataclass
class Bag:
    """One bag: identity, bag label, and a row range into the store."""

    id: str
    label: int
    start: int
    end: int
    instance_labels: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return self.end - self.start


@dataclass
class Dataset:
    name: str
    dim: int
    classes: list[str]
    bags: list[Bag]
    store: Store

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def num_instances(self) -> int:
        return self.store.n

    def validate(self) -> None:
        """Check structural invariants; raises a ManifestError subclass.
        A FembStore's rows are checked as they are read."""
        if len(self.classes) < 2:
            raise LabelRangeError(f"dataset {self.name!r} needs >= 2 classes")
        if self.store.d != self.dim:
            raise DimensionMismatchError(
                f"store dim {self.store.d} != declared dim {self.dim}"
            )
        prev_end = 0
        for bag in sorted(self.bags, key=lambda b: b.start):
            if bag.end <= bag.start:
                raise DimensionMismatchError(f"bag {bag.id!r} has empty range")
            if bag.start < prev_end:
                raise OverlappingRangesError(f"bag {bag.id!r} overlaps a previous bag")
            prev_end = bag.end
            if bag.end > self.store.n:
                raise DimensionMismatchError(
                    f"bag {bag.id!r} range exceeds store rows ({self.store.n})"
                )
            if not 0 <= bag.label < self.num_classes:
                raise LabelRangeError(f"bag {bag.id!r} label {bag.label} out of range")
            if bag.instance_labels is not None:
                if len(bag.instance_labels) != bag.n:
                    raise DimensionMismatchError(
                        f"bag {bag.id!r} has {len(bag.instance_labels)} instance labels "
                        f"for {bag.n} instances"
                    )
                lo, hi = int(bag.instance_labels.min()), int(bag.instance_labels.max())
                if lo < 0 or hi >= self.num_classes:
                    raise LabelRangeError(
                        f"bag {bag.id!r} instance label out of range [0, {self.num_classes})"
                    )
        if isinstance(self.store, EmbeddingStore):
            _check_unit_norm(self.store.rows)

    def instance_labels_vector(self) -> np.ndarray:
        """Per-instance labels over the whole store; -1 where unknown."""
        out = np.full(self.store.n, -1, dtype=np.int64)
        for bag in self.bags:
            if bag.instance_labels is not None:
                out[bag.start : bag.end] = bag.instance_labels
        return out

    def bag_labels(self) -> np.ndarray:
        return np.array([b.label for b in self.bags], dtype=np.int64)


# --- FEMB binary format -------------------------------------------------


def write_embeddings(path, rows: np.ndarray, version: int = 1) -> Path:
    """Write a matrix as a FEMB file; version selects the payload width."""
    if version not in _FEMB_DTYPES:
        raise UnsupportedVersionError(f"cannot write FEMB version {version}")
    a = np.ascontiguousarray(np.asarray(rows), dtype=_FEMB_DTYPES[version])
    if a.ndim != 2:
        raise DimensionMismatchError(f"embeddings must be 2-d, got shape {a.shape}")
    path = Path(path)
    with open(path, "wb") as f:
        f.write(_FEMB_HEADER.pack(FEMB_MAGIC, version, a.shape[0], a.shape[1]))
        f.write(a)  # the contiguous array's own buffer, not a bytes copy
    return path


@contextmanager
def _femb_header(path: Path) -> Iterator[tuple[BinaryIO, np.dtype, int, int]]:
    """Open a FEMB file and check its header and size; yields the file at
    the payload with (payload dtype, n, d).

    Reads the header only, so a header that promises more rows than the
    file holds fails before anything is allocated for them.
    """
    try:
        f = open(path, "rb")
    except FileNotFoundError:
        raise MissingFileError(f"embedding file not found: {path}") from None
    with f:
        head = f.read(_FEMB_HEADER.size)
        if len(head) < _FEMB_HEADER.size:
            raise TruncatedPayloadError(f"{path}: shorter than the FEMB header")
        magic, version, n, d = _FEMB_HEADER.unpack(head)
        if magic != FEMB_MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}")
        if version not in _FEMB_DTYPES:
            raise UnsupportedVersionError(f"{path}: unknown FEMB version {version}")
        dtype = _FEMB_DTYPES[version]
        expected = n * d * dtype.itemsize
        payload = os.fstat(f.fileno()).st_size - _FEMB_HEADER.size
        if payload < expected:
            raise TruncatedPayloadError(
                f"{path}: payload holds {payload} bytes, header promises {expected}"
            )
        if payload > expected:
            raise FembError(f"{path}: {payload - expected} trailing bytes after payload")
        yield f, dtype, n, d


def read_embeddings(path) -> EmbeddingStore:
    """Read a FEMB file bit-exactly, widening the payload to REAL."""
    path = Path(path)
    with _femb_header(path) as (f, dtype, n, d):
        raw = np.empty((n, d), dtype=dtype)
        f.readinto(raw)
    a = raw.astype(REAL, copy=False)
    if not _all_finite(a):
        raise NonFiniteValueError(f"{path}: payload contains NaN or infinity")
    return EmbeddingStore.from_array(a)


# --- manifest load/save ---------------------------------------------------


@dataclass
class BagEntry:
    id: str
    label: int
    embeddings: str
    n: int
    instance_labels: Optional[str] = field(default=None, metadata=OMIT_NONE)


@dataclass(kw_only=True)
class ManifestDoc:
    name: Optional[str] = None  # default: the manifest's file stem
    dim: int
    classes: list[str]
    bags: list[BagEntry]


def load_manifest(path) -> Dataset:
    """Load and fully validate a dataset manifest into memory; rows are
    L2-normalized. The reference the layout path is compared against.

    Checked as `read_layout` checks it; its FembStore then reads each bag
    into one float64 store, normalized and checked."""
    ds = read_layout(path)
    rows = np.empty((ds.num_instances, ds.dim), dtype=REAL)
    for bag in ds.bags:
        ds.store._read(bag.start, bag.end, rows[bag.start :])
    ds.store = EmbeddingStore.from_array(rows)
    return ds


def read_layout(path) -> Dataset:
    """A manifest's bags and labels, checked in this order: every bag
    file's header against the manifest, then every label file, then
    `Dataset.validate`. Its FembStore reads the rows on demand."""
    path = Path(path)
    if not path.exists():
        raise MissingFileError(f"manifest not found: {path}")
    doc = from_doc(ManifestDoc, read_json(path, ManifestFormatError), ManifestFormatError)
    files = [path.parent / entry.embeddings for entry in doc.bags]
    for entry, file in zip(doc.bags, files):
        with _femb_header(file) as (_, _, n, d):
            if d != doc.dim:
                raise DimensionMismatchError(
                    f"bag {entry.id!r}: embedding dim {d} != manifest dim {doc.dim}"
                )
            if n != entry.n:
                raise DimensionMismatchError(
                    f"bag {entry.id!r}: file holds {n} rows, manifest declares {entry.n}"
                )
    bags: list[Bag] = []
    cursor = 0
    for entry in doc.bags:
        labels = None
        if entry.instance_labels:
            lpath = path.parent / entry.instance_labels
            if not lpath.exists():
                raise MissingFileError(f"bag {entry.id!r}: label file not found: {lpath}")
            raw = from_doc(list[int], read_json(lpath, ManifestFormatError), ManifestFormatError)
            labels = np.asarray(raw, dtype=np.int64)
        bags.append(Bag(entry.id, entry.label, cursor, cursor + entry.n, labels))
        cursor += entry.n
    ds = Dataset(
        name=path.stem if doc.name is None else doc.name,
        dim=doc.dim,
        classes=doc.classes,
        bags=bags,
        store=FembStore(cursor, doc.dim, files, [bag.end for bag in bags]),
    )
    ds.validate()
    return ds


def check_rows(store: FembStore) -> None:
    """Read every row of `store` once, one row block at a time into one
    buffer, so a NaN, an infinity or a zero row raises now, in row order."""
    starts = _row_blocks(store.n, store.d)
    block = np.empty((min(starts.step, store.n), store.d), dtype=REAL)
    for start in starts:
        store._read(start, min(start + starts.step, store.n), block)


def save_dataset(dataset: Dataset, out_dir) -> Path:
    """Write manifest + per-bag FEMB/label files; returns the manifest path."""
    out = Path(out_dir)
    (out / "embeddings").mkdir(parents=True, exist_ok=True)
    entries = []
    for bag in dataset.bags:
        entry = BagEntry(bag.id, int(bag.label), f"embeddings/{bag.id}.femb", int(bag.n))
        write_embeddings(out / entry.embeddings, dataset.store.rows[bag.start : bag.end])
        if bag.instance_labels is not None:
            entry.instance_labels = f"embeddings/{bag.id}.labels.json"
            with open(out / entry.instance_labels, "w") as f:
                json.dump([int(x) for x in bag.instance_labels], f)
        entries.append(entry)
    doc = ManifestDoc(name=dataset.name, dim=dataset.dim, classes=dataset.classes, bags=entries)
    manifest_path = out / "manifest.json"
    with open(manifest_path, "w") as f:
        json.dump(to_doc(doc), f, indent=2)
    return manifest_path


# --- synthetic generator ---------------------------------------------------


@dataclass(frozen=True)
class SynthSpec:
    """Desk-scale synthetic stand-in for encoder dumps of real slides.

    Class c's prototype is the c-th standard basis vector; each instance
    is prototype + N(0, sigma^2 I), unit-normalized. A class-c bag holds
    ceil(positive_fraction * instances_per_bag) class-c instances and
    fills the rest with class-0 background, matching the rare-positive
    regime of slide patch data.
    """

    num_classes: int = 2
    dim: int = 32
    bags_per_class: int = 16
    instances_per_bag: int = 200
    positive_fraction: float = 0.2
    noise_sigma: float = 0.15
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.positive_fraction <= 1.0:
            raise ValueError("positive_fraction must be in (0, 1]")
        if self.dim < self.num_classes:
            raise ValueError("dim must be >= num_classes")
        if self.num_classes < 2 or self.bags_per_class < 1 or self.instances_per_bag < 1:
            raise ValueError("num_classes >= 2, bags_per_class >= 1, instances_per_bag >= 1")
        if not self.noise_sigma >= 0.0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


def class_prototypes(num_classes: int, dim: int) -> np.ndarray:
    """Orthonormal class prototypes: the first num_classes basis vectors."""
    protos = np.zeros((num_classes, dim), dtype=REAL)
    protos[np.arange(num_classes), np.arange(num_classes)] = 1.0
    return protos


def synth_generate(spec: SynthSpec) -> Dataset:
    """Deterministic synthetic dataset; a pure function of the spec.

    Memory contract: the float64 store is allocated once, and each bag is
    drawn (one `standard_normal` per bag, in bag order), checked finite
    and normalized into its own slice of it, one row block at a time. So
    a generation holds the store and the instance labels, plus one bag's
    rows, plus one block. A noise that overflows raises
    NonFiniteInputError.
    """
    rng = np.random.default_rng(spec.seed)
    protos = class_prototypes(spec.num_classes, spec.dim)
    n, n_pos = spec.instances_per_bag, math.ceil(spec.positive_fraction * spec.instances_per_bag)
    rows = np.empty((spec.num_classes * spec.bags_per_class * n, spec.dim), dtype=REAL)
    x = np.empty((n, spec.dim), dtype=REAL)  # one bag's rows before normalizing
    bags: list[Bag] = []
    for c in range(spec.num_classes):
        for b in range(spec.bags_per_class):
            start = len(bags) * n
            out = rows[start : start + n]
            labels = np.zeros(n, dtype=np.int64)
            labels[:n_pos] = c
            np.take(protos, labels, axis=0, out=x, mode="clip")  # "raise" buffers a copy
            if spec.noise_sigma > 0.0:
                # The noise is drawn into the bag's slice of the store,
                # which the normalized rows overwrite below.
                noise = rng.standard_normal(out=out)
                with np.errstate(over="ignore"):  # as_matrix rejects the inf
                    noise *= spec.noise_sigma
                x += noise
            _l2_normalize_rows(as_matrix(x, "normalize input"), out=out)
            bags.append(Bag(f"c{c}_b{b}", c, start, start + n, labels))
    ds = Dataset(
        name=f"synth_n{spec.num_classes}_d{spec.dim}_s{spec.seed}",
        dim=spec.dim,
        classes=[f"class_{c}" for c in range(spec.num_classes)],
        bags=bags,
        store=EmbeddingStore.from_array(rows),
    )
    ds.validate()
    return ds
