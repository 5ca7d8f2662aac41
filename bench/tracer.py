"""Spans and counts around the public functions of every fewcache module.

The benchmark's own files do the tracing; ``src/`` is untouched. Each public
function is wrapped once and the wrapper is bound in place of the original at
every module that holds it (``retrieve``, say, is bound in ``cli``, ``harness``
and ``cache_branch``), so calls made through any import are recorded.
``install`` and ``uninstall`` swap the bindings, so one process can alternate
traced and untraced operations.

Spans stay in memory as ``(op, id, parent, name, start, end)`` and are written
out when the run ends. Counts are exact: they are computed from the arguments
and results of the wrapped calls (byte counts from array sizes, not measured).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import threading
import time
from collections import defaultdict

MODULES = (
    "cli", "harness", "encoders", "dataset", "sampler", "cache_branch",
    "prior_branch", "trainer", "numerics", "fusion_eval",
)

# Called thousands of times per training run: counted, not spanned.
COUNT_ONLY = {"numerics.as_matrix"}

# Spans whose resident-set growth is sampled while they run.
MEMORY = {"cache_branch.retrieve", "dataset.load_manifest"}

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * _PAGE


def _arg(fn_sig, args, kwargs, name, position):
    try:
        return fn_sig.bind(*args, **kwargs).arguments[name]
    except (TypeError, KeyError):
        return args[position]


def _count_kmeans(counts, sig, args, kwargs, result):
    n = len(_arg(sig, args, kwargs, "points", 0))
    k = int(_arg(sig, args, kwargs, "k", 1))
    counts["sampler.kmeans.iters"] += result.n_iter
    counts["sampler.kmeans.work"] += n * k * result.n_iter


def _count_retrieve(counts, sig, args, kwargs, result):
    m = len(_arg(sig, args, kwargs, "queries", 1))
    n_cache = _arg(sig, args, kwargs, "model", 0).keys.shape[0]
    counts["cache_branch.retrieve.rows"] += m
    counts["cache_branch.retrieve.attention_bytes"] += m * n_cache * 8


def _count_load_manifest(counts, sig, args, kwargs, result):
    counts["dataset.load_manifest.bytes"] += result.store.rows.nbytes


def _count_train(counts, sig, args, kwargs, result):
    counts["trainer.train.steps"] += result[2].step


COUNTERS = {
    "sampler.kmeans": _count_kmeans,
    "cache_branch.retrieve": _count_retrieve,
    "dataset.load_manifest": _count_load_manifest,
    "trainer.train": _count_train,
}


class _RssSampler:
    """Polls this process's RSS while a memory-tracked span is open."""

    def __init__(self, interval: float = 0.001):
        self.interval = interval
        self.peak = 0
        self._open = threading.Event()
        self._stop = False
        self._depth = 0
        self._lock = threading.Lock()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while not self._stop:
            if not self._open.wait(0.05):
                continue
            rss = rss_bytes()
            with self._lock:
                self.peak = max(self.peak, rss)
            time.sleep(self.interval)

    def enter(self) -> tuple[int, int]:
        start = rss_bytes()
        with self._lock:
            saved, self.peak = self.peak, start
            self._depth += 1
        self._open.set()
        return start, saved

    def exit(self, start: int, saved: int) -> float:
        end = rss_bytes()
        with self._lock:
            peak = max(self.peak, end)
            self.peak = max(saved, peak)
            self._depth -= 1
            if self._depth == 0:
                self._open.clear()
        return (peak - start) / 2**20

    def close(self):
        self._stop = True
        self._open.set()
        self._thread.join(timeout=5)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.rss_delta_mb: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._sampler = _RssSampler()
        self._bindings: list[tuple] = []
        modules = [importlib.import_module(f"fewcache.{m}") for m in MODULES]
        modules.append(importlib.import_module("fewcache"))
        for mod in modules[:-1]:
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{mod.__name__.split('.')[-1]}.{attr}", fn)
                for holder in modules:
                    for name, value in vars(holder).items():
                        if value is fn:
                            self._bindings.append((holder, name, fn, wrapper))

    def _wrap(self, name, fn):
        counts = self.counts
        if name in COUNT_ONLY:
            key = f"{name}.calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted

        counter = COUNTERS.get(name)
        sig = inspect.signature(fn)
        memory = name in MEMORY
        spans, stack, sampler = self.spans, self._stack, self._sampler

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            if memory:
                mem = sampler.enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((self.op, sid, parent, name, start, end))
                if memory:
                    delta = sampler.exit(*mem)
                    self.rss_delta_mb[name] = max(self.rss_delta_mb[name], delta)
            if counter is not None:
                counter(counts, sig, args, kwargs, result)
            return result
        return spanned

    def install(self):
        for holder, name, _, wrapper in self._bindings:
            setattr(holder, name, wrapper)

    def uninstall(self):
        for holder, name, original, _ in self._bindings:
            setattr(holder, name, original)

    def close(self):
        self.uninstall()
        self._sampler.close()

    def summary(self, n_ops: int) -> dict:
        """Per-operation means: ``<name>.calls``, ``.s``, ``.self_s``, the
        counts, and ``.rss_delta_mb`` as the largest growth of any one call."""
        child = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for _, sid, _, name, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[sid]
        out = {}
        for name in sorted(calls):
            out[f"{name}.calls"] = calls[name] / n_ops
            out[f"{name}.s"] = total[name] / n_ops
            out[f"{name}.self_s"] = own[name] / n_ops
        for key, value in self.counts.items():
            out[key] = value / n_ops
        for name, value in self.rss_delta_mb.items():
            out[f"{name}.rss_delta_mb"] = value
        return out

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as f:
            json.dump({"fields": ["op", "id", "parent", "name", "start_s", "end_s"],
                       "spans": self.spans}, f)
