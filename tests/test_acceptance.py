"""Acceptance suite.

Each criterion prints one `[ACCEPTANCE n] PASS/FAIL` line (run with -s to
see them live). Heavy experiment records are shared across criteria via
session fixtures; everything is deterministic given the seeds below.
"""

import time

import numpy as np
import pytest

from fewcache.codec import from_doc, to_doc
from fewcache.dataset import SynthSpec, class_prototypes, synth_generate
from fewcache.encoders import resolve_source
from fewcache.fusion_eval import alpha_grid, binary_auc, fuse, instance_auc
from fewcache.gradchecks import run_all_suites
from fewcache.harness import (
    ExperimentConfig,
    emit_report,
    report_rows,
    run_experiment,
    write_run_record,
)
from fewcache.trainer import TrainConfig

SEPARABLE_SPEC = {
    "num_classes": 2, "dim": 32, "bags_per_class": 16, "instances_per_bag": 200,
    "positive_fraction": 0.2, "noise_sigma": 0.15, "seed": 0,
}
NOISY_SPEC = dict(SEPARABLE_SPEC, noise_sigma=0.6)

SEPARABLE_SOURCE = {
    "kind": "synthetic", "spec": SEPARABLE_SPEC,
    "test_bags_per_class": 8, "prompt_sigma": 0.35, "prompt_seed": 1,
}
NOISY_SOURCE = {
    "kind": "synthetic", "spec": NOISY_SPEC,
    "test_bags_per_class": 8, "prompt_sigma": 0.45, "prompt_seed": 1,
}

CACHE_BETA = 20.0
REPEATS = 5


def _noisy_config(**overrides) -> ExperimentConfig:
    base = dict(
        source=NOISY_SOURCE,
        bag_shots=(1, 2, 4, 8, 16),
        instance_shots=(16,),
        train=TrainConfig(steps=2000),
        cache_beta=CACHE_BETA,
        repeats=REPEATS,
        base_seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _report_line(num: int, passed: bool, detail: str) -> bool:
    print(f"[ACCEPTANCE {num}] {'PASS' if passed else 'FAIL'}: {detail}")
    return passed


@pytest.fixture(scope="session")
def full_record():
    """Full variant over all bag shots; feeds criteria 4, 5, 6, 7 and 9."""
    return run_experiment(_noisy_config(), keep_predictions=True)


@pytest.fixture(scope="session")
def frozen_records():
    """Reduced cache variants at 16 bag shots; criterion 5 reads their cache branch."""
    frozen_labels = run_experiment(
        _noisy_config(bag_shots=(16,), freeze_value_logits=True)
    )
    fully_frozen = run_experiment(
        _noisy_config(bag_shots=(16,), freeze_value_logits=True, freeze_keys=True)
    )
    return frozen_labels, fully_frozen


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    results = run_all_suites(n_configs=100, seed=0, tol=1e-4)
    elapsed = time.perf_counter() - t0
    all_passed = all(r.passed for r in results)
    worst = max(r.max_rel_error for r in results)
    ok = all_passed and elapsed < 30.0
    detail = (
        f"3 suites x 100 configs, worst rel error {worst:.2e} (tol 1e-4), "
        f"{elapsed:.1f}s (< 30s)"
    )
    assert _report_line(1, ok, detail)
    assert all_passed
    assert elapsed < 30.0


def test_criterion_2_auc_oracle_equivalence():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        scores = rng.integers(0, 25, size=200) / 25.0  # heavy ties
        labels = rng.integers(0, 2, size=200)
        labels[:2] = [0, 1]
        pos = labels == 1
        fast = binary_auc(scores, pos)
        p, n = scores[pos], scores[~pos]
        slow = ((p[:, None] > n[None, :]).sum() + 0.5 * (p[:, None] == n[None, :]).sum())
        slow /= p.size * n.size
        worst = max(worst, abs(fast - slow))
    ok = worst <= 1e-12
    assert _report_line(
        2, ok, f"100 trials of n=200 with ties, max |rank - pairwise| = {worst:.2e}"
    )
    assert ok


def test_criterion_3_separable_end_to_end():
    t0 = time.perf_counter()
    source = resolve_source(SEPARABLE_SOURCE)
    test_ds = source.test_dataset

    # Bayes-oracle reference on the same held-out draw, computed first.
    protos = class_prototypes(2, 32)
    oracle_scores = test_ds.store.rows @ protos.T
    oracle = instance_auc(oracle_scores, test_ds.instance_labels_vector(), 2).macro
    assert oracle >= 0.999, f"oracle AUC {oracle} below 0.999; draw is not separable"

    cfg = ExperimentConfig(
        source=SEPARABLE_SOURCE, bag_shots=(16,), instance_shots=(16,),
        train=TrainConfig(steps=2000), cache_beta=CACHE_BETA,
        repeats=1, base_seed=0,
    )
    record = run_experiment(cfg)
    cell = record.cell(16)
    assert cell.failures == []
    report = cell.reports[0]
    elapsed = time.perf_counter() - t0
    inst = report.instance_auc.macro
    bag = report.bag_auc.macro
    ok = oracle >= 0.999 and inst >= 0.99 and bag >= 0.95 and elapsed < 60.0
    detail = (
        f"oracle {oracle:.4f} (>=0.999), instance AUC {inst:.4f} (>=0.99), "
        f"bag AUC {bag:.4f} (>=0.95, mean pooling), {elapsed:.1f}s (< 60s)"
    )
    assert _report_line(3, ok, detail)
    assert inst >= 0.99
    assert bag >= 0.95
    assert elapsed < 60.0


def test_criterion_4_shot_scaling_trend(full_record):
    means, stds = [], []
    for shot in (1, 2, 4, 8, 16):
        cell = full_record.cell(shot)
        assert cell.failures == [], cell.failures
        agg = cell.aggregates
        means.append(agg["instance_auc_mean"])
        stds.append(agg["instance_auc_std"])
    gap = means[-1] - means[0]
    steps_ok = []
    for i in range(len(means) - 1):
        pooled = float(np.sqrt((stds[i] ** 2 + stds[i + 1] ** 2) / 2.0))
        steps_ok.append(means[i + 1] >= means[i] - pooled)
    ok = gap >= 0.03 and all(steps_ok)
    detail = (
        f"mean instance AUC over 5 seeds {['%.4f' % m for m in means]}, "
        f"AUC(16)-AUC(1) = {gap:+.4f} (>=0.03), within-pooled-std steps {steps_ok}"
    )
    assert _report_line(4, ok, detail)
    assert gap >= 0.03
    assert all(steps_ok)


def test_criterion_5_ablation_ordering(full_record, frozen_records):
    frozen_labels, fully_frozen = frozen_records
    full = full_record.cell(16).aggregates["instance_auc_mean"]
    mid = frozen_labels.cell(16).aggregates["cache_instance_auc_mean"]
    low = fully_frozen.cell(16).aggregates["cache_instance_auc_mean"]
    gap = full - low
    ok = full >= mid >= low and gap >= 0.02
    detail = (
        f"full {full:.4f} >= frozen-labels {mid:.4f} >= fully-frozen {low:.4f}, "
        f"full-vs-frozen gap {gap:+.4f} (>=0.02)"
    )
    assert _report_line(5, ok, detail)
    assert full >= mid >= low
    assert gap >= 0.02


def test_criterion_6_fusion_endpoints_and_sweep(full_record):
    rng = np.random.default_rng(6)
    a = rng.dirichlet(np.ones(3), size=40)
    b = rng.dirichlet(np.ones(3), size=40)
    endpoints_exact = np.array_equal(fuse(a, b, 1.0), a) and np.array_equal(
        fuse(a, b, 0.0), b
    )

    grid = alpha_grid(101)
    checked = 0
    mismatches = []
    for cell in full_record.cells:
        extras = full_record.extras[(cell.bag_shot, cell.instance_shot)]
        assert len(extras) == len(cell.reports)
        for report, extra in zip(cell.reports, extras):
            assert "alpha_degenerate_tuning" not in report.flags
            cache_p = extra["tune_cache_probs"]
            prior_p = extra["tune_prior_probs"]
            labels = extra["tune_labels"]
            best_alpha, best = 0.0, -np.inf
            for g in grid:
                fused = float(g) * cache_p + (1.0 - float(g)) * prior_p
                metric = instance_auc(fused, labels, 2).macro
                if metric >= best:
                    best, best_alpha = metric, float(g)
            checked += 1
            if report.alpha != best_alpha:
                mismatches.append((cell.bag_shot, report.seed, report.alpha, best_alpha))
    ok = endpoints_exact and not mismatches
    detail = (
        f"endpoints bit-exact: {endpoints_exact}; sweep argmax matched brute force "
        f"on {checked}/{checked} runs"
        + (f"; mismatches {mismatches}" if mismatches else "")
    )
    assert _report_line(6, ok, detail)
    assert endpoints_exact
    assert not mismatches


def test_criterion_7_branch_dominance_crossover(full_record):
    # Each branch scored on its own, from the same trained runs as the fused result.
    agg1, agg16 = full_record.cell(1).aggregates, full_record.cell(16).aggregates
    c1, p1 = agg1["cache_instance_auc_mean"], agg1["prior_instance_auc_mean"]
    c16, p16 = agg16["cache_instance_auc_mean"], agg16["prior_instance_auc_mean"]
    ok = p1 > c1 and c16 > p16
    detail = (
        f"1 bag shot: prior {p1:.4f} > cache {c1:.4f}; "
        f"16 bag shots: cache {c16:.4f} > prior {p16:.4f} (5-seed means)"
    )
    assert _report_line(7, ok, detail)
    assert p1 > c1
    assert c16 > p16


def test_criterion_8_determinism(tmp_path):
    cfg_doc = to_doc(_noisy_config(
        bag_shots=(2,), repeats=2, train=TrainConfig(steps=300)
    ))
    for sub in ("first", "second"):
        record = run_experiment(from_doc(ExperimentConfig, cfg_doc))
        out = tmp_path / sub
        write_run_record(record, out)
        emit_report(record, out)
    names = ("record.json", "report.csv", "report.json", "plot_annotation_ratio.csv")
    identical = {
        name: (tmp_path / "first" / name).read_bytes()
        == (tmp_path / "second" / name).read_bytes()
        for name in names
    }
    ok = all(identical.values())
    assert _report_line(8, ok, f"byte-identical result files: {identical}")
    assert ok


def test_criterion_9_annotation_ratio(full_record):
    cell = full_record.cell(16)
    reports = cell.reports
    total = 16 * 200 * 2
    counts_ok = all(r.labeled_count == 32 for r in reports)
    exact_ok = all(r.annotation_ratio == 32 / total for r in reports)
    percent = reports[0].annotation_ratio_percent
    printed = f"{percent:g}%"
    agg_ratio = cell.aggregates["annotation_ratio"]
    row = [r for r in report_rows(full_record) if r["bag_shot"] == 16][0]
    ok = (
        counts_ok
        and exact_ok
        and printed == "0.5%"
        and agg_ratio == 32 / total
        and row["annotation_ratio"] == 32 / total
    )
    detail = (
        f"labeled 32 of {total} instances, ratio {agg_ratio!r} == 32/6400, "
        f"prints {printed!r}"
    )
    assert _report_line(9, ok, detail)
    assert ok
