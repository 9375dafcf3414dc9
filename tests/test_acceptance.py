"""Acceptance gate: one test per numbered criterion, at the stated tolerance.

Each test prints a single ``criterion NN: PASS/FAIL`` line (visible with -v as
the test verdict, and in captured output on failure) carrying the measured
values, so a red run says exactly which number moved and by how much.
"""

import itertools
import math
import random
import time
from collections import Counter

import pytest

from sharctool.augment import (
    AugmentConfig,
    Provenance,
    build_augmented_corpus,
    write_augmented,
)
from sharctool.baseline import predict_corpus, tune
from sharctool.corpus import ClassLabel, content_hash, tokenize
from sharctool.evaluate import bleu, cells, combined_metric, evaluate, gold_view
from sharctool.markers import annotate_corpus, lcs_match
from sharctool.probe import probe_corpus

TRAIN_SIZE = 21890
TRAIN_DIST = {
    ClassLabel.IRRELEVANT: 5.74,
    ClassLabel.YES: 30.94,
    ClassLabel.NO: 32.24,
    ClassLabel.MORE: 31.08,
}
AUG_TOTAL = 31506
AUG_DIST = {
    ClassLabel.IRRELEVANT: 22.41,
    ClassLabel.YES: 27.09,
    ClassLabel.NO: 28.11,
    ClassLabel.MORE: 22.39,
}


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


@pytest.fixture(scope="module")
def train_probe(train_corpus):
    started = time.time()
    report = probe_corpus(train_corpus, split_name="train")
    return report, time.time() - started


@pytest.fixture(scope="module")
def augmented_train(train_corpus):
    return build_augmented_corpus(train_corpus, AugmentConfig(seed=13))


def test_criterion_01_train_size_and_class_distribution(train_probe):
    report, elapsed = train_probe
    dist = report.class_distribution
    worst = max(abs(dist[label] - want) for label, want in TRAIN_DIST.items())
    ok = (
        report.instance_count == TRAIN_SIZE
        and worst <= 0.05
        and elapsed < 60.0
    )
    _verdict(
        1,
        ok,
        f"train={report.instance_count} (want {TRAIN_SIZE}), "
        f"max marginal error {worst:.3f} pp (tol 0.05), probe took {elapsed:.1f}s",
    )


def test_criterion_02_last_answer_agreement_band(train_probe):
    report, _ = train_probe
    agreement = report.last_followup_agreement.percent
    ok = agreement is not None and 81.0 <= agreement <= 87.0
    _verdict(2, ok, f"last_followup_agreement={agreement:.2f}% (band [81, 87])")


def test_criterion_03_followup_rate_declines_with_history_length(train_probe):
    report, _ = train_probe
    rho = report.followup_rate_spearman
    ok = rho is not None and rho < 0.0
    _verdict(3, ok, f"spearman(history length, follow-up rate)={rho} (want < 0)")


def test_criterion_04_augmentation_reproduction(train_corpus, augmented_train, tmp_path):
    items, manifest = augmented_train
    total_ok = abs(manifest.achieved_total - AUG_TOTAL) <= 10
    worst = max(
        abs(manifest.achieved_marginals[label.value] - want)
        for label, want in AUG_DIST.items()
    )

    parents = {inst.utterance_id: inst for inst in train_corpus}
    hashes = Counter(content_hash(item.instance) for item in items)
    provenance_ok = max(hashes.values()) == 1
    for item in items:
        parent = parents[item.parent_id]
        if item.provenance is Provenance.HISTORY_SHUFFLED:
            provenance_ok &= Counter(item.instance.history) == Counter(parent.history)
            provenance_ok &= item.instance.history != parent.history
        elif item.provenance is Provenance.RULE_REPLACED:
            provenance_ok &= item.instance.tree_id != parent.tree_id
            provenance_ok &= item.instance.gold_answer == "Irrelevant"

    first, second = tmp_path / "run1.jsonl", tmp_path / "run2.jsonl"
    write_augmented(first, items)
    rerun, _ = build_augmented_corpus(train_corpus, AugmentConfig(seed=13))
    write_augmented(second, rerun)
    bytes_ok = first.read_bytes() == second.read_bytes()

    ok = total_ok and worst <= 0.5 and provenance_ok and bytes_ok
    _verdict(
        4,
        ok,
        f"total={manifest.achieved_total} (want {AUG_TOTAL}±10), "
        f"max marginal error {worst:.3f} pp (tol 0.5), "
        f"provenance invariants {'hold' if provenance_ok else 'VIOLATED'}, "
        f"rerun byte-identical={bytes_ok}",
    )


def test_criterion_05_augmentation_suppresses_the_clues(train_probe, augmented_train):
    orig, _ = train_probe
    items, _ = augmented_train
    aug = probe_corpus([item.instance for item in items], split_name="train-aug")

    drop = orig.last_followup_agreement.percent - aug.last_followup_agreement.percent
    p_orig = orig.irrelevant_context.p_empty_context_given_irrelevant
    p_aug = aug.irrelevant_context.p_empty_context_given_irrelevant
    ok = drop >= 5.0 and p_aug < p_orig
    _verdict(
        5,
        ok,
        f"agreement {orig.last_followup_agreement.percent:.2f}% -> "
        f"{aug.last_followup_agreement.percent:.2f}% (drop {drop:.2f} pp, want >= 5), "
        f"P(empty context | Irrelevant) {p_orig:.3f} -> {p_aug:.3f} (want lower)",
    )


def test_criterion_06_tuned_baseline_collapses_on_augmented_dev(dev_corpus):
    result = tune(dev_corpus)

    def _score(corpus):
        rows, _ = predict_corpus(corpus, result.best_params)
        return evaluate(cells(gold_view(corpus), {utterance_id: output for utterance_id, output, _, _ in rows}))

    original = _score(dev_corpus)
    config = AugmentConfig(
        seed=29,
        total_target=round(len(dev_corpus) * AUG_TOTAL / TRAIN_SIZE),
        keep_original=False,
        max_permutations_per_instance=6,
    )
    items, _ = build_augmented_corpus(dev_corpus, config)
    augmented = _score([item.instance for item in items])

    ratio = augmented.combined / original.combined
    band = "inside" if 58.0 <= original.micro_accuracy <= 70.0 else "OUTSIDE"
    ok = ratio <= 0.5
    _verdict(
        6,
        ok,
        f"combined {original.combined:.2f} -> {augmented.combined:.2f} "
        f"(ratio {ratio:.3f}, want <= 0.5); reported, not gating: "
        f"original dev micro {original.micro_accuracy:.2f} {band} the [58, 70] band",
    )


def test_criterion_07_combined_metric_identities():
    first = combined_metric(71.25, 47.78)
    second = combined_metric(44.09, 21.24)
    ok = abs(first - 34.04) <= 0.01 and abs(second - 9.36) <= 0.01
    _verdict(
        7,
        ok,
        f"combined(71.25, 47.78)={first:.4f} (want 34.04±0.01), "
        f"combined(44.09, 21.24)={second:.4f} (want 9.36±0.01)",
    )


def _prefix_dp_length(a, b):
    """Independent oracle: plain prefix-table LCS length."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            table[i + 1][j + 1] = (
                table[i][j] + 1 if x == y else max(table[i][j + 1], table[i + 1][j])
            )
    return table[len(a)][len(b)]


def test_criterion_08_lcs_length_equals_brute_force_oracle():
    started = time.time()
    symbols = ("red", "green", "blue")
    words = [
        combo for n in range(0, 7) for combo in itertools.product(symbols, repeat=n)
    ]
    texts = [tokenize(" ".join(combo)) for combo in words]

    # Exhaustive: every ordered pair with up to six tokens per side — every
    # combined length up to 12 over the three-symbol alphabet.
    mismatches = 0
    for a, ta in zip(words, texts):
        for b, tb in zip(words, texts):
            if len(lcs_match(ta, tb)) != _prefix_dp_length(a, b):
                mismatches += 1
    exhaustive_pairs = len(words) ** 2

    # Random longer pairs: at least one side beyond the exhaustive range, the
    # other anywhere up to 12, so long-vs-short shapes get exercised too.
    rng = random.Random(8)
    for _ in range(10_000):
        len_a, len_b = rng.randint(7, 12), rng.randint(0, 12)
        if rng.random() < 0.5:
            len_a, len_b = len_b, len_a
        a = [rng.choice(symbols) for _ in range(len_a)]
        b = [rng.choice(symbols) for _ in range(len_b)]
        if len(lcs_match(tokenize(" ".join(a)), tokenize(" ".join(b)))) != _prefix_dp_length(a, b):
            mismatches += 1

    elapsed = time.time() - started
    ok = mismatches == 0 and elapsed < 60.0
    _verdict(
        8,
        ok,
        f"{exhaustive_pairs} exhaustive + 10000 random pairs, "
        f"{mismatches} discrepancies (want 0), {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_09_bleu_fixtures():
    identity = [
        bleu([("do you get benefits", "do you get benefits")], max_order=order)
        for order in (1, 4)
    ]
    fixture = bleu([("do you get benefits", "do you get housing benefits")], max_order=1)
    ok = (
        identity == [100.0, 100.0]
        and abs(fixture - 77.88) <= 0.01
        and abs(fixture - 100.0 * math.exp(1.0 - 5.0 / 4.0)) < 1e-9
    )
    _verdict(
        9,
        ok,
        f"identity order 1/4 = {identity} (want [100.0, 100.0]), "
        f"hand fixture BLEU-1={fixture:.4f} (want 77.88±0.01)",
    )


def test_criterion_10_gold_span_coverage_on_train(train_corpus):
    _, stats = annotate_corpus(train_corpus)
    coverage = stats.span_coverage
    ok = coverage is not None and coverage >= 0.95
    _verdict(
        10,
        ok,
        f"gold spans on {stats.more_instances} More instances: "
        f"{100 * coverage:.2f}% non-empty (want >= 95%), "
        f"flagged empty_gold_span: {stats.more_instances - stats.more_with_span}",
    )
