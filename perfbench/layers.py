"""Per-layer metrics derived from one traced run.

Each metric is named ``<module>.<what>`` after the sharctool module it
measures. Times are inclusive (the function's whole span) unless the name
says otherwise; ``augment.build_s``, ``baseline.tune_s`` and ``cli.self_s``
are self times. A layer that does not run on a workload reports 0 calls, 0
seconds and a ratio of 0.

The three ``*_distinct_ratio`` metrics are distinct arguments / calls, with
distinct arguments counted within each command (one process), since that
is the sharing an in-process cache could exploit.
"""

from __future__ import annotations

from tracer import HOT, self_times

# (name, unit) in the order printed.
METRICS: tuple[tuple[str, str], ...] = (
    ("corpus.load_s", "s"),
    ("corpus.write_s", "s"),
    ("corpus.tokenize_calls", "count"),
    ("corpus.tokenize_s", "s"),
    ("corpus.tokenize_distinct_ratio", "ratio"),
    ("corpus.content_hash_calls", "count"),
    ("corpus.content_hash_s", "s"),
    ("ruleparse.parse_rule_calls", "count"),
    ("ruleparse.parse_rule_s", "s"),
    ("probe.probe_corpus_s", "s"),
    ("probe.import_s", "s"),
    ("augment.build_s", "s"),
    ("augment.candidates", "count"),
    ("augment.admit_ratio", "ratio"),
    ("markers.annotate_corpus_s", "s"),
    ("markers.lcs_match_calls", "count"),
    ("markers.lcs_match_s", "s"),
    ("markers.lcs_pairs_s", "s"),
    ("markers.lcs_cells", "count"),
    ("markers.lcs_distinct_ratio", "ratio"),
    ("baseline.tune_s", "s"),
    ("baseline.predict_corpus_s", "s"),
    ("baseline.grid_points", "count"),
    ("evaluate.evaluate_calls", "count"),
    ("evaluate.evaluate_s", "s"),
    ("evaluate.bleu_calls", "count"),
    ("evaluate.bleu_s", "s"),
    ("evaluate.bleu_pairs", "count"),
    ("evaluate.bleu_distinct_ratio", "ratio"),
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
    ("cli.cpu_s", "s"),
    ("synthcorpus.generate_split_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

UNITS = dict(METRICS)


class _Totals:
    def __init__(self, trace: dict):
        self.spans = trace["spans"]
        self.counters = trace["counters"]
        self.distinct = trace["distinct"]
        self.self_s = self_times(self.spans)

    def calls(self, name: str) -> int:
        if name in HOT:
            return sum(span["hot"].get(name, (0,))[0] for span in self.spans)
        return sum(1 for span in self.spans if span["name"] == name)

    def total_s(self, name: str) -> float:
        if name in HOT:
            return sum(span["hot"].get(name, (0, 0.0))[1] for span in self.spans)
        return sum(span["end"] - span["start"] for span in self.spans if span["name"] == name)

    def self_total_s(self, name: str) -> float:
        return sum(self.self_s[span["id"]] for span in self.spans if span["name"] == name)

    def distinct_ratio(self, name: str, calls: int) -> float:
        seen = sum(count for key, count in self.distinct.items() if key.rsplit("@", 1)[0] == name)
        return seen / calls if calls else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    trace: dict,
    *,
    plain_wall_s: float,
    traced_wall_s: float,
    plain_cpu_s: float,
    import_s: dict[str, float],
    generate_s: float,
    build_manifest: dict | None,
) -> dict[str, float]:
    """Every per-layer metric, from a traced run plus its untraced twin."""
    t = _Totals(trace)
    tokenize_calls = t.calls("corpus.tokenize")
    lcs_calls = t.calls("markers.lcs_match")
    bleu_pairs = t.counters.get("evaluate.bleu_pairs", 0)
    tune_ids = {span["id"] for span in t.spans if span["name"] == "baseline.tune"}
    if build_manifest:
        admitted = sum(build_manifest["generated_counts"].values())
        candidates = admitted + build_manifest["duplicates_dropped"]
    else:
        admitted = candidates = 0
    return {
        "corpus.load_s": t.total_s("corpus.load"),
        "corpus.write_s": t.total_s("corpus.write_corpus") + t.total_s("augment.write_augmented"),
        "corpus.tokenize_calls": tokenize_calls,
        "corpus.tokenize_s": t.total_s("corpus.tokenize"),
        "corpus.tokenize_distinct_ratio": t.distinct_ratio("corpus.tokenize", tokenize_calls),
        "corpus.content_hash_calls": t.calls("corpus.content_hash"),
        "corpus.content_hash_s": t.total_s("corpus.content_hash"),
        "ruleparse.parse_rule_calls": t.calls("ruleparse.parse_rule"),
        "ruleparse.parse_rule_s": t.total_s("ruleparse.parse_rule"),
        "probe.probe_corpus_s": t.total_s("probe.probe_corpus"),
        "probe.import_s": import_s["sharctool.probe"],
        "augment.build_s": t.self_total_s("augment.build"),
        "augment.candidates": candidates,
        "augment.admit_ratio": _ratio(admitted, candidates),
        "markers.annotate_corpus_s": t.total_s("markers.annotate_corpus"),
        "markers.lcs_match_calls": lcs_calls,
        "markers.lcs_match_s": t.total_s("markers.lcs_match"),
        "markers.lcs_pairs_s": t.total_s("markers.lcs_pairs"),
        "markers.lcs_cells": t.counters.get("markers.lcs_cells", 0),
        "markers.lcs_distinct_ratio": t.distinct_ratio("markers.lcs_match", lcs_calls),
        "baseline.tune_s": t.self_total_s("baseline.tune"),
        "baseline.predict_corpus_s": t.total_s("baseline.predict_corpus"),
        "baseline.grid_points": sum(
            1 for span in t.spans if span["name"] == "evaluate.evaluate" and span["parent"] in tune_ids
        ),
        "evaluate.evaluate_calls": t.calls("evaluate.evaluate"),
        "evaluate.evaluate_s": t.total_s("evaluate.evaluate"),
        "evaluate.bleu_calls": t.calls("evaluate.bleu"),
        "evaluate.bleu_s": t.total_s("evaluate.bleu"),
        "evaluate.bleu_pairs": bleu_pairs,
        "evaluate.bleu_distinct_ratio": t.distinct_ratio("evaluate.bleu", bleu_pairs),
        "cli.import_s": import_s["sharctool.cli"],
        "cli.self_s": t.self_total_s("cli.main"),
        "cli.cpu_s": plain_cpu_s,
        "synthcorpus.generate_split_s": generate_s,
        "trace.overhead_ratio": _ratio(traced_wall_s, plain_wall_s),
    }
