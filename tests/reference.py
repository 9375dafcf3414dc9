"""Plain references that the package's batch paths are checked against.

:func:`dumps_record` is the canonical line of a record: compact JSON, keys
sorted, non-ASCII raw. ``corpus.record_encoder``, ``augment.write_augmented``
and ``baseline.write_predictions`` lay out each line without building a dict;
:func:`dumps_record` of the dicts below must give the same line, and
``markers.write_markers`` must give ``json.dumps(record,
ensure_ascii=False)`` of :func:`markers_record`. ``markers.annotate_corpus``
annotates a whole corpus in one pass and gives each row's arrays in their JSON
form; :func:`annotate_history` and :func:`extract_gold_span` annotate one
instance, and :func:`escaped_row` puts a row of their plain values into that
form. ``baseline.predict_corpus`` decides inside one corpus pass;
:func:`decide` decides one instance outside any pass. ``baseline.tune``
scores each grid point over its merged cells; :func:`tune` scores it over
every tally row. ``markers.lcs_pairs`` walks a bit-parallel table;
:func:`lcs_pairs` walks the plain suffix-length table. ``ruleparse.parse_rule``
cuts a prose block's sentences in one regex scan; :func:`sentences` cuts them
one character at a time.
"""

import itertools
import json
from collections import Counter
from dataclasses import asdict, replace
from typing import Iterable, Mapping, Optional, Sequence

from sharctool import baseline
from sharctool.augment import AugmentedInstance
from sharctool.baseline import PolicyParams, TuneResult
from sharctool.corpus import ClassLabel, DialogTurn, Instance, TokenizedText, corpus_pass, tokenize
from sharctool.evaluate import evaluate
from sharctool.markers import MARKER_PHI, lcs_match
from sharctool.ruleparse import DEFAULT_CUES, CueSet, parse_rule


def dumps_record(record) -> str:
    """Canonical single-line JSON: compact, keys sorted, non-ASCII raw."""
    return json.dumps(record, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def _turn_records(turns: list[DialogTurn]) -> list[dict]:
    return [{"follow_up_question": question, "follow_up_answer": answer} for question, answer in turns]


def instance_to_record(instance: Instance) -> dict:
    """An instance in the ShARC record layout."""
    return {
        "utterance_id": instance.utterance_id,
        "tree_id": instance.tree_id,
        "snippet": instance.rule_text,
        "question": instance.question,
        "scenario": instance.scenario,
        "history": _turn_records(instance.history),
        "evidence": _turn_records(instance.evidence),
        "answer": instance.gold_answer,
    }


def augmented_to_record(item: AugmentedInstance) -> dict:
    """An augmented instance's record: the instance's, plus where it came from."""
    return {
        **instance_to_record(item.instance),
        "provenance": item.provenance.value,
        "parent_id": item.parent_id,
        "permutation": item.permutation,
    }


def decide(instance: Instance, params: PolicyParams = PolicyParams()) -> tuple[str, Optional[int], int]:
    """The policy's ``(output, asked ordinal or None, step fired)`` for one instance, its rule text planned anew."""
    text = instance.rule_text
    return baseline._decide(baseline._features(instance, baseline._plan(text, parse_rule(text))), params)


def annotate_history(
    rule: TokenizedText,
    history: Sequence[DialogTurn],
    *,
    use_normalized: bool = True,
    stopwords: frozenset[str] = frozenset(),
) -> tuple[list[str], list[int]]:
    """Label each rule token with the answer and turn of the follow-up that asked it.

    Turns are applied in order 1..N, so on conflicts the latest turn wins.
    Unmatched tokens stay (Phi, 0); the pairing Phi ⇔ turn 0 is invariant.
    """
    markers = [MARKER_PHI] * len(rule.surfaces)
    turns = [0] * len(rule.surfaces)
    for turn_number, turn in enumerate(history, start=1):
        question = tokenize(turn.follow_up_question)
        for rule_token, _ in lcs_match(rule, question, use_normalized=use_normalized, stopwords=stopwords):
            markers[rule_token] = turn.follow_up_answer
            turns[rule_token] = turn_number
    return markers, turns


def extract_gold_span(
    rule: TokenizedText,
    gold_followup: str,
    *,
    use_normalized: bool = True,
    stopwords: frozenset[str] = frozenset(),
) -> Optional[tuple[int, int]]:
    """Contiguous rule-token span [first, last] matched by a gold follow-up.

    Returns ``None`` when the LCS is empty; callers flag such instances.
    """
    pairs = lcs_match(rule, tokenize(gold_followup), use_normalized=use_normalized, stopwords=stopwords)
    if not pairs:
        return None
    return (pairs[0][0], pairs[-1][0])


def markers_record(row: tuple) -> dict:
    """A row of plain values (markers and turn numbers, as the per-instance annotators give them) as its
    ``markers.jsonl`` record, keys in line order."""
    utterance_id, tokens, history_marker, turn_index, scenario_marker, gold_span, flagged = row
    return {
        "utterance_id": utterance_id,
        "tokens": tokens,
        "history_marker": history_marker,
        "turn_index": turn_index,
        "scenario_marker": scenario_marker,
        "gold_span": list(gold_span) if gold_span is not None else None,
        "flags": ["empty_gold_span"] if flagged else [],
        "scenario_marker_source": "gold-evidence",
    }


def escaped_row(row: tuple) -> tuple:
    """A row of plain values in the form ``markers.annotate_corpus`` gives it: each array value in its JSON form."""
    utterance_id, tokens, history_marker, turn_index, scenario_marker, gold_span, flagged = row
    escaped = [[json.dumps(value, ensure_ascii=False) for value in values]
               for values in (history_marker, turn_index, scenario_marker)]
    return (utterance_id, tokens, *escaped, gold_span, flagged)


def tune(corpus: Iterable[Instance], grid: Optional[Mapping[str, Sequence]] = None,
         cues: CueSet = DEFAULT_CUES) -> TuneResult:
    """``baseline.tune`` scoring each grid point by one ``evaluate`` of one unmerged cell per tally row."""
    grid = dict(baseline.DEFAULT_GRID if grid is None else grid)
    points = [replace(PolicyParams(), **dict(zip(grid, values))) for values in itertools.product(*grid.values())]
    outputs = baseline._grid_outputs(points)
    rows: Counter = Counter()
    best, best_score, trials = None, float("-inf"), []
    with corpus_pass():
        for instance, features in baseline._corpus_features(corpus, cues):
            followup = instance.gold_answer if instance.label is ClassLabel.MORE else None
            rows[instance.label, followup, outputs(features)] += 1
        for index, params in enumerate(points):
            report = evaluate(((label, followup, decided[index]), count)
                              for (label, followup, decided), count in rows.items())
            score = report.combined if report.combined is not None else -1.0
            trials.append({"params": asdict(params), "combined": score, "micro": report.micro_accuracy})
            if score > best_score:
                best, best_score = params, score
    return TuneResult(best_params=best, best_combined=best_score, instance_count=sum(rows.values()), trials=trials)


def lcs_pairs(a: Sequence, b: Sequence) -> list[tuple[int, int]]:
    """``markers.lcs_pairs`` by its first statement: a walk over the full suffix-length table.

    ``suffix[i][j]`` is the LCS length of ``a[i:]`` and ``b[j:]``. At row i
    the walk matches a[i] at the first column, from the current one on,
    whose suffix length has not dropped and whose symbol is a[i].
    """
    n, m = len(a), len(b)
    suffix = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            suffix[i][j] = suffix[i + 1][j + 1] + 1 if a[i] == b[j] else max(suffix[i + 1][j], suffix[i][j + 1])
    pairs: list[tuple[int, int]] = []
    i = j = 0
    while i < n and j < m and suffix[i][j]:
        length = suffix[i][j]
        column = j
        while column < m and suffix[i][column] == length:
            if a[i] == b[column]:
                pairs.append((i, column))
                j = column + 1
                break
            column += 1
        i += 1
    return pairs


def sentences(block: str) -> list[tuple[str, tuple[int, int]]]:
    """A prose block's sentence clauses as ``(text, char_span)``, cut one character at a time.

    A sentence ends after the last character of a run of ``.!?``, or at the
    end of the block. Each piece loses its leading and trailing whitespace,
    and a piece that is all whitespace gives no sentence.
    """
    out = []
    begin = 0
    for i, char in enumerate(block):
        if i + 1 < len(block) and (char not in ".!?" or block[i + 1] in ".!?"):
            continue
        start, end = begin, i + 1
        while start < end and block[start].isspace():
            start += 1
        while end > start and block[end - 1].isspace():
            end -= 1
        if start < end:
            out.append((block[start:end], (start, end)))
        begin = i + 1
    return out
