"""Tokenizer, label derivation, hashing, and the corpus loader."""

import json

import pytest
from hypothesis import given, strategies as st

from sharctool.corpus import (
    ClassLabel,
    CorpusError,
    content_hash,
    derive_label,
    load_corpus,
    load_corpus_audited,
    tokenize,
    write_corpus,
)

from reference import dumps_record, instance_to_record


# --------------------------------------------------------------------------
# derive_label
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "answer,expected",
    [
        ("Yes", ClassLabel.YES),
        ("yes", ClassLabel.YES),
        ("  YES  ", ClassLabel.YES),
        ("No", ClassLabel.NO),
        ("nO", ClassLabel.NO),
        ("Irrelevant", ClassLabel.IRRELEVANT),
        ("irrelevant", ClassLabel.IRRELEVANT),
        ("Do you live in the UK?", ClassLabel.MORE),
        ("", ClassLabel.MORE),
        ("Yes?", ClassLabel.MORE),  # punctuation makes it a follow-up, not a class
    ],
)
def test_derive_label(answer, expected):
    assert derive_label(answer) is expected


# --------------------------------------------------------------------------
# tokenize
# --------------------------------------------------------------------------


def _assert_surfaces_partition(text, surfaces):
    """Each surface occurs in ``text`` in order, with only whitespace between and around them."""
    cursor = 0
    for surface in surfaces:
        start = text.find(surface, cursor)
        assert start >= 0 and text[cursor:start].strip() == "", (surface, text[cursor:])
        cursor = start + len(surface)
    assert text[cursor:].strip() == ""
    assert "".join(surfaces) == "".join(ch for ch in text if not ch.isspace())


def test_tokenize_surfaces_partition_the_text():
    text = "You can't claim Jobseeker's Allowance (JSA) if you're studying full-time!"
    _assert_surfaces_partition(text, tokenize(text).surfaces)


def test_tokenize_contractions_stay_single_tokens():
    tokens = tokenize("can't won't you're").surfaces
    assert tokens == ("can't", "won't", "you're")


def test_tokenize_normalization_strips_edge_punctuation_and_case():
    tokenized = tokenize("(Hello), WORLD!")
    assert tokenized.surfaces == ("(", "Hello", "),", "WORLD", "!")
    # punctuation runs are their own tokens and normalize to ""
    assert tokenized.normalized == ("", "hello", "", "world", "")


def test_tokenize_empty_text():
    assert len(tokenize("").surfaces) == 0
    assert len(tokenize("   \n\t ").surfaces) == 0


def test_texts_sharing_a_word_share_its_surface_and_normalized_objects():
    # Built at run time, so the two texts are distinct objects with no shared substrings.
    first = tokenize("".join(["Carer's ", "Allowance"]))
    second = tokenize(" ".join(["claim", "the", "Carer's", "allowance", "now"]))
    assert first.surfaces[0] is second.surfaces[2]
    assert first.normalized[0] is second.normalized[2]
    assert first.normalized[1] is second.normalized[3]


@given(st.text(max_size=200))
def test_tokenize_surfaces_partition_any_text(text):
    tokenized = tokenize(text)
    _assert_surfaces_partition(text, tokenized.surfaces)
    assert len(tokenized.surfaces) == len(tokenized.normalized)


@given(st.text(alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd", "Po")), max_size=80))
def test_tokenize_covers_all_non_space_characters(text):
    _assert_surfaces_partition(text, tokenize(text).surfaces)


# --------------------------------------------------------------------------
# content_hash
# --------------------------------------------------------------------------


def test_content_hash_ignores_identifiers(make_instance):
    a = make_instance(utterance_id="a", tree_id="t-1")
    b = make_instance(utterance_id="b", tree_id="t-2")
    assert content_hash(a) == content_hash(b)


def test_content_hash_sees_every_content_field(make_instance, turn):
    base = make_instance()
    variants = [
        make_instance(rule_text=base.rule_text + " Extra."),
        make_instance(question="Different question?"),
        make_instance(scenario="I am 70."),
        make_instance(history=[turn("Are you over 60?", "Yes")]),
        make_instance(gold_answer="No"),
    ]
    hashes = {content_hash(base)} | {content_hash(v) for v in variants}
    assert len(hashes) == len(variants) + 1


def test_content_hash_is_order_sensitive_for_history(make_instance, turn):
    t1 = turn("Are you over 60?", "Yes")
    t2 = turn("Do you live in London?", "No")
    assert content_hash(make_instance(history=[t1, t2])) != content_hash(
        make_instance(history=[t2, t1])
    )


# --------------------------------------------------------------------------
# loading and writing
# --------------------------------------------------------------------------


def _record(**overrides):
    record = {
        "utterance_id": "u-1",
        "tree_id": "t-1",
        "source_url": "https://example.test/rule",
        "snippet": "You can claim if you are over 60.",
        "question": "Can I claim?",
        "scenario": "",
        "history": [],
        "evidence": [],
        "answer": "Yes",
    }
    record.update(overrides)
    return record


def test_load_corpus_round_trip(tmp_path, make_instance, turn):
    instances = [
        make_instance(utterance_id="u-1"),
        make_instance(
            utterance_id="u-2",
            scenario="I am 70 years old.",
            history=[turn("Are you over 60?", "Yes")],
            gold_answer="Do you live in the UK?",
        ),
    ]
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, instances)
    loaded = load_corpus(path)
    assert [instance_to_record(i) for i in loaded] == [instance_to_record(i) for i in instances]


def test_load_corpus_accepts_json_list(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([_record(), _record(utterance_id="u-2")]), encoding="utf-8")
    assert [i.utterance_id for i in load_corpus(path)] == ["u-1", "u-2"]


def test_loader_normalizes_answer_case_in_history(tmp_path):
    record = _record(history=[{"follow_up_question": "Over 60?", "follow_up_answer": "yes"}])
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    (instance,) = load_corpus(path)
    assert instance.history[0].follow_up_answer == "Yes"


def test_loader_rejects_non_polar_history_answer(tmp_path):
    record = _record(history=[{"follow_up_question": "Over 60?", "follow_up_answer": "Maybe"}])
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError):
        load_corpus(path, strict=True)


def test_loader_drops_partial_evidence_in_both_modes(tmp_path):
    # real ShARC evidence sometimes records only the question; keep the rest
    record = _record(
        evidence=[
            {"follow_up_question": "Over 60?", "follow_up_answer": "Yes"},
            {"follow_up_question": "Dangling question?"},
        ]
    )
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    for strict in (True, False):
        instances, audit = load_corpus_audited(path, strict=strict)
        assert len(instances[0].evidence) == 1
        assert audit.dropped_evidence_items == 1


def test_strict_mode_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "corpus.jsonl"
    lines = [json.dumps(_record()), json.dumps(_record(question="Same id, new text?"))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="duplicate"):
        load_corpus(path, strict=True)


def test_lenient_mode_drops_and_counts(tmp_path):
    records = [
        _record(),
        _record(question="Same id again?"),  # duplicate utterance_id
        _record(utterance_id="u-3", answer=7),  # malformed answer field
        _record(utterance_id="u-4"),
    ]
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    instances, audit = load_corpus_audited(path, strict=False)
    assert [i.utterance_id for i in instances] == ["u-1", "u-4"]
    assert audit.records_read == 4
    assert audit.duplicate_ids_dropped == 1
    assert audit.dropped_instances == 2
    assert audit.instances_kept == 2


def test_loader_takes_strict_by_keyword_only(tmp_path):
    # an old positional "lenient" must fail loudly, not be read as strict
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(_record()) + "\n", encoding="utf-8")
    with pytest.raises(TypeError):
        load_corpus(path, False)


def test_dumps_record_is_canonical(make_instance):
    text = dumps_record(instance_to_record(make_instance()))
    assert text == dumps_record(json.loads(text))
    assert "\n" not in text
    keys = list(json.loads(text))
    assert keys == sorted(keys)


def test_an_instance_holds_its_fields_and_nothing_else(make_instance):
    instance = make_instance()
    assert not hasattr(instance, "__dict__")
    with pytest.raises(AttributeError):
        instance.note = "extra"


def test_has_empty_context(make_instance, turn):
    assert make_instance().has_empty_context
    assert not make_instance(scenario="I am 70.").has_empty_context
    assert not make_instance(history=[turn("Over 60?", "Yes")]).has_empty_context
    assert make_instance(scenario="   ").has_empty_context
