"""Clause segmentation and logic typing."""

import pytest
from hypothesis import example, given, strategies as st

from sharctool.ruleparse import (
    Clause,
    ClauseKind,
    CueSet,
    DEFAULT_CUES,
    LogicType,
    classify_logic,
    load_cues,
    parse_rule,
)

from reference import sentences

BULLETED = """## Carer's Grant

You might get the grant if all of the following apply:

* you care for someone at least 35 hours a week
* you live in England or Wales
"""


def test_parse_rule_kinds_and_texts():
    structure = parse_rule(BULLETED)
    kinds = [(c.kind, c.text) for c in structure.clauses]
    assert kinds == [
        (ClauseKind.HEADER, "Carer's Grant"),
        (ClauseKind.SENTENCE, "You might get the grant if all of the following apply:"),
        (ClauseKind.BULLET, "you care for someone at least 35 hours a week"),
        (ClauseKind.BULLET, "you live in England or Wales"),
    ]


def test_parse_rule_spans_slice_the_source_exactly():
    structure = parse_rule(BULLETED)
    previous_end = 0
    for i, clause in enumerate(structure.clauses, start=1):
        start, end = clause.char_span
        assert BULLETED[start:end] == clause.text
        assert start >= previous_end
        previous_end = end
        assert clause.ordinal == i


def test_parse_rule_splits_prose_into_sentences():
    text = "You may apply today. You must be a resident! Are you sure?"
    clauses = parse_rule(text).clauses
    assert [c.text for c in clauses] == [
        "You may apply today.",
        "You must be a resident!",
        "Are you sure?",
    ]
    assert all(c.kind is ClauseKind.SENTENCE for c in clauses)


def test_parse_rule_prose_block_spans_lines():
    text = "You can claim\nif you are over 60. Apply online."
    clauses = parse_rule(text).clauses
    assert clauses[0].text == "You can claim\nif you are over 60."
    assert clauses[1].text == "Apply online."
    for clause in clauses:
        start, end = clause.char_span
        assert text[start:end] == clause.text


def test_parse_rule_trailing_sentence_without_terminator():
    clauses = parse_rule("First part. second part without a full stop").clauses
    assert [c.text for c in clauses] == ["First part.", "second part without a full stop"]


def test_parse_rule_skips_empty_markers():
    structure = parse_rule("##\n*\n* real item\n")
    assert [(c.kind, c.text) for c in structure.clauses] == [(ClauseKind.BULLET, "real item")]


def test_parse_rule_reads_a_bold_line_as_prose():
    text = "You qualify if all of the following apply:\n\n**Note:** you must live in England.\n* you are over 60"
    clauses = parse_rule(text).clauses
    assert [(c.kind, c.text, c.char_span) for c in clauses[1:]] == [
        (ClauseKind.SENTENCE, "**Note:** you must live in England.", (44, 79)),
        (ClauseKind.BULLET, "you are over 60", (82, 97)),
    ]
    assert [text[start:end] for start, end in (c.char_span for c in clauses)] == [c.text for c in clauses]


def test_parse_rule_empty_text():
    structure = parse_rule("")
    assert structure.clauses == []
    assert structure.logic is LogicType.UNKNOWN


_LINE_POOL = (
    "## Overview",
    "# Short header",
    "* you are over 60",
    "* you live in England",
    "*",
    "**Note:** you must live in England.",
    "You can claim if all of the following apply:",
    "You may apply. It helps!  Really?",
    "no terminator on this line",
    "",
    "   ",
    "crlf line.\r",
    "  * indented bullet",
    "   ## indented header",
    # str.splitlines also cuts at U+2028, U+2029 and U+0085, inside what "\n" joins as one line
    "split\u2028* here. ok",
    "x\u2029## y",
    "nel\x85* not a bullet",
)


@given(st.lists(st.sampled_from(_LINE_POOL), max_size=8))
def test_parse_rule_invariants_hold_for_any_document(lines):
    text = "\n".join(lines)
    structure = parse_rule(text)
    previous_end = 0
    for i, clause in enumerate(structure.clauses, start=1):
        start, end = clause.char_span
        assert text[start:end] == clause.text
        assert start >= previous_end  # disjoint and ascending
        previous_end = end
        assert clause.ordinal == i
        assert clause.text == clause.text.strip()


# A prose line opens with a letter, so it is neither a header nor a bullet, and holds no
# character that str.splitlines cuts at; "\n" joins such lines into one prose block.
_PROSE_LINE = st.builds(
    str.__add__,
    st.sampled_from("aZ\u00e9"),
    st.lists(st.sampled_from(("b", "word", " ", "  ", "\t", "\u00a0", "\u3000", ".", "!", "?", "...", "?!")),
             max_size=10).map("".join),
)


@given(st.lists(_PROSE_LINE, min_size=1, max_size=4))
@example(["First part. second part without a full stop"])
@example(["Wait... Really?! Yes"])
@example(["Done.   ", "Next one!  "])
@example(["One.\u00a0Two.\u00a0"])
@example(["You can claim", "if you are over 60. Apply online."])
def test_parse_rule_cuts_sentences_where_the_reference_does(lines):
    text = "\n".join(lines)
    clauses = parse_rule(text).clauses
    assert all(c.kind is ClauseKind.SENTENCE for c in clauses)
    assert [(c.text, c.char_span) for c in clauses] == sentences(text)


# --------------------------------------------------------------------------
# classify_logic
# --------------------------------------------------------------------------


def _sentence(text, ordinal=1):
    return Clause(ClauseKind.SENTENCE, text, (0, len(text)), ordinal)


def test_single_non_header_clause_wins_over_cues():
    clauses = [
        Clause(ClauseKind.HEADER, "Benefits", (0, 8), 1),
        _sentence("You qualify if you are over 60 and you live here or nearby.", 2),
    ]
    assert classify_logic(clauses) is LogicType.SINGLE


def test_no_clauses_is_unknown():
    assert classify_logic([]) is LogicType.UNKNOWN
    assert classify_logic([Clause(ClauseKind.HEADER, "Benefits", (0, 8), 1)]) is LogicType.UNKNOWN


def test_conjunctive_majority():
    logic = parse_rule(
        "You must meet all of the conditions below.\n\n* be over 60\n* live in England\n"
    ).logic
    assert logic is LogicType.CONJUNCTIVE


def test_disjunctive_majority():
    logic = parse_rule(
        "You can claim if any of the following apply:\n\n* you are a carer\n* you are disabled\n"
    ).logic
    assert logic is LogicType.DISJUNCTIVE


def test_votes_count_occurrences_not_presence():
    clauses = [
        _sentence("You need a permit and a licence and a badge.", 1),
        _sentence("You can instead show an exemption or a waiver.", 2),
    ]
    assert classify_logic(clauses) is LogicType.CONJUNCTIVE  # two " and " beat one " or "


def test_bullets_and_headers_never_vote():
    text = (
        "## Either grant or loan\n"
        "You must meet all of the conditions below:\n\n"
        "* be 60 or older\n"
        "* live in England or Wales\n"
    )
    # two disjunctive cues hide in the bullets and one in the header; only the
    # prose "all of" counts
    assert parse_rule(text).logic is LogicType.CONJUNCTIVE


def test_tie_with_bulleted_the_following_is_disjunctive():
    text = "You may be able to claim the following:\n\n* a council tax discount\n* a heating allowance\n"
    assert parse_rule(text).logic is LogicType.DISJUNCTIVE


def test_tie_without_bullets_is_unknown():
    clauses = [
        _sentence("You must be a resident.", 1),
        _sentence("You must be over 60.", 2),
    ]
    assert classify_logic(clauses) is LogicType.UNKNOWN


def test_custom_cues_replace_defaults():
    cues = CueSet(conjunctive=("provided that",), disjunctive=("alternatively",))
    clauses = [
        _sentence("You qualify provided that you apply in time.", 1),
        _sentence("There is no other route.", 2),
    ]
    assert classify_logic(clauses, cues) is LogicType.CONJUNCTIVE
    # the default cues would have called this Unknown
    assert classify_logic(clauses, DEFAULT_CUES) is LogicType.UNKNOWN


# --------------------------------------------------------------------------
# load_cues
# --------------------------------------------------------------------------


def test_load_cues_round_trip(tmp_path):
    path = tmp_path / "cues.txt"
    path.write_text(
        "# comment line\n"
        "conj all of\n"
        "conj  and \n"
        "\n"
        "disj ANY OF\n",
        encoding="utf-8",
    )
    cues = load_cues(path)
    assert cues.conjunctive == ("all of", " and ")
    assert cues.disjunctive == ("any of",)


def test_load_cues_rejects_bad_tag(tmp_path):
    path = tmp_path / "cues.txt"
    path.write_text("conj all of\nboth maybe\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":2:"):
        load_cues(path)


def test_load_cues_rejects_missing_phrase(tmp_path):
    path = tmp_path / "cues.txt"
    path.write_text("conj\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":1:"):
        load_cues(path)


def test_load_cues_rejects_a_blank_phrase(tmp_path):
    # a whitespace cue would count every space in the prose and outvote the real cues
    path = tmp_path / "cues.txt"
    path.write_text("conj all of\ndisj  \n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"cues\.txt:2: expected 'conj <phrase>' or 'disj <phrase>', got 'disj  '"):
        load_cues(path)


def test_load_cues_names_the_path_of_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "cues.txt"
    path.write_bytes(b"conj all of\ndisj \xff\n")
    with pytest.raises(ValueError) as excinfo:
        load_cues(path)
    assert str(excinfo.value).startswith(f"{path}:2: not valid UTF-8: ")


def test_load_cues_ends_lines_at_a_newline_only(tmp_path):
    path = tmp_path / "cues.txt"
    path.write_text("conj a\u2028b\x85c\n", encoding="utf-8")  # U+2028 and U+0085 are inside the phrase
    assert load_cues(path).conjunctive == ("a\u2028b\x85c",)


def test_load_cues_reads_crlf_lines_as_lf_lines(tmp_path):
    path = tmp_path / "cues.txt"
    path.write_bytes(b"# comment\r\nconj  and \r\n\r\ndisj any of\r\n")
    assert load_cues(path) == CueSet(conjunctive=(" and ",), disjunctive=("any of",))
