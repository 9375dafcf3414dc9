"""LCS matching and per-token marker annotation."""

from itertools import combinations
from json.encoder import encode_basestring

import pytest
from hypothesis import example, given, settings, strategies as st

from sharctool.corpus import ClassLabel, CorpusError, DialogTurn, corpus_pass, pass_memo, tokenize
from sharctool.markers import (
    BASIC_STOPWORDS,
    MARKER_PHI,
    annotate_corpus,
    content_words,
    coverage,
    lcs_match,
    lcs_pairs,
)

from reference import annotate_history, extract_gold_span, lcs_pairs as reference_lcs_pairs


# --------------------------------------------------------------------------
# lcs_pairs against independent oracles
# --------------------------------------------------------------------------


def _dp_lcs_length(a, b):
    """Plain prefix-table LCS length; written independently of the library."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if x == y:
                table[i + 1][j + 1] = table[i][j] + 1
            else:
                table[i + 1][j + 1] = max(table[i][j + 1], table[i + 1][j])
    return table[len(a)][len(b)]


def _best_embedding(a, b):
    """(a_indices, b_indices) of the lexicographically smallest LCS embedding.

    Brute force: try a-index subsets largest first, embed each into b in every
    possible way, take the minimum. Exponential, fine for tiny inputs.
    """
    found = []

    def embed(positions, j_start, acc, k):
        if k == len(positions):
            found.append((positions, tuple(acc)))
            return
        wanted = a[positions[k]]
        for j in range(j_start, len(b)):
            if b[j] == wanted:
                acc.append(j)
                embed(positions, j + 1, acc, k + 1)
                acc.pop()

    for size in range(min(len(a), len(b)), 0, -1):
        for positions in combinations(range(len(a)), size):
            embed(positions, 0, [], 0)
        if found:
            return min(found)
    return ((), ())


def test_lcs_pairs_classic_example():
    a = list("ABCBDAB")
    b = list("BDCABA")
    assert lcs_pairs(a, b) == [(1, 0), (2, 2), (3, 4), (5, 5)]  # BCBA


def test_lcs_pairs_word_sequences():
    assert lcs_pairs("the cat sat".split(), "the mat sat".split()) == [(0, 0), (2, 2)]


def test_lcs_pairs_prefers_leftmost_match():
    assert lcs_pairs(["x", "x"], ["x"]) == [(0, 0)]
    assert lcs_pairs(["x"], ["x", "x"]) == [(0, 0)]


def test_lcs_pairs_disjoint_sequences():
    assert lcs_pairs(list("abc"), list("xyz")) == []
    assert lcs_pairs([], list("abc")) == []


_TINY = st.lists(st.sampled_from("abc"), max_size=5)


@given(_TINY, _TINY)
def test_lcs_pairs_matches_exhaustive_minimum(a, b):
    pairs = lcs_pairs(a, b)
    if not pairs:
        assert _dp_lcs_length(a, b) == 0
        return
    a_indices = tuple(i for i, _ in pairs)
    b_indices = tuple(j for _, j in pairs)
    assert (a_indices, b_indices) == _best_embedding(a, b)


_LONGER = st.lists(st.sampled_from("abcd"), max_size=30)


@given(_LONGER, _LONGER)
def test_lcs_pairs_is_a_maximal_common_subsequence(a, b):
    pairs = lcs_pairs(a, b)
    assert len(pairs) == _dp_lcs_length(a, b)
    for (i1, j1), (i2, j2) in zip(pairs, pairs[1:]):
        assert i1 < i2 and j1 < j2  # strictly increasing in both coordinates
    for i, j in pairs:
        assert a[i] == b[j]


# Two sequences of 0-40 symbols over an alphabet of 1-7, or over the two parts of 0-6 split at some
# symbol, so that pairs with no shared symbol (no LCS row at all) and an empty side are drawn often.
_SHARED_ALPHABET = st.integers(1, 7).flatmap(lambda k: st.tuples(*[st.lists(st.integers(0, k - 1), max_size=40)] * 2))
_DISJOINT_ALPHABETS = st.integers(1, 6).flatmap(
    lambda split: st.tuples(st.lists(st.integers(0, split - 1), max_size=40),
                            st.lists(st.integers(split, 6), max_size=40))
)
_SYMBOL_PAIRS = _SHARED_ALPHABET | _DISJOINT_ALPHABETS | _DISJOINT_ALPHABETS.map(lambda ab: ab[::-1])


@settings(max_examples=400)
@given(_SYMBOL_PAIRS)
def test_lcs_pairs_is_the_suffix_table_walk(ab):
    a, b = ab
    assert lcs_pairs(a, b) == reference_lcs_pairs(a, b)


# --------------------------------------------------------------------------
# lcs_match over tokenized text
# --------------------------------------------------------------------------


def test_lcs_match_is_case_insensitive_and_skips_punctuation():
    rule = tokenize("You are over 60.")
    utterance = tokenize("Are you over 60?")
    # "." and "?" normalize to "" and never participate
    assert lcs_match(rule, utterance) == [(0, 1), (2, 2), (3, 3)]


def test_lcs_match_honors_stopwords():
    rule = tokenize("You are over 60.")
    utterance = tokenize("Are you over 60?")
    pairs = lcs_match(rule, utterance, stopwords=BASIC_STOPWORDS)
    assert pairs == [(2, 2), (3, 3)]  # only "over" and "60" are content tokens


def test_lcs_match_raw_surfaces():
    rule = tokenize("over 60.")
    utterance = tokenize("Over 60.")
    pairs = lcs_match(rule, utterance, use_normalized=False)
    assert pairs == [(1, 1), (2, 2)]  # "over" != "Over", but "." matches "."


def test_lcs_match_raw_surfaces_pair_markdown_markers():
    rule = tokenize("## Rules\n* be over 60?")
    pairs = lcs_match(rule, tokenize("## over 60?"), use_normalized=False)
    assert pairs == [(0, 0), (4, 1), (5, 2), (6, 3)]  # "##", "over", "60", "?"


def test_lcs_match_returns_full_sequence_indices():
    rule = tokenize("## Grant. You must be over 60.")
    utterance = tokenize("over 60")
    pairs = lcs_match(rule, utterance)
    assert [rule.surfaces[i] for i, _ in pairs] == ["over", "60"]


def test_coverage_is_the_matched_share_of_normalized_clause_tokens():
    clause = tokenize("You are over 60.")  # "." has no normalized form: 4 tokens count
    assert coverage(clause, tokenize("Are you over 60?")) == 0.75
    assert coverage(clause, tokenize("Nothing alike")) == 0.0
    assert coverage(tokenize("..."), tokenize("anything")) == 1.0


@settings(max_examples=300)
@given(_SYMBOL_PAIRS, st.lists(st.booleans(), min_size=7, max_size=7))
@example(([0, 1, 0], [2, 3]), [False] * 7)  # no shared symbol
@example(([], [1, 2]), [False] * 7)  # an empty clause
@example(([1, 2], []), [False] * 7)  # an empty text
def test_coverage_is_the_lcs_match_share_inside_and_outside_a_pass(ab, punctuation):
    # A symbol flagged as punctuation becomes a token with no normalized form, which takes no part in matching.
    def text(symbols):
        return tokenize(" ".join("?" * (s + 1) if punctuation[s] else f"W{s}" if s % 2 else f"w{s}" for s in symbols))

    clause, other = map(text, ab)
    matchable = len(clause.matchable()[0])
    expected = len(lcs_match(clause, other)) / matchable if matchable else 1.0
    assert coverage(clause, other) == expected
    with corpus_pass():
        clause, other = map(text, ab)
        assert coverage(clause, other) == expected
        assert coverage(clause, other) == expected  # from the pass's memo


# --------------------------------------------------------------------------
# the matchable projection
# --------------------------------------------------------------------------

_MODES = [(True, frozenset()), (True, BASIC_STOPWORDS), (False, frozenset()), (False, BASIC_STOPWORDS)]


def _reference_matchable(text, use_normalized, stopwords):
    """The tokens that take part in matching, decided token by token, independently of the library."""
    indices, symbols = [], []
    for idx, (surface, normalized) in enumerate(zip(text.surfaces, text.normalized)):
        symbol = normalized if use_normalized else surface
        if use_normalized and not symbol:
            continue
        if normalized in stopwords:
            continue
        indices.append(idx)
        symbols.append(symbol)
    return tuple(indices), tuple(symbols)


_PIECES = "## * ** - You you are be over 60 60. carer's can't won't ’s ' ` ? . ... , ( ) : Rules the a If".split()
_TEXTS = st.one_of(
    st.lists(st.tuples(st.sampled_from(_PIECES), st.sampled_from([" ", "", "\n"])), max_size=12).map(
        lambda parts: "".join(piece + gap for piece, gap in parts)
    ),
    st.text(alphabet="aYb'’`*#.?, \n", max_size=20),
)


@given(_TEXTS)
def test_matchable_equals_the_reference_in_every_mode(text):
    tokenized = tokenize(text)
    for mode in _MODES:
        assert tokenized.matchable(*mode) == _reference_matchable(tokenized, *mode)
    assert content_words(tokenized) == set(tokenized.matchable(True, BASIC_STOPWORDS)[1])


def test_matchable_is_built_once_per_object_and_mode():
    text = tokenize("## Rules\n* You can't be over 60.")
    projections = {mode: text.matchable(*mode) for mode in _MODES}
    for mode, projection in projections.items():
        assert text.matchable(*mode) is projection
        assert all(isinstance(part, tuple) for part in projection)
    assert len(set(projections.values())) == len(_MODES)
    assert text.matchable() is projections[(True, frozenset())]
    # the cache takes no part in equality, hashing or repr
    fresh = tokenize(text.text)
    assert fresh == text and hash(fresh) == hash(text) and repr(fresh) == repr(text)


# --------------------------------------------------------------------------
# annotators
# --------------------------------------------------------------------------

RULE = tokenize("You qualify if you are over 60 and you live in England.")


def _turns(turn, *qa):
    return [turn(q, a) for q, a in qa]


def test_annotate_history_marks_matched_tokens(turn):
    history = _turns(turn, ("Are you over 60?", "Yes"), ("Do you live in England?", "No"))
    markers, turns = annotate_history(RULE, history, stopwords=BASIC_STOPWORDS)
    by_surface = dict(zip(RULE.surfaces, zip(markers, turns)))
    assert by_surface["over"] == ("Yes", 1)
    assert by_surface["60"] == ("Yes", 1)
    assert by_surface["live"] == ("No", 2)
    assert by_surface["England"] == ("No", 2)
    assert by_surface["qualify"] == (MARKER_PHI, 0)


def test_annotate_history_later_turn_overwrites(turn):
    history = _turns(turn, ("Are you over 60?", "Yes"), ("Are you over 65?", "No"))
    markers, turns = annotate_history(RULE, history, stopwords=BASIC_STOPWORDS)
    by_surface = dict(zip(RULE.surfaces, zip(markers, turns)))
    assert by_surface["over"] == ("No", 2)  # re-asked, latest turn wins
    assert by_surface["60"] == ("Yes", 1)  # only the first turn mentioned it


def test_annotate_history_empty_history():
    markers, turns = annotate_history(RULE, [])
    assert markers == [MARKER_PHI] * len(RULE.surfaces)
    assert turns == [0] * len(RULE.surfaces)


@given(
    st.lists(
        st.tuples(
            st.lists(st.sampled_from("over 60 live England qualify zebra".split()), min_size=1, max_size=4),
            st.sampled_from(["Yes", "No"]),
        ),
        max_size=4,
    )
)
def test_annotate_history_phi_iff_turn_zero(question_specs):
    history = [
        DialogTurn(follow_up_question=" ".join(words) + "?", follow_up_answer=answer)
        for words, answer in question_specs
    ]
    markers, turns = annotate_history(RULE, history)
    assert len(markers) == len(turns) == len(RULE.surfaces)
    for marker, turn_number in zip(markers, turns):
        assert (marker == MARKER_PHI) == (turn_number == 0)
        if turn_number:
            assert marker == history[turn_number - 1].follow_up_answer


def test_annotate_scenario(make_instance, turn):
    # the scenario markers of a row come from the evidence turns, not the history
    instance = make_instance(rule_text=RULE.text, history=_turns(turn, ("Do you live in England?", "No")),
                             evidence=_turns(turn, ("Are you over 60?", "Yes")))
    [row], _ = annotate_corpus([instance], stopwords=BASIC_STOPWORDS)
    by_surface = dict(zip(RULE.surfaces, row[4]))  # each marker in its JSON form
    assert by_surface["over"] == '"Yes"'
    assert by_surface["60"] == '"Yes"'
    assert by_surface["live"] == encode_basestring(MARKER_PHI)


def test_extract_gold_span_covers_matched_region():
    span = extract_gold_span(RULE, "Do you live in England?", stopwords=BASIC_STOPWORDS)
    surfaces = RULE.surfaces
    assert span == (surfaces.index("live"), surfaces.index("England"))


def test_extract_gold_span_none_when_nothing_matches():
    assert extract_gold_span(RULE, "Completely unrelated zebra?", stopwords=BASIC_STOPWORDS) is None


# --------------------------------------------------------------------------
# corpus-level annotation
# --------------------------------------------------------------------------


def test_annotate_corpus_records_and_stats(make_instance, turn):
    corpus = [
        make_instance(
            utterance_id="m-1",
            rule_text=RULE.text,
            history=[turn("Are you over 60?", "Yes")],
            evidence=[turn("Are you over 60?", "Yes")],
            gold_answer="Do you live in England?",
        ),
        make_instance(utterance_id="m-2", rule_text=RULE.text, gold_answer="Any zebras nearby?"),
        make_instance(utterance_id="y-1", rule_text=RULE.text, gold_answer="Yes"),
    ]
    rows, stats = annotate_corpus(corpus, stopwords=BASIC_STOPWORDS)

    assert stats.instances == 3
    assert stats.more_instances == 2
    assert stats.more_with_span == 1
    assert stats.span_coverage == 0.5

    first = rows[0]
    assert first[:2] == ("m-1", RULE.surfaces)
    assert first[5] == (RULE.surfaces.index("live"), RULE.surfaces.index("England"))
    assert first[6] is False
    assert rows[1][5:] == (None, True)  # More with an empty span: flagged
    assert rows[2][5:] == (None, False)  # Yes-labeled: no span extraction, no flag
    assert corpus[2].label is ClassLabel.YES


def test_annotate_corpus_span_coverage_none_without_more(make_instance):
    _, stats = annotate_corpus([make_instance(gold_answer="Yes")])
    assert stats.span_coverage is None


def test_annotate_corpus_hands_each_annotation_to_the_sink_as_it_is_made(make_instance):
    def corpus():
        for i in range(3):
            yield make_instance(utterance_id=f"u-{i}", rule_text=RULE.text, gold_answer="Are you over 60?")
        raise CorpusError("record 3 is bad")

    received = []

    def sink(rows):
        for row in rows:
            received.append(row[0])

    with pytest.raises(CorpusError, match="record 3"):
        annotate_corpus(corpus(), sink=sink)
    assert received == ["u-0", "u-1", "u-2"]


def test_annotate_corpus_returns_what_the_sink_returns_with_complete_stats(make_instance):
    def count_inside_the_pass(rows):
        assert pass_memo("tokenize") is not None
        return sum(1 for _ in rows)

    corpus = [make_instance(utterance_id=f"u-{i}", gold_answer=answer) for i, answer in enumerate(["Yes", "Why?"])]
    counted, stats = annotate_corpus(iter(corpus), sink=count_inside_the_pass)
    assert counted == stats.instances == 2
    assert stats.more_instances == 1
    assert pass_memo("tokenize") is None
