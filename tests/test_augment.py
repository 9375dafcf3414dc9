"""Augmentation moves, class balancing, and run determinism."""

import hashlib
import itertools
import random
import weakref
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from sharctool import augment
from sharctool.augment import (
    DEFAULT_CLASS_TARGETS,
    AugmentConfig,
    AugmentedInstance,
    Provenance,
    build_augmented_corpus,
    make_irrelevant_instance,
    shuffle_history_instance,
    write_augmented,
)
from sharctool.corpus import ClassLabel, DialogTurn, Instance, content_hash, content_key, iter_corpus, read_jsonl

from reference import augmented_to_record


# --------------------------------------------------------------------------
# shuffle_history_instance
# --------------------------------------------------------------------------


def _history(*qa):
    return [DialogTurn(follow_up_question=q, follow_up_answer=a) for q, a in qa]


THREE_TURNS = _history(("Are you over 60?", "Yes"), ("Do you live here?", "No"), ("Are you retired?", "Yes"))


def test_shuffle_preserves_everything_but_order(make_instance):
    source = make_instance(utterance_id="p1", history=list(THREE_TURNS), scenario="ctx")
    shuffled = shuffle_history_instance(source, random.Random(7))
    clone = shuffled.instance
    assert Counter(clone.history) == Counter(source.history)
    assert clone.history != source.history
    assert clone.rule_text == source.rule_text
    assert clone.question == source.question
    assert clone.scenario == source.scenario
    assert clone.gold_answer == source.gold_answer
    assert clone.tree_id == source.tree_id
    assert clone.utterance_id != source.utterance_id
    assert shuffled.provenance is Provenance.HISTORY_SHUFFLED
    assert shuffled.parent_id == "p1"


def test_shuffle_permutation_record_is_faithful(make_instance):
    source = make_instance(history=list(THREE_TURNS))
    shuffled = shuffle_history_instance(source, random.Random(3))
    perm = shuffled.permutation
    assert sorted(perm) == [0, 1, 2]
    assert [source.history[i] for i in perm] == shuffled.instance.history


def test_shuffle_rejects_short_or_constant_histories(make_instance):
    with pytest.raises(ValueError):
        shuffle_history_instance(make_instance(history=_history(("q?", "Yes"))), random.Random(0))
    constant = _history(("q?", "Yes"), ("q?", "Yes"))
    with pytest.raises(ValueError):
        shuffle_history_instance(make_instance(history=constant), random.Random(0))


def test_shuffle_is_deterministic_per_rng_state(make_instance):
    source = make_instance(history=list(THREE_TURNS))
    a = shuffle_history_instance(source, random.Random(11), seed=5)
    b = shuffle_history_instance(source, random.Random(11), seed=5)
    assert a.instance.history == b.instance.history
    assert a.instance.utterance_id == b.instance.utterance_id


_QA = st.tuples(st.sampled_from(["Q1?", "Q2?", "Q3?"]), st.sampled_from(["Yes", "No"]))


@given(st.lists(_QA, min_size=2, max_size=5), st.integers(0, 2**32 - 1))
def test_shuffle_properties(qa_list, seed):
    history = _history(*qa_list)
    assume(len(set(history)) > 1)
    source = Instance(
        utterance_id="p",
        tree_id="t",
        rule_text="Some rule.",
        question="Some question?",
        scenario="ctx",
        history=history,
        evidence=[],
        gold_answer="Yes",
    )
    shuffled = shuffle_history_instance(source, random.Random(seed))
    assert Counter(shuffled.instance.history) == Counter(history)
    assert shuffled.instance.history != history
    assert [history[i] for i in shuffled.permutation] == shuffled.instance.history
    assert content_hash(shuffled.instance) != content_hash(source)


def _reference_reordering(history, rng):
    """Draw a reordering by enumerating every permutation, as the first implementation did."""
    orderings = {}
    for perm in itertools.permutations(range(len(history))):
        seq = tuple(history[i] for i in perm)
        if seq != tuple(history) and seq not in orderings:
            orderings[seq] = perm
    return list(orderings.items())[rng.randrange(len(orderings))]


@settings(max_examples=60, deadline=None)
@given(st.lists(_QA, min_size=2, max_size=7), st.integers(0, 2**32 - 1))
def test_shuffle_draws_what_full_enumeration_draws(qa_list, seed):
    history = _history(*qa_list)
    assume(len(set(history)) > 1)
    source = Instance("p", "t", "Some rule.", "Some question?", "ctx", history, [], "Yes")
    rng, reference_rng = random.Random(seed), random.Random(seed)
    shuffled = shuffle_history_instance(source, rng)
    sequence, perm = _reference_reordering(history, reference_rng)
    assert shuffled.permutation == list(perm)
    assert shuffled.instance.history == list(sequence)
    assert rng.random() == reference_rng.random()


# --------------------------------------------------------------------------
# make_irrelevant_instance
# --------------------------------------------------------------------------


def test_rule_replacement_swaps_rule_and_relabels(make_instance):
    source = make_instance(utterance_id="s", tree_id="t-a", scenario="I am 70.", gold_answer="Yes")
    donor = make_instance(utterance_id="d", tree_id="t-b", rule_text="A different rule entirely.")
    replaced = make_irrelevant_instance(source, [donor], random.Random(0))
    clone = replaced.instance
    assert clone.rule_text == donor.rule_text
    assert clone.tree_id == donor.tree_id
    assert clone.question == source.question
    assert clone.scenario == source.scenario
    assert clone.gold_answer == "Irrelevant"
    assert clone.label is ClassLabel.IRRELEVANT
    assert replaced.provenance is Provenance.RULE_REPLACED
    assert replaced.parent_id == "s"


def test_rule_replacement_keeps_or_drops_history(make_instance, turn):
    history = [turn("Are you over 60?", "Yes")]
    source = make_instance(utterance_id="s", tree_id="t-a", scenario="ctx", history=history)
    donor = make_instance(utterance_id="d", tree_id="t-b", rule_text="Other rule.")
    kept = make_irrelevant_instance(source, [donor], random.Random(0))
    assert kept.instance.history == history
    dropped = make_irrelevant_instance(source, [donor], random.Random(0), drop_history=True)
    assert dropped.instance.history == []


def test_rule_replacement_requires_scenario_and_foreign_tree(make_instance):
    no_scenario = make_instance(utterance_id="s", scenario="  ")
    donor = make_instance(utterance_id="d", tree_id="t-b")
    with pytest.raises(ValueError, match="scenario"):
        make_irrelevant_instance(no_scenario, [donor], random.Random(0))

    source = make_instance(utterance_id="s", tree_id="t-a", scenario="ctx")
    same_tree = make_instance(utterance_id="d", tree_id="t-a")
    with pytest.raises(ValueError, match="tree_id"):
        make_irrelevant_instance(source, [same_tree], random.Random(0))


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------


def test_config_default_targets_are_copied():
    config = AugmentConfig(seed=1)
    assert config.class_targets == DEFAULT_CLASS_TARGETS
    config.class_targets[ClassLabel.YES] = 0.0
    assert DEFAULT_CLASS_TARGETS[ClassLabel.YES] == 27.09


def test_config_target_counts_round_per_class():
    config = AugmentConfig(seed=1, total_target=1000)
    counts = config.target_counts()
    assert counts == {
        ClassLabel.IRRELEVANT: 224,
        ClassLabel.YES: 271,
        ClassLabel.NO: 281,
        ClassLabel.MORE: 224,
    }


def test_config_validation_errors():
    bad_sum = AugmentConfig(seed=1, class_targets={label: 20.0 for label in ClassLabel})
    with pytest.raises(ValueError, match="sum"):
        bad_sum.validate(10)

    missing_class = AugmentConfig(
        seed=1,
        class_targets={ClassLabel.YES: 50.0, ClassLabel.NO: 50.0},
    )
    with pytest.raises(ValueError, match="four classes"):
        missing_class.validate(10)

    too_small = AugmentConfig(seed=1, total_target=5)
    with pytest.raises(ValueError, match="below the corpus size"):
        too_small.validate(10)
    # dropping the originals lifts the floor
    AugmentConfig(seed=1, total_target=5, keep_original=False).validate(10)

    bad_perms = AugmentConfig(seed=1, total_target=100, max_permutations_per_instance=0)
    with pytest.raises(ValueError, match="at least 1"):
        bad_perms.validate(10)


# --------------------------------------------------------------------------
# build_augmented_corpus
# --------------------------------------------------------------------------

EVEN_TARGETS = {
    ClassLabel.IRRELEVANT: 25.0,
    ClassLabel.YES: 25.0,
    ClassLabel.NO: 25.0,
    ClassLabel.MORE: 25.0,
}


def _toy_corpus(make_instance):
    def labelled(uid, tree, gold, scenario="Some context here.", n_turns=3):
        questions = [f"{uid} follow-up {i}?" for i in range(n_turns)]
        answers = ["Yes", "No", "Yes"]
        return make_instance(
            utterance_id=uid,
            tree_id=tree,
            rule_text=f"Rule text for {tree}.",
            question=f"Does {tree} apply to me?",
            scenario=scenario,
            history=_history(*zip(questions, answers[:n_turns])),
            gold_answer=gold,
        )

    return [
        labelled("y1", "t1", "Yes"),
        labelled("y2", "t2", "Yes", n_turns=2),
        labelled("n1", "t3", "No"),
        labelled("n2", "t4", "No", n_turns=2),
        labelled("m1", "t5", "Do you have a partner?"),
        labelled("m2", "t6", "Are you studying?", n_turns=2),
        make_instance(utterance_id="i1", tree_id="t7", gold_answer="Irrelevant"),
    ]


def _by_id(corpus):
    return {inst.utterance_id: inst for inst in corpus}


def test_build_balances_toward_targets(make_instance):
    corpus = _toy_corpus(make_instance)
    config = AugmentConfig(seed=13, total_target=12, class_targets=dict(EVEN_TARGETS))
    items, manifest = build_augmented_corpus(corpus, config)

    assert manifest.achieved_total == len(items) == 12
    assert manifest.achieved_counts == {"Yes": 3, "No": 3, "Irrelevant": 3, "More": 3}
    assert manifest.shortfalls == {"Yes": 0, "No": 0, "Irrelevant": 0, "More": 0}
    assert manifest.provenance_counts["Original"] == 7
    assert manifest.provenance_counts["RuleReplaced"] == 2
    assert manifest.provenance_counts["HistoryShuffled"] == 3


def test_build_provenance_invariants(make_instance):
    corpus = _toy_corpus(make_instance)
    parents = _by_id(corpus)
    config = AugmentConfig(seed=13, total_target=12, class_targets=dict(EVEN_TARGETS))
    items, _ = build_augmented_corpus(corpus, config)

    hashes = [content_hash(item.instance) for item in items]
    assert len(set(hashes)) == len(hashes)  # no duplicate content
    ids = [item.instance.utterance_id for item in items]
    assert len(set(ids)) == len(ids)

    for item in items:
        parent = parents[item.parent_id]
        if item.provenance is Provenance.ORIGINAL:
            assert item.instance is parent
        elif item.provenance is Provenance.HISTORY_SHUFFLED:
            assert Counter(item.instance.history) == Counter(parent.history)
            assert item.instance.history != parent.history
            assert item.instance.rule_text == parent.rule_text
            assert item.instance.gold_answer == parent.gold_answer
            assert [parent.history[i] for i in item.permutation] == item.instance.history
        else:
            assert item.instance.tree_id != parent.tree_id
            assert item.instance.rule_text != parent.rule_text
            assert item.instance.question == parent.question
            assert item.instance.scenario == parent.scenario
            assert item.instance.gold_answer == "Irrelevant"


def test_build_is_deterministic(make_instance):
    corpus = _toy_corpus(make_instance)
    first, _ = build_augmented_corpus(corpus, AugmentConfig(seed=13, total_target=12, class_targets=dict(EVEN_TARGETS)))
    second, _ = build_augmented_corpus(corpus, AugmentConfig(seed=13, total_target=12, class_targets=dict(EVEN_TARGETS)))
    assert [augmented_to_record(i) for i in first] == [augmented_to_record(i) for i in second]


def test_build_seed_changes_the_output(make_instance):
    corpus = _toy_corpus(make_instance)
    first, _ = build_augmented_corpus(corpus, AugmentConfig(seed=13, total_target=12, class_targets=dict(EVEN_TARGETS)))
    second, _ = build_augmented_corpus(corpus, AugmentConfig(seed=14, total_target=12, class_targets=dict(EVEN_TARGETS)))
    assert [augmented_to_record(i) for i in first] != [augmented_to_record(i) for i in second]


def test_build_reports_unfillable_deficits_as_shortfalls(make_instance):
    corpus = [
        _toy_corpus(make_instance)[0],  # y1, shuffleable
        make_instance(utterance_id="m-bare", tree_id="t9", gold_answer="Got a minute?"),
    ]
    config = AugmentConfig(
        seed=1,
        total_target=6,
        class_targets={
            ClassLabel.YES: 50.0,
            ClassLabel.MORE: 50.0,
            ClassLabel.NO: 0.0,
            ClassLabel.IRRELEVANT: 0.0,
        },
    )
    items, manifest = build_augmented_corpus(corpus, config)
    assert manifest.shortfalls["More"] == 2  # no shuffleable More parent exists
    assert manifest.shortfalls["Yes"] == 0
    assert manifest.generated_counts["Yes"] == 2
    assert manifest.achieved_total == len(items) == 4


def test_build_without_originals(make_instance):
    corpus = _toy_corpus(make_instance)
    config = AugmentConfig(
        seed=13, total_target=8, class_targets=dict(EVEN_TARGETS), keep_original=False
    )
    items, manifest = build_augmented_corpus(corpus, config)
    assert manifest.provenance_counts["Original"] == 0
    assert all(item.provenance is not Provenance.ORIGINAL for item in items)


def test_build_drops_duplicate_originals(make_instance):
    base = _toy_corpus(make_instance)
    twin = make_instance(
        utterance_id="y1-copy",
        tree_id="t1",
        rule_text="Rule text for t1.",
        question="Does t1 apply to me?",
        scenario="Some context here.",
        history=list(base[0].history),
        gold_answer="Yes",
    )
    corpus = base + [twin]
    config = AugmentConfig(seed=13, total_target=12, class_targets=dict(EVEN_TARGETS))
    items, manifest = build_augmented_corpus(corpus, config)
    assert manifest.original_duplicates_dropped == 1
    assert "y1-copy" not in {item.instance.utterance_id for item in items}


def _reference_build(corpus, config):
    """``build_augmented_corpus`` as it was when a fill kept every parent's stream until it returned.

    Returns the items and the manifest fields that the fills decide.
    """
    config.validate(len(corpus))
    out, seen, used_ids = [], set(), set()
    duplicates = original_duplicates = 0
    if config.keep_original:
        for instance in corpus:
            key = content_key(instance)
            if key in seen:
                original_duplicates += 1
                continue
            seen.add(key)
            used_ids.add(instance.utterance_id)
            out.append(AugmentedInstance(instance, Provenance.ORIGINAL, instance.utterance_id))
    originals = Counter(item.instance.label for item in out)
    targets = config.target_counts()
    deficits = {label: max(0, targets[label] - originals[label]) for label in ClassLabel}
    generated = {label: 0 for label in ClassLabel}

    def fill(label, eligible, purpose, make, per_parent=None):
        nonlocal duplicates
        if not deficits[label]:
            return
        parents = [inst for inst in corpus if eligible(inst)]
        streams, admitted, attempts = {}, Counter(), Counter()
        for _ in range(64):
            progress = False
            for parent in parents:
                if generated[label] >= deficits[label]:
                    return
                pid = parent.utterance_id
                if per_parent is not None:
                    if admitted[pid] >= per_parent or attempts[pid] >= 4 * per_parent:
                        continue
                    attempts[pid] += 1
                if pid not in streams:
                    streams[pid] = augment._stream(config.seed, purpose, pid)
                try:
                    candidate = make(parent, streams[pid])
                except ValueError:
                    continue
                progress = True
                key = content_key(candidate.instance)
                if key in seen:
                    duplicates += 1
                    continue
                if candidate.instance.utterance_id in used_ids:
                    candidate.instance.utterance_id += "-dup"
                seen.add(key)
                used_ids.add(candidate.instance.utterance_id)
                out.append(candidate)
                generated[label] += 1
                admitted[pid] += 1
            if not progress:
                return

    fill(ClassLabel.IRRELEVANT, lambda inst: inst.scenario.strip(), "rule-replace",
         lambda parent, rng: make_irrelevant_instance(
             parent, corpus, rng, seed=config.seed, drop_history=config.drop_replaced_history))
    for label in (ClassLabel.YES, ClassLabel.NO, ClassLabel.MORE):
        fill(label, lambda inst: inst.label is label and len(inst.history) >= 2 and len(set(inst.history)) > 1,
             f"shuffle-{label.value}", lambda parent, rng: shuffle_history_instance(parent, rng, seed=config.seed),
             config.max_permutations_per_instance)
    return out, {
        "generated_counts": {label.value: n for label, n in generated.items()},
        "shortfalls": {label.value: deficits[label] - generated[label] for label in ClassLabel},
        "duplicates_dropped": duplicates,
        "original_duplicates_dropped": original_duplicates,
    }


_GOLDS = ["Yes", "No", "Irrelevant", "Do you work?", "Are you married?"]


@st.composite
def _small_corpus(draw):
    """Up to a dozen instances over three trees, most with a scenario and a history that can be reordered."""
    corpus = []
    for index in range(draw(st.integers(1, 12))):
        tree = draw(st.integers(0, 2))
        corpus.append(Instance(
            f"u{index}", f"t{tree}", f"Rule of tree {tree}.", draw(st.sampled_from(["Can I?", "May I?"])),
            draw(st.sampled_from(["", "I am 70.", "I live abroad."])), _history(*draw(st.lists(_QA, max_size=4))),
            [], draw(st.sampled_from(_GOLDS)),
        ))
    return corpus


@settings(max_examples=80, deadline=None)
@given(
    _small_corpus(),
    st.integers(0, 2**16),
    st.integers(40, 400),
    st.integers(1, 3),
    st.booleans(),
    st.booleans(),
)
def test_a_fill_that_keeps_no_idle_stream_draws_what_keeping_every_stream_draws(
    corpus, seed, total, max_perms, drop_history, keep_original
):
    # Targets far above what a dozen parents can give make every fill walk several passes.
    config = AugmentConfig(seed=seed, total_target=total, class_targets=dict(EVEN_TARGETS),
                           max_permutations_per_instance=max_perms, keep_original=keep_original,
                           drop_replaced_history=drop_history)
    items, manifest = build_augmented_corpus(corpus, config)
    reference_items, reference_manifest = _reference_build(corpus, config)
    assert [augmented_to_record(item) for item in items] == [augmented_to_record(item) for item in reference_items]
    assert {key: getattr(manifest, key) for key in reference_manifest} == reference_manifest
    originals = [item for item in items if item.provenance is Provenance.ORIGINAL]
    for counts, counted in ((manifest.original_counts, originals), (manifest.achieved_counts, items)):
        assert list(counts.items()) == [
            (label.value, sum(item.instance.label is label for item in counted)) for label in ClassLabel
        ]


def test_a_fill_that_ends_in_its_first_pass_holds_one_stream_at_a_time(make_instance, monkeypatch):
    made = []

    def stream(*key):
        assert sum(ref() is not None for ref in made) <= 1, "an earlier parent's stream is still held"
        rng = make_stream(*key)
        made.append(weakref.ref(rng))
        return rng

    make_stream = augment._stream
    monkeypatch.setattr(augment, "_stream", stream)
    corpus = [
        make_instance(utterance_id=f"y{i}", tree_id=f"t{i % 5}", question=f"Question {i}?", scenario="I am 70.")
        for i in range(10)
    ]
    config = AugmentConfig(seed=13, total_target=18,
                           class_targets={ClassLabel.IRRELEVANT: 50.0, ClassLabel.YES: 50.0, ClassLabel.NO: 0.0,
                                          ClassLabel.MORE: 0.0})
    _, manifest = build_augmented_corpus(corpus, config)
    assert manifest.generated_counts["Irrelevant"] == len(made) == 9


def test_build_derives_each_input_class_once(make_instance, monkeypatch):
    import sharctool.corpus

    calls = []
    derive = sharctool.corpus.derive_label

    def counting(answer):
        calls.append(answer)
        return derive(answer)

    monkeypatch.setattr(sharctool.corpus, "derive_label", counting)
    corpus = _toy_corpus(make_instance)
    _, manifest = build_augmented_corpus(
        corpus, AugmentConfig(seed=13, total_target=12, class_targets=dict(EVEN_TARGETS))
    )
    assert manifest.provenance_counts["RuleReplaced"] and manifest.provenance_counts["HistoryShuffled"]
    assert 0 < len(calls) <= len(corpus)


def test_a_generated_id_that_an_original_holds_gets_dup(make_instance):
    seed = 13
    parent = make_instance(utterance_id="p", tree_id="t1", scenario="I am 70.")
    # The id make_irrelevant_instance gives p's candidate: t2 is the only foreign tree, so the donor's.
    taken = "aug-" + hashlib.sha256(f"p|RuleReplaced|t2|{seed}".encode("utf-8")).hexdigest()[:16]
    # No scenario, so never a rule-replacement parent itself.
    squatter = make_instance(utterance_id=taken, tree_id="t2", rule_text="Another rule.", gold_answer="No")
    corpus = [parent, squatter]
    config = AugmentConfig(seed=seed, total_target=4, class_targets={
        ClassLabel.IRRELEVANT: 25.0, ClassLabel.YES: 50.0, ClassLabel.NO: 25.0, ClassLabel.MORE: 0.0})
    items, manifest = build_augmented_corpus(corpus, config)
    assert manifest.generated_counts["Irrelevant"] == 1
    assert [(item.instance.utterance_id, item.provenance) for item in items] == [
        ("p", Provenance.ORIGINAL), (taken, Provenance.ORIGINAL), (taken + "-dup", Provenance.RULE_REPLACED)]
    reference_items, _ = _reference_build(corpus, config)
    assert [augmented_to_record(item) for item in items] == [augmented_to_record(item) for item in reference_items]


def test_an_augmented_instance_holds_its_fields_and_nothing_else(make_instance):
    item = AugmentedInstance(make_instance(), Provenance.ORIGINAL, "u-0")
    assert not hasattr(item, "__dict__")
    with pytest.raises(AttributeError):
        item.note = "extra"


def test_write_and_load_round_trip(tmp_path, make_instance):
    corpus = _toy_corpus(make_instance)
    config = AugmentConfig(seed=13, total_target=12, class_targets=dict(EVEN_TARGETS))
    items, _ = build_augmented_corpus(corpus, config)
    path = tmp_path / "augmented.jsonl"
    write_augmented(path, items)
    assert [record for _, record in read_jsonl(path)] == [augmented_to_record(i) for i in items]
    assert list(iter_corpus(path)) == [i.instance for i in items]
