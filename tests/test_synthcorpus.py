"""The bundled replica generator: determinism, exact counts, well-formedness."""

import hashlib
import os

import pytest

from sharctool.corpus import ClassLabel, derive_label, load_corpus, write_corpus
from sharctool.probe import probe_corpus
from sharctool.synthcorpus import DEV_SPEC, TRAIN_SPEC, SplitSpec, generate_split

from reference import instance_to_record

TOY_SPEC = SplitSpec(
    name="toy",
    seed=99,
    class_counts={
        ClassLabel.IRRELEVANT: 20,
        ClassLabel.YES: 60,
        ClassLabel.NO: 60,
        ClassLabel.MORE: 60,
    },
    tree_count=60,
)


@pytest.fixture(scope="module")
def toy_split():
    return generate_split(TOY_SPEC)


def test_generate_split_is_deterministic(toy_split):
    again = generate_split(TOY_SPEC)
    assert [instance_to_record(i) for i in again] == [instance_to_record(i) for i in toy_split]


def test_generate_split_hits_exact_class_counts(toy_split):
    counts = {label: 0 for label in ClassLabel}
    for instance in toy_split:
        counts[instance.label] += 1
    assert counts == TOY_SPEC.class_counts
    assert len(toy_split) == sum(TOY_SPEC.class_counts.values()) == 200


def test_generate_split_ids_are_unique(toy_split):
    ids = [inst.utterance_id for inst in toy_split]
    assert len(set(ids)) == len(ids)


def test_generated_instances_are_well_formed(toy_split):
    for instance in toy_split:
        assert instance.rule_text.strip()
        assert instance.question.strip()
        assert instance.tree_id
        for turn in instance.history + instance.evidence:
            assert turn.follow_up_answer in ("Yes", "No")
            assert turn.follow_up_question.strip()
        if instance.label is ClassLabel.MORE:
            assert instance.gold_answer.endswith("?")
        if instance.label is ClassLabel.IRRELEVANT:
            assert instance.gold_answer == "Irrelevant"


def test_generated_labels_match_derive_label(toy_split):
    for instance in toy_split:
        assert derive_label(instance.gold_answer) is instance.label


def test_generated_split_survives_strict_reload(tmp_path, toy_split):
    path = tmp_path / "toy.jsonl"
    write_corpus(path, toy_split)
    loaded = load_corpus(path, strict=True)
    assert [instance_to_record(i) for i in loaded] == [instance_to_record(i) for i in toy_split]


def test_split_specs_are_distinct():
    assert TRAIN_SPEC.seed != DEV_SPEC.seed
    assert sum(TRAIN_SPEC.class_counts.values()) == 21890
    assert sum(DEV_SPEC.class_counts.values()) == 2270


def test_toy_distribution_tracks_spec(toy_split):
    distribution = probe_corpus(toy_split).class_distribution
    assert distribution[ClassLabel.IRRELEVANT] == pytest.approx(10.0)
    assert distribution[ClassLabel.YES] == pytest.approx(30.0)


# SHA-256 of write_corpus output. Every RNG draw of the generator feeds these
# bytes, so a reordered draw, a changed share or a changed template shows here.
TOY_SHA256 = "f18737d5e6bb69b36d16977e269bbe2a20f507f39b7faccb2afd8ab534a03026"
DEV_SHA256 = "589f683634beaafc6a88ef95d568a93f25211d471c5f62920a187e903c47c674"
# Train's 460 trees draw the most conditions of every family and the most negated folds.
TRAIN_SHA256 = "3b9eeac8b2f5d9539db2c3371e7490fffd8710b740787aeaea4b1739649fef86"


def _written_sha256(path, corpus):
    write_corpus(path, corpus)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_toy_split_bytes_are_pinned(tmp_path, toy_split):
    assert _written_sha256(tmp_path / "toy.jsonl", toy_split) == TOY_SHA256


@pytest.mark.parametrize("name, env_var, expected", [
    ("dev", "SHARC_DEV_JSON", DEV_SHA256),
    ("train", "SHARC_TRAIN_JSON", TRAIN_SHA256),
], ids=["dev", "train"])
def test_generated_split_bytes_are_pinned(tmp_path, request, name, env_var, expected):
    if os.environ.get(env_var):
        pytest.skip(f"{env_var} replaces the generated {name} split")
    corpus = request.getfixturevalue(f"{name}_corpus")
    assert _written_sha256(tmp_path / f"{name}.jsonl", corpus) == expected
