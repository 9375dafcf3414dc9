"""Seeded generator for a ShARC-shaped synthetic corpus.

The real ShARC distribution is not vendored here, so this module fabricates
a stand-in with the same record shape and — more importantly — the same
statistical fingerprints the rest of the toolkit measures and manipulates:
a last-follow-up-answer echo around 84%, empty contexts concentrated on
Irrelevant, a follow-up rate that decays with history length, and enough
multi-turn / scenario-bearing instances for the augmenter's quotas.

Every instance is woven from a rule tree: a markdown rule (header, lead-in,
bullet conditions), a dialog that asks conditions in order, and optional
"evidence folding" that moves answered turns into the scenario text. Each
class is cut into named strata, one row each in ``_STRATA``: a share of the
class, the trees it draws from, and an emitter. The shares were chosen so
the corpus-level statistics land in realistic bands; ``generate_split``
fills exact class counts. The output is byte-identical for a given
(seed, split spec).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Sequence

from .corpus import ClassLabel, DialogTurn, Instance, content_key, corpus_pass, tokenize
from .markers import content_words, coverage, jaccard

__all__ = [
    "DEV_SPEC",
    "TRAIN_SPEC",
    "SplitSpec",
    "generate_split",
]

# --------------------------------------------------------------------------
# Vocabulary
# --------------------------------------------------------------------------

_TOPIC_PREFIXES = (
    "Winter", "Rural", "Family", "Youth", "Senior", "Carer", "Veteran", "Student",
    "Childcare", "Energy", "Transport", "Maternity", "Bereavement", "Jobseeker",
    "Disability", "Heritage", "Coastal", "Island", "Border", "Harvest",
)
_TOPIC_DOMAINS = (
    "Fuel", "Support", "Assistance", "Living", "Income", "Care", "Mobility",
    "Training", "Education", "Housing", "Travel", "Heating", "Relief",
    "Resettlement", "Employment",
)
_TOPIC_KINDS = (
    "Payment", "Allowance", "Grant", "Credit", "Supplement", "Benefit",
    "Scheme", "Fund", "Premium", "Bonus",
)

_PLACES = (
    "England", "Scotland", "Wales", "Northern Ireland", "the pilot area",
    "council housing", "rented accommodation", "a care home", "a rural district",
    "the scheme area",
)
_AGES = (16, 18, 21, 25, 35, 50, 60, 65, 66, 70, 75)
_HOURS = (16, 20, 25, 30, 35)

# Per-kind initial questions. Each template repeats the lead-in's verb so the
# question shares four content words with the rule text (topic + verb); deep
# rules dilute the Jaccard overlap and three shared words is not always enough.
_ON_TOPIC_QUESTIONS = {
    "cconj": ("Can I claim {topic}?", "Does {topic} apply to me?"),
    "cdisj": ("Do I meet the conditions for {topic}?", "Could I meet the rules for {topic}?"),
    "uconj": ("Do I qualify for {topic}?", "Could I qualify for {topic}?"),
    "udisj": ("Am I eligible for {topic}?", "Would I be eligible for {topic}?"),
    "trap": ("Do I qualify for {topic}?", "Could I qualify for {topic}?"),
    "single": ("Can I claim {topic}?", "Could I claim {topic}?", "Can I make a claim for {topic}?"),
}

_OFF_TOPIC_QUESTIONS = (
    "How do I renew my passport?",
    "How do I renew my driving licence?",
    "Where can I register a birth?",
    "How do I book a theory test?",
    "Can I appeal a parking fine?",
    "How do I change the address on my vehicle log book?",
    "Where do I report a lost wallet?",
    "How do I register to vote?",
    "Can I view my state pension forecast online?",
    "How do I replace a damaged birth certificate?",
    "What is the deadline for a self assessment return?",
    "How do I order a new recycling bin?",
    "Where can I pay a court fine?",
    "How do I object to a planning application?",
    "Can I transfer a vehicle registration number?",
    "How do I request my medical records?",
    "Where do I apply for a fishing licence?",
    "How do I report a faulty street light?",
    "Can I check a company's registration details?",
    "How do I cancel a lost bank card?",
    "Where can I find out about jury service dates?",
    "How do I get an EHIC replacement card?",
    "Can I reschedule a hospital appointment online?",
    "How do I report a pothole on a motorway?",
)

_PERSONAS = (
    "I am 52 years old and live with my sister.",
    "My husband retired last spring.",
    "I moved house about two months ago.",
    "I have two grown-up children.",
    "My landlord recently raised the rent.",
    "I used to run a small bakery.",
    "My wife works night shifts.",
    "I volunteer at the local library on weekends.",
    "We recently sold our second car.",
    "My son starts secondary school next year.",
    "I was born abroad but settled here decades ago.",
    "My neighbour helps me with the shopping.",
    "I keep an allotment near the river.",
    "My daughter is training to be a nurse.",
    "We are redecorating the spare room.",
    "I play in a brass band on Thursdays.",
)


# --------------------------------------------------------------------------
# Conditions and trees
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Cond:
    """One askable rule condition plus its surface realisations."""

    text: str  # clause text as it appears in the rule bullet
    fact_yes: str  # scenario sentence when the (positive) question was answered Yes
    fact_no: str  # scenario sentence when it was answered No
    asks: tuple[str, ...]  # gold follow-up question paraphrases
    negated: bool = False  # condition holds when the answer is No


def _cond(templates: _Cond, value: object, negated: bool = False) -> _Cond:
    """The condition ``templates`` words, with ``value`` in each ``{}``."""
    return _Cond(
        text=("not " if negated else "") + templates.text.format(value),
        fact_yes=templates.fact_yes.format(value),
        fact_no=templates.fact_no.format(value),
        asks=tuple(ask.format(value) for ask in templates.asks),
        negated=negated,
    )


_FRESH_TOPIC = "fresh topic"

# The getting family; the negated fold and the trap tree's first condition use it too.
_GETTING = _Cond("getting {}", "I am getting {}.", "I am not getting {}.", (
    "Are you getting {}?", "Are you currently getting {}?", "Do you get {}?", "Have you been getting {}?"))

# The trap tree's last condition: its first one's topic, plus "top-up".
_TOP_UP = _Cond("getting {} top-up", "I am getting {} top-up.", "I am not getting {} top-up.",
                ("Are you getting {} top-up?", "Do you get {} top-up?"))

# One row per surface family: its value source, then its templates. The
# source is _FRESH_TOPIC (draw a new topic name), a pool to rng.choice from,
# or empty (draw nothing). _draw_conditions samples row indices, so the row
# order is part of the RNG stream.
_FAMILIES = (
    (_FRESH_TOPIC, _Cond("{}", "I am getting {}.", "I do not get {}.", (
        "Do you get {}?", "Do you receive {}?", "Are you getting {}?", "Do you currently get {}?",
        "Is {} something you currently get?"))),
    (_FRESH_TOPIC, _GETTING),
    (_PLACES, _Cond("living in {}", "I live in {}.", "I am not living in {}.", (
        "Are you living in {}?", "Do you live in {}?", "Do you currently live in {}?", "Is your home in {}?"))),
    (_AGES, _Cond("be over {}", "I am over {}.", "I am not over {}.", (
        "Are you over {}?", "Are you aged over {}?", "Are you over {} years old?", "Are you over the age of {}?"))),
    (_HOURS, _Cond("working at least {} hours a week", "I work at least {} hours a week.",
                   "I am not working at least {} hours a week.", (
        "Are you working at least {} hours a week?", "Do you work at least {} hours a week?",
        "Are you working {} or more hours a week?"))),
    (("full time", "part time"), _Cond("studying {}", "I am studying {}.", "I am not studying {}.", (
        "Are you studying {}?", "Do you study {}?", "Are you currently studying {}?", "Do you currently study {}?"))),
    ((16, 18), _Cond("responsible for a child under {}", "I am responsible for a child under {}.",
                     "I am not responsible for any child under {}.", (
        "Are you responsible for a child under {}?", "Are you the person responsible for a child under {}?",
        "Do you have responsibility for a child under {}?"))),
    ((), _Cond("living with a partner", "I live with a partner.", "I am not living with a partner.", (
        "Are you living with a partner?", "Do you live with a partner?", "Are you currently living with a partner?",
        "Do you share your home with a partner?"))),
)


@dataclass
class _Tree:
    tree_id: str
    kind: str  # udisj | uconj | cdisj | cconj | trap | single
    rule_text: str
    conds: list[_Cond]
    questions: tuple[str, ...]  # on-topic initial questions

    @property
    def depth(self) -> int:
        return len(self.conds)


_LEAD_INS = {
    # cued lead-ins carry an explicit quantifier cue; the uncued ones avoid
    # every cue phrase so the structure parser reports Unknown logic
    "cconj": "You can claim {topic} if all of the following apply:",
    "cdisj": "You may get {topic} if you meet any of the following:",
    "uconj": "To qualify for {topic}, every condition in the list below must be met:",
    "udisj": "To be eligible for {topic}, at least one condition listed below must apply:",
    "trap": "To qualify for {topic}, every condition in the list below must be met:",
}

_SINGLE_BODY = "You can claim {topic} if you are over {age} and you live in {place}."


def _draw_topic(rng: random.Random, used: set[str]) -> str:
    while True:
        topic = " ".join(
            (rng.choice(_TOPIC_PREFIXES), rng.choice(_TOPIC_DOMAINS), rng.choice(_TOPIC_KINDS))
        )
        if topic not in used:
            used.add(topic)
            return topic


def _draw_conditions(rng: random.Random, depth: int, kind: str, used_topics: set[str]) -> list[_Cond]:
    """Sample ``depth`` conditions, at most one per surface family, drawing values in pick order."""
    conds = []
    for pick in rng.sample(range(len(_FAMILIES)), depth):
        values, templates = _FAMILIES[pick]
        if values is _FRESH_TOPIC:
            value = _draw_topic(rng, used_topics)
        else:
            value = rng.choice(values) if values else None
        conds.append(_cond(templates, value))
    if kind == "uconj" and depth >= 3 and rng.random() < 0.3:
        # fold one negated condition in, never in the last slot
        slot = rng.randrange(depth - 1)
        conds[slot] = _cond(_GETTING, _draw_topic(rng, used_topics), negated=True)
    return conds


def _check_tree(tree: _Tree) -> None:
    """Build-time guards for the textual couplings the corpus relies on."""
    rule_content = content_words(tokenize(tree.rule_text))
    for question in tree.questions:
        overlap = jaccard(content_words(tokenize(question)), rule_content)
        assert overlap >= 0.12, f"on-topic question drifted: {question!r}"
    for idx, cond in enumerate(tree.conds):
        clause = tokenize(cond.text)
        for ask in cond.asks:
            assert coverage(clause, tokenize(ask)) >= 0.6, f"ask does not cover clause: {ask!r}"
        assert coverage(clause, tokenize(cond.fact_yes)) >= 0.6, cond.fact_yes
        assert coverage(clause, tokenize(cond.fact_no)) >= 0.6, cond.fact_no
        for jdx, other in enumerate(tree.conds):
            if idx == jdx or (tree.kind == "trap" and {idx, jdx} == {0, tree.depth - 1}):
                continue
            for ask in other.asks:
                assert coverage(clause, tokenize(ask)) <= 0.5, (
                    f"cross-clause collision in {tree.tree_id}: {cond.text!r} vs {ask!r}"
                )


def _conds_distinct(conds: Sequence[_Cond], exempt: frozenset[frozenset[int]]) -> bool:
    """No two conditions may share two content words, or coverage bleeds."""
    words = [content_words(tokenize(cond.text)) for cond in conds]
    for i in range(len(conds)):
        for j in range(i + 1, len(conds)):
            if frozenset((i, j)) in exempt:
                continue
            if len(words[i] & words[j]) >= 2:
                return False
    return True


def _make_tree(split: str, index: int, kind: str, rng: random.Random, used_topics: set[str],
               depth_weights: dict[int, float]) -> _Tree:
    topic = _draw_topic(rng, used_topics)
    tree_id = f"{split}-tree-{index:04d}"
    questions = tuple(q.format(topic=topic) for q in _ON_TOPIC_QUESTIONS[kind])
    if kind == "single":
        age = rng.choice(_AGES)
        place = rng.choice(_PLACES)
        body = _SINGLE_BODY.format(topic=topic, age=age, place=place)
        # follow-ups echo most of the rule sentence, as real dialogs tend to
        # do when the whole rule is one condition
        cond = _Cond(
            text=body,
            asks=(
                f"You can claim {topic} if you are over {age} and you live in {place} — is that right?",
                f"Can you claim {topic} — are you over {age} and do you live in {place}?",
                f"To claim {topic}: are you over {age} and do you live in {place}?",
                f"Just to check for {topic}: you are over {age} and you live in {place}?",
            ),
            fact_yes=f"You can claim {topic} when over {age} living in {place}; that is my situation.",
            fact_no=f"You can claim {topic} when over {age} living in {place}; that does not fit me.",
        )
        tree = _Tree(tree_id, kind, f"# {topic}\n\n{body}", [cond], questions)
        _check_tree(tree)
        return tree

    depths = sorted(depth_weights)
    weights = [depth_weights[d] for d in depths]
    depth = rng.choices(depths, weights=weights, k=1)[0]
    for _ in range(60):
        if kind == "trap":
            depth = max(3, depth)
            name = _draw_topic(rng, used_topics)
            conds = [_cond(_GETTING, name)]
            conds.extend(_draw_conditions(rng, depth - 2, "plain", used_topics))
            conds.append(_cond(_TOP_UP, name))
            exempt = frozenset((frozenset((0, depth - 1)),))
        else:
            conds = _draw_conditions(rng, depth, kind, used_topics)
            exempt = frozenset()
        if _conds_distinct(conds, exempt):
            break
    else:  # pragma: no cover - the vocabulary is large enough in practice
        raise RuntimeError(f"could not draw distinct conditions for {tree_id}")
    lead_in = _LEAD_INS[kind].format(topic=topic)
    bullets = "\n".join(f"* {cond.text}" for cond in conds)
    rule_text = f"# {topic}\n\n{lead_in}\n\n{bullets}"
    tree = _Tree(tree_id, kind, rule_text, conds, questions)
    _check_tree(tree)
    return tree


# --------------------------------------------------------------------------
# Instance emission
# --------------------------------------------------------------------------
#
# Every emitter takes a stratum's tree pool and the RNG, draws in a fixed
# order, the tree first (only _emit_more_plain rolls its fold before it), and
# returns the Instance, with an id that generate_split assigns: the draw order
# is what keeps a split byte-identical for a given seed.


def _answer(cond: _Cond, holds: bool) -> str:
    """The reply under which ``cond`` holds (or, with ``holds`` false, fails)."""
    return "Yes" if holds != cond.negated else "No"


def _turn(cond: _Cond, answer: str, rng: random.Random) -> DialogTurn:
    return DialogTurn(follow_up_question=rng.choice(cond.asks), follow_up_answer=answer)


def _fact(cond: _Cond, answer: str) -> str:
    return cond.fact_yes if answer == "Yes" else cond.fact_no


def _instance(tree: _Tree, question: str, scenario: str, history: list[DialogTurn],
              evidence: list[DialogTurn], answer: str) -> Instance:
    return Instance("", tree.tree_id, tree.rule_text, question, scenario, history, evidence, answer)


_Pool = Sequence[_Tree]


def _scenario_text(facts: Sequence[str], rng: random.Random) -> str:
    parts = list(facts)
    roll = rng.random()
    if roll < 0.25:
        parts.insert(0, rng.choice(_PERSONAS))
    elif roll < 0.5:
        parts.append(rng.choice(_PERSONAS))
    return " ".join(parts)


def _emit_decided(label: ClassLabel, last: bool, pool: _Pool, rng: random.Random) -> Instance:
    """Dialog decided on its final turn, by the rule's last condition or (``last`` false) a middle one."""
    tree = rng.choice(pool)
    stop = tree.depth - 1 if last else rng.randrange(1, tree.depth - 1)
    yes = label is ClassLabel.YES
    history = [_turn(cond, _answer(cond, not yes), rng) for cond in tree.conds[:stop]]
    history.append(_turn(tree.conds[stop], _answer(tree.conds[stop], yes), rng))
    return _instance(tree, rng.choice(tree.questions), "", history, [], label.value)


def _emit_cued_first(label: ClassLabel, pool: _Pool, rng: random.Random) -> Instance:
    """Cued rule decided by a single follow-up (any clause short-circuits)."""
    tree = rng.choice(pool)
    cond = rng.choice(tree.conds)
    answer = _answer(cond, label is ClassLabel.YES)
    return _instance(tree, rng.choice(tree.questions), "", [_turn(cond, answer, rng)], [], label.value)


def _emit_uniform(label: ClassLabel, pool: _Pool, rng: random.Random) -> Instance:
    """Every condition asked and every answer keeping the rule on one side."""
    tree = rng.choice(pool)
    history = [_turn(cond, _answer(cond, label is ClassLabel.YES), rng) for cond in tree.conds]
    return _instance(tree, rng.choice(tree.questions), "", history, [], label.value)


def _emit_folded_decider(label: ClassLabel, pool: _Pool, rng: random.Random) -> Instance:
    """The answer that decides the dialog lives in the scenario, not the history."""
    tree = rng.choice(pool)
    yes = label is ClassLabel.YES
    decider_idx = rng.randrange(tree.depth)
    history: list[DialogTurn] = []
    evidence: list[DialogTurn] = []
    facts: list[str] = []
    for idx, cond in enumerate(tree.conds):
        if idx == decider_idx:
            answer = _answer(cond, yes)
            evidence.append(_turn(cond, answer, rng))
            facts.append(_fact(cond, answer))
        else:
            history.append(_turn(cond, _answer(cond, not yes), rng))
    return _instance(tree, rng.choice(tree.questions), _scenario_text(facts, rng), history, evidence, label.value)


def _emit_folded_all(label: ClassLabel, pool: _Pool, rng: random.Random) -> Instance:
    """The whole dialog happened before the question: scenario only, no turns."""
    tree = rng.choice(pool)
    if tree.kind in ("udisj", "cdisj"):
        sat_at = rng.randrange(tree.depth) if label is ClassLabel.YES else None
        answers = [_answer(c, idx == sat_at) for idx, c in enumerate(tree.conds)]
    else:
        unsat_at = rng.randrange(tree.depth) if label is ClassLabel.NO else None
        answers = [_answer(c, idx != unsat_at) for idx, c in enumerate(tree.conds)]
    evidence = [_turn(cond, answer, rng) for cond, answer in zip(tree.conds, answers)]
    facts = [_fact(cond, answer) for cond, answer in zip(tree.conds, answers)]
    return _instance(tree, rng.choice(tree.questions), _scenario_text(facts, rng), [], evidence, label.value)


def _emit_single_final(label: ClassLabel, pool: _Pool, rng: random.Random) -> Instance:
    tree = rng.choice(pool)
    cond = tree.conds[0]
    answer = "Yes" if label is ClassLabel.YES else "No"
    return _instance(tree, rng.choice(tree.questions), "", [_turn(cond, answer, rng)], [], label.value)


def _emit_more_plain(k: int, pool: _Pool, rng: random.Random) -> Instance:
    """Ask the first ``k`` conditions, gold answer asks condition ``k``."""
    fold = bool(k) and rng.random() < _MORE_FOLD_RATE  # drawn before the tree
    tree = rng.choice(pool)
    turns = []
    for cond in tree.conds[:k]:
        if tree.kind == "cdisj":
            answer = _answer(cond, False)  # a satisfying answer would have ended a cued dialog
        elif tree.kind == "cconj":
            answer = _answer(cond, True)
        else:
            answer = _answer(cond, rng.random() < 0.6)
        turns.append((cond, answer))
    history: list[DialogTurn] = []
    evidence: list[DialogTurn] = []
    facts: list[str] = []
    folded = set(rng.sample(range(k), rng.randrange(1, k + 1))) if fold else set()
    for idx, (cond, answer) in enumerate(turns):
        turn = _turn(cond, answer, rng)
        if idx in folded:
            evidence.append(turn)
            facts.append(_fact(cond, answer))
        else:
            history.append(turn)
    # early-turn gold follow-ups mostly use the canonical phrasing (the first
    # paraphrase); deeper dialogs drift toward freer rewordings
    next_cond = tree.conds[k]
    if k <= 1 and rng.random() < 0.7:
        gold = next_cond.asks[0]
    elif k >= 2 and len(next_cond.asks) > 1:
        gold = rng.choice(next_cond.asks[1:])
    else:
        gold = rng.choice(next_cond.asks)
    scenario = _scenario_text(facts, rng) if facts else ""
    return _instance(tree, rng.choice(tree.questions), scenario, history, evidence, gold)


def _emit_more_trap(pool: _Pool, rng: random.Random) -> Instance:
    """Scenario text that lexically swallows the condition left to ask."""
    tree = rng.choice(pool)
    first, middle, last = tree.conds[0], tree.conds[1:-1], tree.conds[-1]
    answer = _answer(first, True)
    folded = _turn(first, answer, rng)
    history = [_turn(cond, _answer(cond, True), rng) for cond in middle]
    gold = rng.choice(last.asks)
    return _instance(tree, rng.choice(tree.questions), _scenario_text([_fact(first, answer)], rng), history,
                     [folded], gold)


def _emit_irrelevant(with_scenario: bool, pool: _Pool, rng: random.Random) -> Instance:
    tree = rng.choice(pool)
    scenario = " ".join(rng.sample(_PERSONAS, rng.choice((1, 2)))) if with_scenario else ""
    return _instance(tree, rng.choice(_OFF_TOPIC_QUESTIONS), scenario, [], [], "Irrelevant")


# --------------------------------------------------------------------------
# Strata: one row per slice of a class
# --------------------------------------------------------------------------


class _Stratum(NamedTuple):
    name: str
    share: float  # of the class count, rounded by largest remainder
    kinds: tuple[str, ...]  # tree kinds in the pool
    min_depth: int  # shallowest tree in the pool
    emit: Callable[[_Pool, random.Random], Instance]


_MORE_FOLD_RATE = 0.3

_TREE_KIND_WEIGHTS = {
    "udisj": 0.22,
    "uconj": 0.22,
    "cdisj": 0.16,
    "cconj": 0.16,
    "trap": 0.14,
    "single": 0.10,
}

_YES, _NO = ClassLabel.YES, ClassLabel.NO
_ASKABLE = ("udisj", "uconj", "cdisj", "cconj", "single")

# Classes and rows are emitted in table order, which fixes the RNG stream.
_STRATA: dict[ClassLabel, tuple[_Stratum, ...]] = {
    _YES: (
        _Stratum("decisive_last", 0.34, ("udisj",), 2, partial(_emit_decided, _YES, True)),
        _Stratum("cued_first", 0.12, ("cdisj",), 1, partial(_emit_cued_first, _YES)),
        _Stratum("uniform", 0.01, ("uconj",), 2, partial(_emit_uniform, _YES)),
        _Stratum("folded_decider", 0.12, ("udisj",), 2, partial(_emit_folded_decider, _YES)),
        _Stratum("folded_all_cued", 0.20, ("cdisj",), 2, partial(_emit_folded_all, _YES)),
        _Stratum("folded_all_uncued", 0.05, ("uconj", "udisj"), 2, partial(_emit_folded_all, _YES)),
        _Stratum("single_final", 0.06, ("single",), 1, partial(_emit_single_final, _YES)),
        _Stratum("stop_early", 0.10, ("udisj",), 3, partial(_emit_decided, _YES, False)),
    ),
    _NO: (
        _Stratum("decisive_last", 0.34, ("uconj",), 2, partial(_emit_decided, _NO, True)),
        _Stratum("cued_first", 0.12, ("cconj",), 1, partial(_emit_cued_first, _NO)),
        _Stratum("uniform", 0.01, ("udisj",), 2, partial(_emit_uniform, _NO)),
        _Stratum("folded_decider", 0.12, ("uconj",), 2, partial(_emit_folded_decider, _NO)),
        _Stratum("folded_all_uncued", 0.20, ("uconj",), 2, partial(_emit_folded_all, _NO)),
        _Stratum("folded_all_cued", 0.05, ("cdisj",), 2, partial(_emit_folded_all, _NO)),
        _Stratum("single_final", 0.06, ("single",), 1, partial(_emit_single_final, _NO)),
        _Stratum("stop_early", 0.10, ("uconj",), 3, partial(_emit_decided, _NO, False)),
    ),
    ClassLabel.MORE: (
        _Stratum("more_k0", 0.34, _ASKABLE, 1, partial(_emit_more_plain, 0)),
        _Stratum("more_k1", 0.22, _ASKABLE, 2, partial(_emit_more_plain, 1)),
        _Stratum("more_k2", 0.16, _ASKABLE, 3, partial(_emit_more_plain, 2)),
        _Stratum("more_k3", 0.10, _ASKABLE, 4, partial(_emit_more_plain, 3)),
        _Stratum("more_trap", 0.18, ("trap",), 3, _emit_more_trap),
    ),
    ClassLabel.IRRELEVANT: (
        _Stratum("irr_empty", 0.90, tuple(_TREE_KIND_WEIGHTS), 1, partial(_emit_irrelevant, False)),
        _Stratum("irr_scenario", 0.10, tuple(_TREE_KIND_WEIGHTS), 1, partial(_emit_irrelevant, True)),
    ),
}


@dataclass(frozen=True)
class SplitSpec:
    """Recipe for one corpus split."""

    name: str
    seed: int
    class_counts: dict[ClassLabel, int] = field(default_factory=dict)
    tree_count: int = 460
    depth_weights: dict[int, float] = field(
        default_factory=lambda: {2: 0.30, 3: 0.40, 4: 0.30}
    )


TRAIN_SPEC = SplitSpec(
    name="train",
    seed=2024,
    class_counts={
        ClassLabel.IRRELEVANT: 1256,
        ClassLabel.YES: 6773,
        ClassLabel.NO: 7057,
        ClassLabel.MORE: 6804,
    },
)

DEV_SPEC = SplitSpec(
    name="dev",
    seed=7171,
    class_counts={
        ClassLabel.IRRELEVANT: 130,
        ClassLabel.YES: 702,
        ClassLabel.NO: 732,
        ClassLabel.MORE: 706,
    },
    tree_count=90,
    depth_weights={2: 0.20, 3: 0.40, 4: 0.40},
)


def _stratum_counts(strata: Sequence[_Stratum], total: int) -> list[int]:
    """Largest-remainder rounding of share × total to integers summing to total, in row order."""
    raw = [stratum.share * total for stratum in strata]
    counts = [int(amount) for amount in raw]
    leftovers = sorted(range(len(raw)), key=lambda i: raw[i] - counts[i], reverse=True)
    for i in leftovers[: total - sum(counts)]:
        counts[i] += 1
    return counts


def generate_split(spec: SplitSpec) -> list[Instance]:
    """Generate one deterministic corpus split per the spec's recipe."""
    digest = hashlib.sha256(f"{spec.seed}|{spec.name}".encode("utf-8")).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    used_topics: set[str] = set()

    kinds: list[str] = []
    for kind, weight in _TREE_KIND_WEIGHTS.items():
        kinds.extend([kind] * max(1, round(weight * spec.tree_count)))
    kinds = kinds[: spec.tree_count]
    with corpus_pass():  # the trees' guards tokenize and match the same texts again and again
        trees = [
            _make_tree(spec.name, idx, kind, rng, used_topics, spec.depth_weights)
            for idx, kind in enumerate(kinds)
        ]

    instances: list[Instance] = []
    seen: set[tuple] = set()
    for label, strata in _STRATA.items():
        for stratum, want in zip(strata, _stratum_counts(strata, spec.class_counts[label])):
            pool = [t for t in trees if t.kind in stratum.kinds and t.depth >= stratum.min_depth]
            if want and not pool:
                raise RuntimeError(f"no trees of kind {stratum.kinds} with depth >= {stratum.min_depth}")
            made = 0
            attempts = 0
            cap = 60 * want + 100
            while made < want:
                attempts += 1
                if attempts > cap:
                    raise RuntimeError(
                        f"could not fill stratum {stratum.name} for {label.value}: {made}/{want}"
                    )
                instance = stratum.emit(pool, rng)
                key = content_key(instance)
                if key in seen:
                    continue
                seen.add(key)
                made += 1
                instances.append(instance)

    rng.shuffle(instances)
    for index, instance in enumerate(instances):
        instance.utterance_id = f"{spec.name}-{index:05d}"
    return instances
