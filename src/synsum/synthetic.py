"""Deterministic toy-corpus generator for desk-scale experiments.

Every document states one fact ("the <entity> <verb> the <object>"), echoes
the object with an adjective, places the scene somewhere, and on every
``distractor_every``-th document adds a distractor sentence whose subject is
a second nonce entity that must NOT be summarized. Sentence order is
shuffled. The reference copies [entity, verb, object]; with ``copy_place``
it also copies the place, which lives in a different sentence than the
rest, so the summarizer has to aggregate across the sentence chain and pick
the right entity despite the distractor (the harder setting used by the
ablation study).

Entity names are nonce strings drawn without replacement, so each appears
at most twice in the whole corpus (once in the source, once in the
reference) while every template word is dealt round-robin from its pool and
appears at least three times for corpus sizes >= 16. Building a vocabulary
with ``default_vocab_cap()`` therefore keeps exactly the template words and
leaves every entity out-of-vocabulary: summaries are only reachable through
the copy mechanism, which is the point of the exercise.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import Document, ParsedSentence, write_corpus

__all__ = [
    "GrammarConfig",
    "generate_documents",
    "generate_synthetic_corpus",
    "default_vocab_cap",
]


@dataclass
class GrammarConfig:
    verbs: list[str] = field(default_factory=lambda: [
        "carried", "guarded", "repaired", "borrowed",
        "painted", "buried", "traded", "polished",
    ])
    objects: list[str] = field(default_factory=lambda: [
        "lantern", "ledger", "compass", "kettle",
        "saddle", "mirror", "anchor", "bugle",
    ])
    adjectives: list[str] = field(default_factory=lambda: [
        "rusty", "narrow", "golden", "heavy", "pale",
    ])
    places: list[str] = field(default_factory=lambda: [
        "harbor", "meadow", "chapel", "quarry", "orchard",
    ])
    syllables: list[str] = field(default_factory=lambda: [
        "zor", "vek", "mul", "tras", "quil", "bex", "nod", "fyr",
        "gam", "hes", "jix", "kov", "lun", "pim", "rud", "syl",
    ])
    distractor_every: int = 2  # every k-th document gets a distractor sentence
    copy_place: bool = False   # references also copy the cross-sentence place

    def template_types(self) -> set[str]:
        function_words = {"the", "was", "it", "sat", "near", "again"}
        return (
            set(self.verbs) | set(self.objects) | set(self.adjectives)
            | set(self.places) | function_words
        )


def default_vocab_cap(grammar: GrammarConfig | None = None) -> int:
    """Cap holding all template words and none of the nonce entities."""
    grammar = grammar or GrammarConfig()
    return 4 + len(grammar.template_types())


class _Deck:
    """Round-robin dealing from a shuffled pool: counts stay within +-1."""

    def __init__(self, items: list[str], rng: random.Random):
        self._items = list(items)
        self._rng = rng
        self._stack: list[str] = []

    def deal(self) -> str:
        if not self._stack:
            self._stack = list(self._items)
            self._rng.shuffle(self._stack)
        return self._stack.pop()


def _fact(entity: str, verb: str, obj: str) -> ParsedSentence:
    return ParsedSentence(
        tokens=["the", entity, verb, "the", obj],
        heads=[2, 3, 0, 5, 3],
        labels=["det", "nsubj", "root", "det", "dobj"],
    )


def _echo(obj: str, adj: str) -> ParsedSentence:
    return ParsedSentence(
        tokens=["the", obj, "was", adj],
        heads=[2, 4, 4, 0],
        labels=["det", "nsubj", "cop", "root"],
    )


def _place(place: str) -> ParsedSentence:
    return ParsedSentence(
        tokens=["it", "sat", "near", "the", place],
        heads=[2, 0, 5, 5, 2],
        labels=["nsubj", "root", "case", "det", "obl"],
    )


def _distractor(entity: str, verb: str) -> ParsedSentence:
    return ParsedSentence(
        tokens=["the", entity, verb, "again"],
        heads=[2, 3, 0, 3],
        labels=["det", "nsubj", "root", "advmod"],
    )


def generate_documents(
    seed: int, size: int, grammar: GrammarConfig | None = None
) -> list[Document]:
    """Build ``size`` documents, deterministic in ``seed``."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    grammar = grammar or GrammarConfig()
    rng = random.Random(seed)
    verbs = _Deck(grammar.verbs, rng)
    objects = _Deck(grammar.objects, rng)
    adjectives = _Deck(grammar.adjectives, rng)
    places = _Deck(grammar.places, rng)

    template = grammar.template_types()
    used_entities: set[str] = set()
    pool_size: int | None = None  # counted at a rejected draw, when needed
    # prefix-free syllables make a distinct name of every three, so at least
    # this many names are not template words; below it nothing needs counting
    distinct = set(grammar.syllables)
    prefix_free = not any(a != b and b.startswith(a)
                          for a in distinct for b in distinct)
    surely_left = len(distinct) ** 3 - len(template) if prefix_free else 0

    def fresh_entity() -> str:
        nonlocal pool_size
        while True:
            name = "".join(rng.choice(grammar.syllables) for _ in range(3))
            if name not in used_entities and name not in template:
                used_entities.add(name)
                return name
            if len(used_entities) < surely_left:
                continue
            if pool_size is None:
                pool_size = len({
                    "".join(parts)
                    for parts in itertools.product(grammar.syllables, repeat=3)
                } - template)
            if len(used_entities) >= pool_size:
                raise ValueError(
                    f"syllable pool {grammar.syllables} makes only "
                    f"{pool_size} entity names; all are used after "
                    f"{len(docs)} of {size} documents"
                )

    docs = []
    for index in range(size):
        entity = fresh_entity()
        verb = verbs.deal()
        obj = objects.deal()
        place = places.deal()
        sentences = [
            _fact(entity, verb, obj),
            _echo(obj, adjectives.deal()),
            _place(place),
        ]
        if index % grammar.distractor_every == 0:
            sentences.append(_distractor(fresh_entity(), verbs.deal()))
        rng.shuffle(sentences)
        reference = [entity, verb, obj]
        if grammar.copy_place:
            reference.append(place)
        docs.append(Document(sentences=sentences, reference=reference))
    return docs


def generate_synthetic_corpus(
    seed: int,
    size: int,
    out_path: str | Path,
    grammar: GrammarConfig | None = None,
) -> Path:
    """Write a synthetic corpus file; byte-identical for identical seeds."""
    out_path = Path(out_path)
    write_corpus(generate_documents(seed, size, grammar), out_path)
    return out_path
