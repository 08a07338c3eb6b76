"""Synthetic corpus generator shared by the test suite.

Items carry a seeded mix of class-flavored and neutral words, and a
configurable fraction of them also carry a planted attribute whose class
is pure: real items get one of the all-real domains, fake items one of
the all-fake handles. Attributes are assigned round-robin so that every
planted attribute shows up early in the corpus (and therefore inside any
leading training slice).
"""

from __future__ import annotations

import random

from veracity.corpus import Label, NewsItem

REAL_WORDS = [
    "official", "update", "guidelines", "cases", "vaccine", "study",
    "health", "ministry", "report", "confirmed", "data", "hospital",
]
FAKE_WORDS = [
    "miracle", "cure", "hoax", "secret", "exposed", "conspiracy",
    "garlic", "microchip", "shocking", "banned", "youwontbelieve", "plot",
]
NEUTRAL_WORDS = [
    "covid", "virus", "people", "today", "news", "says",
    "share", "read", "new", "now", "please", "watch",
]

REAL_DOMAIN_TEMPLATE = "wirecheck{k}.org"
FAKE_HANDLE_TEMPLATE = "rumormill{k}"


def make_corpus(
    n_items: int,
    seed: int,
    attribute_fraction: float = 0.6,
    n_real_domains: int = 10,
    n_fake_handles: int = 10,
    cross_noise: float = 0.30,
    neutral_rate: float = 0.25,
    words_per_item: int = 8,
) -> tuple[NewsItem, ...]:
    rng = random.Random(seed)
    items = []
    counters = {Label.REAL: 0, Label.FAKE: 0}
    for i in range(n_items):
        label = Label.REAL if rng.random() < 0.5 else Label.FAKE
        own = REAL_WORDS if label is Label.REAL else FAKE_WORDS
        other = FAKE_WORDS if label is Label.REAL else REAL_WORDS
        words = []
        for _ in range(words_per_item):
            roll = rng.random()
            if roll < cross_noise:
                words.append(rng.choice(other))
            elif roll < cross_noise + neutral_rate:
                words.append(rng.choice(NEUTRAL_WORDS))
            else:
                words.append(rng.choice(own))
        text = " ".join(words)
        if rng.random() < attribute_fraction:
            k = counters[label]
            counters[label] += 1
            if label is Label.REAL:
                domain = REAL_DOMAIN_TEMPLATE.format(k=k % n_real_domains)
                text += f" https://{domain}/story/{i}"
            else:
                handle = FAKE_HANDLE_TEMPLATE.format(k=k % n_fake_handles)
                text += f" @{handle}"
        items.append(NewsItem(i, text, label))
    return tuple(items)


def head(items: tuple[NewsItem, ...], n: int) -> tuple[NewsItem, ...]:
    return items[:n]


def tail(items: tuple[NewsItem, ...], n_skip: int) -> tuple[NewsItem, ...]:
    return items[n_skip:]
