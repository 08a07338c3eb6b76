from __future__ import annotations

import pytest

from veracity.corpus import Label, NewsItem
from veracity.preprocess import UrlExpansionCache


def write_dataset_tsv(path, rows, labeled=True, delimiter="\t"):
    """rows: iterable of NewsItems, or of (id, text) or (id, text,
    label-string) tuples. A NewsItem's label is written iff labeled."""
    import csv

    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter, lineterminator="\n")
        writer.writerow(["id", "tweet", "label"] if labeled else ["id", "tweet"])
        for row in rows:
            if isinstance(row, NewsItem):
                row = (row.id, row.text, row.label.value) if labeled else (row.id, row.text)
            writer.writerow(list(row))


@pytest.fixture
def identity_cache():
    return UrlExpansionCache()


@pytest.fixture
def tiny_labeled(tmp_path):
    path = tmp_path / "tiny.tsv"
    write_dataset_tsv(path, [(1, "hello", "real"), (2, "world", "fake")])
    return path


def dataset_of(*pairs) -> tuple[NewsItem, ...]:
    """pairs: (id, text, label-or-None) triples."""
    return tuple(
        NewsItem(i, text, Label.parse(label) if isinstance(label, str) else label)
        for i, text, label in pairs
    )
