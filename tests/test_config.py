"""The run config's key table: any config text is either a usage error or
round-trips through its canonical text, and every setting reaches the
config hash, whose formula is pinned."""

from __future__ import annotations

import configparser
import hashlib
import random
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from veracity.attribute_stats import AttributeKind
from veracity.config import RunConfig, config_hash, parse_config_text
from veracity.ensemble import VotingScheme
from veracity.errors import UsageError
from veracity.fileio import _HASH_BLOCK, file_sha256, sha256

# every section and key, as the canonical text of the default config names them
_DEFAULT = configparser.ConfigParser(interpolation=None)
_DEFAULT.read_string(RunConfig().to_text())
KEYS = {section: tuple(_DEFAULT.options(section)) for section in _DEFAULT.sections()}

VALID = {
    "train": ["train.tsv", "data dir/train.tsv"],
    "validation": ["val.tsv"],
    "test": ["test.csv", "./a//test.tsv"],
    "cache": ["cache.tsv"],
    "files": ["a.tsv", "a.tsv, b.tsv", " a.tsv ,, b.tsv "],
    "scheme": ["soft", "HARD"],
    "threshold": ["0.88", "0", "1", "-0.0", ".5"],
    "priority": ["username", "Domain, username", "domain"],
    "dir": ["runs/x", "out"],
}
JUNK = ["", " ", ",", " , ", "nan", "inf", "-inf", "-1", "1.5", "1e309", "maybe", "%(x)s",
        "username, username", "=", ";x", "#x", "[x]", "soft, hard"]
_TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=10)


@st.composite
def config_texts(draw) -> str:
    lines = []
    for section in draw(st.lists(st.sampled_from(sorted(KEYS)), unique=True)):
        lines.append(f"[{section}]")
        for key in draw(st.lists(st.sampled_from(KEYS[section]), unique=True)):
            value = draw(st.one_of(st.sampled_from(VALID[key] * 4 + JUNK), _TEXT))
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@settings(max_examples=80, deadline=None)
@given(config_texts())
@example("[heuristic]\nthreshold = nan\n")
@example("[heuristic]\npriority = ,\n")
def test_config_text_is_rejected_or_round_trips(text):
    try:
        cfg = parse_config_text(text)
    except UsageError:
        return
    again = parse_config_text(cfg.to_text())
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


BASE = RunConfig(prediction_paths=(Path("a.tsv"),))
CHANGED = {
    "train_path": Path("train.tsv"),
    "validation_path": Path("val.tsv"),
    "test_path": Path("test.tsv"),
    "cache_path": Path("cache.tsv"),
    "prediction_paths": (Path("b.tsv"),),
    "heuristic.threshold": 0.5,
    "heuristic.priority": (AttributeKind.DOMAIN, AttributeKind.USERNAME),
    "scheme": VotingScheme.HARD,
    "output_dir": Path("elsewhere"),
}


def _field_names(settings_object, prefix: str = ""):
    for f in fields(settings_object):
        value = getattr(settings_object, f.name)
        if is_dataclass(value):
            yield from _field_names(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


def test_every_setting_has_a_changed_value():
    assert set(CHANGED) == set(_field_names(BASE))


@pytest.mark.parametrize("name", sorted(CHANGED))
def test_changing_a_setting_changes_the_hash(name):
    outer, _, inner = name.partition(".")
    value = replace(getattr(BASE, outer), **{inner: CHANGED[name]}) if inner else CHANGED[name]
    changed = replace(BASE, **{outer: value})
    assert changed != BASE
    if name == "output_dir":  # where a run writes is not a setting of what it writes
        assert config_hash(changed) == config_hash(BASE)
    else:
        assert config_hash(changed) != config_hash(BASE)


def test_the_tag_formula_is_pinned(tmp_path, monkeypatch):
    """A tag names its settings and input bytes across versions of the
    program, so the formula may not drift. The tag was computed with
    hashlib; one input is empty and one spans several hash blocks."""
    monkeypatch.chdir(tmp_path)
    big, empty = Path("big.tsv"), Path("empty.tsv")
    big.write_bytes(bytes(k * 7 % 251 for k in range(200_000)))
    empty.write_bytes(b"")
    assert big.stat().st_size > 3 * _HASH_BLOCK
    cfg = RunConfig(train_path=big, cache_path=empty, scheme=VotingScheme.HARD,
                    prediction_paths=(big, Path("missing.tsv")))
    assert config_hash(cfg, "ablate --tune-threshold", [empty, None, big]) == "0f69db7069800372"
    assert config_hash("settings", "", [big]) == "9ce411aa5129e340"


@pytest.mark.parametrize("size", [0, 1, _HASH_BLOCK - 1, _HASH_BLOCK, _HASH_BLOCK + 1])
def test_the_sha256_constructor_is_hashlibs(tmp_path, size):
    data = random.Random(size).randbytes(size)
    expected = hashlib.sha256(data).digest()
    assert sha256(data).digest() == expected
    (tmp_path / "data").write_bytes(data)
    assert file_sha256(tmp_path / "data") == expected
