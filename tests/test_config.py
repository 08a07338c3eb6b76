"""The run config's key table: any config text is either a usage error or
round-trips through its canonical text, and every setting reaches the
config hash."""

from __future__ import annotations

import configparser
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from veracity.attribute_stats import AttributeKind
from veracity.config import RunConfig, config_hash, parse_config_text
from veracity.ensemble import VotingScheme
from veracity.errors import UsageError

# every section and key, as the canonical text of the default config names them
_DEFAULT = configparser.ConfigParser(interpolation=None)
_DEFAULT.read_string(RunConfig().to_text())
KEYS = {section: tuple(_DEFAULT.options(section)) for section in _DEFAULT.sections()}

BOOLEANS = ["true", "false", "Yes", "no", "1", "0"]
VALID = {
    "train": ["train.tsv", "data dir/train.tsv"],
    "validation": ["val.tsv"],
    "test": ["test.csv", "./a//test.tsv"],
    "cache": ["cache.tsv"],
    "files": ["a.tsv", "a.tsv, b.tsv", " a.tsv ,, b.tsv "],
    "names": ["a", "a, b", "m1,m2"],
    "alpha": ["1", "0.5", "1e-3", "2_0", "1e-320"],
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
            valid = VALID.get(key, BOOLEANS)
            value = draw(st.one_of(st.sampled_from(valid * 4 + JUNK), _TEXT))
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@settings(max_examples=80, deadline=None)
@given(config_texts())
@example("[baseline]\nalpha = nan\n")
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
    "prediction_names": ("m",),
    "alpha": 0.5,
    "clean_policy.remove_urls": False,
    "clean_policy.remove_mentions": False,
    "clean_policy.remove_emoji": False,
    "clean_policy.remove_hashmark_only": False,
    "heuristic.threshold": 0.5,
    "heuristic.priority": (AttributeKind.DOMAIN, AttributeKind.USERNAME),
    "heuristic.use_threshold": False,
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
