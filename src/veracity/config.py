"""Run configuration: a flat sectioned key-value file.

Every pipeline run is described by one config file so results are
reproducible from a single artifact. Unknown sections or keys are
rejected outright (typo safety), and the file round-trips losslessly.
config_hash is the one provenance tag of every artifact.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import Iterable

from .attribute_stats import AttributeKind
from .ensemble import VotingScheme
from .errors import UsageError
from .fileio import file_sha256, open_lines, require_file, sha256
from .heuristic import HeuristicConfig


def parse_number(value: str, where: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise UsageError(f"{where}: expected a number, got {value!r}") from None


def parse_positive(value: str, where: str) -> float:
    """A finite, positive number, such as a timeout."""
    number = parse_number(value, where)
    if not 0 < number < math.inf:
        raise UsageError(f"{where} must be a finite, positive number, got {value!r}")
    return number


def parse_priority(value: str, where: str) -> tuple[AttributeKind, ...]:
    """An attribute priority order such as "username, domain"; names are
    comma-separated and case-insensitive, at least one is given and none
    repeats. where names the setting in the error message."""
    names = [part.strip().lower() for part in value.split(",") if part.strip()]
    try:
        kinds = tuple(AttributeKind(name) for name in names)
    except ValueError:
        kinds = ()
    if not kinds:
        raise UsageError(f"{where}: expected names from username/domain, got {value!r}")
    if len(set(kinds)) != len(kinds):
        raise UsageError(f"{where}: a name may appear only once, got {value!r}")
    return kinds


def parse_scheme(value: str, where: str) -> VotingScheme:
    try:
        return VotingScheme(value.strip().lower())
    except ValueError:
        raise UsageError(f"{where} must be soft or hard, got {value!r}") from None


def parse_threshold(value: str, where: str) -> float:
    """The heuristic's threshold, a number from 0 to 1."""
    number = parse_number(value, where)
    if not 0 <= number <= 1:
        raise UsageError(f"{where} must be in [0, 1], got {value!r}")
    return number


def _unless_blank(parse):
    """parse, with a blank value keeping the default."""
    return lambda value, where: parse(value, where) if value.strip() else None


_path = _unless_blank(lambda value, where: Path(value.strip()))


def _paths(value: str, where: str) -> tuple[Path, ...]:
    """Comma-separated paths; blank parts are dropped."""
    return tuple(Path(part.strip()) for part in value.split(",") if part.strip())


# One row per config key, in file order: (section, key, RunConfig field,
# parser). A parser gets the raw value and "section.key" for its error
# message, and returns the value, or None to keep the default.
_KEYS = (
    ("data", "train", "train_path", _path),
    ("data", "validation", "validation_path", _path),
    ("data", "test", "test_path", _path),
    ("data", "cache", "cache_path", _path),
    ("predictions", "files", "prediction_paths", _paths),
    ("ensemble", "scheme", "scheme", _unless_blank(parse_scheme)),
    ("heuristic", "threshold", "heuristic.threshold", _unless_blank(parse_threshold)),
    ("heuristic", "priority", "heuristic.priority", _unless_blank(parse_priority)),
    ("output", "dir", "output_dir", _path),
)


def _text(value) -> str:
    """A setting as the config file spells it."""
    if isinstance(value, tuple):
        return ", ".join(map(_text, value))
    if isinstance(value, Enum):
        return value.value
    return "" if value is None else str(value)


@dataclass
class RunConfig:
    """All knobs for one pipeline run."""

    train_path: Path | None = None
    validation_path: Path | None = None
    test_path: Path | None = None
    cache_path: Path | None = None
    prediction_paths: tuple[Path, ...] = ()
    heuristic: HeuristicConfig = field(default_factory=HeuristicConfig)
    scheme: VotingScheme = VotingScheme.SOFT
    output_dir: Path = Path("out")

    def to_text(self) -> str:
        """Canonical serialization; the basis of the config hash."""
        sections: dict[str, str] = {}
        for section, key, name, _ in _KEYS:
            line = f"{key} = {_text(attrgetter(name)(self))}\n"
            sections[section] = sections.get(section, f"[{section}]\n") + line
        return "\n".join(sections.values())


def config_hash(settings: RunConfig | str, extra: str = "", inputs: Iterable[Path | None] = ()) -> str:
    """The provenance tag of an artifact: its `# config:` line and its
    config_hash field. A sha256 over the settings and extra, none naming
    an output, then over the bytes of each input that is a file, in order.
    A RunConfig's settings are its text with the default output dir; its
    train split, cache and prediction files precede the splits given."""
    if isinstance(settings, RunConfig):
        cfg, settings = settings, replace(settings, output_dir=RunConfig().output_dir).to_text()
        inputs = [cfg.train_path, cfg.cache_path, *cfg.prediction_paths, *inputs]
    tag = sha256(f"{settings}\n{extra}".encode("utf-8"))
    for path in inputs:
        if path is not None and path.is_file():
            tag.update(file_sha256(path))
    return tag.hexdigest()[:16]


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise UsageError(f"cannot parse config {source}: {exc}") from None

    known = {(section, key) for section, key, _, _ in _KEYS}
    for section in parser.sections():
        if section not in {known_section for known_section, _ in known}:
            raise UsageError(f"unknown config section [{section}] in {source}")
        for key in parser.options(section):
            if (section, key) not in known:
                raise UsageError(f"unknown config key {key!r} in [{section}] of {source}")

    groups: dict[str, dict] = {}  # "" for RunConfig's own fields, else a nested object's
    for section, key, name, parse in _KEYS:
        if parser.has_option(section, key):
            value = parse(parser.get(section, key), f"{section}.{key}")
            if value is not None:
                group, _, attr = name.rpartition(".")
                groups.setdefault(group, {})[attr] = value
    settings = groups.pop("", {})
    for group, changes in groups.items():
        settings[group] = replace(getattr(RunConfig(), group), **changes)
    return RunConfig(**settings)


def load_config(path: Path | str) -> RunConfig:
    path = require_file(path, "config")
    with open_lines(path) as lines:
        text = "\n".join(line.rstrip("\r\n") for line in lines)
    return parse_config_text(text, source=str(path))


def require_paths(cfg: RunConfig, *fields_needed: str) -> None:
    """Check that the named path fields are set and exist on disk."""
    for name in fields_needed:
        if getattr(cfg, f"{name}_path") is None:
            raise UsageError(f"config is missing the {name} data path")
        require_file(getattr(cfg, f"{name}_path"), name)
    for pred in cfg.prediction_paths:
        require_file(pred, "prediction")
    if cfg.cache_path is not None:
        require_file(cfg.cache_path, "cache")
