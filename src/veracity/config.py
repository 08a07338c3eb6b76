"""Run configuration: a flat sectioned key-value file.

Every pipeline run is described by one config file so results are
reproducible from a single artifact. Unknown sections or keys are
rejected outright (typo safety), the file round-trips losslessly, and
its canonical serialization is hashed into every output file header.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field, replace
from pathlib import Path

from .attribute_stats import AttributeKind
from .ensemble import VotingScheme
from .errors import UsageError
from .fileio import atomic_write_text, open_lines, require_file
from .heuristic import HeuristicConfig
from .preprocess import CleanPolicy

_KNOWN_KEYS: dict[str, tuple[str, ...]] = {
    "data": ("train", "validation", "test", "cache"),
    "predictions": ("files", "names"),
    "baseline": ("alpha",),
    "clean": ("remove_urls", "remove_mentions", "remove_emoji", "remove_hashmark_only"),
    "ensemble": ("scheme",),
    "heuristic": ("threshold", "priority", "use_threshold"),
    "output": ("dir",),
}

_BOOL_STRINGS = {
    "true": True,
    "false": False,
    "yes": True,
    "no": False,
    "1": True,
    "0": False,
}


def _parse_bool(value: str, where: str) -> bool:
    try:
        return _BOOL_STRINGS[value.strip().lower()]
    except KeyError:
        raise UsageError(f"{where}: expected a boolean, got {value!r}") from None


def parse_priority(value: str, where: str) -> tuple[AttributeKind, ...]:
    """An attribute priority order such as "username, domain"; names are
    comma-separated and case-insensitive. where names the setting in
    the error message."""
    names = [part.strip().lower() for part in value.split(",") if part.strip()]
    try:
        return tuple(AttributeKind(name) for name in names)
    except ValueError:
        raise UsageError(f"{where}: expected names from username/domain, got {value!r}") from None


def override_heuristic(base: HeuristicConfig, **changes) -> HeuristicConfig:
    """base with every change that is not None applied; an invalid
    result is a UsageError."""
    try:
        return replace(base, **{key: value for key, value in changes.items() if value is not None})
    except ValueError as exc:
        raise UsageError(str(exc)) from None


@dataclass
class RunConfig:
    """All knobs for one pipeline run."""

    train_path: Path | None = None
    validation_path: Path | None = None
    test_path: Path | None = None
    cache_path: Path | None = None
    prediction_paths: tuple[Path, ...] = ()
    prediction_names: tuple[str, ...] = ()
    alpha: float = 1.0
    clean_policy: CleanPolicy = field(default_factory=CleanPolicy)
    heuristic: HeuristicConfig = field(default_factory=HeuristicConfig)
    scheme: VotingScheme = VotingScheme.SOFT
    output_dir: Path = Path("out")

    def to_text(self) -> str:
        """Canonical serialization; the basis of the config hash."""
        def path_str(p: Path | None) -> str:
            return str(p) if p is not None else ""

        buffer = io.StringIO()
        buffer.write("[data]\n")
        buffer.write(f"train = {path_str(self.train_path)}\n")
        buffer.write(f"validation = {path_str(self.validation_path)}\n")
        buffer.write(f"test = {path_str(self.test_path)}\n")
        buffer.write(f"cache = {path_str(self.cache_path)}\n\n")
        buffer.write("[predictions]\n")
        buffer.write(f"files = {', '.join(str(p) for p in self.prediction_paths)}\n")
        buffer.write(f"names = {', '.join(self.prediction_names)}\n\n")
        buffer.write("[baseline]\n")
        buffer.write(f"alpha = {self.alpha!r}\n\n")
        buffer.write("[clean]\n")
        for key, value in self.clean_policy.as_dict().items():
            buffer.write(f"{key} = {'true' if value else 'false'}\n")
        buffer.write("\n[ensemble]\n")
        buffer.write(f"scheme = {self.scheme.value}\n\n")
        buffer.write("[heuristic]\n")
        buffer.write(f"threshold = {self.heuristic.threshold!r}\n")
        buffer.write(
            f"priority = {', '.join(kind.value for kind in self.heuristic.priority)}\n"
        )
        buffer.write(f"use_threshold = {'true' if self.heuristic.use_threshold else 'false'}\n\n")
        buffer.write("[output]\n")
        buffer.write(f"dir = {self.output_dir}\n")
        return buffer.getvalue()

    def save(self, path: Path | str) -> None:
        atomic_write_text(Path(path), self.to_text())


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(cfg.to_text().encode("utf-8")).hexdigest()[:16]


def _optional_path(value: str) -> Path | None:
    value = value.strip()
    return Path(value) if value else None


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise UsageError(f"cannot parse config {source}: {exc}") from None

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise UsageError(f"unknown config section [{section}] in {source}")
        for key in parser.options(section):
            if key not in _KNOWN_KEYS[section]:
                raise UsageError(f"unknown config key {key!r} in [{section}] of {source}")

    cfg = RunConfig()

    def get(section: str, key: str) -> str | None:
        if parser.has_option(section, key):
            return parser.get(section, key)
        return None

    value = get("data", "train")
    if value is not None:
        cfg.train_path = _optional_path(value)
    value = get("data", "validation")
    if value is not None:
        cfg.validation_path = _optional_path(value)
    value = get("data", "test")
    if value is not None:
        cfg.test_path = _optional_path(value)
    value = get("data", "cache")
    if value is not None:
        cfg.cache_path = _optional_path(value)
    value = get("predictions", "files")
    if value is not None:
        cfg.prediction_paths = tuple(
            Path(part.strip()) for part in value.split(",") if part.strip()
        )
    value = get("predictions", "names")
    if value is not None:
        cfg.prediction_names = tuple(
            part.strip() for part in value.split(",") if part.strip()
        )
    value = get("baseline", "alpha")
    if value is not None and value.strip():
        try:
            cfg.alpha = float(value)
        except ValueError:
            raise UsageError(f"baseline.alpha: expected a number, got {value!r}") from None
        if cfg.alpha <= 0:
            raise UsageError("baseline.alpha must be positive")

    policy_kwargs = {}
    for key in _KNOWN_KEYS["clean"]:
        value = get("clean", key)
        if value is not None:
            policy_kwargs[key] = _parse_bool(value, f"clean.{key}")
    if policy_kwargs:
        cfg.clean_policy = CleanPolicy(**{**cfg.clean_policy.as_dict(), **policy_kwargs})

    value = get("ensemble", "scheme")
    if value is not None and value.strip():
        try:
            cfg.scheme = VotingScheme(value.strip().lower())
        except ValueError:
            raise UsageError(f"ensemble.scheme must be soft or hard, got {value!r}") from None

    threshold = priority = use_threshold = None
    value = get("heuristic", "threshold")
    if value is not None and value.strip():
        try:
            threshold = float(value)
        except ValueError:
            raise UsageError(f"heuristic.threshold: expected a number, got {value!r}") from None
    value = get("heuristic", "priority")
    if value is not None and value.strip():
        priority = parse_priority(value, "heuristic.priority")
    value = get("heuristic", "use_threshold")
    if value is not None:
        use_threshold = _parse_bool(value, "heuristic.use_threshold")
    cfg.heuristic = override_heuristic(
        cfg.heuristic, threshold=threshold, priority=priority, use_threshold=use_threshold
    )

    value = get("output", "dir")
    if value is not None and value.strip():
        cfg.output_dir = Path(value.strip())

    if cfg.prediction_names and len(cfg.prediction_names) != len(cfg.prediction_paths):
        raise UsageError(
            f"{len(cfg.prediction_paths)} prediction files but"
            f" {len(cfg.prediction_names)} names"
        )
    return cfg


def load_config(path: Path | str) -> RunConfig:
    path = require_file(path, "config")
    with open_lines(path) as lines:
        text = "\n".join(line.rstrip("\r\n") for line in lines)
    return parse_config_text(text, source=str(path))


def require_paths(cfg: RunConfig, *fields_needed: str) -> None:
    """Check that the named path fields are set and exist on disk."""
    labels = {
        "train": cfg.train_path,
        "validation": cfg.validation_path,
        "test": cfg.test_path,
    }
    for name in fields_needed:
        if labels[name] is None:
            raise UsageError(f"config is missing the {name} data path")
        require_file(labels[name], name)
    for pred in cfg.prediction_paths:
        require_file(pred, "prediction")
    if cfg.cache_path is not None:
        require_file(cfg.cache_path, "cache")
