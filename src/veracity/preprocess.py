"""Tweet attribute extraction and noise filtering.

Attribute capture always happens on the raw text, before any cleaning:
username handles ("@..." mentions) and http(s) URLs are scanned first,
URL hosts are resolved through an offline expansion cache, and only then
may the same spans be stripped for the classifier. The two attribute
channels are independent: mention scanning never consults the cache.

Every post passes through both scans, so each regex is skipped when a
substring test shows it cannot match. Each skip is exact:
- every URL match contains "://";
- every mention contains "@", and every hashmark run "#";
- every emoji range is non-ASCII, so ASCII text has no emoji;
- testing the character before each "@" for a word character keeps
  the mentions a lookbehind would keep, and lets `re` jump to the "@".
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping
from urllib.parse import urlsplit

from .errors import BadRecord
from .fileio import atomic_write_text, data_lines, open_lines

# URLs are taken by longest match: everything from the scheme up to the
# next whitespace belongs to the URL, so a mention inside a URL path is
# part of the URL, not a handle.
_URL_RE = re.compile(r"https?://\S+", re.IGNORECASE)

# An http(s) URL whose host is only ASCII letters, digits, dots and
# hyphens up to the path, query, fragment or end: its host is what
# urlsplit would find. Any other shape (userinfo, port, brackets, "%",
# whitespace, control or non-ASCII characters) goes to urlsplit. re.ASCII
# keeps IGNORECASE from matching "ſ" or "K" (Kelvin sign) as "s" or "k".
_PLAIN_HOST_RE = re.compile(r"https?://([a-z0-9.-]+)(?:[/?#]|\Z)", re.IGNORECASE | re.ASCII)

# Handles are "@" plus word characters, and must not be glued to a word
# on the left (so "bob@example.com" is not a mention), which
# extract_attributes tests with _WORD_RE. A rejected match cannot
# swallow a later "@", because "@" is not a word character.
_MENTION_RE = re.compile(r"@(\w+)")
_WORD_RE = re.compile(r"\w")

# Cleaning strips any "@word" run, even mid-token; stripping is allowed
# to be more aggressive than extraction.
_MENTION_STRIP_RE = re.compile(r"@\w+")

_HASHMARK_RE = re.compile(r"#+(?=\w)")

_EMOJI_RE = re.compile(
    "["
    "\U0001F300-\U0001F5FF"  # symbols & pictographs
    "\U0001F600-\U0001F64F"  # emoticons
    "\U0001F680-\U0001F6FF"  # transport & map symbols
    "\U0001F700-\U0001F77F"
    "\U0001F900-\U0001FAFF"  # supplemental symbols
    "\U0001F1E6-\U0001F1FF"  # regional indicators / flags
    "☀-➿"          # misc symbols and dingbats
    "️"                 # variation selector
    "]+",
    flags=re.UNICODE,
)


@dataclass(frozen=True)
class UrlExpansionCache:
    """Offline map from shorthand URL to expanded URL.

    Lookup is an exact match on the raw URL string. The pipeline never
    follows redirects itself; a separate tool may populate the cache
    file. A miss falls back to the short URL itself, so e.g.
    "https://t.co/x" contributes the domain "t.co".
    """

    entries: Mapping[str, str] = field(default_factory=dict)

    def expand(self, url: str) -> str:
        return self.entries.get(url, url)


def load_cache(path: Path | str | None) -> UrlExpansionCache:
    """Read a cache file: one `short_url<TAB>expanded_url` per line.

    Blank lines and '#' comments are skipped. Duplicate keys keep the
    last mapping (cache files are append-friendly). No path means the
    empty cache.
    """
    if path is None:
        return UrlExpansionCache()
    path = Path(path)
    entries: dict[str, str] = {}
    with open_lines(path) as lines:
        for raw in data_lines(lines):
            parts = raw.rstrip("\r\n").split("\t")
            if len(parts) != 2 or not all(parts):
                raise BadRecord("expected short_url<TAB>expanded_url")
            entries[parts[0]] = parts[1]
    return UrlExpansionCache(entries)


def save_cache(cache: UrlExpansionCache, path: Path | str) -> None:
    lines = ["# short_url\texpanded_url"]
    for short, expanded in sorted(cache.entries.items()):
        lines.append(f"{short}\t{expanded}")
    atomic_write_text(Path(path), "\n".join(lines) + "\n")


@dataclass(frozen=True, slots=True)
class TweetAttributes:
    """Attributes captured from one post, in first-occurrence order.

    Duplicates within a post are retained, and each one counts.
    """

    usernames: tuple[str, ...]
    urls: tuple[str, ...]
    domains: tuple[str, ...]


def normalize_domain(url: str) -> str | None:
    """A URL's bare host, lowercased, without userinfo, port, path or
    leading "www." labels; None when it has no host."""
    plain = _PLAIN_HOST_RE.match(url)
    if plain is not None:
        host = plain.group(1).lower()
    else:
        try:
            host = urlsplit(url).hostname
        except ValueError:
            return None
    if not host:
        return None
    while host.startswith("www."):
        host = host[4:]
    return host or None


def extract_attributes(text: str, cache: UrlExpansionCache | None = None) -> TweetAttributes:
    """Scan a post for username handles, URLs, and their domains.

    URLs win over mentions: an '@' inside a URL span is never a handle.
    Each URL is expanded through the cache and reduced to a domain;
    URLs whose expansion has no parseable host are skipped. Never raises;
    empty text yields empty attribute lists.
    """
    if cache is None:
        cache = UrlExpansionCache()
    url_spans = [m.span() for m in _URL_RE.finditer(text)] if "://" in text else []
    urls = tuple(text[start:end] for start, end in url_spans)
    usernames: list[str] = []
    if "@" in text:
        for m in _MENTION_RE.finditer(text):
            pos = m.start()
            if pos and _WORD_RE.match(text, pos - 1):
                continue
            if any(start <= pos < end for start, end in url_spans):
                continue
            usernames.append(m.group(1).lower())
    domains: list[str] = []
    for url in urls:
        domain = normalize_domain(cache.expand(url))
        if domain is not None:
            domains.append(domain)
    return TweetAttributes(tuple(usernames), urls, tuple(domains))


def clean_text(text: str) -> str:
    """Strip URLs, mentions, emoji and hashmarks, collapse whitespace, trim.

    A hashtag keeps its word and loses only the '#', so topical content
    survives cleaning. Removed spans are replaced by a space rather than
    deleted, so that stripping can never splice two fragments into a new
    token (a new URL, mention, or word). That keeps cleaning idempotent
    and makes extraction on cleaned text come up empty.
    """
    if "://" in text:
        text = _URL_RE.sub(" ", text)
    if "@" in text:
        text = _MENTION_STRIP_RE.sub(" ", text)
    if not text.isascii():
        text = _EMOJI_RE.sub(" ", text)
    if "#" in text:
        text = _HASHMARK_RE.sub(" ", text)
    return " ".join(text.split())
