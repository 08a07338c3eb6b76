"""Optional, network-using builder for the URL expansion cache.

This is the only module that touches the network, and nothing in the
classification pipeline imports it: the pipeline reads the cache file
this tool writes. Expansion follows HTTP redirects to the final URL.
"""

from __future__ import annotations

import sys
import urllib.error
import urllib.request
from pathlib import Path
from typing import Iterable

from .preprocess import UrlExpansionCache, load_cache, save_cache


def resolve_redirect(url: str, timeout: float = 10.0) -> str:
    """Follow redirects and return the final URL. Raises on failure."""
    request = urllib.request.Request(url, method="HEAD", headers={"User-Agent": "Mozilla/5.0"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.geturl()
    except urllib.error.HTTPError:
        # Some hosts reject HEAD; retry with GET before giving up.
        request = urllib.request.Request(url, headers={"User-Agent": "Mozilla/5.0"})
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.geturl()


def build_cache(
    urls: Iterable[str],
    out_path: Path | str,
    timeout: float = 10.0,
) -> tuple[int, int]:
    """Resolve each distinct URL and merge the results into the cache
    file at out_path, creating it if there is none.

    This run's resolutions replace the cached ones for the same URLs;
    entries for URLs it did not resolve, failures included, are kept.
    Only URLs that change under redirection are recorded (identity
    mappings would be dead weight: a cache miss keeps the URL itself),
    so a URL that now resolves to itself loses its entry. Returns
    (resolved, failed) counts for this run. Failures are reported to
    stderr and skipped. The cache as it stands is written back before any
    URL is fetched, so an out_path that cannot be written is a UsageError
    that costs no network time.
    """
    out_path = Path(out_path)
    entries = dict(load_cache(out_path).entries) if out_path.is_file() else {}
    save_cache(UrlExpansionCache(entries), out_path)
    resolved = failed = 0
    for url in dict.fromkeys(urls):
        try:
            expanded = resolve_redirect(url, timeout)
        except Exception as exc:
            failed += 1
            print(f"expand-urls: {url}: {exc}", file=sys.stderr)
            continue
        if expanded and expanded != url:
            entries[url] = expanded
            resolved += 1
        else:
            entries.pop(url, None)
    save_cache(UrlExpansionCache(entries), out_path)
    return resolved, failed
