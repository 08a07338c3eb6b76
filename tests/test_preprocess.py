from __future__ import annotations

import re
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings, strategies as st

from veracity.errors import BadRecord
from veracity.preprocess import (
    TweetAttributes,
    UrlExpansionCache,
    clean_text,
    extract_attributes,
    load_cache,
    normalize_domain,
    save_cache,
)


def test_extracts_handle_and_expanded_domain():
    cache = UrlExpansionCache({"https://t.co/e16G2RGdkA": "https://www.cnn.com/town-hall"})
    attrs = extract_attributes(
        "We're LIVE talking about it with @drsanjaygupta. Join us: https://t.co/e16G2RGdkA",
        cache,
    )
    assert attrs.usernames == ("drsanjaygupta",)
    assert attrs.domains == ("cnn.com",)


def test_no_attributes():
    attrs = extract_attributes("no attributes here")
    assert attrs.usernames == ()
    assert attrs.urls == ()
    assert attrs.domains == ()


def test_duplicate_domains_retained_in_order():
    attrs = extract_attributes("see https://news.sky/story/x and https://news.sky/story/y")
    assert attrs.domains == ("news.sky", "news.sky")
    assert attrs.urls == ("https://news.sky/story/x", "https://news.sky/story/y")


def test_mention_inside_url_is_not_a_handle():
    attrs = extract_attributes("profile https://x.com/@someone but real @other")
    assert attrs.usernames == ("other",)


def test_email_is_not_a_handle():
    assert extract_attributes("mail bob@example.com now").usernames == ()


def test_handles_lowercased_preserving_order():
    attrs = extract_attributes("@Alice then @BOB then @alice")
    assert attrs.usernames == ("alice", "bob", "alice")


def test_cache_miss_use_as_is_keeps_short_host():
    attrs = extract_attributes("x https://t.co/abc")
    assert attrs.domains == ("t.co",)


def test_unparseable_expansion_is_skipped():
    cache = UrlExpansionCache({"https://t.co/abc": "not a url"})
    assert extract_attributes("x https://t.co/abc", cache).domains == ()


def test_usernames_never_touch_the_cache():
    class Exploding(dict):
        def get(self, key, default=None):  # pragma: no cover - guard
            raise AssertionError("username extraction consulted the cache")

    attrs = extract_attributes("hi @someone", UrlExpansionCache(Exploding()))
    assert attrs.usernames == ("someone",)


def test_normalize_domain_goldens():
    assert normalize_domain("https://www.theguardian.com/world/x") == "theguardian.com"
    assert normalize_domain("http://news.sky/story/123?q=1") == "news.sky"


def test_normalize_domain_port_userinfo_case():
    assert normalize_domain("https://User:pw@Example.COM:8443/a/b") == "example.com"


def test_normalize_domain_bad_inputs():
    for bad in ("not a url", "", "https://", "www.", "http://[::1"):
        assert normalize_domain(bad) is None


def test_normalize_domain_idempotent_examples():
    for url in ("https://www.www.x.com/a", "http://a.b.c.d/e", "https://WWW.Site.org"):
        domain = normalize_domain(url)
        assert normalize_domain("https://" + domain) == domain


def test_clean_text_removes_all_noise():
    assert clean_text("Go @user see https://t.co/x now") == "Go see now"


def test_clean_text_keeps_hashtag_word():
    assert clean_text("#COVID19 is real") == "COVID19 is real"


def test_clean_text_identity_on_plain_text():
    assert clean_text("plain sentence") == "plain sentence"


def test_clean_text_removes_emoji():
    assert clean_text("fine \U0001F600 day ❤️") == "fine day"


URL_OR_NOISE = st.text(
    alphabet=st.sampled_from(list("ab @#:/.h\tt́ps\U0001F600❤")), max_size=40
)


@given(URL_OR_NOISE)
def test_clean_text_idempotent(text):
    once = clean_text(text)
    assert clean_text(once) == once


@given(URL_OR_NOISE)
def test_extraction_after_full_clean_is_empty(text):
    cleaned = clean_text(text)
    attrs = extract_attributes(cleaned)
    assert attrs.usernames == ()
    assert attrs.urls == ()


@pytest.mark.parametrize(
    "nasty",
    [
        "htt\U0001F600ps://x.com mid-emoji scheme",
        "@#user hash-glued mention",
        "@ab@cd chained mentions",
        "x @https://t.co/a mention-at-url",
        "#https://x.com hash then url",
        "@@@triple",
    ],
)
def test_extraction_after_full_clean_is_empty_nasty_cases(nasty):
    cleaned = clean_text(nasty)
    attrs = extract_attributes(cleaned)
    assert attrs.usernames == ()
    assert attrs.urls == ()
    assert clean_text(cleaned) == cleaned


def test_cache_file_round_trip(tmp_path):
    cache_path = tmp_path / "cache.tsv"
    cache_path.write_text(
        "# comment line\n"
        "\n"
        "https://t.co/a\thttps://example.org/expanded\n"
        "https://t.co/b\thttps://news.sky/x\n",
        encoding="utf-8",
    )
    cache = load_cache(cache_path)
    assert cache.expand("https://t.co/a") == "https://example.org/expanded"
    assert cache.expand("https://t.co/zzz") == "https://t.co/zzz"  # miss: use as-is
    out = tmp_path / "copy.tsv"
    save_cache(cache, out)
    assert load_cache(out).entries == cache.entries


def test_cache_lookup_is_exact_string_match(tmp_path):
    cache = UrlExpansionCache({"https://t.co/A": "https://a.com/x"})
    assert cache.expand("https://t.co/a") == "https://t.co/a"


def test_cache_bad_row_rejected(tmp_path):
    path = tmp_path / "bad.tsv"
    # one cell, then three: a row is exactly a short URL and its expansion
    for row in ("https://t.co/a only-one-column", "http://t.co/a\thttps://news.sky/a\textra"):
        path.write_text(f"# short_url\texpanded_url\n{row}\n", encoding="utf-8")
        message = r"bad record in bad.tsv \(line 2\): expected short_url<TAB>expanded_url"
        with pytest.raises(BadRecord, match=message):
            load_cache(path)


# --------------------------------------------------------------------------
# The scans without their fast paths: every regex runs on every post, the
# mention rule is a lookbehind and every host goes through urlsplit. The
# fast paths must give the same result on any text.
# --------------------------------------------------------------------------

_ORACLE_URL_RE = re.compile(r"https?://\S+", re.IGNORECASE)
_ORACLE_MENTION_RE = re.compile(r"(?<!\w)@(\w+)")
_ORACLE_MENTION_STRIP_RE = re.compile(r"@\w+")
_ORACLE_HASHMARK_RE = re.compile(r"#+(?=\w)")
_ORACLE_EMOJI_RE = re.compile(
    "[\U0001F300-\U0001F5FF\U0001F600-\U0001F64F\U0001F680-\U0001F6FF\U0001F700-\U0001F77F"
    "\U0001F900-\U0001FAFF\U0001F1E6-\U0001F1FF\u2600-\u27BF\uFE0F]+"
)


def oracle_normalize_domain(url):
    try:
        host = urlsplit(url).hostname
    except ValueError:
        return None
    if not host:
        return None
    while host.startswith("www."):
        host = host[4:]
    return host or None


def oracle_extract_attributes(text, cache):
    url_spans = [(m.start(), m.end(), m.group()) for m in _ORACLE_URL_RE.finditer(text)]
    urls = tuple(group for _, _, group in url_spans)
    usernames = tuple(
        m.group(1).lower()
        for m in _ORACLE_MENTION_RE.finditer(text)
        if not any(start <= m.start() < end for start, end, _ in url_spans)
    )
    domains = []
    for url in urls:
        domain = oracle_normalize_domain(cache.entries.get(url, url))
        if domain is not None:
            domains.append(domain)
    return TweetAttributes(usernames, urls, tuple(domains))


def oracle_clean_text(text):
    text = _ORACLE_URL_RE.sub(" ", text)
    text = _ORACLE_MENTION_STRIP_RE.sub(" ", text)
    text = _ORACLE_EMOJI_RE.sub(" ", text)
    text = _ORACLE_HASHMARK_RE.sub(" ", text)
    return " ".join(text.split())


# one cached short link expanding to an upper-case host, one to a bad URL
CACHE = UrlExpansionCache({"https://t.co/a": "HTTP://Ex.COM/a", "https://t.co/b": "http:///x"})

# Weighted toward the characters the fast paths test for, with the
# characters where `\w`, case folding, ASCII and whitespace rules are
# easy to get wrong: "²" and "é" are word characters, "\x85" and "\u3000"
# are whitespace, "ſ" and "K" fold to ASCII letters under IGNORECASE.
TEXT_PIECES = (
    list("@#:/._htpswHTPS") * 3
    + ["http://", "HTTPS://", "https://t.co/a", "https://t.co/b", "www.", "a", "Z", "1", " "]
    + ["\U0001F600", "\u2764", "\uFE0F", "\u00b2", "\u00e9", "\x85", "\u3000", "\u017f", "\u212a"]
    + ["-", "?", "[", "]", "%", "\t", "\n", "bob", "x.com"]
)
NOISY_TEXT = st.one_of(
    st.lists(st.sampled_from(TEXT_PIECES), max_size=30).map("".join),
    st.text(max_size=40),
)


def assert_text_paths_match(text):
    assert extract_attributes(text, CACHE) == oracle_extract_attributes(text, CACHE)
    assert clean_text(text) == oracle_clean_text(text)


@pytest.mark.parametrize(
    "text",
    [
        "@bobhttps://x.com", "a@b", "@@x", "x@@y", "https://x.com/@someone",
        "HTTP://Ex.COM/a", "##tag", "\u00b2@x", "_@x", "@x_y@z", "",
        "see https://t.co/a and https://t.co/b then @Bob #Tag \U0001F600\uFE0F",
    ],
)
def test_text_fast_paths_match_oracle_examples(text):
    assert_text_paths_match(text)


@settings(max_examples=400)
@given(NOISY_TEXT)
def test_text_fast_paths_match_oracle(text):
    assert_text_paths_match(text)


URL_SCHEMES = [
    "http://", "https://", "HTTP://", "HtTpS://", "http:/", "https:", "ftp://", "",
    " https://", "\x01http://", "\thttps://", "http\u017f://", "https:///",
]
URL_USERINFO = ["", "", "user@", "u:p@", "@"]
HOST_PIECES = [
    "www.", "www.", "a", "Ex", "COM", ".", "-", "0", "_", "[::1]", "[bad", "]",
    "\t", "\r", "\n", " ", "\u00e9", "\u212a", "%41", "\x00", ":",
]
URL_PORTS = ["", "", ":80", ":x", ":"]
URL_TAILS = ["", "", "/", "/path", "?q=1", "#f", "\\x", "/\t", " x", "/a@b"]
URLS = st.builds(
    lambda *parts: "".join(parts),
    st.sampled_from(URL_SCHEMES),
    st.sampled_from(URL_USERINFO),
    st.lists(st.sampled_from(HOST_PIECES), max_size=6).map("".join),
    st.sampled_from(URL_PORTS),
    st.sampled_from(URL_TAILS),
)


@pytest.mark.parametrize(
    "url",
    [
        "https://user:pw@Ex.com:8443/a", "http://[::1]/x", "http://[bad/x", "http://ex\tample.com",
        "http://ex\nample.com/", " https://x.com", "\x01https://x.com", "HTTPS://X.COM",
        "https://www.www.x.com", "https://www.", "https://www.www.", "https://x.com.",
        "https://\u00e9x.com/", "http:///x", "https://", "https://x.com?q#f", "https://-.",
    ],
)
def test_normalize_domain_matches_oracle_examples(url):
    assert normalize_domain(url) == oracle_normalize_domain(url)


@settings(max_examples=400)
@given(URLS)
def test_normalize_domain_matches_oracle(url):
    assert normalize_domain(url) == oracle_normalize_domain(url)
