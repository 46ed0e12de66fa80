"""Property-based tests (hypothesis): the engine's core total-function
and determinism contracts under adversarial inputs.

These are the load-bearing claims of the design (SURVEY.md §7.4):
extractors are TOTAL (absorb any input into a row, never raise), the
normalizer converges to a fixed point, and span offsets always index
into the final text.
"""

import string

from hypothesis import example, given, settings
from hypothesis import strategies as st

from deed_ocr_ray.functions.normalize import (
    dedup_preserve_order,
    fixpoint_normalize,
    normalize_inline,
    normalize_text,
)
from deed_ocr_ray.functions.sniff import decode_html, sniff_kind
from deed_ocr_ray.stages.extract import extract_row
from deed_ocr_ray.stages.html_extract import segment_html

# Mixed raw bytes: random binary, html-ish fragments, pdf-ish prefixes
_htmlish = st.text(
    alphabet=string.ascii_letters + string.digits + " <>/=\"'&;#-.\n\t",
    max_size=400,
).map(lambda s: s.encode())
_payloads = st.one_of(
    st.none(),
    st.binary(max_size=400),
    _htmlish,
    st.binary(max_size=200).map(lambda b: b"%PDF-1.4\n" + b),
    st.binary(max_size=200).map(lambda b: b"\xef\xbb\xbf" + b),
)
_texts = st.one_of(st.none(), st.text(max_size=400))


@settings(max_examples=300, deadline=None)
@given(html=_payloads, text=_texts, lang=st.one_of(st.none(), st.text(max_size=8)))
def test_extract_row_is_total_and_spans_valid(html, text, lang):
    row = extract_row(html, text, lang)
    assert row["status"] in ("ok", "error")
    assert row["payload_kind"] in ("html", "pdf", "text", "empty")
    body = row["extracted_text"]
    for kind, start, end, score in row["spans"]:
        assert 0 <= start <= end <= len(body), (kind, start, end, len(body))
        assert 0.0 <= score <= 1.0
    # determinism: same input -> identical row
    assert extract_row(html, text, lang) == row


@settings(max_examples=300, deadline=None)
@given(s=st.text(max_size=500))
def test_normalize_text_fixpoint_contract(s):
    fp = fixpoint_normalize(s)
    assert normalize_text(fp) == fp  # fixed point reached
    assert "UNO" not in fp  # watermark literals cannot survive


@settings(max_examples=300, deadline=None)
@given(s=st.text(max_size=300))
def test_normalize_inline_idempotent_single_line(s):
    out = normalize_inline(s)
    assert "\n" not in out and "\t" not in out
    assert "  " not in out
    assert out == normalize_inline(out)
    assert out == out.strip()


@settings(max_examples=200, deadline=None)
@given(raw=st.binary(max_size=600))
def test_decode_html_total(raw):
    s, ratio = decode_html(raw)
    assert isinstance(s, str)
    assert 0.0 <= ratio <= 1.0


@settings(max_examples=200, deadline=None)
@given(doc=st.text(max_size=600))
def test_segment_html_total_and_blocks_nonempty(doc):
    blocks = segment_html(doc)
    for b in blocks:
        assert b.text  # finalized blocks are never empty
        assert b.link_chars >= 0


@settings(max_examples=200, deadline=None)
@given(items=st.lists(st.one_of(st.none(), st.text(max_size=10)), max_size=30))
def test_dedup_preserve_order_properties(items):
    out = dedup_preserve_order(items)
    assert len(set(out)) == len(out)  # no dups
    assert all(x for x in out)  # no falsy survivors
    # order preserved: out is a subsequence of items
    it = iter(items)
    assert all(any(x == y for y in it) for x in out)


@settings(max_examples=200, deadline=None)
@given(html=_payloads, text=_texts)
def test_sniff_kind_closed_set(html, text):
    assert sniff_kind(html, text) in ("html", "pdf", "text", "empty")


@settings(max_examples=500, deadline=None)
@given(h=st.integers(min_value=0, max_value=(1 << 64) - 1),
       flips=st.lists(st.integers(min_value=0, max_value=63),
                      min_size=0, max_size=3, unique=True))
def test_simhash_band_blocking_guarantees_recall(h, flips):
    """Any pair with Hamming distance <= 3 shares at least one exact
    16-bit band (pigeonhole over 4 bands) — the recall guarantee the
    simhash_near_pairs blocking relies on."""
    g = h
    for b in flips:
        g ^= 1 << b
    bands_h = [(h >> (16 * i)) & 0xFFFF for i in range(4)]
    bands_g = [(g >> (16 * i)) & 0xFFFF for i in range(4)]
    assert any(x == y for x, y in zip(bands_h, bands_g))


# ------------------------------------------------- URL canonicalization

_urlish = st.one_of(
    st.text(alphabet=string.ascii_letters + string.digits + ":/?&#=._-%",
            max_size=120),
    st.tuples(
        st.sampled_from(["http://", "https://", "HTTP://", "HTTPS://", ""]),
        st.text(alphabet=string.ascii_letters + string.digits + ".-", max_size=20),
        st.sampled_from(["", ":80", ":443", ":8080"]),
        st.text(alphabet=string.ascii_letters + "/?&#=_", max_size=40),
    ).map(lambda t: "".join(t)),
)


@given(_urlish)
@example("http://?&&")  # '&' runs: one '&' per pass was not idempotent
@example("http://x/a&&b")
@example("http://h?&?&")
@settings(max_examples=300, deadline=None)
def test_canonicalize_url_total_and_idempotent(u):
    """canonicalize_url is a total function and a projection: applying
    it twice equals applying it once (the dedup-key contract)."""
    from deed_ocr_ray.functions.urlnorm import canonicalize_url

    c = canonicalize_url(u)
    assert isinstance(c, str)
    assert canonicalize_url(c) == c
    assert "#" not in c or not c.lower().startswith("http")


# ------------------------------------------------------- image codecs

@given(
    st.integers(1, 12), st.integers(1, 12),
    st.sampled_from([1, 3, 4]), st.integers(0, 4), st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_png_roundtrip_property(h, w, ch, ftype, seed):
    """Any uint8 image survives encode->decode bit-exactly through every
    scanline filter."""
    import numpy as np

    from deed_ocr_ray.functions.imagecodec import decode_png, encode_png

    rng = np.random.RandomState(seed)
    img = rng.randint(0, 256, size=(h, w, ch), dtype=np.uint8)
    if ch == 1:
        img = img[:, :, 0]
    assert np.array_equal(decode_png(encode_png(img, filter_type=ftype)), img)
