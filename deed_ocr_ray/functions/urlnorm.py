"""Deterministic URL canonicalization (the web-corpus dedup key maker).

The canonical-url kernel a Common-Crawl-style pipeline runs before url
dedup: strip the fragment, lowercase scheme+host, drop default ports,
remove utm_* tracking params (repairing a dangling ``&``), strip a
trailing ``?`` and a trailing slash. Every step is a basic-regex
transform implemented IDENTICALLY here and in the DuckDB oracle
(``textops.Q_URL_CANON_SQL``) — RE2 and Python ``re`` agree on this
construct subset, so results are byte-identical (oracle-verified).
"""

from __future__ import annotations

import re

_SPLIT = re.compile(r"(?i)^(https?://)([^/?#]*)(.*)$")
_FRAGMENT = re.compile(r"#.*$")
# Default-port strip is scheme-conditional: ':80' is only the default
# for http, ':443' only for https — http://host:443 is a distinct
# origin and must NOT collapse onto http://host.
_PORT_HTTP = re.compile(r":80$")
_PORT_HTTPS = re.compile(r":443$")
_UTM = re.compile(r"[?&]utm_[a-z_]+=[^&#]*")
# Whole '&' runs collapse, and every '?&' run does, in one pass: one
# '&' at a time was not idempotent ('http://?&&' -> 'http://?&' ->
# 'http://', caught by the hypothesis projection test).
_DANGLING_AMP = re.compile(r"^([^?&]*)&+")
_Q_AMP = re.compile(r"\?&+")
# Trailing '?'/'/' strip runs to FIXPOINT as one regex (alternating
# single-step strips were not idempotent: 'http://?/' -> 'http://?'
# -> 'http://', caught by the hypothesis projection test); a tail that
# was nothing but the run keeps its root slash.
_TRAIL_RUN = re.compile(r"[?/]+$")


def canonicalize_url(url: str) -> str:
    """Canonical form of ``url``; non-http(s) inputs pass through with
    only the fragment stripped (total function)."""
    u = _FRAGMENT.sub("", url)
    m = _SPLIT.match(u)
    if not m:
        return u
    scheme = m.group(1).lower()
    port_re = _PORT_HTTP if scheme == "http://" else _PORT_HTTPS
    host = port_re.sub("", m.group(2).lower())
    tail = m.group(3)
    tail = _UTM.sub("", tail)
    tail = _Q_AMP.sub("?", tail)
    tail = _DANGLING_AMP.sub(r"\1?", tail, count=1)
    stripped = _TRAIL_RUN.sub("", tail)
    if stripped == "" and tail.startswith("/"):
        stripped = "/"  # lone root slash survives (distinct from no-path)
    return scheme + host + stripped
