"""Benchmark-side tracing: in-memory spans around calls into the program,
and a parser for ``Dataset.stats()``.

Nothing here changes the program. ``Tracer.wrap`` swaps a module (or
class) attribute for a timing wrapper and ``Tracer.close`` puts the
original back, so spans are recorded only in a traced run.
"""

from __future__ import annotations

import functools
import re
import time
from typing import Any, Callable, Dict, List, Optional, Tuple


class Tracer:
    """Spans ``{id, parent, name, start, end}`` kept in memory; the
    caller writes them out when the run ends."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def wrap(self, owner: Any, attr: str, name: Optional[str] = None,
             on_result: Optional[Callable[[Any], None]] = None) -> None:
        orig = getattr(owner, attr)
        label = name or attr

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with self.span(label):
                out = orig(*args, **kwargs)
            if on_result is not None:
                on_result(out)
            return out

        self._patched.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def close(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        t = self.tracer
        self.rec = {"id": len(t.spans), "name": self.name,
                    "parent": t._stack[-1] if t._stack else None,
                    "start": time.perf_counter(), "end": None}
        t.spans.append(self.rec)
        t._stack.append(self.rec["id"])
        return self

    def __exit__(self, *exc) -> None:
        self.rec["end"] = time.perf_counter()
        self.tracer._stack.pop()


# ------------------------------------------------------ Dataset.stats()

_OP_RE = re.compile(
    r"^Operator (\d+) (.+?): (?:(?:\d+) tasks executed, )?(?:\d+) blocks produced in ([\d.]+)s")
# all-to-all operators (Aggregate, Sort, Repartition, ...) print one wall
# time and then their map and reduce suboperators
_EXCHANGE_RE = re.compile(r"^Operator (\d+) (.+?): executed in ([\d.]+)s")
_TIME_RE = r"([\d.]+)(us|ms|s)"
_WALL_RE = re.compile(r"^\* Remote wall time: .* max, .* mean, " + _TIME_RE + " total")
_ROWS_RE = re.compile(
    r"^\* Output num rows per block: (\d+) min, (\d+) max, (\d+) mean, (\d+) total")
_BYTES_RE = re.compile(
    r"^\* Output size bytes per block: (\d+) min, (\d+) max, (\d+) mean, (\d+) total")
_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def parse_stats(text: str) -> List[Dict[str, Any]]:
    """Per-operator rows from a ``Dataset.stats()`` string: name,
    op_wall_s (first block start to last block end), task_wall_s (sum
    of task walls), rows, bytes and max/mean rows per output block. For
    an all-to-all operator the task walls of its suboperators add up and
    the output figures are those of its last (reduce) suboperator."""
    ops: List[Dict[str, Any]] = []
    cur: Optional[Dict[str, Any]] = None
    for raw in text.splitlines():
        line = raw.strip()
        m = _OP_RE.match(line) or _EXCHANGE_RE.match(line)
        if m:
            cur = {"name": m.group(2), "op_wall_s": float(m.group(3)),
                   "task_wall_s": 0.0, "rows": 0, "bytes": 0, "block_skew": 1.0}
            ops.append(cur)
            continue
        if cur is None:
            continue
        m = _WALL_RE.match(line)
        if m:
            cur["task_wall_s"] += float(m.group(1)) * _UNIT[m.group(2)]
            continue
        m = _ROWS_RE.match(line)
        if m:
            mx, mean, total = int(m.group(2)), int(m.group(3)), int(m.group(4))
            cur["rows"] = total
            cur["block_skew"] = mx / mean if mean else 1.0
            continue
        m = _BYTES_RE.match(line)
        if m:
            cur["bytes"] = int(m.group(4))
    return ops


def find_op(ops: List[Dict[str, Any]], needle: str) -> Dict[str, Any]:
    """Sum of every operator whose name contains ``needle``."""
    out = {"op_wall_s": 0.0, "task_wall_s": 0.0, "rows": 0, "bytes": 0}
    for op in ops:
        if needle in op["name"]:
            for k in out:
                out[k] += op[k]
    return out
