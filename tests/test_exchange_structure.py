"""Structure guard: every keyed exchange of the package goes through
``pipelines/exchange.py``.

Outside that module the package calls no Ray ``map_groups`` (a sampled
sort whose empty ranges come out as schema-less blocks), no keyed
``repartition(..., keys=...)`` and no ``ShuffleStrategy.HASH_SHUFFLE``
(aggregator actors: seconds of startup, and a deadlock when two such
shuffles share a plan on a low-CPU host). The source is scanned with
``ast``, so comments and docstrings that name them do not count.
"""

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "deed_ocr_ray"
EXCHANGE = PKG / "pipelines" / "exchange.py"


def _keyed_shuffles(source: str):
    """``(line, form)`` of every keyed Ray shuffle in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "map_groups":
                yield node.lineno, "map_groups("
            elif (node.func.attr == "repartition"
                  and any(k.arg == "keys" for k in node.keywords)):
                yield node.lineno, "repartition(..., keys=...)"
        elif isinstance(node, ast.Attribute) and node.attr == "HASH_SHUFFLE":
            yield node.lineno, "HASH_SHUFFLE"


def test_scanner_finds_each_form():
    src = ("ds.groupby('k').map_groups(f)\n"
           "ds.repartition(8, keys=['k'], sort=True)\n"
           "ds.repartition(1)\n"
           "ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE\n"
           "# ds.groupby('k').map_groups(f)\n")
    assert sorted(_keyed_shuffles(src)) == [
        (1, "map_groups("), (2, "repartition(..., keys=...)"), (4, "HASH_SHUFFLE")]


def test_no_keyed_shuffle_outside_exchange():
    found = [f"{path.relative_to(PKG.parent)}:{line}: {form}"
             for path in sorted(PKG.rglob("*.py")) if path != EXCHANGE
             for line, form in _keyed_shuffles(path.read_text())]
    assert found == []
