"""Structure guard: every exchange of the package goes through
``pipelines/exchange.py``.

Outside that module the package calls no Ray ``map_groups`` (a sampled
sort whose empty ranges come out as schema-less blocks), no
``repartition`` (keyed: aggregator actors; ``repartition(1)``: an
all-to-all barrier where ``exchange.gather`` is one task), no
``ShuffleStrategy.HASH_SHUFFLE`` (aggregator actors: seconds of
startup, and a deadlock when two such shuffles share a plan on a
low-CPU host) and no ``sort`` or ``limit`` (a sampled sort, where
``exchange.top_k`` cuts each block and ``exchange.ordered_offsets``
cuts its own ranges). No module imports ``ray.data.aggregate`` or
reduces a Dataset column with ``Dataset.sum("col")`` and its kin:
each is one more Ray Data execution with an all-to-all operator, where
``exchange.total`` is one small task per block. The source is scanned
with ``ast``, so comments and docstrings that name them do not count.
"""

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "deed_ocr_ray"
EXCHANGE = PKG / "pipelines" / "exchange.py"
ENTRY = PKG.parent / "__ray_entry__.py"


EXCHANGE_CALLS = ("map_groups", "repartition", "sort", "limit")


def _shuffles(source: str):
    """``(line, form)`` of every Ray exchange in ``source``: a
    ``map_groups``, ``repartition``, ``sort`` or ``limit`` call, or
    ``HASH_SHUFFLE``."""
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in EXCHANGE_CALLS):
            yield node.lineno, f"{node.func.attr}("
        elif isinstance(node, ast.Attribute) and node.attr == "HASH_SHUFFLE":
            yield node.lineno, "HASH_SHUFFLE"


def test_scanner_finds_each_form():
    src = ("ds.groupby('k').map_groups(f)\n"
           "ds.repartition(8, keys=['k'], sort=True)\n"
           "ds.repartition(1)\n"
           "ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE\n"
           "ds.sort(['n', 'k'], descending=[True, False])\n"
           "ds.limit(10)\n"
           "t.sort_by('k').slice(0, 10)\n"
           "# ds.groupby('k').map_groups(f)\n")
    assert sorted(_shuffles(src)) == [
        (1, "map_groups("), (2, "repartition("), (3, "repartition("),
        (4, "HASH_SHUFFLE"), (5, "sort("), (6, "limit(")]


def test_no_shuffle_outside_exchange():
    found = [f"{path.relative_to(PKG.parent)}:{line}: {form}"
             for path in sorted(PKG.rglob("*.py")) if path != EXCHANGE
             for line, form in _shuffles(path.read_text())]
    assert found == []


# the keyed exchange, the gather, the top-k, the ordered scan and the
# global total, and the helpers they call: plain Ray tasks, no Ray Data
# barrier or all-to-all operator
KEYED = {"keyed_exchange", "part_exchange", "keyed_aggregate", "keyed_join",
         "_map_blocks", "_sort_block", "_exchange", "_fold_range",
         "_part_rows", "_dataset", "gather", "top_k", "_gather", "_whole",
         "ordered_offsets", "_sample", "_range_sort", "_weights", "_sort_keys",
         "total", "_partial"}


def test_keyed_exchange_is_plain_tasks():
    """No ``sort(``, ``repartition(`` or ``materialize(`` call anywhere
    in ``exchange.py``: each would add a Ray Data execution or an
    all-to-all operator to every keyed aggregate, exchange, join,
    gather, top-k, ordered scan and total."""
    tree = ast.parse(EXCHANGE.read_text())
    defs = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert KEYED <= defs
    found = [f"exchange.py:{node.lineno}: {node.func.attr}("
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("sort", "repartition", "materialize")]
    assert found == []


def _sources():
    """Every module of the package, and the registry module."""
    return [*sorted(PKG.rglob("*.py")), ENTRY]


def _aggregate_imports(source: str):
    """Lines of ``source`` that import ``ray.data.aggregate`` (or a name
    from it)."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "ray.data.aggregate":
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "ray.data" and any(
                a.name == "aggregate" for a in node.names):
            yield node.lineno
        elif isinstance(node, ast.Import) and any(
                a.name == "ray.data.aggregate" for a in node.names):
            yield node.lineno


# Dataset methods that reduce a column to a scalar (``ds.sum("col")``)
# or run Ray's global aggregate (``ds.aggregate("col")`` is not valid,
# but a string first argument marks the Dataset form all the same)
REDUCTIONS = ("sum", "min", "max", "mean", "std", "unique", "aggregate")


def _column_reductions(source: str):
    """``(line, form)`` of every call ``x.<reduction>("literal", ...)``
    in ``source``: the Dataset column reductions. Arrow and pandas
    reductions take no column name as their first argument."""
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in REDUCTIONS and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            yield node.lineno, f"{node.func.attr}("


def test_reduction_scanners_find_each_form():
    src = ("from ray.data.aggregate import Sum\n"
           "import ray.data.aggregate\n"
           "from ray.data import aggregate\n"
           "ds.sum('s')\n"
           "ds.max('x', ignore_nulls=True)\n"
           "ds.unique('k')\n"
           "ds.aggregate('k')\n"
           "t.group_by([]).aggregate([('v', 'sum')])\n"
           "pc.sum(t['v'])\n"
           "df['v'].sum()\n"
           "# ds.sum('s')\n")
    assert list(_aggregate_imports(src)) == [1, 2, 3]
    assert sorted(_column_reductions(src)) == [
        (4, "sum("), (5, "max("), (6, "unique("), (7, "aggregate(")]


def test_no_ray_aggregate_outside_exchange():
    """No module imports ``ray.data.aggregate``, and no module but
    ``exchange.py`` reduces a Dataset column: a global scalar is
    ``exchange.total``."""
    imports = [f"{path.relative_to(PKG.parent)}:{line}"
               for path in _sources() for line in _aggregate_imports(path.read_text())]
    reductions = [f"{path.relative_to(PKG.parent)}:{line}: {form}"
                  for path in _sources() if path != EXCHANGE
                  for line, form in _column_reductions(path.read_text())]
    assert imports == [] and reductions == []


def _bare_from_pandas(source: str):
    """Lines of the ``Table.from_pandas(...)`` calls in ``source`` whose
    result is not the receiver of ``.replace_schema_metadata()``."""
    tree = ast.parse(source)
    stripped = {id(node.func.value) for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "replace_schema_metadata"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "from_pandas" and id(node) not in stripped):
            owner = node.func.value
            if getattr(owner, "attr", getattr(owner, "id", None)) == "Table":
                yield node.lineno


def test_from_pandas_scanner():
    src = ("pa.Table.from_pandas(df)\n"
           "pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata()\n"
           "Table.from_pandas(df).select(['a'])\n"
           "pa.Array.from_pandas(s)\n"
           "# pa.Table.from_pandas(df)\n")
    assert list(_bare_from_pandas(src)) == [1, 3]


def test_pipeline_tables_carry_no_pandas_metadata():
    """Every ``Table.from_pandas`` of ``pipelines/`` drops the pandas
    schema metadata: Ray cannot hash a schema that carries it, and its
    block concatenation logs "Failed to hash the schemas" in the
    workers, where the driver-side schema-warning gate does not hear it."""
    found = [f"{path.relative_to(PKG.parent)}:{line}"
             for path in sorted((PKG / "pipelines").glob("*.py"))
             for line in _bare_from_pandas(path.read_text())]
    assert found == []
