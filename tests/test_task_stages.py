"""Every map stage is a task stage.

A callable-class stage (``__init__``/``__call__``) is passed to
``map_batches`` as an instance, which Ray runs as plain tasks. Passing
the class instead, or a ``concurrency=(min, max)`` range, makes Ray start
an autoscaling actor pool: each query pays the actors' start-up, and
when they exit the next query in the process waits for cold workers.
No stage holds state that costs more to build than a worker's start-up,
so the package starts none. The source is scanned with ``ast``; the
integer ``concurrency=`` task cap (``extract_dataset``, the CLI's
``--concurrency``) stays allowed.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "deed_ocr_ray").rglob("*.py")) + [ROOT / "__ray_entry__.py"]


def _class_names(sources) -> set:
    return {node.name for path in sources
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef)}


def _actor_pools(source: str, classes: set):
    """``(line, form)`` of every call in ``source`` that would start an
    actor pool: a ``map_batches`` whose function is one of ``classes``,
    or a tuple-valued ``concurrency=``."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute) and node.func.attr == "map_batches":
            fn = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg == "fn"), None)
            name = getattr(fn, "id", getattr(fn, "attr", None))
            if name in classes:
                yield node.lineno, f"map_batches({name})"
        for k in node.keywords:
            if k.arg == "concurrency" and isinstance(k.value, ast.Tuple):
                yield node.lineno, "concurrency=("


def test_scanner_finds_each_form():
    src = ("ds.map_batches(Stage, batch_format='pyarrow')\n"
           "ds.map_batches(fn=stages.Stage)\n"
           "ds.map_batches(Stage(), batch_format='pyarrow')\n"
           "ds.map_batches(f, concurrency=(1, 4))\n"
           "ds.map_batches(Extractor(), concurrency=4)\n"
           "# ds.map_batches(Stage, concurrency=(1, 8))\n")
    assert sorted(_actor_pools(src, {"Stage", "Extractor"})) == [
        (1, "map_batches(Stage)"), (2, "map_batches(Stage)"), (4, "concurrency=(")]


def test_no_actor_pool_stage():
    classes = _class_names(SOURCES)
    found = [f"{path.relative_to(ROOT)}:{line}: {form}"
             for path in SOURCES for line, form in _actor_pools(path.read_text(), classes)]
    assert found == []


SF = "/root/testdata/sf0.001"

# (query, its callable-class stages, rows and value hash at sf0.001 as
# they were when these stages ran as actor pools)
STAGE_QUERIES = [
    ("pdf_layout", ["PdfLayoutStage"], 18165, "9332c838ded1df52"),
    ("ensemble_extract", ["EnsembleScorer"], 500, "e6de3918c66411ae"),
    ("media_pipeline", ["MediaDecoder", "FrameSampler"], 752, "93c184887c54d2c4"),
    ("image_features", ["ImageFeatures"], 500, "7e3dcff356cb3588"),
    ("audio_features", ["AudioFeatures"], 500, "43c591840c54bf2d"),
]


@pytest.mark.parametrize("name,stages,rows,digest", STAGE_QUERIES,
                         ids=[q[0] for q in STAGE_QUERIES])
def test_stage_query_runs_as_tasks(ray_session, name, stages, rows, digest):
    import ray.data as rd

    import __ray_entry__ as ent
    from tools.check_oracles import value_hash

    ds = ent.queries()[name](SF).materialize()
    ctx = rd.DataContext.get_current()
    prev, ctx.verbose_stats_logs = ctx.verbose_stats_logs, True
    try:
        stats = ds.stats()
    finally:
        ctx.verbose_stats_logs = prev
    for stage in stages:
        assert f"MapBatches({stage})" in stats
    # only ActorPoolMapOperator adds a 'pending_actors' extra metric
    assert "'pending_actors'" not in stats, stats
    df = ds.to_pandas()
    assert (len(df), value_hash(df)) == (rows, digest)
