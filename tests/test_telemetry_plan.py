"""Plan-engine parity, pushdown, and spooling tests.

The refactor contract: every planned query is **bit-identical** to the
pre-refactor eager path (frozen in ``tests/_golden_telemetry.py``),
while pruned partitions are never opened beyond their header and
unrequested column payloads are never decoded.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tests._golden_telemetry import (
    GoldenQuery,
    golden_rankwise_variance,
)
from repro.cli import main
from repro.telemetry import (
    ColumnPredicate,
    ColumnTable,
    Filter,
    GroupAgg,
    Limit,
    Project,
    Query,
    Scan,
    Sort,
    TelemetryCollector,
    TelemetryDataset,
    execute,
    explain,
    materialize,
    rankwise_variance,
    sql,
    sql_query,
)
from repro.telemetry import engine as engine_mod
from repro.telemetry.plan import optimize, required_columns


def assert_tables_identical(a: ColumnTable, b: ColumnTable) -> None:
    """Bit-identical: same columns, same order, same dtypes, same bits."""
    assert a.names == b.names
    for name in a.names:
        ca, cb = a[name], b[name]
        assert ca.dtype == cb.dtype, name
        np.testing.assert_array_equal(ca, cb, err_msg=name)


# --------------------------------------------------------------------- #
# hypothesis strategies: small tables + query specs with heavy collisions
# --------------------------------------------------------------------- #

_COLS = ("step", "rank", "compute_s", "comm_s")


@st.composite
def tables(draw, min_rows=0, max_rows=60):
    n = draw(st.integers(min_rows, max_rows))
    ints = st.integers(0, 7)
    floats = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.5, -1.0])
    return ColumnTable(
        {
            "step": np.asarray(draw(st.lists(ints, min_size=n, max_size=n)), np.int64),
            "rank": np.asarray(draw(st.lists(ints, min_size=n, max_size=n)), np.int64),
            "compute_s": np.asarray(
                draw(st.lists(floats, min_size=n, max_size=n)), np.float64
            ),
            "comm_s": np.asarray(
                draw(st.lists(floats, min_size=n, max_size=n)), np.float64
            ),
        }
    )


@st.composite
def query_specs(draw):
    """(predicates, group_keys, aggs, order, limit) for both builders."""
    preds = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_COLS),
                st.sampled_from(("==", "!=", "<", "<=", ">", ">=")),
                st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0]),
            ),
            max_size=3,
        )
    )
    keys = draw(st.lists(st.sampled_from(("step", "rank")), max_size=2, unique=True))
    aggs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("compute_s", "comm_s")),
                st.sampled_from(("sum", "min", "max", "mean", "count", "std", "p95")),
            ),
            min_size=1 if keys else 0,
            max_size=3,
        )
    )
    if keys and not aggs:
        aggs = [("comm_s", "mean")]
    out_cols = list(keys) + [f"{fn}_{col}" for col, fn in aggs] if (keys or aggs) else list(_COLS)
    order = draw(st.none() | st.tuples(st.sampled_from(out_cols), st.booleans())) if out_cols else None
    limit = draw(st.none() | st.integers(0, 10))
    return preds, keys, aggs, order, limit


def _build(qcls, source, spec):
    preds, keys, aggs, order, limit = spec
    q = qcls(source)
    for col, op, val in preds:
        q = q.where(col, op, val)
    if keys:
        q = q.group_by(*keys)
    if aggs:
        q = q.agg(*aggs)
    if order is not None:
        q = q.order_by(order[0], desc=order[1])
    if limit is not None:
        q = q.limit(limit)
    return q


def _partitioned(tmp_path, table: ColumnTable, n_parts: int) -> TelemetryDataset:
    ds = TelemetryDataset.create(tmp_path / "ds")
    bounds = np.linspace(0, table.n_rows, n_parts + 1).astype(int)
    idx = np.arange(table.n_rows)
    for i in range(n_parts):
        mask = (idx >= bounds[i]) & (idx < bounds[i + 1])
        ds.append(table.filter(mask), label=f"chunk-{i}")
    return ds


# --------------------------------------------------------------------- #
# parity: planned == frozen eager, bit for bit
# --------------------------------------------------------------------- #


@given(tables(), query_specs())
def test_planned_query_matches_golden_eager_on_tables(table, spec):
    got = _build(Query, table, spec).run()
    want = _build(GoldenQuery, table, spec).run()
    assert_tables_identical(got, want)


@given(tables(max_rows=40), query_specs(), st.integers(1, 4))
def test_planned_query_matches_golden_eager_on_datasets(tmp_path_factory, table, spec, n_parts):
    tmp = tmp_path_factory.mktemp("plan-ds")
    ds = _partitioned(tmp, table, n_parts)
    got = _build(Query, ds, spec).run()
    want = _build(GoldenQuery, table, spec).run()
    assert_tables_identical(got, want)


@given(tables(max_rows=40), st.integers(1, 3),
       st.sampled_from([(None, 3.0), (2.0, None), (1.0, 4.0), (9.0, None)]))
def test_dataset_read_matches_golden_eager(tmp_path_factory, table, n_parts, bounds):
    """A pruned, projected range read of a partitioned dataset equals
    the frozen eager query over the whole table."""
    tmp = tmp_path_factory.mktemp("read-ds")
    ds = _partitioned(tmp, table, n_parts)
    got, want = Query(ds), GoldenQuery(table)
    for op, value in zip((">=", "<="), bounds):
        if value is not None:
            got, want = got.where("step", op, value), want.where("step", op, value)
    assert_tables_identical(
        got.select("step", "comm_s").run(), want.run().select(["step", "comm_s"])
    )


@given(tables())
def test_sql_equals_builder(table):
    stmt = ("SELECT rank, mean(comm_s), p95(comm_s) FROM t "
            "WHERE step >= 2 AND compute_s < 3 GROUP BY rank "
            "ORDER BY mean_comm_s DESC LIMIT 5")
    got = sql(table, stmt)
    want = (
        Query(table)
        .where("step", ">=", 2.0)
        .where("compute_s", "<", 3.0)
        .group_by("rank")
        .agg(("comm_s", "mean"), ("comm_s", "p95"))
        .order_by("mean_comm_s", desc=True)
        .limit(5)
        .run()
    )
    assert_tables_identical(got, want)


@given(tables(min_rows=1))
def test_query_matches_bruteforce_numpy(table):
    """Grouped means vs a dict-of-lists reference (allclose: summation
    order differs between reduceat and np.mean, so bits may not)."""
    got = Query(table).group_by("rank").agg(("comm_s", "mean"), ("comm_s", "sum")).run()
    groups = {}
    for r, v in zip(table["rank"], table["comm_s"]):
        groups.setdefault(int(r), []).append(v)
    want_ranks = sorted(groups)
    np.testing.assert_array_equal(got["rank"], np.asarray(want_ranks))
    np.testing.assert_allclose(
        got["mean_comm_s"], [np.mean(groups[r]) for r in want_ranks]
    )
    np.testing.assert_allclose(
        got["sum_comm_s"], [np.sum(groups[r]) for r in want_ranks]
    )


@given(tables(min_rows=1, max_rows=40))
def test_rankwise_variance_matches_golden(table):
    got = rankwise_variance(table, "comm_s")
    want = golden_rankwise_variance(table, "comm_s")
    assert got == want  # float-exact: same kernels, same order


def test_empty_result_parity(tmp_path):
    table = ColumnTable(
        {"step": np.arange(10, dtype=np.int64), "comm_s": np.ones(10)}
    )
    ds = TelemetryDataset.create(tmp_path / "ds")
    ds.append(table)
    # Predicate excludes every row but not the whole partition.
    got = Query(ds).where("comm_s", ">", 99.0).run()
    assert got.n_rows == 0
    assert got.names == ["step", "comm_s"]
    assert got["step"].dtype == np.int64
    # Same on a table source.
    got_t = Query(table).where("comm_s", ">", 99.0).run()
    assert_tables_identical(got, got_t)


def test_all_partitions_pruned_yields_typed_empty(tmp_path):
    table = ColumnTable(
        {"step": np.arange(8, dtype=np.int64), "comm_s": np.ones(8)}
    )
    ds = _partitioned(tmp_path, table, 2)
    rep = engine_mod.ExecutionReport()
    q = Query(ds).where("step", ">", 1000.0)
    got = execute(q.plan(), rep)
    assert got.n_rows == 0
    assert got["step"].dtype == np.int64
    assert rep.scans[0].partitions_scanned == []
    assert len(rep.scans[0].partitions_pruned) == 2


# --------------------------------------------------------------------- #
# pushdown observability
# --------------------------------------------------------------------- #


@pytest.fixture
def stepwise_dataset(tmp_path):
    """4 partitions with disjoint step ranges 0-9, 10-19, 20-29, 30-39."""
    ds = TelemetryDataset.create(tmp_path / "steps")
    for i in range(4):
        steps = np.arange(i * 10, (i + 1) * 10, dtype=np.int64)
        ds.append(
            ColumnTable(
                {
                    "step": steps,
                    "rank": steps % 4,
                    "comm_s": np.full(10, float(i)),
                }
            ),
            label=f"epoch-{i}",
        )
    return ds


def test_pruning_never_opens_pruned_partitions(stepwise_dataset, monkeypatch):
    opened = []
    real_read = engine_mod.read_table

    def counting_read(path, columns=None):
        opened.append(path.name)
        return real_read(path, columns=columns)

    monkeypatch.setattr(engine_mod, "read_table", counting_read)
    rep = engine_mod.ExecutionReport()
    q = Query(stepwise_dataset).where("step", ">=", 25.0)
    got = execute(q.plan(), rep)
    assert sorted(opened) == ["part-00002.rprc", "part-00003.rprc"]
    assert rep.scans[0].partitions_pruned == ["part-00000.rprc", "part-00001.rprc"]
    np.testing.assert_array_equal(got["step"], np.arange(25, 40))


def test_projection_pushdown_reads_only_needed_columns(stepwise_dataset, monkeypatch):
    seen_columns = []
    real_read = engine_mod.read_table

    def recording_read(path, columns=None):
        seen_columns.append(columns)
        return real_read(path, columns=columns)

    monkeypatch.setattr(engine_mod, "read_table", recording_read)
    got = (
        Query(stepwise_dataset)
        .where("step", ">=", 35.0)
        .group_by("rank")
        .agg(("comm_s", "mean"))
        .run()
    )
    assert got.names == ["rank", "mean_comm_s"]
    # Every physical read asked for exactly rank+comm_s (+ step for the
    # predicate), never the full schema.
    assert seen_columns and all(set(c) == {"rank", "comm_s", "step"} for c in seen_columns)


def test_required_columns_and_optimize():
    t = ColumnTable({c: np.zeros(1) for c in ("a", "b", "c", "d")})
    plan = Sort(
        GroupAgg(
            Filter(Scan(t), (ColumnPredicate("c", ">", 0.0),)),
            keys=("a",),
            aggs=(("b", "mean"),),
        ),
        column="mean_b",
    )
    # The filter's column rides along: the scan must read it too.
    assert required_columns(plan) == ("a", "b", "c")
    opt = optimize(plan)
    # Filter merged into the Scan, projection pushed to it.
    assert isinstance(opt, Sort)
    scan = opt.child.child
    assert isinstance(scan, Scan)
    assert scan.predicates == (ColumnPredicate("c", ">", 0.0),)
    assert scan.columns == ("a", "b", "c")
    assert "d" not in scan.columns


def test_explain_shows_pruning(stepwise_dataset):
    text = Query(stepwise_dataset).where("step", ">=", 25.0).explain()
    assert "1 scanned" not in text  # 2 partitions survive
    assert "2 scanned, 2 pruned (of 4)" in text
    assert "part-00000.rprc" in text
    assert "step >= 25" in text
    # Plain-table explains render too.
    t = ColumnTable({"x": np.arange(3.0)})
    assert "Scan table rows=3" in explain(Limit(Scan(t), 2))


def test_predicate_validation_unchanged():
    t = ColumnTable({"x": np.arange(4.0)})
    with pytest.raises(ValueError, match="unknown operator"):
        Query(t).where("x", "~", 1.0)
    with pytest.raises(KeyError):
        Query(t).where("nope", ">", 1.0)
    with pytest.raises(ValueError, match="unknown aggregate"):
        Query(t).group_by("x").agg(("x", "median"))
    with pytest.raises(ValueError, match="at least one agg"):
        Query(t).group_by("x").run()
    with pytest.raises(ValueError, match="limit"):
        Query(t).limit(-1)


def test_materialize_projects_datasets(stepwise_dataset):
    t = materialize(stepwise_dataset, columns=("step", "comm_s"))
    assert t.names == ["step", "comm_s"]
    assert t.n_rows == 40
    full = materialize(stepwise_dataset)
    assert full.names == ["step", "rank", "comm_s"]


# --------------------------------------------------------------------- #
# incremental spooling (collector -> on-disk dataset, mid-run)
# --------------------------------------------------------------------- #


def _record(collector, steps, value):
    for s in steps:
        collector.record_step(
            step=s, epoch=s // 4, compute_s=np.full(2, value),
            comm_s=np.full(2, value), sync_s=np.zeros(2),
        )


def test_collector_flush_partition_is_incremental(tmp_path):
    c = TelemetryCollector(n_ranks=2, ranks_per_node=2)
    ds = TelemetryDataset.create(tmp_path / "spool")
    assert c.flush_partition(ds) is None  # nothing recorded yet
    _record(c, range(3), 1.0)
    assert c.flush_partition(ds, label="a") == "part-00000.rprc"
    _record(c, range(3, 5), 2.0)
    assert c.flush_partition(ds, label="b") == "part-00001.rprc"
    assert c.flush_partition(ds) is None  # no new rows since last flush
    assert ds.labels() == ["a", "b"]
    assert_tables_identical(materialize(ds), c.steps_table())


def test_spool_hook_flushes_each_epoch(tmp_path):
    from repro.engine import TelemetrySpoolHook

    class Ctx:
        collector = TelemetryCollector(n_ranks=2, ranks_per_node=2)

    class Epoch:
        index = 0

    hook = TelemetrySpoolHook(tmp_path / "spool", every_epochs=2)
    ctx = Ctx()
    _record(ctx.collector, range(4), 1.0)
    hook.on_epoch_end(ctx, Epoch())  # 1 of 2: no flush yet
    assert hook.dataset.n_partitions == 0
    hook.on_epoch_end(ctx, Epoch())  # 2 of 2: flush
    assert hook.dataset.n_partitions == 1
    assert hook.dataset.labels() == ["epoch-0"]
    _record(ctx.collector, range(4, 6), 2.0)
    hook.on_run_end(ctx, None)
    assert hook.dataset.labels() == ["epoch-0", "final"]
    assert_tables_identical(
        materialize(hook.dataset), ctx.collector.steps_table()
    )
    with pytest.raises(ValueError):
        TelemetrySpoolHook(tmp_path / "x", every_epochs=0)


def test_spooled_run_is_queryable_from_disk(tmp_path):
    """End to end: an engine run with the spool hook leaves a dataset
    whose planned queries match the in-memory collector exactly."""
    from repro.engine import TelemetrySpoolHook

    class Ctx:
        collector = TelemetryCollector(n_ranks=4, ranks_per_node=2)

    class Epoch:
        def __init__(self, i):
            self.index = i

    hook = TelemetrySpoolHook(tmp_path / "run")
    ctx = Ctx()
    rng = np.random.default_rng(0)
    step = 0
    for e in range(5):
        for _ in range(6):
            ctx.collector.record_step(
                step=step, epoch=e,
                compute_s=rng.random(4), comm_s=rng.random(4),
                sync_s=np.zeros(4),
            )
            step += 1
        hook.on_epoch_end(ctx, Epoch(e))
    assert hook.dataset.n_partitions == 5
    mem = ctx.collector.steps_table()
    spec = lambda q: (  # noqa: E731
        q.where("step", ">=", 12).group_by("rank").agg(("comm_s", "mean")).run()
    )
    assert_tables_identical(spec(Query(hook.dataset)), spec(Query(mem)))
    # The step range only touches epochs 2+: earlier partitions prune.
    rep = engine_mod.ExecutionReport()
    execute(Query(hook.dataset).where("step", ">=", 12).plan(), rep)
    assert len(rep.scans[0].partitions_pruned) == 2


def test_unreadable_dataset_raises(tmp_path):
    """Opening and scanning are strict: a missing or torn manifest and
    a truncated partition are errors, not a silently smaller answer."""
    import json

    from repro.telemetry.columnar import CorruptTelemetryError

    (tmp_path / "empty").mkdir()
    with pytest.raises(FileNotFoundError):
        TelemetryDataset.open(tmp_path / "empty")
    ds = TelemetryDataset.create(tmp_path / "ds")
    ds.append(ColumnTable({"step": np.arange(20)}))
    bad = tmp_path / "ds" / "part-00000.rprc"
    bad.write_bytes(bad.read_bytes()[:10])
    with pytest.raises(CorruptTelemetryError):
        sql_query(
            TelemetryDataset.open(tmp_path / "ds"),
            "SELECT count(step) FROM ds",
        ).run()
    (tmp_path / "ds" / "manifest.json").write_text('{"partitions": [{"fi')
    with pytest.raises(json.JSONDecodeError):
        TelemetryDataset.open(tmp_path / "ds")


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #


def test_cli_query_and_explain(stepwise_dataset, capsys):
    root = str(stepwise_dataset.root)
    rc = main(["query", root,
               "SELECT rank, mean(comm_s) FROM t WHERE step >= 25 GROUP BY rank"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "mean_comm_s" in out and "(4 rows)" in out
    rc = main(["query", root, "SELECT * FROM t WHERE step >= 25", "--explain"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2 scanned, 2 pruned (of 4)" in out


def test_cli_query_errors(tmp_path, capsys):
    assert main(["query", str(tmp_path / "nope"), "SELECT * FROM t"]) == 2
    assert "error" in capsys.readouterr().err
    ds = TelemetryDataset.create(tmp_path / "ds")
    ds.append(ColumnTable({"x": np.arange(3.0)}))
    assert main(["query", str(ds.root), "NOT SQL"]) == 2
    assert "cannot parse" in capsys.readouterr().err


def test_sql_query_builder_is_lazy(stepwise_dataset):
    q = sql_query(stepwise_dataset, "SELECT step FROM t WHERE step >= 30")
    assert isinstance(q, Query)
    text = q.explain()
    assert "3 pruned" in text
    out = q.run()
    assert out.names == ["step"]
    np.testing.assert_array_equal(out["step"], np.arange(30, 40))
