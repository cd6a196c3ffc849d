"""Differential tests for the top-``k`` ranking kernel.

Every budgeted extraction selects the top ``k`` rows under the total
order ``(-value, -weight, row)``. The reference below is that order
spelled out as a full lexsort; the in-memory selections
(``EdgeTable.top_k_by``, ``ScoredEdges.top_share_many``, the kernel
itself) and the streamed running selection must match it exactly, on
inputs built to break a partition-based selection: heavy ties, signed
zeros, magnitudes near the float64 limit and the boundary budgets
``k in {0, 1, m - 1, m}``.
"""

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backbones.base import ScoredEdges
from repro.backbones.naive import NaiveThreshold
from repro.flow import flow
from repro.flow.spec import FilterSpec
from repro.graph.edge_table import EdgeTable, _top_k_rows
from repro.stream import open_stream, stream_extract
from repro.stream import score as stream_score


def reference_rows(values, weight, k):
    """The top ``k`` rows in row order, by a full lexsort."""
    order = np.lexsort((np.arange(len(values)), -weight, -values))
    return np.sort(order[:k])


EXTREMES = (0.0, -0.0, 1e300, -1e300, 1.7976931348623157e308,
            -1.7976931348623157e308, 5e-324, -5e-324, 1.0)


@st.composite
def ranked_columns(draw, max_rows=30):
    """``(values, weight)`` columns with many ties among both."""
    m = draw(st.integers(0, max_rows), label="m")
    kind = draw(st.sampled_from(["integers", "equal", "extremes",
                                 "floats"]), label="kind")
    if kind == "integers":
        values = draw(st.lists(st.integers(-3, 3), min_size=m,
                               max_size=m))
    elif kind == "equal":
        values = [draw(st.sampled_from(EXTREMES))] * m
    elif kind == "extremes":
        values = draw(st.lists(st.sampled_from(EXTREMES), min_size=m,
                               max_size=m))
    else:
        values = draw(st.lists(st.floats(-1e300, 1e300), min_size=m,
                               max_size=m))
    weight = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, 1e300]),
                           min_size=m, max_size=m))
    return (np.asarray(values, dtype=np.float64),
            np.asarray(weight, dtype=np.float64))


def budgets(m):
    """The boundary budgets plus one drawn from the range."""
    fixed = [k for k in (0, 1, m - 1, m) if 0 <= k <= m]
    return st.lists(st.integers(0, m), max_size=3).map(
        lambda drawn: fixed + drawn)


def chain_table(weight):
    """A directed table whose rows keep ``weight``'s order."""
    m = len(weight)
    return EdgeTable(np.arange(m), np.arange(m) + 1, weight,
                     n_nodes=m + 1, directed=True, coalesce=False)


def assert_same_table(got, want):
    assert got.src.tobytes() == want.src.tobytes()
    assert got.dst.tobytes() == want.dst.tobytes()
    assert got.weight.tobytes() == want.weight.tobytes()
    assert got.n_nodes == want.n_nodes
    assert got.directed == want.directed


class TestKernelMatchesLexsort:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_kernel(self, data):
        values, weight = data.draw(ranked_columns())
        ks = data.draw(budgets(len(values)), label="ks")
        got = list(_top_k_rows(values, weight, ks))
        assert len(got) == len(ks)
        for k, rows in zip(ks, got):
            assert np.array_equal(rows, reference_rows(values, weight, k))

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_top_k_by(self, data):
        values, weight = data.draw(ranked_columns())
        table = chain_table(weight)
        for k in data.draw(budgets(table.m), label="ks"):
            assert_same_table(table.top_k_by(values, k),
                              table.subset(reference_rows(values,
                                                          weight, k)))

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_top_share_many_with_duplicate_unsorted_shares(self, data):
        values, weight = data.draw(ranked_columns())
        scored = ScoredEdges(chain_table(weight), values, "test")
        shares = data.draw(st.lists(
            st.sampled_from([0.0, 0.01, 0.3, 0.5, 0.99, 1.0])
            | st.floats(0.0, 1.0), max_size=6), label="shares")
        shares = shares + shares[:2]  # duplicates, out of order
        got = scored.top_share_many(shares)
        assert len(got) == len(shares)
        for share, backbone in zip(shares, got):
            k = scored.share_to_k(share)
            want = scored.table.subset(reference_rows(values, weight, k))
            assert_same_table(backbone, want)
            assert_same_table(backbone, scored.top_share(share))

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_threshold_for_share_reads_kth_value(self, data):
        values, weight = data.draw(ranked_columns())
        if not len(values):
            return
        scored = ScoredEdges(chain_table(weight), values, "test")
        share = data.draw(st.floats(0.0, 1.0), label="share")
        k = max(scored.share_to_k(share), 1)
        assert scored.threshold_for_share(share) \
            == float(np.sort(values)[::-1][k - 1])


# ----------------------------------------------------------------------
# Streamed running selection vs the in-memory path
# ----------------------------------------------------------------------

def run_plan(path, code, budget, streaming, block_rows):
    """One plan run with the stream's block size pinned."""
    old = os.environ.get("REPRO_STREAM_BLOCK_ROWS")
    os.environ["REPRO_STREAM_BLOCK_ROWS"] = str(block_rows)
    try:
        plan = flow(str(path), directed=False, streaming=streaming)
        return plan.method(code).budget(**budget).run()
    finally:
        if old is None:
            os.environ.pop("REPRO_STREAM_BLOCK_ROWS", None)
        else:
            os.environ["REPRO_STREAM_BLOCK_ROWS"] = old


def write_edges(path, rows):
    with open(path, "w") as handle:
        for s, d, w in rows:
            handle.write(f"{s},{d},{w}\n")
    return path


@pytest.fixture
def count_cuts(monkeypatch):
    """Count the streamed selector's buffer cuts."""
    cuts = []
    cut = stream_score._TopKSelector._cut

    def counted(self):
        cuts.append(self.k)
        cut(self)

    monkeypatch.setattr(stream_score._TopKSelector, "_cut", counted)
    return cuts


class TestStreamedSelection:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_running_selector_matches_lexsort(self, data):
        # Each block is a table whose src column is the global row, so
        # the selection can be read back as row indices.
        values, weight = data.draw(ranked_columns(max_rows=60))
        m = len(values)
        k = data.draw(st.integers(0, m), label="k")
        block_rows = data.draw(st.integers(1, 5), label="block_rows")
        selector = stream_score._TopKSelector(k, m)
        rows = np.arange(m)
        for start in range(0, m, block_rows):
            part = slice(start, start + block_rows)
            block = EdgeTable(rows[part], rows[part] + 1, weight[part],
                              n_nodes=m + 1, directed=True,
                              coalesce=False)
            selector.feed(values[part], block)
        want = reference_rows(values, weight, k)
        parts = selector.parts()
        got_rows = parts[0][0] if parts else np.empty(0, dtype=np.int64)
        assert np.array_equal(got_rows, want)
        if parts:
            assert parts[0][2].tobytes() == weight[want].tobytes()

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_streamed_top_k_matches_memory(self, data):
        # Few nodes and weights make heavy score and weight ties; tiny
        # blocks make the running selection cut its buffer often.
        n_nodes = data.draw(st.integers(4, 12), label="n_nodes")
        rows = data.draw(st.lists(
            st.tuples(st.integers(0, n_nodes - 1),
                      st.integers(0, n_nodes - 1), st.integers(1, 3)),
            min_size=20, max_size=80), label="rows")
        code = data.draw(st.sampled_from(["NC", "DF", "NT"]),
                         label="method")
        budget = data.draw(st.sampled_from([
            {"share": 0.1}, {"share": 0.3, "rank": "score"},
            {"n_edges": 1}, {"n_edges": 7}, {"share": 1.0}]),
            label="budget")
        block_rows = data.draw(st.integers(1, 4), label="block_rows")
        outcomes = []
        with tempfile.TemporaryDirectory() as tmp:
            path = write_edges(Path(tmp) / "edges.csv", rows)
            for streaming in (False, True):
                try:
                    outcomes.append(run_plan(path, code, budget,
                                             streaming, block_rows))
                except ValueError as error:
                    outcomes.append(str(error))
        mem, streamed = outcomes
        if isinstance(mem, str) or isinstance(streamed, str):
            assert mem == streamed
            return
        assert_same_table(streamed.backbone, mem.backbone)

    def test_buffer_is_cut_several_times(self, tmp_path, count_cuts):
        rng = np.random.default_rng(7)
        rows = [(int(s), int(d), int(w)) for s, d, w in zip(
            rng.integers(0, 30, 400), rng.integers(0, 30, 400),
            rng.integers(1, 4, 400))]
        path = write_edges(tmp_path / "edges.csv", rows)
        for budget in ({"share": 0.05}, {"n_edges": 10}):
            mem = run_plan(path, "NT", budget, False, 3)
            count_cuts.clear()
            streamed = run_plan(path, "NT", budget, True, 3)
            assert len(count_cuts) >= 3
            assert_same_table(streamed.backbone, mem.backbone)


# ----------------------------------------------------------------------
# One failure contract for non-finite ranking values
# ----------------------------------------------------------------------

NON_FINITE = "values contains non-finite values"


def nan_where(predicate):
    """``NaiveThreshold.score`` with NaN scores on rows matching
    ``predicate(weight)``, for streamed and in-memory runs alike."""
    score = NaiveThreshold.score

    def nan_score(self, table):
        scored = score(self, table)
        values = np.where(predicate(scored.table.weight), np.nan,
                          scored.score)
        return ScoredEdges(scored.table, values, scored.method)

    return nan_score


class TestNonFiniteValues:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_in_memory_selections_reject(self, bad):
        values = np.array([1.0, bad, 0.5])
        table = chain_table(np.ones(3))
        with pytest.raises(ValueError, match=NON_FINITE):
            table.top_k_by(values, 1)
        with pytest.raises(ValueError, match=NON_FINITE):
            ScoredEdges(table, values, "test").top_share_many([0.5])

    def test_streamed_share_budget_raises_like_memory(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setattr(NaiveThreshold, "score",
                            nan_where(lambda weight: weight == 3.0))
        rows = [(i, i + 1, 1 + i % 3) for i in range(30)]
        path = write_edges(tmp_path / "edges.csv", rows)
        for budget in ({"share": 0.2}, {"share": 0.2, "rank": "score"},
                       {"n_edges": 3}, {"n_edges": 0}):
            for streaming in (False, True):
                with pytest.raises(ValueError, match=NON_FINITE):
                    run_plan(path, "NT", budget, streaming, 4)
        # Threshold budgets never rank, so NaN rows just fail the cut.
        for streaming in (False, True):
            result = run_plan(path, "NT", {"threshold": 1.5}, streaming, 4)
            assert set(result.backbone.weight.tolist()) == {2.0}

    def test_stream_extract_reports_the_error_per_job(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setattr(NaiveThreshold, "score",
                            nan_where(lambda weight: weight > 0))
        path = write_edges(tmp_path / "edges.csv",
                           [(i % 5, (i + 2) % 5, i + 1) for i in range(20)])
        stream = open_stream(path, directed=False, block_rows=4,
                             run_rows=8)
        try:
            method = NaiveThreshold()
            jobs = [("share", "k", method, FilterSpec(share=0.5)),
                    ("cut", "k", method, FilterSpec(threshold=1.0))]
            backbones, errors = stream_extract(stream, jobs)
        finally:
            stream.close()
        assert isinstance(errors["share"], ValueError)
        assert str(errors["share"]) == NON_FINITE
        assert "share" not in backbones
        assert backbones["cut"].m == 0
