"""Property tests for the observability layer (hypothesis).

The invariants pinned here are the ones every exporter and analysis
builds on:

* spans nest — a child's interval lies inside its parent's, siblings of
  sequential code never overlap, and every span that starts also ends
  (even when the block raises);
* the MPI simulator's virtual-clock events are monotone per rank — a
  rank's recorded history never runs backwards in virtual time;
* metric counters never go negative and merge additively — splitting a
  workload across recorders and merging equals recording it all in one
  (associativity is what makes pool-worker merge order irrelevant).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.collectives import (
    allreduce_rabenseifner,
    allreduce_recursive_doubling,
    allreduce_ring,
    gatherv_linear,
)
from repro.mpi.network import TofuDNetwork
from repro.mpi.simulator import Engine
from repro.mpi.topology import TofuDTopology
from repro.obs import TraceRecorder, recording

# ---------------------------------------------------------------------------
# Span nesting
# ---------------------------------------------------------------------------

# A random "program" is a tree of nested span blocks, expressed as a
# nested list; each node may also raise after its children ran.
program = st.recursive(
    st.booleans(),  # leaf: raises?
    lambda children: st.lists(children, min_size=0, max_size=3),
    max_leaves=12,
)


def _run_program(rec, node, name="s"):
    """Execute the span tree; bool leaves optionally raise inside."""
    if isinstance(node, bool):
        try:
            with rec.span(name):
                if node:
                    raise ValueError("leaf raised")
        except ValueError:
            pass
        return 1
    count = 0
    with rec.span(name):
        for i, child in enumerate(node):
            count += _run_program(rec, child, f"{name}.{i}")
    return count + 1


@given(program)
@settings(max_examples=60, deadline=None)
def test_every_started_span_ends(tree):
    rec = TraceRecorder()
    started = _run_program(rec, tree)
    assert len(rec.spans) == started
    for s in rec.spans:
        assert s.end >= s.start


@given(program)
@settings(max_examples=60, deadline=None)
def test_spans_nest_and_siblings_never_overlap(tree):
    rec = TraceRecorder()
    _run_program(rec, tree)
    by_id = {s.span_id: s for s in rec.spans}
    for s in rec.spans:
        if s.parent is not None:
            p = by_id[s.parent]
            assert p.start <= s.start and s.end <= p.end
    # sequential siblings: intervals are disjoint (at perf_counter
    # resolution, touching endpoints allowed)
    children = {}
    for s in rec.spans:
        children.setdefault(s.parent, []).append(s)
    for sibs in children.values():
        sibs.sort(key=lambda s: s.start)
        for a, b in zip(sibs, sibs[1:]):
            assert a.end <= b.start


# ---------------------------------------------------------------------------
# Virtual-clock monotonicity per rank
# ---------------------------------------------------------------------------
_COLLECTIVES = {
    "recursive_doubling": allreduce_recursive_doubling,
    "ring": allreduce_ring,
    "rabenseifner": allreduce_rabenseifner,
}


def _collective_program(name):
    def prog(rank, size, nbytes):
        if name == "gatherv":
            result = yield from gatherv_linear(rank, size, 0, nbytes, None)
        else:
            result = yield from _COLLECTIVES[name](rank, size, nbytes, None)
        return result

    return prog


@given(
    nranks=st.integers(min_value=2, max_value=12),
    nbytes=st.sampled_from([0, 8, 1024, 65536, 2**20]),
    coll=st.sampled_from(
        ["recursive_doubling", "ring", "rabenseifner", "gatherv"]
    ),
)
@settings(max_examples=40, deadline=None)
def test_virtual_events_monotone_per_rank(nranks, nbytes, coll):
    rec = TraceRecorder()
    with recording(rec):
        net = TofuDNetwork(TofuDTopology((4, 1, 1), ranks_per_node=4))
        Engine(nranks, net).run(_collective_program(coll), nbytes)
    assert rec.events, "a traced collective must emit events"
    last = {}
    for e in rec.events:
        r, t = e["rank"], e["t"]
        assert t >= 0.0
        assert t >= last.get(r, 0.0), (
            f"rank {r} went backwards: {e['name']} at {t} after {last[r]}"
        )
        last[r] = t


@given(
    nranks=st.integers(min_value=2, max_value=8),
    nbytes=st.sampled_from([8, 4096]),
)
@settings(max_examples=20, deadline=None)
def test_virtual_track_is_reproducible(nranks, nbytes):
    def one():
        rec = TraceRecorder()
        with recording(rec):
            net = TofuDNetwork(TofuDTopology((4, 1, 1), ranks_per_node=4))
            Engine(nranks, net).run(_collective_program("ring"), nbytes)
        return rec.events

    assert one() == one()


# ---------------------------------------------------------------------------
# Counter additivity / merge algebra
# ---------------------------------------------------------------------------
increments = st.lists(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    min_size=0, max_size=20,
)


@given(parts=st.lists(increments, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_counters_nonnegative_and_additive_across_merges(parts):
    merged = TraceRecorder()
    total = 0.0
    for part in parts:
        m = TraceRecorder()
        for amount in part:
            m.count("n", amount)
            total += amount
        assert m.metrics["counters"].get("n", 0.0) >= 0.0
        merged.merge(m.as_dict())
    assert merged.metrics["counters"].get("n", 0.0) >= 0.0
    assert math.isclose(
        merged.metrics["counters"].get("n", 0.0), total,
        rel_tol=1e-9, abs_tol=1e-9,
    )


@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
        min_size=1, max_size=30,
    ),
    split=st.integers(min_value=0, max_value=30),
)
@settings(max_examples=60, deadline=None)
def test_histogram_merge_is_grouping_invariant(values, split):
    split = min(split, len(values))
    whole = TraceRecorder()
    for v in values:
        whole.observe("h", v)
    a, b = TraceRecorder(), TraceRecorder()
    for v in values[:split]:
        a.observe("h", v)
    for v in values[split:]:
        b.observe("h", v)
    a.merge(b.as_dict())
    got = a.as_dict()["metrics"]["histograms"]["h"]
    want = whole.as_dict()["metrics"]["histograms"]["h"]
    assert got["count"] == want["count"]
    assert got["buckets"] == want["buckets"]
    assert got["min"] == want["min"] and got["max"] == want["max"]
    assert math.isclose(got["sum"], want["sum"], rel_tol=1e-9, abs_tol=1e-9)
