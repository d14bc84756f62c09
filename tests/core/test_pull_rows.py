"""Hypothesis properties of reads in handle space (pull rows + one kernel).

A seeded schedule interleaves write batches, structure events and adaptive
frontier flips on a small random graph and reads at random points.  Every
read must equal the brute-force oracle and the uncompiled recursive
pull (:func:`uncompiled_pull`); ``read(n)`` must be the same computation as
``read_batch([n])[0]``; duplicates, unknown nodes and the empty batch must
behave as a per-node loop; and a batch must credit ``observed_pull`` with
exactly what evaluating its readers one after the other credits.  On the
columnar store that exercises the frozen rows (``repro.core.pullrows``)
and their invalidation; on the object store — the store of aggregates
without a column spec, here each aggregate's user-defined twin
(``tests.conftest.as_object``) — the same schedules run the interpreted
``PullPlan`` path.
"""

import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.adaptive import AdaptiveController
from repro.core.aggregates import Count, Max, Mean, Min, Sum
from repro.core.engine import EAGrEngine
from repro.core.execution import Runtime
from repro.core.overlay import Decision, Overlay
from repro.core.query import EgoQuery
from repro.core.windows import TimeWindow, TupleWindow
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import random_graph
from repro.graph.neighborhoods import Neighborhood

from tests.conftest import STORE_OF, oracle_for
from tests.test_changed_plane_properties import random_structure_event

AGGREGATES = {"sum": Sum, "count": Count, "mean": Mean, "max": Max, "min": Min}
GROUP = ("sum", "count", "mean")
#: vnm_n builds negative edges, which only the group aggregates can subtract.
PLANS = [
    (aggregate, algorithm)
    for aggregate in AGGREGATES
    for algorithm in ("identity", "vnm_a", "vnm_n", "iob")
    if algorithm != "vnm_n" or aggregate in GROUP
]

schedules = st.tuples(
    st.integers(min_value=0, max_value=100_000),  # seed
    st.sampled_from(PLANS),
    st.sampled_from(["all_pull", "mincut", "all_push"]),
    st.sampled_from([int, str]),  # label type
    st.sampled_from([1, 2]),  # tuple-window size
    st.booleans(),  # maintain
)


def build(seed, plan, dataflow, label_type, window, maintain, store):
    rng = random.Random(seed)
    size = rng.randrange(8, 14)
    label = (lambda i: i) if label_type is int else (lambda i: f"n{i}")
    graph = DynamicGraph()
    for i in range(size):
        graph.add_node(label(i))
    # Dense on purpose: near-cliques are where vnm_n finds negative edges
    # and where nested partials put several paths between a leaf and a reader.
    for _ in range(rng.randrange(3 * size, 8 * size)):
        u, v = rng.sample(range(size), 2)
        graph.add_edge(label(u), label(v))
    aggregate, algorithm = plan
    engine = EAGrEngine(
        graph,
        EgoQuery(
            aggregate=STORE_OF[store](AGGREGATES[aggregate]()),
            window=TupleWindow(window),
            neighborhood=Neighborhood.in_neighbors(),
        ),
        overlay_algorithm=algorithm,
        dataflow=dataflow,
        maintain=maintain,
    )
    return rng, graph, engine, label, oracle_for(engine)


def uncompiled_pull(runtime, handle):
    """The recursive pull that plans and rows flatten, over the overlay's
    dicts: merges in input order and credits ``observed_pull`` for
    ``handle`` and every input it reaches, as one read does."""
    agg = runtime.aggregate
    overlay = runtime.overlay
    runtime.observed_pull[handle] += 1
    acc = agg.identity()
    for src, sign in zip(*overlay.in_rows(handle)):
        if overlay.decisions[src] is Decision.PUSH:
            runtime.observed_pull[src] += 1
            value = runtime.values[src]
        else:
            value = uncompiled_pull(runtime, src)
        acc = agg.merge(acc, value) if sign > 0 else agg.subtract(acc, value)
    return acc


def sequential_credit(runtime, handles):
    """What evaluating ``handles`` one after the other, uncompiled, adds to
    ``observed_pull`` (and the values it computes)."""
    overlay = runtime.overlay
    before = list(runtime.observed_pull)
    values = []
    for handle in handles:
        if overlay.decisions[handle] is Decision.PUSH:
            runtime.observed_pull[handle] += 1
            pao = runtime.values[handle]
        else:
            pao = uncompiled_pull(runtime, handle)
        values.append(runtime.aggregate.finalize(pao))
    credit = [now - was for now, was in zip(runtime.observed_pull, before)]
    return credit, values


def check_reads(rng, engine, oracle, unknown):
    """One read point of a schedule (see the module docstring)."""
    graph = engine.graph
    nodes = sorted(graph.nodes(), key=repr)
    batch = [rng.choice(nodes) for _ in range(rng.randrange(1, 2 * len(nodes)))]
    batch.insert(rng.randrange(len(batch) + 1), unknown)
    assert engine.read_batch([]) == []  # also syncs structure
    runtime = engine.runtime
    reader_of = runtime.overlay.reader_of
    handles = [reader_of[node] for node in batch if node in reader_of]
    expected_credit, uncompiled = sequential_credit(runtime, handles)

    before = list(runtime.observed_pull)
    reads_before = runtime.counters.reads
    values = engine.read_batch(batch)
    credit = [now - was for now, was in zip(runtime.observed_pull, before)]
    assert credit == expected_credit
    assert runtime.counters.reads - reads_before == len(batch)

    identity = runtime.aggregate.finalize(runtime.aggregate.identity())
    assert values == [
        identity if node == unknown else oracle.read(node) for node in batch
    ]
    assert [v for v, node in zip(values, batch) if node in reader_of] == uncompiled
    assert [engine.read(node) for node in batch] == values
    if runtime.overlay is engine.runtime.overlay:  # no flip-triggered surprises
        assert engine.read_handles(handles) == uncompiled


def flip_a_frontier_node(rng, engine):
    """An adaptive flip (Section 4.8) without waiting for the controller's
    statistics: any frontier node may change sides.  Returns its handle."""
    engine.read_batch([])  # sync first: flips apply to the live overlay
    runtime = engine.runtime
    frontier = AdaptiveController(runtime).frontier()
    if not frontier:
        return None
    handle = rng.choice(sorted(frontier))
    pushed = runtime.overlay.decisions[handle] is Decision.PUSH
    runtime.set_decision(handle, Decision.PULL if pushed else Decision.PUSH)
    return handle


def run_schedule(seed, plan, dataflow, label_type, window, maintain, store):
    rng, graph, engine, label, oracle = build(
        seed, plan, dataflow, label_type, window, maintain, store
    )
    counter = iter(range(1000, 10_000))
    unknown = label(999_999)
    for _ in range(rng.randrange(6, 14)):
        roll = rng.random()
        if roll < 0.2:
            engine.apply_structure_event(
                random_structure_event(rng, graph, lambda: label(next(counter)))
            )
        elif roll < 0.4:
            flip_a_frontier_node(rng, engine)
        else:
            nodes = sorted(graph.nodes(), key=repr)
            batch = [
                (rng.choice(nodes), float(rng.randrange(-4, 9)))
                for _ in range(rng.randrange(1, 10))
            ]
            engine.write_batch(batch)
            oracle.write_batch(batch)
        if rng.random() < 0.6:
            check_reads(rng, engine, oracle, unknown)
    check_reads(rng, engine, oracle, unknown)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(schedules, st.sampled_from(sorted(STORE_OF)))
# Two schedules these properties found failing at PR 19, on both stores and
# outside the read path: the maintainer kept a negative edge to a writer
# that had just joined the reader's neighbourhood, and a rebuild expanded
# deferred observed-push credits over an overlay that had grown meanwhile.
@example((412, ("sum", "vnm_n"), "all_pull", int, 1, True), "columnar")
@example((125, ("count", "vnm_a"), "all_push", int, 2, True), "columnar")
def test_reads_equal_oracle_and_uncompiled_pull(schedule, store):
    run_schedule(*schedule, store)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(schedules, st.sampled_from(sorted(STORE_OF)))
def test_read_is_a_batch_of_one_on_non_integer_floats(schedule, store):
    """Thirds and sevenths do not sum exactly, so two different summation
    orders would show here: ``read`` and ``read_batch`` must agree to the
    last bit (and with the oracle up to rounding)."""
    rng, graph, engine, _label, oracle = build(*schedule, store)
    nodes = sorted(graph.nodes(), key=repr)
    writes = [
        (rng.choice(nodes), rng.randrange(1, 50) / rng.choice([3.0, 7.0])) for _ in range(40)
    ]
    engine.write_batch(writes)
    oracle.write_batch(writes)
    batch = engine.read_batch(nodes + nodes[::-1])
    assert batch == [engine.read(node) for node in nodes + nodes[::-1]]
    for node, value in zip(nodes, batch):
        want = oracle.read(node)
        assert value == want or value == pytest.approx(want, rel=1e-12)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(schedules)
def test_rows_never_outgrow_the_bipartite_graph(schedule):
    """Flattening un-shares nothing it has to pay for: over all readers the
    rows hold at most one entry per writer→reader edge of the bipartite
    graph (exactly that many when everything pulls from the writers)."""
    _rng, graph, engine, _label, _oracle = build(*schedule, "columnar")
    readers = list(engine.overlay.reader_of)
    engine.read_batch(readers)
    rows = engine.runtime._pull_rows
    assert set(rows.touched) == set(engine.overlay.reader_of.values())
    entries = sum(len(rows.row(handle).leaf) for handle in rows.touched)
    edges = sum(len(writers) for writers in engine.ag.reader_inputs.values())
    assert entries <= edges
    if schedule[2] == "all_pull" and schedule[1][0] in GROUP:
        assert entries == edges


def corner_overlay():
    """Every row shape the generator rarely draws, by hand::

        w1, w2, w3 -> A (pull) -> B (pull) -> r_diamond
                      A ----------------------> r_diamond   (two paths to A)
        A, -w1 -> r_minus        (a net-zero leaf: w1 arrives +1 via A, -1 direct)
        w1, w2, w3 -> P (push);  P, -w1, -w2 -> r_wide  (longer than its in-degree)
        r_empty                  (no inputs at all)
    """
    overlay = Overlay()
    w1, w2, w3 = (overlay.add_writer(name) for name in ("w1", "w2", "w3"))
    a, b, p = overlay.add_partial(), overlay.add_partial(), overlay.add_partial()
    for writer in (w1, w2, w3):
        overlay.add_edge(writer, a)
        overlay.add_edge(writer, p)
    overlay.add_edge(a, b)
    readers = {name: overlay.add_reader(name)
               for name in ("r_diamond", "r_minus", "r_wide", "r_empty")}
    overlay.add_edge(b, readers["r_diamond"])
    overlay.add_edge(a, readers["r_diamond"])
    overlay.add_edge(a, readers["r_minus"])
    overlay.add_edge(w1, readers["r_minus"], -1)
    overlay.add_edge(p, readers["r_wide"])
    overlay.add_edge(w1, readers["r_wide"], -1)
    overlay.add_edge(w2, readers["r_wide"], -1)
    overlay.set_decision(p, Decision.PUSH)
    return overlay, readers, {"w1": w1, "w2": w2, "w3": w3, "a": a, "b": b, "p": p}


@pytest.mark.parametrize("store", sorted(STORE_OF))
@pytest.mark.parametrize("aggregate", ["sum", "count", "mean"])
def test_corner_rows_signs_diamonds_net_zero_and_empty(store, aggregate):
    overlay, readers, h = corner_overlay()
    runtime = Runtime(
        overlay,
        EgoQuery(aggregate=STORE_OF[store](AGGREGATES[aggregate]()), window=TupleWindow(2)),
    )
    runtime.write_batch([("w1", 3.0), ("w2", 5.0), ("w3", 11.0), ("w1", 4.0)])
    names = list(readers) + ["ghost"] + list(readers)[::-1]
    handles = [readers[name] for name in names if name in readers]
    expected_credit, uncompiled = sequential_credit(runtime, handles)
    before = list(runtime.observed_pull)
    values = runtime.read_batch(names)
    assert [now - was for now, was in zip(runtime.observed_pull, before)] == expected_credit
    assert [v for v, name in zip(values, names) if name in readers] == uncompiled
    assert [runtime.read(name) for name in names] == values
    # w1's window holds [3, 4], w2's [5], w3's [11]; the diamond counts all twice.
    totals = {
        "r_diamond": (46.0, 8), "r_minus": (16.0, 2), "r_wide": (11.0, 1),
        "r_empty": (0.0, 0), "ghost": (0.0, 0),
    }
    for name, value in zip(names, values):
        total, count = totals[name]
        want = {"sum": total, "count": count,
                "mean": total / count if count else None}[aggregate]
        assert value == want, name
    if runtime.values.backend == "columnar":
        rows = runtime._pull_rows
        diamond = rows.row(readers["r_diamond"])
        assert sorted(zip(diamond.leaf, diamond.coeff)) == [(h[w], 2) for w in ("w1", "w2", "w3")]
        assert dict(zip(diamond.observe, diamond.credit))[h["a"]] == 2
        minus = rows.row(readers["r_minus"])
        assert sorted(minus.leaf) == [h["w2"], h["w3"]], "the net-zero leaf is dropped"
        assert h["w1"] in minus.observe and h["w1"] in minus.touched
        wide = rows.row(readers["r_wide"])
        assert sorted(zip(wide.leaf, wide.coeff)) == [(h["w1"], -1), (h["w2"], -1), (h["p"], 1)]
        assert len(rows.row(readers["r_empty"]).leaf) == 0


def steady_engine(store="columnar", dataflow="mincut", **kwargs):
    graph = random_graph(40, 220, seed=23)
    engine = EAGrEngine(
        graph,
        EgoQuery(aggregate=STORE_OF[store](Sum()), window=TupleWindow(2),
                 neighborhood=Neighborhood.in_neighbors()),
        overlay_algorithm="vnm_a",
        dataflow=dataflow,
        **kwargs,
    )
    oracle = oracle_for(engine)
    nodes = sorted(graph.nodes())
    writes = [(node, float(i % 7)) for i, node in enumerate(nodes)]
    engine.write_batch(writes)
    oracle.write_batch(writes)
    return engine, oracle, nodes


def test_a_row_is_recompiled_after_exactly_the_invalidations_that_touch_it():
    engine, oracle, nodes = steady_engine(dataflow="all_pull")
    runtime = engine.runtime
    engine.read_batch(nodes)
    rows = runtime._pull_rows
    compiled = runtime.plan_compiles
    engine.read_batch(nodes + nodes)
    assert runtime.plan_compiles == compiled, "a warm batch compiles nothing"

    rng = random.Random(7)
    for _ in range(12):
        before = {root: rows.row(root) for root in rows.touched}
        handle = flip_a_frontier_node(rng, engine)
        doomed = {root for root, row in before.items() if handle in row.touched}
        assert set(rows.touched) == set(before) - doomed
        compiled = runtime.plan_compiles
        values = engine.read_batch(nodes)
        assert values == [oracle.read(node) for node in nodes]
        assert runtime.plan_compiles - compiled == len(doomed)
        for root in set(before) - doomed:  # untouched rows: same entries
            assert list(rows.row(root).leaf) == list(before[root].leaf)
            assert list(rows.row(root).coeff) == list(before[root].coeff)


def test_the_arena_compacts_its_garbage_instead_of_growing():
    engine, oracle, nodes = steady_engine(dataflow="all_pull")
    runtime = engine.runtime
    rows = runtime._pull_rows
    engine.read_batch(nodes)
    rng = random.Random(3)
    for _ in range(400):  # every flip drops rows and leaves their entries behind
        flip_a_frontier_node(rng, engine)
        engine.read_batch(nodes)
    live = int((rows.meta[1] + rows.meta[2])[rows.meta[0] >= 0].sum())
    assert rows.used <= rows.entries.shape[1] <= max(1024, 4 * live)
    assert engine.read_batch(nodes) == [oracle.read(node) for node in nodes]


@pytest.mark.parametrize("store", sorted(STORE_OF))
def test_duplicates_cost_one_evaluation(store):
    """``nodes + nodes`` is the pull work of ``nodes`` on the columnar store
    (duplicates collapse before the kernel) and less than twice it on the
    object store (the memo answers the repeats)."""
    engine, _oracle, nodes = steady_engine(store, dataflow="all_pull")
    runtime = engine.runtime
    engine.read_batch(nodes)
    ops = runtime.counters.pull_ops
    once = engine.read_batch(nodes)
    single = runtime.counters.pull_ops - ops
    ops = runtime.counters.pull_ops
    assert engine.read_batch(nodes + nodes) == once + once
    doubled = runtime.counters.pull_ops - ops
    columnar = engine.value_store_backend == "columnar"
    assert doubled == single if columnar else doubled < 2 * single


@pytest.mark.parametrize("store", sorted(STORE_OF))
@pytest.mark.parametrize("dataflow", ["all_pull", "mincut", "all_push"])
def test_time_window_read_batch_equals_the_per_node_loop(store, dataflow):
    """A read advances window expiry before it evaluates; the batch does so
    once, for every row — same values, same changed-reader report, as
    reading node by node."""

    def fresh():
        graph = random_graph(24, 110, seed=5)
        engine = EAGrEngine(
            graph,
            EgoQuery(aggregate=STORE_OF[store](Sum()), window=TimeWindow(10.0),
                     neighborhood=Neighborhood.in_neighbors()),
            overlay_algorithm="vnm_a",
            dataflow=dataflow,
        )
        oracle = oracle_for(engine)
        nodes = sorted(graph.nodes())
        for tick, node in enumerate(nodes):
            engine.write(node, float(tick % 5 + 1), timestamp=float(tick))
            oracle.write(node, float(tick % 5 + 1), timestamp=float(tick))
        engine.changed_readers()
        return engine, oracle, nodes

    batched, oracle, nodes = fresh()
    looped, _oracle, _ = fresh()
    for clock in (28.0, 31.5, 40.0):  # each step expires more writers unseen
        batched.runtime.clock = looped.runtime.clock = clock
        oracle.advance(clock)
        reads = looped.counters.reads
        values = batched.read_batch(nodes + nodes[:5])
        assert values == [looped.read(node) for node in nodes + nodes[:5]]
        assert looped.counters.reads - reads == len(nodes) + 5
        assert batched.counters.reads == looped.counters.reads
        assert values[: len(nodes)] == [oracle.read(n) for n in nodes]
        assert batched.changed_readers() == looped.changed_readers()
    assert any(value == 0.0 for value in values), "nothing ever expired"
