"""Compiled plans keep their dependencies in the arenas.

A pull row's dependency set is its observe entries in ``PullRows``, a
reader closure's one int64 row in ``ReaderClosures``, and
``Runtime.invalidate_plans`` scans both.  The properties here check that
scan against an oracle that shares no plan code: it derives each plan's
dependency set by walking the overlay's adjacency when the plan is
compiled —

* a pull row (or, on the object store, a pull plan): the root plus
  everything upstream through pull nodes, the push frontier included;
* a reader closure: the writer plus everything downstream —

and after every ``invalidate_plans(dirty)``, ``set_decision`` and
``rebuild(dirty)`` the compiled roots must be exactly the ones whose
oracle set misses the dirty handles.  Beside it: an adaptive sweep's
flips land in one scan with the result of flipping one node at a time,
and the plan state's bytes per dependency entry stay bounded.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.adaptive import AdaptiveConfig
from repro.core.aggregates import Sum
from repro.core.closures import ReaderClosures
from repro.core.engine import EAGrEngine
from repro.core.overlay import KIND_PARTIAL, Decision
from repro.core.query import EgoQuery
from repro.core.windows import TupleWindow
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import random_graph, social_graph
from repro.graph.neighborhoods import Neighborhood

from tests.conftest import STORE_OF
from tests.core.test_pull_rows import build, flip_a_frontier_node
from tests.overlay.test_construction_extended import pa_edges
from tests.test_changed_plane_properties import random_structure_event


# ---------------------------------------------------------------------------
# the oracle: dependency sets from the overlay's adjacency
# ---------------------------------------------------------------------------


def pull_deps(overlay, root):
    """The root plus everything upstream through pull nodes, the push
    frontier included (a push root depends on itself alone)."""
    deps = {root}
    stack = [] if overlay.decisions[root] is Decision.PUSH else [root]
    while stack:
        for src in overlay.in_rows(stack.pop())[0]:
            if src not in deps:
                deps.add(src)
                if overlay.decisions[src] is not Decision.PUSH:
                    stack.append(src)
    return frozenset(deps)


def closure_deps(overlay, writer):
    """The writer plus everything downstream of it."""
    deps = {writer}
    stack = [writer]
    while stack:
        for dst in overlay.out_rows(stack.pop())[0]:
            if dst not in deps:
                deps.add(dst)
                stack.append(dst)
    return frozenset(deps)


def compiled(runtime):
    """Every compiled plan, as ``("row", root)`` / ``("closure", writer)``."""
    rows = runtime._pull_rows.roots().tolist() or list(runtime._pull_plans)
    return {("row", root) for root in rows} | {
        ("closure", writer) for writer in runtime._closures.roots().tolist()
    }


def compile_everything(engine, known):
    """Compile every reader's pull row (or pull plan) and every writer's
    closure, and give each newly compiled plan its oracle set from the
    overlay it was compiled against."""
    overlay = engine.overlay
    engine.read_batch(list(overlay.reader_of))
    engine.runtime.changed_handles(np.fromiter(overlay.writer_of.values(), np.int64))
    for key in compiled(engine.runtime) - set(known):
        kind, root = key
        known[key] = (pull_deps if kind == "row" else closure_deps)(overlay, root)


def check_survivors(runtime, known, dirty):
    """The compiled plans are exactly the known ones whose oracle set
    misses ``dirty``; the dropped ones leave ``known``."""
    dirty = set(dirty)
    expected = {key for key, deps in known.items() if deps.isdisjoint(dirty)}
    assert compiled(runtime) == expected
    for key in set(known) - expected:
        del known[key]


OPS = ("invalidate", "partials", "flip", "rebuild", "structure", "compile")


def run_ops(seed, dataflow, store, ops):
    rng, graph, engine, label, _oracle = build(
        seed, ("sum", "vnm_a"), dataflow, int, 2, store
    )
    runtime = engine.runtime
    overlay = engine.overlay
    known = {}
    compile_everything(engine, known)
    counter = iter(range(1000, 10_000))
    captured = []
    rebuild = runtime.rebuild

    def capturing_rebuild(dirty=None):
        dirty = list(dirty) if dirty is not None else None
        before = dict(known)
        rebuild(dirty)
        captured.append((dirty, before, compiled(runtime)))
        return runtime

    runtime.rebuild = capturing_rebuild
    for op in ops:
        handles = range(overlay.num_nodes)
        if op == "invalidate":
            dirty = rng.sample(handles, rng.randrange(1, 4))
            runtime.invalidate_plans(dirty)
        elif op == "partials":
            dirty = np.flatnonzero(np.array(overlay.kind_codes()) == KIND_PARTIAL).tolist()
            runtime.invalidate_plans(dirty)
        elif op == "flip":
            handle = flip_a_frontier_node(rng, engine)
            dirty = [] if handle is None else [handle]
        elif op == "rebuild":
            dirty = rng.sample(handles, rng.randrange(1, 4))
            runtime.rebuild(dirty)
            captured.clear()
        elif op == "structure":
            engine.apply_structure_event(
                random_structure_event(rng, graph, lambda: label(next(counter)))
            )
            engine.read_batch([])  # the sync: decisions, then rebuild(dirty)
            for dirty, before, after in captured:
                expected = {key for key, deps in before.items() if deps.isdisjoint(dirty)}
                assert after == expected
                for key in set(before) - expected:
                    known.pop(key, None)
            captured.clear()
            dirty = []
        else:
            compile_everything(engine, known)
            continue
        check_survivors(runtime, known, dirty)
        if rng.random() < 0.5:
            compile_everything(engine, known)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(min_value=0, max_value=100_000),
    st.sampled_from(["all_pull", "mincut", "all_push"]),
    st.sampled_from(["columnar", "object"]),
    st.lists(st.sampled_from(OPS), min_size=1, max_size=10),
)
@example(3, "mincut", "columnar", ["partials", "structure", "flip", "rebuild"])
@example(3, "all_pull", "object", ["partials", "structure", "flip", "rebuild"])
def test_surviving_plans_are_the_oracles(seed, dataflow, store, ops):
    run_ops(seed, dataflow, store, ops)


def test_a_closure_stored_without_its_partials_is_caught(monkeypatch):
    """The property fails when a closure's dependency row leaves out the
    partials its walk went through: dirtying a partial then keeps a
    closure the oracle drops."""
    put = ReaderClosures.put

    def put_without_partials(self, writer, readers, deps):
        put(self, writer, readers, {writer, *readers})

    monkeypatch.setattr(ReaderClosures, "put", put_without_partials)
    with pytest.raises(AssertionError):
        run_ops(3, "mincut", "columnar", ["partials"])


# ---------------------------------------------------------------------------
# one scan per adaptive sweep
# ---------------------------------------------------------------------------


def adaptive_engine():
    graph = random_graph(60, 360, seed=31)
    engine = EAGrEngine(
        graph,
        EgoQuery(aggregate=Sum(), window=TupleWindow(2),
                 neighborhood=Neighborhood.in_neighbors()),
        overlay_algorithm="vnm_a",
        dataflow="all_push",
        adaptive=True,
        adaptive_config=AdaptiveConfig(check_interval=10**9, hysteresis=1.1,
                                       min_observations=4),
    )
    nodes = sorted(graph.nodes())
    rng = random.Random(8)
    for _ in range(20):  # write-heavy: push frontier nodes turn to pull
        engine.write_batch([(rng.choice(nodes), float(rng.randrange(9))) for _ in range(40)])
    engine.read_batch(nodes)
    engine.changed_readers()
    return engine, nodes


def test_a_sweep_flips_in_one_scan_as_one_node_at_a_time():
    swept, nodes = adaptive_engine()
    single, _ = adaptive_engine()
    runtime = single.runtime
    scans = {"swept": 0}
    invalidate = swept.runtime.invalidate_plans

    def counting(handles=None):
        scans["swept"] += 1
        invalidate(handles)

    swept.runtime.invalidate_plans = counting
    # one node at a time: one set_decisions call, so one scan, per flip
    one_call = runtime.set_decisions
    runtime.set_decisions = lambda flips: [one_call([flip]) for flip in list(flips)]
    flips = swept.controller.evaluate()
    assert flips >= 10
    assert single.controller.evaluate() == flips
    assert scans["swept"] == 1
    assert swept.overlay.decisions == single.overlay.decisions
    assert compiled(swept.runtime) == compiled(runtime)
    assert swept.runtime.plan_invalidations == runtime.plan_invalidations > 0
    assert swept.read_batch(nodes) == single.read_batch(nodes)
    assert swept.runtime.plan_compiles == runtime.plan_compiles
    assert swept.overlay.decisions_consistent()


# ---------------------------------------------------------------------------
# what the plan state costs
# ---------------------------------------------------------------------------


def test_plan_state_holds_under_48_bytes_per_dependency_entry():
    """Every pull row and every writer's closure compiled on the suite's
    3 000-node preferential-attachment graph (``vnm_a``, ``mincut``)
    allocates 29.5 bytes per dependency entry under tracemalloc (48 116
    entries, 1 418 084 bytes, numpy 2.4 / Python 3.11): the arenas' int64
    rows with their slack, the closures' bitsets and the leaf entries.  A
    per-handle registry of Python sets plus a frozenset per plan took
    189.2 bytes per entry on the same graph."""
    graph = DynamicGraph.from_edges(pa_edges(3000, 8, random.Random(25)))
    engine = EAGrEngine(
        graph,
        EgoQuery(aggregate=STORE_OF["columnar"](Sum()), window=TupleWindow(2),
                 neighborhood=Neighborhood.in_neighbors()),
        overlay_algorithm="vnm_a",
        dataflow="mincut",
    )
    runtime = engine.runtime
    readers = list(engine.overlay.reader_of)
    writers = np.fromiter(engine.overlay.writer_of.values(), np.int64)
    engine.read_batch([])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        engine.read_batch(readers)
        runtime.changed_handles(writers)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    rows, closures = runtime._pull_rows, runtime._closures
    assert len(rows) == len(readers) and len(closures) == writers.size
    entries = int(rows.meta[2, rows.roots()].sum() + closures.dep_count[closures.roots()].sum())
    assert held / entries <= PLAN_BYTES_PER_DEPENDENCY


#: the bound of the test above: the measured 29.5, with room for slack
PLAN_BYTES_PER_DEPENDENCY = 48


def test_graph_holds_under_64_bytes_per_edge():
    """``DynamicGraph.from_edges`` over ``social_graph(3000)``'s 31 171
    edges allocates 25.9 bytes per edge under tracemalloc (numpy 2.4 /
    Python 3.11): both int64 CSRs, the handle of every node id and the
    list of ids.  A ``set`` of out- and one of in-neighbours per node took
    161 bytes per edge."""
    edges = list(social_graph(3000).edges())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph = DynamicGraph.from_edges(edges)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert graph.num_edges == 31_171
    assert held / graph.num_edges <= GRAPH_BYTES_PER_EDGE


#: the bound of the test above: the measured 25.9, with room for slack
GRAPH_BYTES_PER_EDGE = 64
