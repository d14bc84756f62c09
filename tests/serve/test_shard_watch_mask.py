"""``ShardHost`` intersects who-changed with who-watches in handle space.

Two hosts built from one spec run the same seeded schedule — write
batches with subscribe / unsubscribe / checkpoint-restore / an overlay
rebuild in between.  One goes through ``apply_write_batch``; the other
computes each batch's rows the way the host did before the watch mask
existed (the whole ``changed_readers()`` list filtered through
``self.watchers``).  Every batch must yield the same rows, and the host
must turn exactly ``|changed ∩ watched|`` handles into labels.
"""

import random

import pytest

from repro.core.aggregates import Sum
from repro.core.execution import Runtime
from repro.core.query import EgoQuery
from repro.core.windows import TupleWindow
from repro.graph.generators import random_graph
from repro.graph.neighborhoods import Neighborhood
from repro.graph.streams import StructureEvent, StructureOp
from repro.serve.shard import ShardSpec

BATCHES = 200
#: An ego with no in-edges at boot: it gets a reader handle only when the
#: schedule points an edge at it, loses it when the edge goes, and gets a
#: fresh one when the edge comes back — the mask must follow each time.
ISLAND = 1000
_MISSING = object()


def make_spec(maintain):
    graph = random_graph(40, 200, seed=61)
    graph.add_node(ISLAND)
    query = EgoQuery(
        aggregate=Sum(),
        window=TupleWindow(1),
        neighborhood=Neighborhood.in_neighbors(),
    )
    return ShardSpec(
        graph, query, 0, 1, frozenset(graph.nodes()),
        engine_kwargs={"overlay_algorithm": "vnm_a", "maintain": maintain},
    )


def rows_of(changes):
    """An ``apply_write_batch`` result as a set of ``(ego, value, stamp)``."""
    if isinstance(changes, list):
        return set(changes)
    return {
        (ego, value, changes.batch)
        for ego, value in zip(changes.egos.tolist(), changes.values.tolist())
    }


def reference_rows(host, items):
    """The pre-mask algorithm: every changed reader becomes a label, then
    the Python filter through the watch registry.  Returns the rows and
    how many of the changed readers were watched."""
    engine = host.engine
    engine.write_batch(items)
    stamp, changed = engine.changed_report()
    candidates = [node for node in changed if node in host.watchers]
    rows = set()
    for node, value in zip(candidates, engine.read_batch(candidates)):
        if value != host.baseline.get(node, _MISSING):
            host.baseline[node] = value
            rows.add((node, value, stamp))
    return rows, len(candidates)


@pytest.mark.parametrize("maintain", [False, True], ids=["recompile", "maintainer"])
def test_rows_and_materialised_labels_match_the_python_filter(maintain, monkeypatch):
    spec = make_spec(maintain)
    # Each host gets its own graph: engines sharing one would hear each
    # other's structure events.
    host = spec.build()
    mirror_spec = make_spec(maintain)
    mirror = mirror_spec.build()

    gathered = []  # lengths handed to labels_of by ``host``'s runtime
    labels_of = Runtime.labels_of

    def counting(self, handles):
        if self is host.engine.runtime:
            gathered.append(len(handles))
        return labels_of(self, handles)

    monkeypatch.setattr(Runtime, "labels_of", counting)

    rng = random.Random(7)
    nodes = sorted(spec.graph.nodes())
    nodes.remove(ISLAND)
    feeder = nodes[0]
    subscribers = ["s0", "s1", "s2"]
    for each in (host, mirror):
        each.subscribe("pinned", [ISLAND])
    island_edge = {
        60: StructureOp.ADD_EDGE, 120: StructureOp.REMOVE_EDGE, 150: StructureOp.ADD_EDGE,
    }
    emitted = island_notes = 0
    for number in range(1, BATCHES + 1):
        if number in island_edge:
            for each in (host, mirror):
                each.engine.apply_structure_event(
                    StructureEvent(island_edge[number], feeder, ISLAND)
                )
        roll = rng.random()
        if roll < 0.10:
            who, egos = rng.choice(subscribers), rng.sample(nodes, rng.randrange(1, 9))
            assert host.subscribe(who, egos) == mirror.subscribe(who, egos)
        elif roll < 0.16:
            who = rng.choice(subscribers)
            egos = None if rng.random() < 0.3 else rng.sample(nodes, 6)
            assert host.unsubscribe(who, egos) == mirror.unsubscribe(who, egos)
        elif roll < 0.20:
            host = spec.with_checkpoint(host.checkpoint()).build()
            mirror = mirror_spec.with_checkpoint(mirror.checkpoint()).build()
        elif roll < 0.26:
            u, v = rng.sample(nodes, 2)
            op = (
                StructureOp.REMOVE_EDGE
                if host.engine.graph.has_edge(u, v)
                else StructureOp.ADD_EDGE
            )
            for each in (host, mirror):
                each.engine.apply_structure_event(StructureEvent(op, u, v))
        items = [
            (rng.choice(nodes), float(rng.randrange(5)), float(number))
            for _ in range(rng.randrange(1, 12))
        ]
        items.append((feeder, float(number), float(number)))
        gathered.clear()
        _count, changes = host.apply_write_batch(number, items)
        expected, watched_and_changed = reference_rows(mirror, items)
        assert rows_of(changes) == expected, f"batch {number}"
        if host.watchers:
            assert gathered == [watched_and_changed], f"batch {number}"
        else:
            assert gathered == []
        assert host.baseline == mirror.baseline
        emitted += len(expected)
        island_notes += any(ego == ISLAND for ego, _value, _stamp in expected)
    assert emitted > BATCHES, "the schedule must exercise the notifying path"
    assert island_notes > 100, "the island must be heard while it has its edge"
