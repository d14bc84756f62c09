"""``ShardHost`` diffs who-changed against who-watches in handle space.

Two hosts built from one spec run the same seeded schedule — write
batches with subscribe / unsubscribe / checkpoint-restore / an overlay
rebuild in between.  One goes through ``apply_write_batch``; the other
computes each batch's rows the way the host did before the watch mask
and the baseline column existed (the whole ``changed_readers()`` list
filtered through ``self.watchers``, then diffed per ego against a
node-keyed dict).  Every batch must yield the same rows, the host must
turn exactly the watched handles whose value changed into labels — one
gather, and nothing when no row survives — and its baselines, read back
node-keyed through a checkpoint, must equal the mirror's after every
batch.
"""

import random

from repro.core.aggregates import Sum
from repro.core.query import EgoQuery
from repro.core.windows import TupleWindow
from repro.graph.generators import random_graph
from repro.graph.neighborhoods import Neighborhood
from repro.graph.streams import StructureEvent, StructureOp
from repro.serve.shard import ShardHost, ShardSpec

BATCHES = 200
#: An ego with no in-edges at boot: it gets a reader handle only when the
#: schedule points an edge at it, loses it when the edge goes, and gets a
#: fresh one when the edge comes back — the mask must follow each time.
ISLAND = 1000
_MISSING = object()


def make_spec():
    graph = random_graph(40, 200, seed=61)
    graph.add_node(ISLAND)
    query = EgoQuery(
        aggregate=Sum(),
        window=TupleWindow(1),
        neighborhood=Neighborhood.in_neighbors(),
    )
    return ShardSpec(
        graph, query, 0, 1, frozenset(graph.nodes()),
        engine_kwargs={"overlay_algorithm": "vnm_a"},
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
    the Python filter through the watch registry and the per-ego diff."""
    engine = host.engine
    engine.write_batch(items)
    stamp, changed = engine.changed_report()
    candidates = [node for node in changed if node in host.watchers]
    rows = set()
    baseline = host._baseline  # the mirror never builds a column
    for node, value in zip(candidates, engine.read_batch(candidates)):
        if value != baseline.get(node, _MISSING):
            baseline[node] = value
            rows.add((node, value, stamp))
    return rows


def test_rows_and_materialised_labels_match_the_python_filter(monkeypatch):
    spec = make_spec()
    # Each host gets its own graph: engines sharing one would hear each
    # other's structure events.
    host = spec.build()
    mirror_spec = make_spec()
    mirror = mirror_spec.build()

    gathered = []  # lengths of the label gathers ``host`` makes
    label = ShardHost._label

    def counting(self, handles):
        if self is host:
            gathered.append(len(handles))
        return label(self, handles)

    monkeypatch.setattr(ShardHost, "_label", counting)

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
        expected = reference_rows(mirror, items)
        assert rows_of(changes) == expected, f"batch {number}"
        assert gathered == ([len(expected)] if expected else []), f"batch {number}"
        assert host.checkpoint().baseline == mirror._baseline, f"batch {number}"
        emitted += len(expected)
        island_notes += any(ego == ISLAND for ego, _value, _stamp in expected)
    assert emitted > BATCHES, "the schedule must exercise the notifying path"
    assert island_notes > 100, "the island must be heard while it has its edge"


def test_a_watched_ego_without_a_baseline_notifies_once_and_is_baselined():
    """A checkpoint may name a watcher with no baseline value (a
    reshard's synthetic checkpoint keeps only the baselines it has): the
    ego's first change is always news, and from then on it has a
    baseline — through a rebuild of the column too."""
    spec = make_spec()
    host = spec.build()
    nodes = sorted(spec.graph.nodes())
    feeder = nodes[0]
    ego = next(n for n in nodes if spec.graph.has_edge(feeder, n))
    host.subscribe("s", [ego])
    ck = host.checkpoint()
    del ck.baseline[ego]
    host = spec.with_checkpoint(ck).build()
    _count, changes = host.apply_write_batch(1, [(feeder, 5.0, 1.0)])
    first = {e: v for e, v, _s in rows_of(changes)}
    assert ego in first
    assert host.checkpoint().baseline[ego] == first[ego]
    host.subscribe("t", [feeder])  # folds the column back, rebuilt next batch
    assert host.checkpoint().baseline[ego] == first[ego]
    _count, changes = host.apply_write_batch(2, [(feeder, 9.0, 2.0)])
    second = {e: v for e, v, _s in rows_of(changes)}
    assert second[ego] != first[ego]
    assert host.checkpoint().baseline[ego] == second[ego]
