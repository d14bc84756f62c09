"""Batched ingestion: coalesced writes through compiled propagation plans.

High-traffic deployments receive events in batches (a Kafka poll, an HTTP
bulk endpoint), not one call at a time.  This example builds a SUM query
over a social-style graph, streams the same workload through the
per-event and the batched API, verifies they agree, and reports the
throughput difference plus the plan-cache statistics that explain it:
each writer's propagation path is compiled once and replayed from flat
arrays, and a batch runs one plan execution per *touched writer* instead
of one graph traversal per event.

Run:  python examples/batched_ingest.py
"""

import random
import time

from repro import EAGrEngine, EgoQuery, Neighborhood, Sum, TupleWindow
from repro.graph.generators import social_graph


BATCH_SIZE = 200
NUM_EVENTS = 30_000


def make_engine(graph) -> EAGrEngine:
    query = EgoQuery(
        aggregate=Sum(),
        window=TupleWindow(3),
        neighborhood=Neighborhood.in_neighbors(),
    )
    return EAGrEngine(graph, query, overlay_algorithm="vnm_a", dataflow="mincut")


def main() -> None:
    graph = social_graph(num_nodes=300, edges_per_node=8, seed=11)
    nodes = sorted(graph.nodes(), key=repr)
    rng = random.Random(7)
    writes = [
        (rng.choice(nodes), float(rng.randrange(100)), float(tick + 1))
        for tick in range(NUM_EVENTS)
    ]

    per_event = make_engine(graph)
    started = time.perf_counter()
    for node, value, timestamp in writes:
        per_event.write(node, value, timestamp)
    per_event_eps = NUM_EVENTS / (time.perf_counter() - started)

    batched = make_engine(graph)
    started = time.perf_counter()
    for start in range(0, NUM_EVENTS, BATCH_SIZE):
        batched.write_batch(writes[start : start + BATCH_SIZE])
    batched_eps = NUM_EVENTS / (time.perf_counter() - started)

    table_builds = batched.runtime.scatter_builds

    sample = nodes[:200]
    assert batched.read_batch(sample) == [per_event.read(n) for n in sample]

    runtime = batched.runtime
    print(f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges")
    print(f"per-event ingestion: {per_event_eps:,.0f} events/s")
    print(
        f"batched ingestion:   {batched_eps:,.0f} events/s "
        f"({batched_eps / per_event_eps:.2f}x, batch={BATCH_SIZE})"
    )
    print(
        f"push table: {table_builds} scatter-table build(s) for "
        f"{len({n for n, _, _ in writes})} distinct writers over "
        f"{NUM_EVENTS:,} writes ({runtime.plan_invalidations} invalidations)"
    )
    print("batched reads match per-event reads on a 200-node sample ✓")


if __name__ == "__main__":
    main()
