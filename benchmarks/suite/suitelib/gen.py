"""Seeded input generator of the suite (no ``repro`` imports).

Everything a workload feeds the system comes from here and is a pure
function of ``(workload spec, seed)``: the deployment (graph, watch sets,
probe pairs, the egos the oracle checks — the same on every seed, see
``GRAPH_SEED``) and the traffic the seed draws on it (the write/read
schedule).
Later PRs may change ``repro.workload`` / ``repro.graph.generators``;
they must not change these inputs, so the suite owns its generator.

Sizing notes (see README.md): graphs are preferential-attachment
digraphs with ``k`` in-edges per node; an edge ``(u, v)`` means a write
on ``u`` feeds the ego network of ``v``.  Edges always point from a lower
to a higher node id, so the first ``m`` nodes induce a graph of the same
family — ``prefix_edges`` uses that to hand the quadratic min-cut
partitioner a graph it can finish.

Zipf ranks follow out-degree (the most followed node writes the most,
ties broken at random): a shuffle could put a leaf at rank 1, and a
stream whose busiest writer has no readers is no feed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

#: graph/query constants shared by every workload
IN_EDGES = 8
ZIPF_ALPHA = 1.0
PROBE_PAIRS = 16
CHECK_EGOS = 256
#: The deployment — graph, subscriptions' watch sets, checked egos — is the
#: same on every seed; the seed draws the traffic on it (which writers
#: write which values in which order, which egos are read).  One writer
#: carries a seventh of all writes on a 600-node graph, its fan-out is
#: whatever hub the graph's draw produced, and how many notifications a
#: write causes follows the watch sets: with all of it drawn from
#: ``--seed`` the cost per event of ``serve_feed`` and ``gateway_fanout``
#: differed by 0.3 between seeds with the same code on the same machine,
#: and by 0.05 between runs of one seed — a spread that would hide any
#: change.
GRAPH_SEED = 13


@dataclass(frozen=True)
class Spec:
    """Constants of one workload: identical on parent and change."""

    nodes: int
    window: int
    write_rows: int          # rows per write batch, probe row included
    read_rows: int           # egos per read_batch
    batches: int             # prebuilt batches; the schedule cycles over them
    writers: int = 1         # closed-loop writer threads (disjoint writer sets)
    reads_every: int = 1     # one read_batch per this many write batches
    probes: int = 0          # probe (writer, ego) pairs appended to the graph
    subs: int = 0            # subscriptions
    sub_egos: int = 0        # egos per subscription
    rotate_events: int = 0   # hot set rotates every this many events (0: never)
    open_rate: float = 0.0   # phase-A batches/s (0: no open loop)
    open_share: float = 0.0  # share of --seconds spent in phase A
    write_share: float = 0.5  # expected writes / (writes + reads), for decisions


SPECS: Dict[str, Spec] = {
    "engine_write_heavy": Spec(
        nodes=12000, window=4, write_rows=240, read_rows=24, batches=512,
        write_share=10 / 11,
    ),
    "engine_read_heavy": Spec(
        nodes=12000, window=4, write_rows=24, read_rows=240, batches=512,
        write_share=1 / 11,
    ),
    "serve_feed": Spec(
        nodes=600, window=1, write_rows=100, read_rows=32, batches=240,
        reads_every=4, probes=PROBE_PAIRS, subs=8, sub_egos=64,
        rotate_events=48 * 99, open_rate=48.0, open_share=0.5,
        write_share=100 / 108,
    ),
    "durable_ingest": Spec(
        nodes=600, window=1, write_rows=64, read_rows=32, batches=1024,
        writers=2, reads_every=8, probes=PROBE_PAIRS, subs=1, sub_egos=0,
        write_share=64 / 68,
    ),
    "gateway_fanout": Spec(
        nodes=1000, window=1, write_rows=10, read_rows=32, batches=1024,
        reads_every=1, probes=PROBE_PAIRS, subs=16, sub_egos=64,
        open_share=0.5, write_share=10 / 42,
    ),
}

#: toy-scale variants for ``--smoke`` (same code paths, seconds not minutes)
SMOKE_SPECS: Dict[str, Spec] = {
    "engine_write_heavy": Spec(
        nodes=300, window=4, write_rows=48, read_rows=8, batches=64,
        write_share=10 / 11,
    ),
    "engine_read_heavy": Spec(
        nodes=300, window=4, write_rows=8, read_rows=48, batches=64,
        write_share=1 / 11,
    ),
    "serve_feed": Spec(
        nodes=120, window=1, write_rows=20, read_rows=8, batches=32,
        reads_every=4, probes=4, subs=2, sub_egos=16, rotate_events=8 * 19,
        open_rate=100.0, open_share=0.5, write_share=20 / 22,
    ),
    "durable_ingest": Spec(
        nodes=120, window=1, write_rows=16, read_rows=8, batches=128,
        writers=2, reads_every=8, probes=4, subs=1, sub_egos=0,
        write_share=16 / 17,
    ),
    "gateway_fanout": Spec(
        nodes=120, window=1, write_rows=10, read_rows=8, batches=128,
        reads_every=4, probes=4, subs=4, sub_egos=8,
        open_share=0.5, write_share=10 / 12,
    ),
}


@dataclass
class Inputs:
    """Generated inputs of one run (arrays are the source of truth; the
    tuple batches handed to the system are materialised from them)."""

    spec: Spec
    seed: int
    edges: List[Tuple[int, int]]              # ordinary + probe edges
    probes: List[Tuple[int, int]]             # (probe writer, probe ego)
    #: per writer thread: ``[batches, rows]`` writer ids / integer values
    write_nodes: List[np.ndarray]
    write_vals: List[np.ndarray]
    read_nodes: np.ndarray                    # ``[batches, read_rows]``
    watch: List[List[int]]                    # ego set per subscription
    check_egos: List[int]                     # egos the oracle compares
    write_freq: Dict[int, float] = field(default_factory=dict)
    read_freq: Dict[int, float] = field(default_factory=dict)
    sha256: str = ""

    @property
    def total_nodes(self) -> int:
        return self.spec.nodes + 2 * len(self.probes)

    def write_batches(self, thread: int = 0, stamped: bool = True) -> List[list]:
        """The thread's batches as lists of tuples, probe row *excluded*:
        ``(node, value, timestamp)`` triples (the serve tier's packable
        form) or ``(node, value)`` pairs for the bare engine."""
        nodes = self.write_nodes[thread]
        vals = self.write_vals[thread]
        rows = nodes.shape[1]
        out = []
        for index in range(nodes.shape[0]):
            n = nodes[index].tolist()
            v = vals[index].tolist()
            if stamped:
                base = index * rows
                out.append(
                    [(n[j], v[j], float(base + j + 1)) for j in range(rows)]
                )
            else:
                out.append(list(zip(n, v)))
        return out

    def read_batches(self) -> List[List[int]]:
        return self.read_nodes.tolist()


def pa_edges(nodes: int, in_edges: int, rng: random.Random) -> List[Tuple[int, int]]:
    """Preferential-attachment digraph: node ``v`` draws ``in_edges``
    distinct in-neighbours among the earlier nodes, each with probability
    proportional to its degree so far."""
    pool = list(range(in_edges))
    edges: List[Tuple[int, int]] = []
    for v in range(in_edges, nodes):
        chosen = set()
        while len(chosen) < in_edges:
            chosen.add(pool[rng.randrange(len(pool))])
        for u in sorted(chosen):
            edges.append((u, v))
            pool.append(u)
        pool.append(v)
    return edges


def prefix_edges(edges: List[Tuple[int, int]], nodes: int) -> List[Tuple[int, int]]:
    """Edges among the first ``nodes`` ids (a graph of the same family)."""
    return [(u, v) for u, v in edges if u < nodes and v < nodes]


def zipf_weights(count: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, count + 1, dtype=np.float64) ** ZIPF_ALPHA
    return weights / weights.sum()


def generate(spec: Spec, seed: int) -> Inputs:
    """Build every input of a run from ``seed``."""
    graph_rng = random.Random(GRAPH_SEED)
    layout_rng = np.random.default_rng(GRAPH_SEED)
    rng = np.random.default_rng(abs(seed))  # numpy refuses negative seeds
    n = spec.nodes
    edges = pa_edges(n, IN_EDGES, graph_rng)

    out_degree = [0] * n
    for u, _v in edges:
        out_degree[u] += 1
    tiebreak = [graph_rng.random() for _ in range(n)]
    by_rank = np.array(
        sorted(range(n), key=lambda v: (-out_degree[v], tiebreak[v])),
        dtype=np.int64,
    )
    weights = zipf_weights(n)

    # Each writer thread owns the ranks congruent to its index, so no
    # writer is ever written by two threads and the per-writer order the
    # oracle needs does not depend on how the threads interleave.
    rows = spec.write_rows - (1 if spec.probes else 0)
    write_nodes, write_vals = [], []
    for thread in range(spec.writers):
        ranks = np.arange(thread, n, spec.writers)
        p = weights[ranks] / weights[ranks].sum()
        drawn = ranks[rng.choice(len(ranks), size=(spec.batches, rows), p=p)]
        if spec.rotate_events:
            # The hot set drifts: every ``rotate_events`` events the
            # rank→node map shifts by a fifth of the graph, while
            # decisions and placement were made for phase 0.
            event_no = np.arange(spec.batches * rows).reshape(spec.batches, rows)
            phase = event_no // spec.rotate_events
            drawn = (drawn + phase * (n // 5)) % n
        write_nodes.append(by_rank[drawn])
        write_vals.append(
            rng.integers(1, 10, size=(spec.batches, rows)).astype(np.float64)
        )
    read_nodes = rng.integers(0, n, size=(spec.batches, spec.read_rows))

    probes = [(n + 2 * i, n + 2 * i + 1) for i in range(spec.probes)]
    edges = edges + probes

    watch: List[List[int]] = []
    for sub in range(spec.subs):
        egos = layout_rng.choice(n, size=spec.sub_egos, replace=False).tolist()
        # probe egos are spread over the subscriptions, one watcher each
        egos += [ego for i, (_w, ego) in enumerate(probes) if i % spec.subs == sub]
        watch.append(egos)
    check_egos = layout_rng.choice(n, size=min(CHECK_EGOS, n), replace=False).tolist()

    write_total = spec.write_share
    inputs = Inputs(
        spec=spec,
        seed=seed,
        edges=edges,
        probes=probes,
        write_nodes=write_nodes,
        write_vals=write_vals,
        read_nodes=read_nodes,
        watch=watch,
        check_egos=check_egos,
        write_freq={
            int(by_rank[r]): float(weights[r]) * write_total for r in range(n)
        },
        read_freq={v: (1.0 - write_total) / n for v in range(n)},
    )
    for writer, ego in probes:
        inputs.write_freq[writer] = write_total / spec.write_rows / len(probes)
        inputs.read_freq[ego] = 0.0
    inputs.sha256 = _digest(inputs)
    return inputs


def _digest(inputs: Inputs) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(inputs.edges, dtype=np.int64).tobytes())
    for array in (*inputs.write_nodes, *inputs.write_vals, inputs.read_nodes):
        h.update(np.ascontiguousarray(array).tobytes())
    for egos in (*inputs.watch, inputs.check_egos):
        h.update(np.asarray(egos, dtype=np.int64).tobytes())
    return h.hexdigest()
