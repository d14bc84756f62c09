"""Read/write frequencies and their push/pull propagation (Section 4.1).

Each data-graph node has an expected *read frequency* ``r(v)`` (how often
its query result is requested) and *write frequency* ``w(v)`` (how often its
content updates).  From these, every overlay node ``u`` gets:

* ``f_h(u)`` — its **push frequency**: how often data would be pushed *to*
  ``u`` if every node were annotated push.  Writers start with their write
  frequency; aggregation nodes sum the push frequencies of their inputs
  (every input update reaches them).
* ``f_l(u)`` — its **pull frequency**: how often data would be pulled *from*
  ``u`` if every node were annotated pull.  Readers start with their read
  frequency; each node adds its pull frequency onto all of its inputs.

Both are one topological sweep, run over the overlay's columns by
:func:`repro.dataflow.passes.push_pull_frequencies`.  Edge signs are irrelevant here: a negative
edge moves exactly as much data as a positive one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Tuple

from repro.core.overlay import Overlay
from repro.dataflow.passes import DecisionGraph, push_pull_frequencies

NodeId = Hashable


@dataclass
class FrequencyModel:
    """Per-node expected read and write frequencies.

    Missing nodes default to 0 for both (a node that never writes
    contributes no pushes; one never read contributes no pulls).
    """

    read: Dict[NodeId, float] = field(default_factory=dict)
    write: Dict[NodeId, float] = field(default_factory=dict)

    def read_freq(self, node: NodeId) -> float:
        return self.read.get(node, 0.0)

    def write_freq(self, node: NodeId) -> float:
        return self.write.get(node, 0.0)

    # -- constructors ----------------------------------------------------

    @classmethod
    def uniform(
        cls, nodes: Iterable[NodeId], read: float = 1.0, write: float = 1.0
    ) -> "FrequencyModel":
        """Every node reads/writes at the same expected rate."""
        nodes = list(nodes)
        return cls(
            read={n: read for n in nodes},
            write={n: write for n in nodes},
        )

    @classmethod
    def zipf(
        cls,
        nodes: Iterable[NodeId],
        alpha: float = 1.0,
        total_events: float = 100_000.0,
        write_read_ratio: float = 1.0,
        seed: int = 17,
    ) -> "FrequencyModel":
        """Zipfian activity (Section 5.1): node ranks are shuffled by
        ``seed``; read frequency is linear in write frequency with the
        requested write:read ratio."""
        nodes = list(nodes)
        if not nodes:
            return cls()
        rng = random.Random(seed)
        ranks = list(range(1, len(nodes) + 1))
        rng.shuffle(ranks)
        raw = [1.0 / (rank ** alpha) for rank in ranks]
        norm = sum(raw)
        write_total = total_events * write_read_ratio / (1.0 + write_read_ratio)
        read_total = total_events - write_total
        write = {
            node: write_total * weight / norm for node, weight in zip(nodes, raw)
        }
        read = {node: read_total * weight / norm for node, weight in zip(nodes, raw)}
        return cls(read=read, write=write)

    @classmethod
    def from_trace(cls, events: Iterable[Tuple[str, NodeId]]) -> "FrequencyModel":
        """Count frequencies from an observed ``("read"|"write", node)`` trace."""
        read: Dict[NodeId, float] = {}
        write: Dict[NodeId, float] = {}
        for kind, node in events:
            bucket = read if kind == "read" else write
            bucket[node] = bucket.get(node, 0.0) + 1.0
        return cls(read=read, write=write)

    def scaled(self, read_scale: float = 1.0, write_scale: float = 1.0) -> "FrequencyModel":
        """A copy with all frequencies multiplied by the given factors."""
        return FrequencyModel(
            read={n: f * read_scale for n, f in self.read.items()},
            write={n: f * write_scale for n, f in self.write.items()},
        )


def compute_push_pull_frequencies(
    overlay: Overlay, frequencies: FrequencyModel
) -> Tuple[List[float], List[float]]:
    """Compute ``(f_h, f_l)`` for every overlay node (Section 4.1)."""
    fh, fl = push_pull_frequencies(DecisionGraph(overlay), frequencies)
    return fh.tolist(), fl.tolist()
