"""Pruning rules P1/P2 and connected-component splitting (Section 4.5).

Running max-flow on a whole overlay is infeasible at scale; the paper's
pruning pass shrinks it dramatically first:

* **P1** — recursively remove nodes with positive weight (push-leaning) and
  no remaining incoming edges, assigning them *push*.  Nothing upstream
  constrains them, and Theorem 4.2 shows this never changes the optimum.
* **P2** — recursively remove nodes with negative weight (pull-leaning) and
  no remaining outgoing edges, assigning them *pull*.

What survives is the set of genuinely conflicted nodes; it typically
shatters into many small weakly-connected components (Figure 12), each
solved independently by max-flow.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Set, Tuple

import numpy as np

from repro.dataflow.passes import KEPT, PULLED, PUSHED, peel

Node = Hashable


@dataclass
class PruneResult:
    """Outcome of the P1/P2 pass over a weighted decision DAG."""

    pushed: Set[Node] = field(default_factory=set)
    pulled: Set[Node] = field(default_factory=set)
    remaining_nodes: Set[Node] = field(default_factory=set)
    remaining_edges: List[Tuple[Node, Node]] = field(default_factory=list)

    @property
    def nodes_before(self) -> int:
        return len(self.pushed) + len(self.pulled) + len(self.remaining_nodes)

    @property
    def nodes_after(self) -> int:
        return len(self.remaining_nodes)


def prune(
    weights: Dict[Node, float], edges: Iterable[Tuple[Node, Node]]
) -> PruneResult:
    """Apply P1/P2 to a DAG whose node weights are ``PULL − PUSH`` benefits.

    Zero-weight nodes are decision-indifferent; they are pruned whenever
    either rule's structural condition holds (a safe extension of the
    paper's strict inequalities — an indifferent node with no incoming
    edges constrains nothing upstream, symmetrically for outgoing).  The
    peel itself is :func:`repro.dataflow.passes.peel`, over the nodes
    numbered in ``weights`` order.
    """
    nodes = list(weights)
    index = {node: i for i, node in enumerate(nodes)}
    edge_list = [(u, v) for u, v in edges]
    u = np.fromiter((index[a] for a, _ in edge_list), np.int64, len(edge_list))
    v = np.fromiter((index[b] for _, b in edge_list), np.int64, len(edge_list))
    label = peel([weights[node] for node in nodes], u, v)

    result = PruneResult()
    for node, mark in zip(nodes, label):
        if mark == PUSHED:
            result.pushed.add(node)
        elif mark == PULLED:
            result.pulled.add(node)
        else:
            result.remaining_nodes.add(node)
    result.remaining_edges = [
        (a, b) for a, b in edge_list if label[index[a]] == KEPT and label[index[b]] == KEPT
    ]
    return result


def connected_components(
    nodes: Iterable[Node], edges: Iterable[Tuple[Node, Node]]
) -> List[Tuple[List[Node], List[Tuple[Node, Node]]]]:
    """Weakly-connected components of the residual decision graph."""
    neighbors: Dict[Node, Set[Node]] = collections.defaultdict(set)
    edge_list = list(edges)
    node_set = set(nodes)
    for u, v in edge_list:
        neighbors[u].add(v)
        neighbors[v].add(u)

    seen: Set[Node] = set()
    component_of: Dict[Node, int] = {}
    components: List[List[Node]] = []
    for node in node_set:
        if node in seen:
            continue
        index = len(components)
        members: List[Node] = []
        stack = [node]
        seen.add(node)
        while stack:
            current = stack.pop()
            members.append(current)
            component_of[current] = index
            for neighbor in neighbors[current]:
                if neighbor in node_set and neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        components.append(members)

    edges_by_component: List[List[Tuple[Node, Node]]] = [[] for _ in components]
    for u, v in edge_list:
        if u in component_of:
            edges_by_component[component_of[u]].append((u, v))
    return list(zip(components, edges_by_component))
