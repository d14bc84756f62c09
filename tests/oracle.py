"""A brute-force oracle for ego-centric aggregate reads.

The value of an ego ``v`` is ``F`` over the windowed writes of the nodes in
``N(v)`` (PAPER.md §2), and this module computes it from nothing else: the
log of writes and structure events it is fed, and the edge list it starts
from.  It imports nothing from ``repro``, so a bug in the engine's windows,
stores or aggregates cannot cancel out against the same bug here.

One ego at a time, by definition::

    oracle = EgoOracle(edges, aggregate=SUM, window=("tuple", 2))
    oracle.write("a", 3.0)
    oracle.read("b")          # 3.0 when a -> b

The model, rule by rule:

* **Neighbourhoods.**  ``N(v)`` is every node reached from ``v`` in at most
  ``hops`` steps along ``direction`` (``"in"``: ``u -> v``, ``"out"``,
  ``"both"``), ``v`` itself only with ``include_self``, then narrowed by
  ``member_filter``.  An ego outside the graph, or rejected by ``readers``
  (the query's predicate), reads ``F`` of nothing.
* **Windows.**  ``("tuple", k)`` keeps each node's last ``k`` writes;
  ``("time", d)`` keeps the writes stamped after ``clock - d``.  The clock
  is the latest timestamp of any write (a write without one is stamped
  ``clock + 1``), or a later time given to :meth:`advance`.
* **Which writes are kept.**  Only a *writer* keeps a window: a node that
  some reader observes, or observed since the start.  A write to any other
  node moves the clock and is dropped.  A writer stays one, window and all,
  even when no reader observes it any more, until its node is removed.  A
  removed node's window is dropped at the next write or read (the next
  point an engine syncs), so a node removed and added back before then
  keeps it.
  :meth:`EgoOracle.restart` re-derives the writers from the graph as it
  stands, as a shard restart builds a fresh engine.
"""

import math
from collections import Counter, deque


# -- aggregates: F over the live raw values -------------------------------


def SUM(values):
    return math.fsum(map(float, values))


def COUNT(values):
    return len(values)


def MEAN(values):
    return math.fsum(map(float, values)) / len(values) if values else None


def MAX(values):
    return float(max(values)) if values else None


def MIN(values):
    return float(min(values)) if values else None


def COUNT_DISTINCT(values):
    return len(set(values))


def DISTINCT_SET(values):
    return frozenset(values)


def top_k(k):
    """TOP-K: the ``k`` most frequent values as ``(value, count)`` pairs,
    ties broken by the value's ``repr``."""

    def aggregate(values):
        ranked = sorted(Counter(values).items(), key=lambda item: (-item[1], repr(item[0])))
        return ranked[:k]

    return aggregate


BY_NAME = {
    "sum": SUM,
    "count": COUNT,
    "mean": MEAN,
    "max": MAX,
    "min": MIN,
    "count_distinct": COUNT_DISTINCT,
    "distinct_set": DISTINCT_SET,
}


# -- the oracle -------------------------------------------------------------


class EgoOracle:
    """Ego values recomputed from a write log and an edge list.

    Parameters
    ----------
    edges:
        The graph's directed edges ``(u, v)``.
    nodes:
        Nodes beyond the edges' endpoints (isolated ones).
    aggregate:
        ``F``: a function of the list of live raw values (see ``BY_NAME``
        and :func:`top_k`).
    window:
        ``("tuple", k)`` or ``("time", duration)``.
    hops / direction / include_self / member_filter:
        ``N``; ``member_filter(node)`` keeps a member when true.
    readers:
        The query's predicate: an ego ``v`` has a value only when
        ``readers(v)`` holds (``None``: every node).
    """

    def __init__(
        self,
        edges=(),
        nodes=(),
        *,
        aggregate=SUM,
        window=("tuple", 1),
        hops=1,
        direction="in",
        include_self=False,
        member_filter=None,
        readers=None,
    ):
        kind, size = window
        if kind not in ("tuple", "time"):
            raise ValueError(f"unknown window {window!r}")
        if direction not in ("in", "out", "both"):
            raise ValueError(f"unknown direction {direction!r}")
        self.aggregate = aggregate
        self.tuple_size = size if kind == "tuple" else None
        self.duration = size if kind == "time" else None
        self.hops = hops
        self.direction = direction
        self.include_self = include_self
        self.member_filter = member_filter
        self.readers = readers
        self.clock = 0.0
        self._out = {}
        self._in = {}
        for node in nodes:
            self._out.setdefault(node, set())
            self._in.setdefault(node, set())
        for u, v in edges:
            self._out.setdefault(u, set()).add(v)
            self._in.setdefault(u, set())
            self._out.setdefault(v, set())
            self._in.setdefault(v, set()).add(u)
        self._windows = {}
        self._writers = self.observed()
        self._stale = False

    # -- structure ----------------------------------------------------------

    def add_node(self, node):
        if node not in self._out:
            self._out[node] = set()
            self._in[node] = set()
            self._changed()

    def remove_node(self, node):
        for v in list(self._out.pop(node, ())):
            self._in[v].discard(node)
        for u in list(self._in.pop(node, ())):
            self._out[u].discard(node)
        self._writers.discard(node)
        self._changed()

    def add_edge(self, u, v):
        self.add_node(u)
        self.add_node(v)
        self._out[u].add(v)
        self._in[v].add(u)
        self._changed()

    def remove_edge(self, u, v):
        self._out[u].discard(v)
        self._in[v].discard(u)
        self._changed()

    def _changed(self):
        self._stale = True
        self._writers |= self.observed()

    def members(self, ego):
        """``N(ego)`` on the graph as it stands."""
        if ego not in self._out:
            return set()
        steps = {
            "in": lambda node: self._in[node],
            "out": lambda node: self._out[node],
            "both": lambda node: self._in[node] | self._out[node],
        }[self.direction]
        seen, frontier = {ego}, {ego}
        for _ in range(self.hops):
            frontier = set().union(*map(steps, frontier)) - seen
            seen |= frontier
        members = seen - {ego}
        if self.include_self:
            members.add(ego)
        if self.member_filter is not None:
            members = {node for node in members if self.member_filter(node)}
        return members

    def is_reader(self, ego):
        return ego in self._out and (self.readers is None or self.readers(ego))

    def observed(self):
        """The nodes some reader's neighbourhood contains."""
        return set().union(
            *(self.members(ego) for ego in self._out if self.is_reader(ego))
        )

    def restart(self):
        """An engine rebuilt from the graph as it stands, its windows
        carried over by node: the writers are re-derived from scratch."""
        self._writers = self.observed()
        self._stale = True
        self._settle()

    def _settle(self):
        if not self._stale:
            return
        for node in [n for n in self._windows if n not in self._writers]:
            del self._windows[node]
        self._stale = False

    # -- writes -------------------------------------------------------------

    def write(self, node, value, timestamp=None):
        self._settle()
        if timestamp is None:
            timestamp = self.clock + 1.0
        self.clock = max(self.clock, timestamp)
        if node not in self._writers:
            return
        window = self._windows.get(node)
        if window is None:
            window = self._windows[node] = deque(maxlen=self.tuple_size)
        if self.duration is not None:
            # a time window forgets what has expired, and accepts no write
            # older than the newest one it still holds
            while window and window[0][0] <= self.clock - self.duration:
                window.popleft()
            if window and timestamp < window[-1][0]:
                raise ValueError(f"timestamps of {node!r} went backwards")
        window.append((timestamp, value))

    def write_batch(self, items):
        """``(node, value)`` / ``(node, value, timestamp)`` rows, or objects
        with ``node`` / ``value`` / ``timestamp`` attributes, in order."""
        for item in items:
            if hasattr(item, "node"):
                self.write(item.node, item.value, item.timestamp)
            else:
                self.write(*item)

    def advance(self, clock):
        """Time passes to ``clock`` with no write."""
        self.clock = max(self.clock, clock)

    # -- reads --------------------------------------------------------------

    def window(self, node):
        """``node``'s live raw values, oldest first."""
        self._settle()
        entries = self._windows.get(node, ())
        if self.duration is None:
            return [value for _stamp, value in entries]
        cutoff = self.clock - self.duration
        return [value for stamp, value in entries if stamp > cutoff]

    def fold(self, nodes):
        """``F`` over the live values of ``nodes``."""
        return self.aggregate(
            [value for node in sorted(nodes, key=repr) for value in self.window(node)]
        )

    def read(self, ego):
        """The value of the query at ``ego``."""
        self._settle()
        return self.fold(self.members(ego) if self.is_reader(ego) else ())

    def writers(self):
        """The nodes that keep a window."""
        self._settle()
        return set(self._writers)
