"""The sharded serving layer: continuous ego-centric aggregates as a service.

EAGr's queries are *standing* queries: a subscriber wants ``F(N(ego))``
pushed whenever the graph's content moves it (paper Section 2.1's
continuous mode).  This package turns the single-process engine into a
serving tier:

* :class:`~repro.serve.server.EAGrServer` — the front-end.  Partitions the
  reader space over shards, multicasts write batches to the shards that
  need them through message-coalescing queues with bounded backpressure,
  routes reads, and resolves which shard a subscription's egos live on.
* :mod:`~repro.serve.subscriptions` — the subscription plane behind it:
  subscriber states and journals, and the one delivery path that
  filters, stamps, journals and queues every change report against the
  ledger's watch registry.
* :mod:`~repro.serve.shard` — the shard side: a picklable
  :class:`~repro.serve.shard.ShardSpec` describing one shard's slice, the
  :class:`~repro.serve.shard.ShardHost` that builds the shard's engine
  (columnar store + compiled plans) and answers its messages, and the one
  per-request step and worker loop every deployment runs.
* :mod:`~repro.serve.executors` — where a shard runs: in a worker
  **process** (``multiprocessing`` spawn, true multi-core) or in-process
  (deterministic, for tests and CI smoke).
* :mod:`~repro.serve.transport` — how requests reach a worker process and
  how its replies come back: one bounded request pipe and one reply pipe
  per shard, written on the sending thread.  Reads, like writes, are
  requests.
* :mod:`~repro.serve.gateway` / :mod:`~repro.serve.client` — the network
  edge: :class:`~repro.serve.gateway.GatewayServer` multiplexes many TCP
  clients onto one front-end over a length-prefixed binary protocol
  (write batches travel as the same ``K_WRITE`` frames the shard
  transport carries), with per-connection flow control mapped onto the
  journals; :class:`~repro.serve.client.EAGrClient` is the blocking
  client, :class:`~repro.serve.client.AsyncEAGrClient` the asyncio one.
* :mod:`~repro.serve.journal` — per-subscriber durable notification logs:
  bounded rings, optionally disk-backed, that make subscriptions
  resumable.
* :mod:`~repro.serve.wal` — the whole-server write-ahead log: every
  accepted write batch, checkpoint and watch change persisted
  (CRC-framed, fsync-disciplined, checkpoint-gated compaction), so
  ``EAGrServer(wal_dir=...)`` cold-restarts after ``kill -9`` with zero
  lost acknowledged batches and stamp-exact recovered state.
* :mod:`~repro.serve.replica` — a warm read-replica
  (:class:`~repro.serve.replica.ReplicaServer`) tailing the same WAL:
  staleness-bounded pull reads a bounded lag behind the primary, and
  promotion to a full primary when the old one dies (the kernel's
  ``flock`` release on the log is the death signal).

The delivery contract
---------------------
Subscriptions are diff-based: after each applied write batch a shard asks
its runtime for the changed-reader report (O(affected readers)), re-reads
exactly the watched egos among them, and emits a notice for every value
that actually moved.  The front-end stamps and journals (= delivers)
them under one lock, which yields three guarantees:

1. **At-least-once live.**  A connected subscriber that reads within
   ``journal_capacity`` of the newest stamp receives a notification for
   every value change of a watched ego, with strictly monotone
   contiguous stamps (1, 2, 3, ...).  Crash windows can cause a change
   to be *re-derived* (a restarted shard diffs against its checkpointed
   baselines), but the front-end's per-ego value filter suppresses
   re-deliveries, so a subscriber never sees the same value twice in a
   row for an ego.
2. **Exactly-once-after-resume.**  Every stamped notification is appended
   to the subscriber's :class:`~repro.serve.journal.NotificationLog`,
   its only copy, which a :class:`Subscription` reads through a cursor.
   A client that reconnects with ``subscribe(..., resume_from=N)`` —
   cursor ``N`` — receives exactly the notifications with stamps
   ``> N``: original stamps, original order, no gaps, no duplicates.
3. **Checkpoint / eviction semantics.**  Journals are bounded rings
   (``journal_capacity`` notifications): overflow evicts the oldest and
   moves the *resume horizon* forward; ``ack(subscriber, stamp)``
   releases the acknowledged prefix early.  A ``resume_from`` behind the
   horizon — or ahead of everything the journal ever recorded — and the
   next read of a live handle whose cursor fell behind it raise
   :class:`~repro.serve.journal.ResumeGapError` rather than delivering a
   gapped or regressing sequence; the client must re-baseline with a
   plain ``subscribe`` (which, until the live handle has raised, returns
   that same handle: a watch extension never hides the gap).  With
   ``journal_dir`` set, logs are disk-backed (crash-tolerant appends,
   atomic compaction) and resume works across a front-end process
   restart.  On the ingestion side,
   :meth:`~repro.serve.server.EAGrServer.checkpoint` snapshots each
   shard's restart state and truncates its redo log;
   :meth:`~repro.serve.server.EAGrServer.restart_shard` rebuilds a dead
   worker from spec + checkpoint and replays the redo log idempotently.

``tests/serve/faultlib.py`` drives these guarantees adversarially:
deterministic worker kill points (die on receiving / after applying the
N-th batch), seeded operation schedules, and condition-based waits — see
its module docstring for how to script a crash.
"""

from repro.serve.client import AsyncEAGrClient, EAGrClient, GatewayClosed
from repro.serve.executors import InProcessShardExecutor, ProcessShardExecutor
from repro.serve.gateway import GatewayError, GatewayServer
from repro.serve.journal import NotificationLog, ResumeGapError
from repro.serve.messages import Notification, ShardCheckpoint
from repro.serve.replica import ReplicaServer, ReplicaError, StaleReadError
from repro.serve.reshard import (
    RebalancePolicy,
    ReshardPlan,
    plan_from_assignment,
    propose_rebalance,
)
from repro.serve.server import EAGrServer, ServeError, Subscription
from repro.serve.shard import ShardHost, ShardSpec
from repro.serve.wal import WalError, WalLockedError, WriteAheadLog

__all__ = [
    "AsyncEAGrClient",
    "EAGrClient",
    "EAGrServer",
    "GatewayClosed",
    "GatewayError",
    "GatewayServer",
    "InProcessShardExecutor",
    "Notification",
    "NotificationLog",
    "ProcessShardExecutor",
    "RebalancePolicy",
    "ReplicaError",
    "ReplicaServer",
    "ReshardPlan",
    "ResumeGapError",
    "ServeError",
    "ShardCheckpoint",
    "ShardHost",
    "ShardSpec",
    "StaleReadError",
    "Subscription",
    "WalError",
    "WalLockedError",
    "WriteAheadLog",
    "plan_from_assignment",
    "propose_rebalance",
]
