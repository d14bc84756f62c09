"""Where a shard runs: worker process or in-process, one interface.

Both executors push request tuples at a shard and deliver reply tuples to
an ``on_reply`` callback:

* :class:`ProcessShardExecutor` — the real deployment shape.  The shard
  host lives in its own **worker process** (``multiprocessing``, spawn
  context by default so the shard is fully reconstructed from pickled
  state — no fork-inherited locks or caches) running the one
  :func:`~repro.serve.shard.shard_worker` loop, reached through the
  shard's bounded request pipe (:mod:`repro.serve.transport`).
  :meth:`try_submit` refuses instead of blocking when the shard is
  backed up (the front-end then coalesces), :meth:`submit` blocks — the
  deployment's backpressure.  A drainer thread pumps the reply pipe into
  ``on_reply`` so the front-end never polls.
* :class:`InProcessShardExecutor` — same protocol, zero processes: every
  request runs the same :class:`~repro.serve.shard.RequestStep`
  synchronously on the caller's thread and the reply is delivered before
  ``submit`` returns.  Deterministic and dependency-free, this is the
  executor tests and CI smoke jobs run on.

The shared surface is ``submit`` / ``try_submit`` / ``stop`` / ``kill`` /
``alive`` plus ``metric_values`` (the shard's metric registry) and
``io`` — the ingress codec mix and byte volume
(``write_frames_binary`` / ``write_frames_pickle`` / ``control_frames``
/ ``ingress_bytes``), surfaced per shard by ``server_stats()``.  A
stopped or dead executor answers ``try_submit`` with ``False`` and
``submit`` with ``RuntimeError``.

``on_reply`` may be invoked from a drainer thread (process executor) or
the submitting thread (in-process); the front-end's handler is written to
be thread-safe either way.
"""

from __future__ import annotations

import threading
from typing import Callable, Tuple

from repro.serve.messages import OP_STOP, R_STOPPED
from repro.serve.shard import RequestStep, ShardSpec, shard_worker
from repro.serve.transport import io_counters, tally_request

OnReply = Callable[[Tuple], None]


class InProcessShardExecutor:
    """Run a shard synchronously inside the calling process.

    Crash semantics mirror the worker-process executor so the fault
    harness can drive both through one interface: :meth:`kill` (or a
    triggered ``spec.faults`` kill point) discards the live host — all
    in-memory shard state is lost, exactly like a dead worker — after
    which :meth:`try_submit` refuses, :meth:`submit` raises, and
    :meth:`alive` is ``False`` until the front-end rebuilds the shard
    from its spec + checkpoint.
    """

    kind = "inprocess"

    def __init__(self, spec: ShardSpec, on_reply: OnReply) -> None:
        self.shard_id = spec.shard_id
        self._host = spec.build()
        self._step = RequestStep(spec, self._host, self.kill)
        self._on_reply = on_reply
        self.io = io_counters()
        # The process transport serializes requests through the worker's
        # single-threaded loop; synchronous execution must provide the
        # same contract explicitly, or concurrent front-end callers
        # (e.g. the gateway's call pool) interleave inside the shard
        # host and corrupt its unguarded state.  RLock: a reply hook
        # re-entering submit on the same thread must not self-deadlock.
        self._lock = threading.RLock()
        self._stopped = False
        self._crashed = False

    @property
    def host(self):
        """The live shard host (introspection for tests and examples)."""
        return self._host

    def try_submit(self, request: Tuple) -> bool:
        """Execute immediately; refuses only a stopped or crashed shard."""
        with self._lock:
            if self._crashed or self._stopped:
                return False
            self.submit(request)
            return True

    def submit(self, request: Tuple) -> None:
        with self._lock:
            if self._crashed:
                raise RuntimeError(f"shard {self.shard_id} worker died")
            if self._stopped:
                raise RuntimeError(f"shard {self.shard_id} executor is stopped")
            tally_request(self.io, request)
            reply = self._step(request)
            if reply is None:
                return  # died at a kill point
            if reply[0] == R_STOPPED:
                self._stopped = True
            self._on_reply(reply)

    def stop(self, seq: int, timeout: float = 10.0) -> None:
        """Acknowledge a stop request (idempotent)."""
        if not self._stopped and not self._crashed:
            self.submit((OP_STOP, seq))

    def kill(self) -> None:
        """Simulate an unclean worker death: the host (and every bit of
        its in-memory state) is discarded without flush or reply."""
        self._crashed = True
        self._host = None

    def alive(self) -> bool:
        return not self._stopped and not self._crashed

    def metric_values(self):
        """The host registry's flat value array, read directly."""
        host = self._host
        return None if host is None else host.metrics_values()


class ProcessShardExecutor:
    """Run a shard in a dedicated worker process (spawn-safe).

    One worker *incarnation*: construction resets ``transport`` (fresh
    pipes and counters) and spawns
    the worker on its worker half; the transport itself outlives the
    executor — the front-end hands it to the successor when it replaces
    a dead worker.

    Parameters
    ----------
    spec:
        Pickled to the worker, which builds the shard there.
    on_reply:
        Invoked on this executor's drainer thread for every reply.  An
        exception it raises is handed to ``on_error`` and draining
        continues — one bad delivery must not wedge every later call on
        the shard behind a dead drainer.
    on_error:
        ``on_error(exc)``, called on the drainer thread.
    transport:
        The shard's :class:`~repro.serve.transport.QueueTransport`.
    mp_context:
        ``multiprocessing`` start method.  ``spawn`` (default) is the
        portable, state-clean choice; ``fork`` starts faster on POSIX but
        inherits the parent's whole heap.
    """

    kind = "process"

    def __init__(
        self,
        spec: ShardSpec,
        on_reply: OnReply,
        on_error: Callable[[Exception], None],
        transport,
        mp_context: str = "spawn",
    ) -> None:
        import multiprocessing

        self.shard_id = spec.shard_id
        self._on_reply = on_reply
        self._on_error = on_error
        #: the shard's transport (it outlives this executor).
        self.transport = transport
        transport.reset()
        self.io = transport.io
        self._process = multiprocessing.get_context(mp_context).Process(
            target=shard_worker,
            args=(spec, transport.worker_half()),
            name=f"eagr-shard-{spec.shard_id}",
            daemon=True,
        )
        self._process.start()
        self._alive = self._process.is_alive
        self._drainer = threading.Thread(
            target=self._drain_replies,
            args=(transport.replies,),
            name=f"eagr-shard-{spec.shard_id}-drainer",
            daemon=True,
        )
        self._drainer.start()
        self._stopped = False

    def _drain_replies(self, replies) -> None:
        from multiprocessing.connection import wait

        watched = [replies, self._process.sentinel]
        while True:
            # Sleep until a reply is readable or the worker is gone.  A
            # worker that died without acknowledging OP_STOP sends
            # nothing more: once its pipe is drained this thread ends,
            # and with it the join in stop()/kill().  The reader never
            # blocks on a frame the dead worker left half-written.
            wait(watched)
            try:
                batch = replies.take()
            except EOFError:
                return  # the worker's end is closed: nothing can follow
            if not batch and not self._alive():
                return
            for reply in batch:
                try:
                    self._on_reply(reply)
                except Exception as exc:  # noqa: BLE001 - report, keep draining
                    self._on_error(exc)
                if reply[0] == R_STOPPED:
                    return

    def try_submit(self, request: Tuple) -> bool:
        """Non-blocking submit; ``False`` when the shard is backed up.

        A stopped/killed executor also answers ``False`` rather than
        raising: to the coalescing front-end a dead worker is just a
        shard that is backed up until :meth:`EAGrServer.restart_shard`
        replaces it — writes park in the outbox instead of being lost.
        """
        if self._stopped:
            return False
        return self.transport.try_send(request, self._alive)

    def submit(self, request: Tuple) -> None:
        """Blocking submit: waits for transport space (backpressure);
        a dead worker surfaces as ``RuntimeError``, never a hang."""
        if self._stopped:
            raise RuntimeError(f"shard {self.shard_id} executor is stopped")
        self.transport.send(request, self._alive)

    def stop(self, seq: int, timeout: float = 10.0) -> None:
        """Send ``OP_STOP``, join worker and drainer (idempotent).

        The stop request rides the same FIFO pipe as everything else, so
        the worker flushes all earlier requests before acknowledging.
        """
        if self._stopped:
            return
        self._stopped = True
        if self._alive():
            try:
                self.transport.send((OP_STOP, seq), self._alive, timeout)
            except RuntimeError:  # died under us: nothing left to flush
                pass
        self._join(self._process.terminate, timeout)

    def kill(self, timeout: float = 10.0) -> None:
        """Terminate the worker without flushing (crash injection).

        Unlike :meth:`stop`, in-flight requests are abandoned — exactly
        what a real worker death does.  The drainer exits once the
        process is gone and the reply pipe is drained.  The front-end
        recovers by rebuilding the shard from its spec + checkpoint and
        replaying the redo log
        (:meth:`repro.serve.server.EAGrServer.restart_shard`).
        """
        self._stopped = True
        if self._alive():
            self._process.terminate()
        self._join(self._process.kill, timeout)

    def _join(self, escalate: Callable[[], None], timeout: float) -> None:
        self._process.join(timeout=timeout)
        if self._alive():  # pragma: no cover - defensive
            escalate()
            self._process.join(timeout=1.0)
        self._drainer.join(timeout=timeout)

    def alive(self) -> bool:
        return self._alive()

    def metric_values(self):
        """The shard's flat metric value array (an ``OP_STATS`` round
        trip); ``None`` when it cannot be scraped."""
        return self.transport.metric_values(self._alive)
