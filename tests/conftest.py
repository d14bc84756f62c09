"""Shared fixtures and oracles for the test suite."""

import gc
import importlib.util
import os
import random
import sys
import time
import weakref

import pytest

from repro.core.aggregates import UserDefinedAggregate
from repro.core.engine import EAGrEngine
from repro.graph.streams import ReadEvent, WriteEvent

from tests.oracle import BY_NAME, EgoOracle, top_k
from tests.serve.faultlib import SHM_DIR


def as_object(aggregate):
    """``aggregate`` as a user-defined aggregate with the same algebra.  It
    declares no column spec, so the runtime keeps it in the object store
    (the store of TOP-K, COUNT-DISTINCT and every user aggregate), and
    runs its group or lattice path and interpreted reads."""
    return UserDefinedAggregate(
        name=f"object_{aggregate.name}",
        initialize=aggregate.identity,
        lift=aggregate.lift,
        merge=aggregate.merge,
        subtract=aggregate.subtract if aggregate.subtractable else None,
        finalize=aggregate.finalize,
        duplicate_insensitive=aggregate.duplicate_insensitive,
    )


#: The two value stores by name, picked by the aggregate: a test's
#: aggregate runs on columns as it is and on objects through
#: :func:`as_object`.  Tests parametrize over the names.
STORE_OF = {"columnar": lambda aggregate: aggregate, "object": as_object}


def oracle_aggregate(aggregate):
    """The oracle's ``F`` for a repro aggregate, by its name."""
    name = aggregate.name.removeprefix("object_")
    if name == "topk":
        return top_k(aggregate.k)
    return BY_NAME["mean" if name == "avg" else name]


def follow(oracle, engine):
    """Feed ``oracle`` every structure event ``engine`` accepts from now on
    (an event the engine refuses raises before the oracle sees it)."""
    apply = engine.apply_structure_event

    def apply_and_follow(event):
        apply(event)
        ends = (event.u,) if event.v is None else (event.u, event.v)
        getattr(oracle, event.op.name.lower())(*ends)

    engine.apply_structure_event = apply_and_follow


def oracle_for(engine=None, *, graph=None, query=None, aggregate=None):
    """A :class:`tests.oracle.EgoOracle` for ``engine`` (or for ``graph`` and
    ``query``): the query's ``⟨F, w, N, pred⟩``
    read off into the oracle's plain terms, the graph's edges copied, and
    the engine's structure events followed (:func:`follow`; a bare
    ``graph`` is not followed).  ``aggregate`` overrides
    ``F`` (for a user-defined aggregate the oracle cannot name)."""
    if engine is not None:
        graph, query = engine.graph, engine.query
    window = query.window
    neighborhood = query.neighborhood
    node_filter = neighborhood.node_filter
    oracle = EgoOracle(
        graph.edges(),
        graph.nodes(),
        aggregate=aggregate or oracle_aggregate(query.aggregate),
        window=("tuple", window.size) if hasattr(window, "size") else ("time", window.duration),
        hops=neighborhood.hops,
        direction=neighborhood.direction,
        include_self=neighborhood.include_self,
        member_filter=None if node_filter is None else (lambda node: node_filter(graph, node)),
        readers=query.predicate,
    )
    if engine is not None:
        follow(oracle, engine)
    return oracle


#: The oracle each engine :func:`play_and_check` has checked, kept for the
#: engine's lifetime so a later call continues the same write log.
_ORACLES = weakref.WeakKeyDictionary()


def make_events(nodes, count, write_fraction=0.5, seed=0, vocabulary=12):
    """Deterministic interleaved read/write events over ``nodes``."""
    rng = random.Random(seed)
    nodes = list(nodes)
    events = []
    for tick in range(count):
        node = rng.choice(nodes)
        if rng.random() < write_fraction:
            events.append(
                WriteEvent(node=node, value=float(rng.randrange(vocabulary)), timestamp=float(tick + 1))
            )
        else:
            events.append(ReadEvent(node=node, timestamp=float(tick + 1)))
    return events


def play_and_check(engine: EAGrEngine, events, comparator=None, aggregate=None):
    """Play events; on every read, compare against the brute-force oracle
    (:mod:`tests.oracle`), which sees the same writes and every structure
    change of the engine's graph.

    The first call on an engine must come before any write to it; later
    calls continue the same oracle.  Returns the number of reads checked.
    ``comparator`` defaults to equality (exact for ints/dicts; floats in
    these tests are sums of small integers, so equality is exact there
    too); ``aggregate`` is the oracle's ``F`` for a user-defined aggregate.
    """
    if comparator is None:
        comparator = lambda a, b: a == b  # noqa: E731
    oracle = _ORACLES.get(engine)
    if oracle is None:
        assert engine.runtime.stamp == 0, "the oracle must see every write"
        oracle = _ORACLES[engine] = oracle_for(engine, aggregate=aggregate)
    checked = 0
    for event in events:
        if isinstance(event, WriteEvent):
            engine.write(event.node, event.value, event.timestamp)
            oracle.write(event.node, event.value, event.timestamp)
        else:
            got = engine.read(event.node)
            want = oracle.read(event.node)
            assert comparator(got, want), (
                f"read({event.node!r}) = {got!r}, oracle = {want!r} "
                f"[{engine.describe()}]"
            )
            checked += 1
    return checked


def suite_generator():
    """The benchmark suite's own input generator (``benchmarks/suite/
    suitelib/gen.py`` — numpy and the standard library only), loaded by
    path: the suite directory is not a package on the test path."""
    path = os.path.join(
        os.path.dirname(__file__), os.pardir,
        "benchmarks", "suite", "suitelib", "gen.py",
    )
    spec = importlib.util.spec_from_file_location("_suite_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations here
    spec.loader.exec_module(module)
    return module


def _our_segments():
    """The ``/dev/shm`` entries a run of this suite could leave: ``eagr*``
    segments, and the ``sem.mp-*`` files of multiprocessing's named
    semaphores."""
    return {
        name for name in os.listdir(SHM_DIR) if name.startswith(("eagr", "sem.mp-"))
    }


@pytest.fixture(scope="session", autouse=True)
def no_leaked_segments():
    """The run leaves no new ``eagr*`` or ``sem.mp-*`` entry behind.

    The serve tier names no shared-memory segment: its shard transport
    is a pair of pipes per worker.  Its locks and queues are named
    semaphores, unlinked when their objects go or, after a SIGKILL, by
    the multiprocessing resource tracker once the killed processes are
    gone.  A new entry under either prefix at the end of the run is a
    leak, and this fails the run naming it.
    """
    if not os.path.isdir(SHM_DIR):
        yield
        return
    before = _our_segments()
    yield
    gc.collect()
    for _ in range(50):  # a killed group's tracker unlinks a moment later
        leaked = sorted(_our_segments() - before)
        if not leaked:
            break
        time.sleep(0.1)
    assert not leaked, (
        f"the test run left {len(leaked)} entries in {SHM_DIR}: {leaked}"
    )


@pytest.fixture
def checker():
    return play_and_check


@pytest.fixture
def event_factory():
    return make_events
