"""Shared fixtures and oracles for the test suite."""

import importlib.util
import os
import random
import sys

import pytest

from repro.core.engine import EAGrEngine
from repro.graph.streams import ReadEvent, WriteEvent

from tests.serve.faultlib import SHM_DIR


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


def play_and_check(engine: EAGrEngine, events, comparator=None):
    """Play events; on every read, compare against the brute-force oracle.

    Returns the number of reads checked.  ``comparator`` defaults to
    equality (exact for ints/dicts; floats in these tests are sums of small
    integers, so equality is exact there too).
    """
    if comparator is None:
        comparator = lambda a, b: a == b  # noqa: E731
    checked = 0
    for event in events:
        if isinstance(event, WriteEvent):
            engine.write(event.node, event.value, event.timestamp)
        else:
            got = engine.read(event.node)
            want = engine.reference_read(event.node)
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


def _eagr_segments():
    return {name for name in os.listdir(SHM_DIR) if name.startswith("eagr")}


@pytest.fixture(scope="session", autouse=True)
def no_leaked_segments():
    """The run leaves no new ``eagr*`` shared-memory segment behind.

    The serve tier names no shared-memory segment: its shard transport
    is a pair of pipes per worker.  A segment under that prefix that
    outlives the session is a leak, and this fails the run naming it.
    """
    if not os.path.isdir(SHM_DIR):
        yield
        return
    before = _eagr_segments()
    yield
    leaked = sorted(_eagr_segments() - before)
    assert not leaked, (
        f"the test run left {len(leaked)} shared-memory segment(s) in "
        f"{SHM_DIR}: {leaked}"
    )


@pytest.fixture
def checker():
    return play_and_check


@pytest.fixture
def event_factory():
    return make_events
