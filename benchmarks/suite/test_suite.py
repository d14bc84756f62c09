"""Self-test of the benchmark suite (tier-1: collected by the root
``pytest``).  Checks the arithmetic the reported numbers rest on and runs
every workload once at toy scale through the real driver."""

import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from suitelib import gen, oracle, stats, trace  # noqa: E402
from suitelib.harness import Probes  # noqa: E402

ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))


# -- slice statistics ---------------------------------------------------------


def test_slice_rates_and_median():
    # three 1-s slices completing 10, 30 and 20 units of work
    stamps = [100.2, 100.9, 101.1, 101.5, 101.99, 102.4]
    amounts = [4, 6, 10, 10, 10, 20]
    assert stats.slice_rates(stamps, amounts, 100.0, 3.0) == [10.0, 30.0, 20.0]
    assert stats.median_rate(stamps, amounts, 100.0, 3.0) == 20.0
    # work completed outside the region is not counted
    assert stats.slice_rates([99.0, 100.5, 103.5], [7, 1, 7], 100.0, 3.0) == [1.0, 0.0, 0.0]
    # slices between given edges: 10 units in 2 s, 40 units in 0.5 s
    assert stats.edge_rates(stamps, amounts, [100.0, 102.0, 102.5]) == [20.0, 40.0]


def test_region_percentile_uses_only_the_region():
    stamps = np.concatenate([np.full(50, -1.0), np.linspace(0.0, 9.99, 101), np.full(50, 10.0)])
    values = np.concatenate([np.full(50, 1e6), np.arange(101), np.full(50, 1e6)])
    assert stats.region_percentile(stamps, values, 50, 0.0, 10.0) == (50.0, 101)
    assert stats.region_percentile(stamps, values, 99, 0.0, 10.0) == (99.0, 101)
    with pytest.raises(ValueError):
        stats.region_percentile([], [], 50, 0.0, 5.0)


# -- span self time -----------------------------------------------------------


def test_covered_counts_overlapping_children_once():
    assert trace.covered([(1, 3), (2, 4), (6, 7)], 0, 10) == 4.0
    assert trace.covered([(-5, 2), (8, 20)], 0, 10) == 4.0  # clipped to the parent
    assert trace.covered([], 0, 10) == 0.0


def test_self_time_of_nested_spans(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(trace, "_clock", lambda: now[0])
    tracer = trace.Tracer(True)

    def advance(seconds):
        now[0] += seconds

    def leaf():
        advance(0.5)

    def inner():
        advance(2.0)
        tracer.wrap("leaf", leaf)()

    def outer():
        advance(1.0)
        tracer.wrap("inner", inner)()
        advance(1.0)
        tracer.wrap("inner", advance)(3.0)

    tracer.set_rid(7)
    tracer.wrap("outer", outer)()
    totals = tracer.totals()
    assert totals["outer"] == {"count": 1, "total_s": 7.5, "self_s": 2.0}
    assert totals["inner"] == {"count": 2, "total_s": 5.5, "self_s": 5.0}
    assert totals["leaf"] == {"count": 1, "total_s": 0.5, "self_s": 0.5}
    spans = {s[0]: s for state in tracer._states for rows in state.stored.values() for s in rows}
    leaf = next(s for s in spans.values() if s[1] == "leaf")
    assert spans[leaf[4]][1] == "inner" and spans[spans[leaf[4]][4]][1] == "outer"
    assert all(s[5] == 7 for s in spans.values())


def test_stored_spans_are_thinned_but_totals_exact(tmp_path):
    tracer = trace.Tracer(True)
    call = tracer.wrap("hot", lambda: None)
    for _ in range(3 * trace.STORED_PER_NAME):
        call()
    assert tracer.totals()["hot"]["count"] == 3 * trace.STORED_PER_NAME
    path = tmp_path / "trace.json"
    tracer.dump(str(path))
    assert len(json.loads(path.read_text())["spans"]) < trace.STORED_PER_NAME


def test_disabled_tracer_adds_nothing():
    tracer = trace.Tracer(False)
    fn = len
    assert tracer.wrap("x", fn) is fn
    tracer.add("y", 0.0, 1.0)
    assert tracer.totals() == {}


# -- generator, probes, oracle ------------------------------------------------


def test_same_seed_same_inputs_other_seed_other_inputs():
    spec = gen.SMOKE_SPECS["serve_feed"]
    first, again, other = gen.generate(spec, 5), gen.generate(spec, 5), gen.generate(spec, 6)
    assert first.sha256 == again.sha256
    assert first.sha256 != other.sha256
    assert first.edges == again.edges
    # probe writers feed nothing but their probe ego
    for writer, ego in first.probes:
        assert [v for u, v in first.edges if u == writer] == [ego]
        assert [u for u, v in first.edges if v == ego] == [writer]


def test_writer_threads_own_disjoint_writers():
    inputs = gen.generate(gen.SMOKE_SPECS["durable_ingest"], 3)
    first, second = (set(nodes.ravel().tolist()) for nodes in inputs.write_nodes)
    assert first and second and not first & second


def test_probe_rows_decode_to_their_batches():
    pairs = [(100 + 2 * i, 101 + 2 * i) for i in range(4)]
    probes = Probes(pairs, writers=2)
    sent = {}
    for thread in (0, 1):
        for k in range(1, 9):
            writer, value, _stamp = probes.row(thread, k, due=float(k))
            sent[(thread, k)] = (dict(pairs)[writer], value)
    # thread 1's probe slot 0 saw batches 2, 4 (coalesced away), 6
    ego, value = sent[(1, 2)]
    assert probes.decode(ego, value) == (1, [2])
    ego6, value6 = sent[(1, 6)]
    assert ego6 == ego
    assert probes.decode(ego6, value6) == (1, [4, 6])
    # thread 0, slot 1: its first batch is 1
    ego, value = sent[(0, 3)]
    assert probes.decode(ego, value) == (0, [1, 3])
    assert probes.due[0][2] == 3.0


def test_oracle_matches_a_naive_replay():
    rng = random.Random(1)
    size, window = 12, 3
    nodes = np.array([rng.randrange(size) for _ in range(200)])
    values = np.array([float(rng.randrange(1, 9)) for _ in range(200)])
    history = {}
    for node, value in zip(nodes.tolist(), values.tolist()):
        history.setdefault(node, []).append(value)
    naive = [sum(history.get(node, [])[-window:]) for node in range(size)]
    assert oracle.window_sums(nodes, values, window, size).tolist() == naive
    edges = [(0, 5), (1, 5), (2, 6)]
    assert oracle.expected_values(edges, [(nodes, values)], window, size, [5, 6, 7]) == [
        naive[0] + naive[1], naive[2], 0.0,
    ]


def test_replay_log_cycles_over_the_schedule():
    write_nodes = np.array([[1, 2], [3, 4], [5, 6]])
    write_vals = write_nodes * 10.0
    nodes, values = oracle.replay_log(write_nodes, write_vals, applied=5, window=1)
    assert nodes.tolist() == [5, 6, 1, 2, 3, 4]  # batches 2, 3 (=0), 4 (=1)
    assert values.tolist() == [50.0, 60.0, 10.0, 20.0, 30.0, 40.0]


# -- what BENCHMARK.json may not hold -------------------------------------------


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_notes_cover_every_declared_metric():
    """``contract_notes.json`` gives each end-to-end metric the reason for
    its bound and each per-layer metric the end-to-end metric and workload
    it should move (the contract fixes the keys of ``BENCHMARK.json``, so
    they cannot live there)."""
    contract = _contract()
    with open(os.path.join(HERE, "contract_notes.json")) as handle:
        notes = json.load(handle)
    workloads = {w["name"] for w in contract["workloads"]} | {"*"}
    gated = {m["name"]: m for m in contract["end_to_end"]}
    assert set(notes["end_to_end"]) == set(gated)
    for name, note in notes["end_to_end"].items():
        assert note["bound"] == gated[name]["bound"] and note["reason"], name
    assert set(notes["per_layer"]) == {m["name"] for m in contract["per_layer"]}
    for name, note in notes["per_layer"].items():
        assert note["moves"] or note["guard"], name
        for metric, workload in note["moves"]:
            assert metric in gated and workload in workloads, name
    assert not set(notes["demoted"]) & set(gated)


# -- the bug that keeps the suite off the shared-memory transport ----------------


@pytest.mark.xfail(reason="ShmRing publishes its cursors with pack_into, which zero-fills first", strict=False)
def test_shm_ring_delivers_every_frame_intact():
    import repro_shm_ring

    assert repro_shm_ring.corruption(seconds=1.5) is None


# -- every workload, toy scale, through the real driver -------------------------


def _suite_processes():
    found = []
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/cmdline", "rb") as handle:
                    cmdline = handle.read().decode(errors="replace")
            except OSError:
                continue
            if os.path.join(HERE, "runner.py") in cmdline or "gateway_host.py" in cmdline:
                found.append((name, cmdline))
    return found


@pytest.mark.parametrize("traced", [0, 1])
def test_smoke_run_prints_the_declared_metrics_and_leaves_nothing(traced):
    contract = _contract()
    declared = [m["name"] for m in contract["per_layer" if traced else "end_to_end"]]
    workloads = [w["name"] for w in contract["workloads"]]
    if traced:
        workloads = workloads[-1:]  # one traced pass keeps the tier-1 budget
    for workload in workloads:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
             "--workload", workload, "--trace", str(traced), "--seed", "7"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == declared
        for name in declared:
            assert f"  {name} " in done.stdout
    assert _suite_processes() == []
