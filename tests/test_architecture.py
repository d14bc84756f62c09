"""Architecture guards: names and structures a change deleted stay gone.

Each row of :data:`GUARDS` names the guard, the files it reads, a pattern
and why the pattern must not match (or, for a ``required`` row, must).
A row may narrow its files to functions or classes, found with ``ast``
rather than by line ranges, so a scope that moves is still found and a
scope that no longer exists fails the row instead of matching nothing.
Every row is also run against a copy of its source with the guarded
structure planted back in, so a row that can no longer match anything
fails too.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import List, NamedTuple, Optional, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent


class Guard(NamedTuple):
    name: str
    #: files, directories (every ``*.py`` below) or globs, from the root
    paths: Tuple[str, ...]
    pattern: str
    reason: str
    #: dotted ``Class.function`` / ``function`` / ``Class`` names: only
    #: their lines are read
    scopes: Tuple[str, ...] = ()
    #: a line of code that re-introduces what the row forbids (for a
    #: required row: what takes the required pattern's place)
    plant: str = ""
    #: the pattern must match in every scope (or file) instead
    required: bool = False
    #: files under ``paths`` the row does not read
    exclude: Tuple[str, ...] = ()


GUARDS = (
    Guard(
        "One overlay edge table",
        ("src/repro/overlay/vnm.py",),
        r"\.(add_edge|remove_edge|has_edge)\(",
        "VNM edits the overlay's src/dst/sign table in bulk, appending rows "
        "and tombstoning the rows it removes; editing it edge by edge again "
        "would make construction a loop of per-edge reads.",
        plant="overlay.add_edge(src, dst, 1)",
    ),
    Guard(
        "One overlay edge table",
        ("src/repro/core/overlay.py",),
        r"if version == self.version",
        "The runtime reuses the order the decision took: the topological "
        "order is memoised on the overlay's version, so _materialize takes "
        "no second one.",
        scopes=("Overlay.topological_order",),
        plant="if False",
        required=True,
    ),
    Guard(
        "One overlay edge table",
        ("src/repro/core/execution.py",),
        r"\bstack\b",
        "The scatter table is built as ragged copies of the children's "
        "rows, height by height, not by a per-writer stack walk.",
        scopes=("scatter_table", "Runtime._build_scatter_table"),
        plant="stack = [writer]",
    ),
    Guard(
        "Decisions in arrays",
        ("src/repro/dataflow/",),
        r"overlay\.edges\(\)",
        "The §4 push/pull decision runs over one int64 CSR of the overlay "
        "(dataflow/passes.py DecisionGraph): frequencies, weights, the P1/P2 "
        "peel, cost and consistency take its columns, not a per-edge walk "
        "of the overlay.",
        plant="edges = list(overlay.edges())",
    ),
    Guard(
        "Decisions in arrays",
        ("src/repro/core/overlay.py",),
        r"add_edge",
        "The identity overlay is built in bulk, from its rows, rather than "
        "edge by edge.",
        scopes=("Overlay.identity",),
        plant="overlay.add_edge(0, 1)",
    ),
    Guard(
        "The overlay is one edge table",
        ("src/repro/core/overlay.py",),
        r"\.(inputs|outputs)\b",
        "The overlay stores its edges once, as src/dst/sign columns with an "
        "alive mask, and reads nodes' rows from one CSR; per-node inputs / "
        "outputs dicts are a second copy of every edge to keep equal.",
        scopes=("Overlay",),
        plant="self.inputs = []",
    ),
    Guard(
        "The overlay is one edge table",
        ("src/repro/core/overlay.py",),
        r"dict\.fromkeys",
        "Per-node edge dicts are not built from the table either.",
        plant="outputs = [dict.fromkeys(row) for row in rows]",
    ),
    Guard(
        "The overlay is one edge table",
        ("src/", "benchmarks/bench_*.py"),
        r"\b(overlay|ov)\.(inputs|outputs)\b",
        "Code reads a node's edges through Overlay.in_rows / out_rows, or "
        "every node's through in_csr / out_csr.",
        plant="sources = list(overlay.inputs[handle])",
    ),
    Guard(
        "One columnar pull evaluator",
        ("src/",),
        r"_pull_segment_eval|PullSegment|_compile_pull_segment|_PLAN_SEGMENT",
        "Columnar reads are frozen pull rows (core/pullrows.py) and one "
        "kernel, Runtime._row_columns; the per-node segment interpreter and "
        "its per-batch memo must not grow back beside it.",
        plant="_PLAN_SEGMENT = 3",
    ),
    Guard(
        "One tuple-window write kernel",
        ("src/repro/core/",),
        r'_write_frame_unit|_write_batch_unit|\("nodes",',
        "SUM/MEAN tuple windows are rows of one ring matrix and packable "
        "batches run Runtime._write_ring for every window size; the ROWS-1 "
        "fast paths and their retained-node observed-push credits must not "
        "grow back beside it.",
        plant="def _write_batch_unit(writes): return writes",
    ),
    Guard(
        "Who-changed in one kernel",
        ("src/repro/core/",),
        r"\b_changed_writers\b|rows\.append\(closure\.readers\)|np\.concatenate\(rows\)",
        "Moved writers are recorded as handles and reader closures live in "
        "one frozen arena (core/closures.py), so Runtime.changed_handles is "
        "a fixed sequence of numpy calls; the node-keyed pending-writer dict "
        "and the per-writer concatenation of closure rows must not grow back.",
        plant="_changed_writers = {}",
    ),
    Guard(
        "One push table",
        ("src/",),
        r"PushPlan|_compile_push_plan|_push_plans|scalar_steps|_out_cache|_compile_out|_run_pull_plan\(",
        "Every group write runs the scatter table's rows: the per-writer push "
        "plans, the lattice adjacency cache and the single-read pull runner "
        "are gone.",
        plant="_push_plans = {}",
    ),
    Guard(
        "The trace leaves the runtime",
        ("src/",),
        r"collect_trace|TraceOp|\.trace\b",
        "Figure 13(d)'s simulator derives its tasks from the compiled overlay "
        "(benchmarks/bench_fig13d_parallelism.py collect_tasks, held by "
        "tests/core/test_concurrency.py::TestCollectTasks), so the runtime "
        "records no micro-op trace and a columnar runtime always runs its "
        "kernels.",
        plant="runtime.trace = []",
    ),
    Guard(
        "Reads are checked against an oracle that shares no code",
        ("src/",),
        r"VALUE_STORE_MODES|resolve_value_store|ValueStoreError|reference_read|_oracle_members",
        "Reads are checked against tests/oracle.py, which recomputes each ego "
        "from the write log and the edge list; a reference read folded from "
        "the runtime's own windows shares their bugs, and the aggregate picks "
        "its store, so there is no store mode to resolve.",
        plant="def reference_read(node): return node",
    ),
    *(
        Guard(
            "The aggregate picks its store",
            (path,),
            r"\bvalue_store\b",
            "Columns exactly when the aggregate declares a column spec, "
            "objects otherwise: no layer takes a store option.  Only "
            "EAGrEngine keeps value_store, accepting 'columnar' alone, for "
            "the callers that still pass it.",
            scopes=(scope,),
            plant='value_store = "object"',
        )
        for path, scope in (
            ("src/repro/core/execution.py", "Runtime.__init__"),
            ("src/repro/serve/server.py", "EAGrServer.__init__"),
            ("src/repro/serve/shard.py", "ShardSpec.__init__"),
            ("src/repro/serve/replica.py", "ReplicaServer.__init__"),
        )
    ),
    Guard(
        "VNM mines columns",
        ("src/",),
        r"\b(FPTree|FPNode|MineCandidate|mine_all)\b",
        "Every VNM variant mines with one miner, overlay/tries.py GroupTries: "
        "vnm / vnm_a every group at once as columns, vnm_n / vnm_d group by "
        "group with their negative and mined registrations.  The object "
        "FP-tree is the miner's oracle under tests/overlay/fptree.py; a "
        "second miner in src/ would be a second tie-break to keep equal.",
        plant="tree = FPTree(rank)",
    ),
    Guard(
        "VNM mines columns",
        ("src/repro/overlay/vnm.py",),
        r"GroupTries\(",
        "VNM builds its groups' FP-trees through GroupTries.",
        plant="ObjectTries(",
        required=True,
    ),
    Guard(
        "VNM mines columns",
        ("src/repro/overlay/shingles.py",),
        r"min\(map\(table\.__getitem__",
        "Shingles are taken with one np.minimum.reduceat per hash function "
        "(order_rows), not a per-row Python min over an item -> hash dict.",
        plant="shingle = min(map(table.__getitem__, row))",
    ),
    Guard(
        "The server keeps no private copy of the durability ledger",
        ("src/repro/serve/server.py",),
        r"_write_log|_batch_no|_wal_seq|_merge_segments|_ego_watchers|_SubState|last_batch|_subs_lock",
        "Outboxes, batch counters, redo log, checkpoints, clock and the watch "
        "registry are the log's fold (serve/wal.py WalState); a field or "
        "merge helper re-grown in server.py would be a second definition to "
        "keep equal.  Subscriber state and its lock live in "
        "serve/subscriptions.py and are reached through its methods.",
        plant="self._write_log = []",
    ),
    Guard(
        "The server keeps no copy of the partition",
        ("src/repro/serve/server.py",),
        r"self\.reader_shard\s*=|self\.writer_shards\s*=|self\.partition_epoch\s*\+?=|_route_array|_build_writer_shards",
        "Which shard owns a reader is the ledger's table "
        "(WalState.reader_shard, replaced by every P fold); writer routes and "
        "the packed membership table derive from it in serve/router.py, "
        "cached by the table's identity.",
        plant="self.reader_shard = {}",
    ),
    Guard(
        "Balance repair without rescans",
        ("src/repro/core/partition.py",),
        r"move_cheapest",
        "The min-cut bisection's balance repair caches each pool reader's "
        "cut delta and recomputes only the readers of writers whose term a "
        "move changed (core/partition.py _repair); the per-move rescan of "
        "every pool reader must not grow back.",
        plant="def move_cheapest(pool): return pool",
    ),
    Guard(
        "Notifications in arrays",
        ("src/repro/serve/shard.py",),
        r"baseline\.get\(node, _MISSING\)",
        "The shard diffs a per-handle baseline column (ShardHost._diff); the "
        "per-ego probe of a node-keyed baseline dict must not grow back.",
        plant="value = baseline.get(node, _MISSING)",
    ),
    Guard(
        "Notifications in arrays",
        ("src/repro/serve/gateway.py",),
        r"self\._pump\(conn, stream\)",
        "The gateway runs one notification pump per connection "
        "(GatewayServer._pump); the per-stream pump task must not grow back.",
        plant="self._pump(conn, stream)",
    ),
    Guard(
        "numpy is imported, not probed",
        ("src/", "tests/"),
        r'_np = None|_np is (not )?None|HAVE_NUMPY|HAS_BINARY|importorskip\("numpy"\)|from repro\.core\.statestore import .*_np',
        "numpy is an install requirement (setup.py); the pure-Python twins "
        "that ran only when its import failed are gone, and so are the tests "
        "that masked the import to reach them.  What still picks the object "
        "store is the query (an aggregate without a column spec), never the "
        "host.",
        plant="HAVE_NUMPY = False",
        exclude=("tests/test_architecture.py",),
    ),
    Guard(
        "Serve hand-offs on the calling thread",
        ("src/repro/serve/transport.py",),
        r"self\._replies\.put\(|self\._requests\.put\(|put_nowait\(",
        "Shard requests and replies are encoded and written on the thread "
        "that sends them, over pipes the transport owns (QueueTransport, "
        "Replies); a queue whose feeder thread does the write must not come "
        "back on either direction.",
        plant="self._replies.put(frame)",
    ),
    Guard(
        "One engine",
        ("src/",),
        r"ThreadedEngine|PartitionedEngine|ShardExecution|repro\.core\.(concurrency|partitioned|shards)|repro\.bench\b",
        "EAGrEngine is the one engine under src/: the thread-pool and "
        "in-process multi-shard engines, the shard protocol only one class "
        "implemented, and the bench harness package are gone, and Figure "
        "13(d)'s simulator lives beside its bench.",
        plant="from repro.core.concurrency import ThreadedEngine",
    ),
    Guard(
        "One copy of each note",
        ("src/repro/serve/subscriptions.py",),
        r"queue\.Queue|import queue|_buffer",
        "A subscriber's journal is its delivery queue: a Subscription is a "
        "cursor into it, with no live queue and no materialized-note buffer "
        "of its own.",
        plant="import queue",
    ),
    Guard(
        "One transport",
        ("src/",),
        r"RingTransport|SharedColumnarStore|MetricsSlab|read_local|merge_after|apply_write_group|ring_bytes",
        "The queue is the serve tier's one shard transport: the ring "
        "transport, shared value columns, metrics slab, front-side reads and "
        "consumer-side merging are gone.",
        plant="class RingTransport: pass",
    ),
    Guard(
        "One transport",
        ("src/",),
        r"ShmRing|serve\.shm|from \.shm|import shm",
        "serve/shm.py keeps only the bare ShmRing the suite's cursor-tear "
        "reproducer drives; nothing else under src/ may use it.",
        plant="from repro.serve.shm import ShmRing",
        exclude=("src/repro/serve/shm.py",),
    ),
    Guard(
        "Workers import only what they run",
        ("src/repro/serve/__init__.py",),
        r"^(from (repro\.serve)?\.|import repro\.serve\.)",
        "repro.serve resolves its public names on first use "
        "(src/repro/_lazy.py), so a spawned shard worker, which enters "
        "through repro.serve.shard, loads the shard, its transport and the "
        "engine, not the gateway, client, WAL and asyncio "
        "(tests/core/test_cold_start.py holds the import set).",
        plant="from .gateway import GatewayServer",
    ),
    Guard(
        "One benchmark per question",
        (
            "src/",
            "tests/",
            "benchmarks/",
            "examples/",
            "benchmarks/suite/*.md",
            "benchmarks/suite/*.json",
            "benchmarks/suite/.gitignore",
            "benchmarks/results/*.txt",
            ".github/workflows/*.yml",
            ".claude/**/*.md",
            "setup.py",
            "README.md",
            "PERFORMANCE.md",
        ),
        r"\b(bench_(hotpath_throughput|serve_scaling|recovery|gateway_fanout|reshard|frame_codec)|BENCH_(hotpath|serve|recovery|gateway|reshard|codec)\.json)\b",
        "End-to-end throughput and latency are measured by one benchmark, "
        "BENCHMARK.json with benchmarks/suite/, whose smoke run is in tier-1. "
        " The single-run scripts it superseded are deleted, and what their "
        "--smoke runs asserted is held by tier-1 tests.  The code, the "
        "tests, CI and the docs that describe the system as it is may not "
        "name them; the history in CHANGES.md and ROADMAP.md does.",
        plant="import bench_serve_scaling",
        exclude=("tests/test_architecture.py",),
    ),
    Guard(
        "The gateway acknowledges at acceptance",
        ("src/repro/serve/gateway.py",),
        r"write_batch\(",
        "A write's K_OK leaves once EAGrServer.accept() has routed, logged "
        "and (with a WAL) fsynced the batch; the shard apply and the "
        "subscriber fan-out run on the server's flusher.  A write_batch call "
        "in the gateway would put them back on the ack path.",
        plant="self.server.write_batch(rows)",
    ),
    Guard(
        "One structure path",
        ("src/repro/core/engine.py",),
        r"\bmaintain\s*[:=]",
        "The overlay maintainer is the engine's only way to absorb a "
        "structure event, built by the first one; a switch that leaves it "
        "out would bring back a second path with its own writer rule.",
        plant="maintain: bool = False",
    ),
    Guard(
        "One structure path",
        ("src/repro/core/engine.py",),
        r"_(needs_)?recompile\b",
        "A full recompile rebuilt the overlay without overlay_params or the "
        "split partials and dropped writers' windows; structure events are "
        "absorbed by the maintainer's surgery alone.",
        plant="_needs_recompile = True",
    ),
    Guard(
        "One structure path",
        ("tests/oracle.py",),
        r"\bmaintained\b",
        "The oracle models one writer rule, the maintained one: a writer "
        "keeps its window until its node is removed.  A flag for a second "
        "rule would let a bug on either side be matched instead of caught.",
        plant="maintained = False",
    ),
    Guard(
        "One copy of each reader's inputs",
        ("src/repro/graph/dynamic_graph.py",),
        r"\b(subscribe|unsubscribe|_listeners)\b",
        "The overlay maintainer makes every structure edit itself, so the "
        "graph tells no one about its changes: it ticks its clock.  A "
        "listener plane would bring back a second way to reach the "
        "maintainer, one the engine's clock check cannot see.",
        plant="self._listeners = []",
    ),
    Guard(
        "One copy of each reader's inputs",
        ("src/repro/overlay/dynamic.py",),
        r"\b(current_inputs|_feeds|live_bipartite)\b|def attach",
        "The engine's AG is the one record of each reader's inputs, kept "
        "current by the maintainer; a mirror of it drifted from the AG and "
        "cost 15 MiB on the 12 000-node suite graph.",
        plant="self._feeds = {}",
    ),
    Guard(
        "One copy of each reader's inputs",
        ("src/repro/core/engine.py",),
        r"\b(_readers_near|_edit)\b",
        "OverlayMaintainer.apply makes the edit and finds the readers near "
        "it, once; the engine expanding them again ran the same expansion "
        "three times per edit.",
        plant="affected = self._readers_near(endpoints)",
    ),
    Guard(
        "Plan dependencies in the arenas",
        ("src/repro/core/",),
        r"\b_plan_deps\b",
        "A compiled plan's dependency set is its own row in an arena (a pull "
        "row's observe entries, a closure's dependency row), scanned by "
        "invalidate_plans; a per-handle registry of Python sets repeated "
        "those rows and cost more memory than the overlay.",
        plant="_plan_deps = {}",
    ),
    *(
        Guard(
            "Plan dependencies in the arenas",
            (path,),
            r"\bfrozenset\(",
            "Compiled rows and closures keep their dependency sets as int64 "
            "arena rows; a frozenset per plan took more memory than the "
            "arenas themselves.",
            scopes=(scope,),
            plant="touched = frozenset(())",
        )
        for path, scope in (
            ("src/repro/core/execution.py", "Runtime._compile_pull_row"),
            ("src/repro/core/execution.py", "Runtime._compile_reader_closure"),
            ("src/repro/core/pullrows.py", "PullRows"),
            ("src/repro/core/closures.py", "ReaderClosures"),
        )
    ),
    Guard(
        "The oracle shares no code",
        ("tests/oracle.py",),
        r"^\s*(from|import)\s+(repro|tests)\b",
        "The oracle recomputes reads from the write log and the edge list "
        "alone: an import of repro (or of a test module that imports it) "
        "would let an engine bug read the same on both sides.",
        plant="from repro.core.aggregates import Sum",
    ),
    Guard(
        "Adaptation counts the stream",
        ("src/repro/core/execution.py", "src/repro/core/pullrows.py"),
        r"\b(observed_push|observed_pull|_observed_push_store|_flush_observed)\b|\b_obs_",
        "The adaptive controller counts the writes and reads of the stream "
        "per graph node and derives f_h / f_l with the §4.1 pass; traffic "
        "counters in the runtime, credited by every write and read path and "
        "zeroed by every rebuild, counted differently on each path and read "
        "negative across structure events.",
        plant="self.observed_push = np.zeros(n, dtype=np.int64)",
    ),
    Guard(
        "Adaptation counts the stream",
        ("src/repro/core/execution.py",),
        r"\b(indptr|dst)=|self\.(indptr|dst)\b|push: bool",
        "The scatter table holds push rows only: its observe rows (the "
        "destinations a write would reach, pull-frontier stops included) "
        "existed to credit traffic counters.",
        scopes=("_ScatterTable", "scatter_table"),
        plant="self.dst = dst",
    ),
    Guard(
        "Adaptation counts the stream",
        ("src/repro/core/execution.py",),
        r"\bevents\b|np\.add\.at|\bcredit|\brepeats\b",
        "Propagation and reads do their work and count it in counters; "
        "nothing on those paths credits per-event traffic (an events "
        "parameter, an np.add.at over a read batch's observe entries).",
        scopes=(
            "Runtime._propagate", "Runtime._run_push_plan",
            "Runtime._propagate_lattice", "Runtime._propagate_lattice_columns",
            "Runtime._row_columns", "Runtime._run_pull_plan_memo",
            "Runtime._read_interpreted", "Runtime._apply_pending_columnar",
        ),
        plant="events = 1",
    ),
    Guard(
        "The data graph in int64 columns",
        ("src/repro/graph/dynamic_graph.py",),
        r"Dict\[NodeId, Set\[|defaultdict\(set\)",
        "The graph's edges are a CSR by source and one by target, with a "
        "node's edits since the last rebuild kept beside its row; a set of "
        "neighbour ids per node took 161 bytes per edge against 26.  The "
        "dict-of-sets graph is the reference under tests/graph/dict_graph.py.",
        plant="_out: Dict[NodeId, Set[NodeId]] = {}",
    ),
)


def guard_id(guard: Guard) -> str:
    scope = ",".join(guard.scopes)
    return f"{guard.name}: {guard.pattern}" + (f" in {scope}" if scope else "")


def files_of(guard: Guard) -> List[Path]:
    files: List[Path] = []
    for path in guard.paths:
        if any(char in path for char in "*?["):
            files.extend(sorted(ROOT.glob(path)))
        elif path.endswith("/"):
            files.extend(sorted((ROOT / path).rglob("*.py")))
        else:
            files.append(ROOT / path)
    excluded = {ROOT / path for path in guard.exclude}
    files = [file for file in files if file not in excluded]
    assert files, f"{guard.name}: {guard.paths} names no file"
    for file in files:
        assert file.is_file(), f"{guard.name}: {file} is missing"
    return files


def scope_node(source: str, scope: str) -> Optional[ast.AST]:
    """The class or function ``scope`` (dotted for nesting), or ``None``
    when it does not exist."""
    body = ast.parse(source).body
    node = None
    for part in scope.split("."):
        node = next(
            (
                child
                for child in body
                if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and child.name == part
            ),
            None,
        )
        if node is None:
            return None
        body = node.body
    return node


def regions(guard: Guard, source: str) -> List[Tuple[int, List[str]]]:
    """``(first line number, lines)`` of each region the row reads."""
    lines = source.splitlines()
    if not guard.scopes:
        return [(1, lines)]
    found = []
    for scope in guard.scopes:
        node = scope_node(source, scope)
        assert node is not None, f"{guard.name}: scope {scope} does not exist"
        found.append((node.lineno, lines[node.lineno - 1 : node.end_lineno]))
    return found


def violations(guard: Guard, sources: List[Tuple[Path, str]]) -> List[str]:
    """What the row reports: the matching lines of a forbidding row, the
    regions without a match of a required one."""
    pattern = re.compile(guard.pattern)
    reported = []
    for path, source in sources:
        for first, lines in regions(guard, source):
            hits = [
                f"{path.relative_to(ROOT)}:{first + offset}: {line.strip()}"
                for offset, line in enumerate(lines)
                if pattern.search(line)
            ]
            if guard.required and not hits:
                reported.append(f"{path.relative_to(ROOT)}:{first}: no match")
            elif not guard.required:
                reported.extend(hits)
    return reported


def planted(guard: Guard, source: str) -> str:
    """``source`` with the row's structure re-introduced: a required
    pattern replaced by the row's plant, or the planted line put at the
    top of the row's first scope's body, or at the end of the file."""
    if guard.required:
        return re.sub(guard.pattern, guard.plant, source)
    if not guard.scopes:
        return source + guard.plant + "\n"
    lines = source.splitlines()
    first = scope_node(source, guard.scopes[0]).body[0]
    indent = " " * first.col_offset
    at = first.lineno - 1
    return "\n".join([*lines[:at], indent + guard.plant, *lines[at:]]) + "\n"


@pytest.mark.parametrize("guard", GUARDS, ids=guard_id)
def test_guard_holds(guard):
    sources = [(path, path.read_text()) for path in files_of(guard)]
    assert not violations(guard, sources), f"{guard.name}: {guard.reason}"


@pytest.mark.parametrize("guard", GUARDS, ids=guard_id)
def test_guard_catches_a_planted_reintroduction(guard):
    path = files_of(guard)[0]
    source = planted(guard, path.read_text())
    ast.parse(source)  # the plant keeps the file valid Python
    assert violations(guard, [(path, source)])


#: the single-run benches and trajectories the suite superseded
DELETED_BENCHES = [
    *(
        f"benchmarks/bench_{name}.py"
        for name in (
            "hotpath_throughput",
            "serve_scaling",
            "recovery",
            "gateway_fanout",
            "reshard",
            "frame_codec",
        )
    ),
    *(
        f"BENCH_{name}.json"
        for name in ("hotpath", "serve", "recovery", "gateway", "reshard", "codec")
    ),
]


def test_one_benchmark_per_question_the_deleted_benches_stay_deleted():
    back = [path for path in DELETED_BENCHES if (ROOT / path).exists()]
    assert not back, f"One benchmark per question: {back} is back"
