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
        "The oracle shares no code",
        ("tests/oracle.py",),
        r"^\s*(from|import)\s+(repro|tests)\b",
        "The oracle recomputes reads from the write log and the edge list "
        "alone: an import of repro (or of a test module that imports it) "
        "would let an engine bug read the same on both sides.",
        plant="from repro.core.aggregates import Sum",
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
