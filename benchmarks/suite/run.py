"""Driver of the benchmark suite (imports nothing from ``repro``).

    python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/suite/run.py                    # all five workloads, untraced
    python3 benchmarks/suite/run.py --trace 1          # … traced: per-layer metrics
    python3 benchmarks/suite/run.py --check-agreement  # two untraced sets, compared
    python3 benchmarks/suite/run.py --smoke            # toy scale, seconds per workload

Every workload runs in its own runner subprocess (``runner.py``), one
after the other.  The driver samples the runner's process tree for peak
memory, and after the runner returns it makes sure nothing the run
started is left: it is a child subreaper, so orphaned descendants (the
``multiprocessing`` resource tracker above all) re-parent to it and are
reaped here instead of lingering ``<defunct>`` under a PID 1 that never
waits.  A survivor, a ``/dev/shm`` segment or a temp directory left
behind, a failed operation or an oracle mismatch makes the run incorrect
and the exit code non-zero.

With ``--workload`` the last line of standard output is the result
object of the benchmark contract: ``correct``, ``attempted``, ``failed``
and ``metrics`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1`` — exactly the names ``BENCHMARK.json``
declares.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
OUT = os.path.join(HERE, "out")
PR_SET_CHILD_SUBREAPER = 36
PAGE = os.sysconf("SC_PAGE_SIZE")
RSS_SAMPLE_S = 0.2
RUNNER_TIMEOUT_S = 120.0
REAP_GRACE_S = 5.0
#: a runner told to stop gets this long to close its servers before SIGKILL
TERM_GRACE_S = 20.0
SMOKE_SECONDS = 0.6
TIME_UNITS = ("s", "ms", "us")
#: an open-loop generator later than this marks the phase's latencies suspect
LATE_LIMIT_MS = 1.0


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# process-tree bookkeeping (/proc)
# ---------------------------------------------------------------------------


def _stat(pid: int) -> Optional[Tuple[str, int, int, int]]:
    """``(state, ppid, session, rss_pages)`` of a process, or ``None``."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return fields[0], int(fields[1]), int(fields[3]), int(fields[21])


def session_members(session: int) -> List[Tuple[int, str, int]]:
    """``(pid, state, rss_pages)`` of every process in ``session`` or
    re-parented to this driver."""
    me = os.getpid()
    members = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == me:
            continue
        info = _stat(int(name))
        if info and (info[2] == session or info[1] == me):
            members.append((int(name), info[0], info[3]))
    return members


def reap_children() -> None:
    """Collect every child that has already ended."""
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def reap_session(session: int) -> int:
    """Wait until no process of the run remains; after the grace period
    kill what is left.  Returns how many had to be killed (leaked)."""
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        reap_children()
        alive = session_members(session)
        if not alive:
            return 0
        if time.monotonic() >= deadline:
            break
        time.sleep(0.02)
    leaked = [pid for pid, state, _rss in alive if state != "Z"]
    for pid in leaked:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    end = time.monotonic() + REAP_GRACE_S
    while session_members(session) and time.monotonic() < end:
        reap_children()
        time.sleep(0.02)
    # a zombie we cannot reap (not our child) is as much a leak as a live one
    return max(len(leaked), len(session_members(session)))


def shm_listing() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


#: set by SIGTERM/SIGINT: the current runner is told to stop, everything
#: it started is still reaped, and no further workload is launched
_stop = {"requested": False, "session": None}


def _on_signal(_signo, _frame) -> None:
    _stop["requested"] = True
    if _stop["session"] is not None:
        try:
            os.killpg(_stop["session"], signal.SIGTERM)
        except ProcessLookupError:
            pass


def declared(contract: dict, trace: int) -> List[dict]:
    """The metrics the contract declares for this kind of run."""
    return contract["per_layer" if trace else "end_to_end"]


def run_one(contract: dict, workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """Run one workload in a runner subprocess; returns the runner's
    result plus what only the driver can see (memory, leaks, wall)."""
    os.makedirs(OUT, exist_ok=True)
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}-{workload}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    out_path = os.path.join(OUT, f"result-{workload}-trace{trace}.json")
    if os.path.exists(out_path):
        os.remove(out_path)
    command = [
        sys.executable, os.path.join(HERE, "runner.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out", out_path, "--tmp", tmp,
    ] + (["--smoke"] if smoke else [])
    shm_before = shm_listing()
    started = time.monotonic()
    # its own session: every descendant carries the runner's pid as
    # session id, which is how they are found again afterwards
    runner = subprocess.Popen(
        command, cwd=ROOT, start_new_session=True, stdin=subprocess.DEVNULL,
        env={**os.environ, "TMPDIR": tmp},
    )
    _stop["session"] = runner.pid
    if _stop["requested"]:  # the signal beat the assignment above
        _on_signal(None, None)
    rss_samples: List[Tuple[float, int]] = []  # (monotonic time, pages of the whole tree)
    timed_out = False
    kill_at = None
    while runner.poll() is None:
        now = time.monotonic()
        rss_samples.append((now, sum(rss for _p, _s, rss in session_members(runner.pid))))
        if not timed_out and now - started > RUNNER_TIMEOUT_S:
            timed_out = True
            os.killpg(runner.pid, signal.SIGTERM)
        if kill_at is None and (timed_out or _stop["requested"]):
            kill_at = now + TERM_GRACE_S
        if kill_at is not None and now > kill_at:
            os.killpg(runner.pid, signal.SIGKILL)
        time.sleep(RSS_SAMPLE_S)
    leaked = reap_session(runner.pid)
    _stop["session"] = None
    wall = time.monotonic() - started

    problems: List[str] = []
    shm_left = sorted(shm_listing() - shm_before)
    for name in shm_left:
        problems.append(f"/dev/shm/{name} left behind")
        try:
            os.unlink(os.path.join("/dev/shm", name))
        except OSError:
            pass
    tmp_left = sorted(os.listdir(tmp))
    if tmp_left:
        problems.append(f"temp files left behind: {tmp_left[:5]}")
    shutil.rmtree(tmp, ignore_errors=True)
    if leaked:
        problems.append(f"{leaked} process(es) outlived the runner")
    if timed_out:
        problems.append(f"runner exceeded {RUNNER_TIMEOUT_S:.0f} s")
    if runner.returncode != 0:
        problems.append(f"runner exited with {runner.returncode}")

    result: dict = {"metrics": {}, "attempted": 0, "failed": 0, "failures": []}
    if os.path.exists(out_path):
        with open(out_path) as handle:
            result = json.load(handle)
    else:
        problems.append("runner wrote no result")
    metrics = result["metrics"]
    # the runner says when the measured work ended (same monotonic clock);
    # what it allocates afterwards to check the outputs is not the system's
    until = result.get("rss_until") or float("inf")
    peak_pages = max((pages for at, pages in rss_samples if at <= until), default=0)
    metrics["peak_rss_mb"] = peak_pages * PAGE / 1e6
    metrics["suite.leaked_processes"] = leaked
    # everything the driver found wrong counts as one failed operation each
    result["attempted"] += 1 + len(problems)
    result["failed"] += len(problems)
    result.update(
        workload=workload, seed=seed, seconds=seconds, trace=trace, wall_s=wall,
        problems=problems + result["failures"],
    )
    return result


def measure(contract: dict, workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """One run as the contract defines it.  A traced run is preceded by
    an untraced one of the same workload and seed: what tracing costs is
    the throughput it takes away, ``1 − traced ÷ untraced events_per_s``,
    and a traced run cannot know its own untraced throughput."""
    untraced = run_one(contract, workload, seed, seconds, 0, smoke) if trace else None
    result = run_one(contract, workload, seed, seconds, trace, smoke)
    metrics = result["metrics"]
    if untraced is not None:
        for problem in untraced["problems"]:
            result["problems"].append(f"untraced companion run: {problem}")
        result["attempted"] += untraced["attempted"]
        result["failed"] += untraced["failed"]
        result["wall_s"] += untraced["wall_s"]
        base = untraced["metrics"].get("events_per_s")
        if base and "events_per_s" in metrics:
            metrics["trace.overhead_share"] = 1.0 - metrics["events_per_s"] / base
        # a layer the workload never crosses did no work: its counts and
        # shares are 0 (every time-valued metric is measured on every
        # workload, so one that is missing stays missing and fails the run)
        for metric in contract["per_layer"]:
            if metric["unit"] not in TIME_UNITS:
                metrics.setdefault(metric["name"], 0.0)
    missing = [m["name"] for m in declared(contract, trace) if m["name"] not in metrics]
    if missing:
        result["problems"].append(f"metrics missing: {missing}")
        result["attempted"] += 1
        result["failed"] += 1
    result["correct"] = result["failed"] == 0
    return result


def contract_object(result: dict, contract: dict) -> dict:
    """The result object the benchmark contract asks for."""
    metrics = result["metrics"]
    return {
        "correct": result["correct"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared(contract, result["trace"])
            if m["name"] in metrics
        },
    }


def report(result: dict, contract: dict) -> None:
    """Every metric by name with its unit, then the contract object."""
    print(
        f"== {result['workload']}  seed={result['seed']} seconds={result['seconds']:g} "
        f"trace={result['trace']}  gen.input_sha256={result.get('input_sha256', '?')}"
    )
    samples = result.get("samples", {})
    metrics = result["metrics"]
    units = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer") for m in contract[kind]}
    gated = {m["name"] for m in declared(contract, result["trace"])}
    for name in sorted(gated - set(metrics)):
        print(f"  {name:34s} MISSING")
    for name in [m["name"] for m in declared(contract, result["trace"])] + sorted(set(metrics) - gated):
        if name not in metrics:
            continue
        stem = name.rsplit("_p", 1)[0]
        note = f"   ({samples[stem]} samples)" if stem in samples else ""
        if name not in gated:
            note += "   (not declared for this kind of run)"
        print(f"  {name:34s} {metrics[name]:16.4f} {units.get(name, ''):6s}{note}")
    for key, value in sorted(result.get("info", {}).items()):
        print(f"  [{key} = {value}]")
    if metrics.get("gen.late_p99_ms", 0.0) > LATE_LIMIT_MS:
        print(f"  NOTE: the generator ran more than {LATE_LIMIT_MS:g} ms late: open-loop latencies are suspect")
    print(
        f"  attempted={result['attempted']} failed={result['failed']} "
        f"leaked_processes={metrics['suite.leaked_processes']} wall={result['wall_s']:.1f}s"
    )
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")
    print(json.dumps(contract_object(result, contract)), flush=True)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def check_agreement(contract: dict, seed: int, seconds: float) -> int:
    """Two untraced sets of the same code; every end-to-end metric of the
    second must sit within its bound of the first."""
    sets = []
    for attempt in (1, 2):
        print(f"#### set {attempt}")
        results = {}
        for workload in [w["name"] for w in contract["workloads"]]:
            results[workload] = measure(contract, workload, seed, seconds, 0, False)
            report(results[workload], contract)
        sets.append(results)
    misses = 0
    print(f"{'workload':20s} {'metric':22s} {'first':>14s} {'second':>14s} {'diff':>8s} {'bound':>6s}")
    for workload, first in sets[0].items():
        second = sets[1][workload]
        if not (first["correct"] and second["correct"]):
            misses += 1
            print(f"{workload:20s} incorrect run")
        for metric in contract["end_to_end"]:
            a, b = first["metrics"].get(metric["name"]), second["metrics"].get(metric["name"])
            if a is None or b is None:
                misses += 1
                continue
            diff = abs(b - a) / a
            miss = diff > metric["bound"]
            misses += miss
            print(
                f"{workload:20s} {metric['name']:22s} {a:14.4f} {b:14.4f} "
                f"{diff:8.3f} {metric['bound']:6.2f}{'  MISS' if miss else ''}"
            )
    print("agreement:", "ok" if not misses else f"{misses} miss(es)")
    return 1 if misses else 0


def main(argv=None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check-agreement", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("run.py: no src/repro in this checkout — nothing to measure", file=sys.stderr)
        return 2

    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    if args.check_agreement:
        return check_agreement(contract, args.seed, args.seconds)
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    status = 0
    for workload in [args.workload] if args.workload else names:
        result = measure(contract, workload, args.seed, seconds, args.trace, args.smoke)
        report(result, contract)
        if not result["correct"]:
            status = 1
        if _stop["requested"]:
            return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
