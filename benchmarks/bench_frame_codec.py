"""Frame codec microbench: binary record frames vs pickle round-trips.

The serve tier's binary data plane (:mod:`repro.serve.frames`) replaces
``pickle.dumps``/``loads`` on the write and notification hot paths with
raw numpy record bytes behind fixed headers.  This bench isolates that
codec choice from the rest of the pipeline: for batch sizes 64-4096 it
times, per codec,

* **pack** — a stamped ``(node, value, timestamp)`` triple batch into one
  ring payload (``WriteFrame.from_items`` + ``encode_write`` vs
  ``encode_pickle`` of the same request tuple), and
* **unpack** — the payload back into scatter-ready items
  (``decode`` → ``np.frombuffer`` view vs ``pickle.loads`` rebuilding
  per-triple tuples),

reporting events/s and bytes per event for each.  Results append to
``BENCH_codec.json`` at the repo root.  ``--smoke`` shrinks the
iteration counts and asserts the structural floor: binary unpack must
beat pickle unpack at the largest batch size (the decode side is where
the zero-deserialization claim lives; a frombuffer view losing to
rebuilding 4096 tuples would mean the codec is broken).
"""

from __future__ import annotations

import gc
import json
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

try:
    from benchmarks._common import emit_table
except ImportError:  # script mode
    sys.path.insert(0, os.path.dirname(__file__))
    from _common import emit_table

from repro.core.statestore import WriteFrame
from repro.serve import frames
from repro.serve.messages import OP_WRITE

BATCH_SIZES = (64, 256, 1024, 4096)
REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_codec.json")


def make_batch(size: int, seed: int = 7):
    rng = random.Random(seed)
    return [
        (rng.randrange(1_000_000), float(rng.randrange(1000)), float(i))
        for i in range(size)
    ]


def best_rate(fn, payloads_per_call: int, iterations: int, passes: int = 3) -> float:
    """Best-of-N calls/s * payloads_per_call (GC/scheduler noise control)."""
    best = 0.0
    for _ in range(passes):
        gc.collect()
        started = time.perf_counter()
        for _ in range(iterations):
            fn()
        elapsed = time.perf_counter() - started
        if elapsed > 0:
            best = max(best, iterations * payloads_per_call / elapsed)
    return best


def bench_size(size: int, iterations: int):
    items = make_batch(size)
    request = (OP_WRITE, 1, 1, items)

    frame = WriteFrame.from_items(items)
    assert frame is not None, "bench batch failed the packing gate"
    binary_payload = frames.encode_write(1, 1, frame)
    pickle_payload = frames.encode_pickle(request)

    def pack_binary():
        frames.encode_write(1, 1, WriteFrame.from_items(items))

    def pack_pickle():
        frames.encode_pickle(request)

    def unpack_binary():
        frames.decode(binary_payload)

    def unpack_pickle():
        frames.decode(pickle_payload)

    row = {
        "batch_size": size,
        "binary_bytes_per_event": round(len(binary_payload) / size, 1),
        "pickle_bytes_per_event": round(len(pickle_payload) / size, 1),
        "pack_binary_eps": round(best_rate(pack_binary, size, iterations)),
        "pack_pickle_eps": round(best_rate(pack_pickle, size, iterations)),
        "unpack_binary_eps": round(best_rate(unpack_binary, size, iterations)),
        "unpack_pickle_eps": round(best_rate(unpack_pickle, size, iterations)),
    }
    row["pack_speedup"] = round(
        row["pack_binary_eps"] / row["pack_pickle_eps"], 2
    ) if row["pack_pickle_eps"] else 0.0
    row["unpack_speedup"] = round(
        row["unpack_binary_eps"] / row["unpack_pickle_eps"], 2
    ) if row["unpack_pickle_eps"] else 0.0
    return row


def run_bench(iterations: int = 400):
    results = []
    table_rows = []
    for size in BATCH_SIZES:
        row = bench_size(size, max(1, iterations * 256 // size))
        results.append(row)
        table_rows.append([
            str(size),
            f"{row['pack_binary_eps']:,}",
            f"{row['pack_pickle_eps']:,}",
            f"{row['pack_speedup']:.2f}x",
            f"{row['unpack_binary_eps']:,}",
            f"{row['unpack_pickle_eps']:,}",
            f"{row['unpack_speedup']:.2f}x",
            f"{row['binary_bytes_per_event']:.0f}/"
            f"{row['pickle_bytes_per_event']:.0f}",
        ])
    emit_table(
        "frame_codec",
        "Frame codec [events/s]: WriteFrame record bytes vs pickled request "
        "tuples",
        ["batch", "pack bin", "pack pkl", "x", "unpack bin", "unpack pkl",
         "x", "B/ev bin/pkl"],
        table_rows,
    )
    return results


def persist(results) -> None:
    history = []
    if os.path.exists(JSON_PATH):
        try:
            with open(JSON_PATH) as handle:
                history = json.load(handle)
        except (ValueError, OSError):
            history = []
        if not isinstance(history, list):
            history = [history]
    history.append(
        {
            "bench": "frame_codec",
            "timestamp": time.time(),
            "cpus": os.cpu_count(),
            "results": results,
        }
    )
    with open(JSON_PATH, "w") as handle:
        json.dump(history, handle, indent=2)
        handle.write("\n")


def main(argv):
    smoke = "--smoke" in argv
    results = run_bench(iterations=60 if smoke else 400)
    persist(results)
    largest = results[-1]
    print(
        f"batch {largest['batch_size']}: unpack binary "
        f"{largest['unpack_binary_eps']:,} ev/s vs pickle "
        f"{largest['unpack_pickle_eps']:,} ev/s "
        f"({largest['unpack_speedup']}x); JSON -> {JSON_PATH}"
    )
    if smoke:
        assert largest["unpack_speedup"] >= 1.0, (
            "binary frame decode lost to pickle.loads at batch "
            f"{largest['batch_size']}: {largest['unpack_speedup']}x"
        )


if __name__ == "__main__":
    main(sys.argv[1:])
