"""Host process of ``gateway_fanout``: a one-shard in-process
``EAGrServer`` behind a ``GatewayServer``, in a process of its own so the
load generator does not share the gateway's interpreter lock.

    python3 gateway_host.py --seed N [--smoke]

Builds the same inputs as the runner (same generator, same seed), prints
one JSON line with the listening address, then waits for a line (or end
of file) on standard input; it answers with one JSON line of server
statistics and closes gateway → server.  SIGTERM takes the same exit.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    from repro import DynamicGraph
    from repro.serve import EAGrServer, GatewayServer

    from suitelib import gen
    from suitelib.harness import ENGINE_OPTS, make_frequencies, make_query

    def on_term(_signo, _frame):
        raise SystemExit(143)

    signal.signal(signal.SIGTERM, on_term)

    spec = (gen.SMOKE_SPECS if args.smoke else gen.SPECS)["gateway_fanout"]
    inputs = gen.generate(spec, args.seed)
    server = EAGrServer(
        DynamicGraph.from_edges(inputs.edges),
        make_query(spec.window),
        num_shards=1,
        executor="inprocess",
        frequencies=make_frequencies(inputs),
        **ENGINE_OPTS,
    )
    try:
        gateway = GatewayServer(server)
        try:
            host, port = gateway.start()
            print(json.dumps({"host": host, "port": port}), flush=True)
            sys.stdin.readline()
            print(json.dumps({"stats": server.server_stats(), "wal": server.metrics()["wal"]},
                             default=str), flush=True)
        finally:
            gateway.close()
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
