"""Server process for the serve-http workload.

Builds a durable ``Collection`` over ``sharded-sq8`` (4 shards) from the
base vectors it is handed and serves it with ``SearchServer``.  Prints
``READY <port>`` once the port accepts connections, drains and stops
when its standard input closes, then prints ``RSS <peak MB>``.

    python3 perfbench/server.py --src SRC --base BASE.npy --dir DIR --trace-rate R
"""

from __future__ import annotations

import argparse
import asyncio
import resource
import sys


async def _serve(collection, config) -> None:
    from repro import SearchServer

    server = SearchServer(collection, config=config)
    await server.start()
    print(f"READY {server.port}", flush=True)
    await asyncio.get_running_loop().run_in_executor(None, sys.stdin.read)
    await server.shutdown()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--base", required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace-rate", type=float, required=True)
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    import numpy as np
    from repro import Collection, ServerConfig, make_index

    index = make_index("sharded-sq8", n_shards=4).build(np.load(args.base))
    collection = Collection.create(args.dir, index)
    config = ServerConfig(
        max_concurrency=2, queue_limit=32, trace_sample_rate=args.trace_rate
    )
    try:
        asyncio.run(_serve(collection, config))
    finally:
        collection.close()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"RSS {peak_mb}", flush=True)


if __name__ == "__main__":
    main()
