"""The server process of serve-mix.

Runs ``build_app(backend="pool", jobs=N)`` on an ephemeral port and
prints ``{"port": P}`` once it listens.  SIGTERM drains it through the
server's own handler; when traced, it then prints one report line with
the spans and collector pauses recorded around the serve and exec
layers.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from measure import GcMeter, Tracer, export_spans


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    from repro.serve import build_app

    tracer = meter = None
    if args.trace:
        from layers import install_serve

        tracer = Tracer()
        install_serve(tracer)
        meter = GcMeter().install()
    app = build_app(backend="pool", jobs=args.jobs, cache_dir=args.cache_dir)

    async def serve() -> None:
        await app.start()
        app.install_signal_handlers()
        print(json.dumps({"port": app.address[1]}), flush=True)
        await app.serve_until_stopped()

    asyncio.run(serve())
    if tracer is not None:
        print(json.dumps({"spans": export_spans(tracer.take()),
                          "gc": meter.events}), flush=True)


if __name__ == "__main__":
    main()
