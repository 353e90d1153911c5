"""``repro-serve``: the async experiment service front end.

Starts the HTTP service over the run engine: clients POST sweeps of
(workload, config, scale, backend) jobs, stream per-job progress as
JSONL, and GET results from the shared content-addressed store.

    repro-serve --port 8731 --cache-dir service-cas --workers 2
    repro-serve --port 0             # pick a free port, print it

The engine flags are the same shared set every repro CLI accepts
(:mod:`repro.exec.cli`); the one service twist is that ``--cache-dir``
defaults to ``service-cas``, because a multi-tenant service without a
shared store would re-simulate every popular job per tenant.  Pass an
``--obs-out`` directory to have every fresh simulation leave an obs
manifest *and* stream its records to progress subscribers.

Startup prints ``serving on http://HOST:PORT`` to **stderr** (stdout
stays machine-parseable: it carries exactly one line, the bound URL,
so scripts can capture it).
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys

from repro.exec.cli import (
    add_engine_arguments,
    context_from_args,
    validate_engine_args,
)
from repro.service.http import HttpFrontend
from repro.service.service import ExperimentService


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve simulation sweeps over HTTP: typed "
                    "submissions, request coalescing, a shared sharded "
                    "result store, and queue backpressure.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8731,
                        help="TCP port (default 8731; 0 = pick a free "
                             "port and print it)")
    parser.add_argument("--queue-limit", type=int, default=64,
                        metavar="N",
                        help="admission queue bound: submissions whose "
                             "new jobs would exceed it get a typed 429 "
                             "with queue depth and retry-after "
                             "(default 64)")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="runner threads draining the queue; each "
                             "runs one job at a time through the "
                             "engine, so total parallelism is "
                             "workers x --jobs (default 2)")
    parser.add_argument("--obs-out", default=None, metavar="DIR",
                        help="write an observability run manifest for "
                             "every fresh simulation into DIR and "
                             "stream its records to progress "
                             "subscribers")
    parser.add_argument("--journal-dir", default="service-journal",
                        metavar="DIR",
                        help="durable sweep journal directory: admitted "
                             "work is WAL'd here and resumed after a "
                             "crash or restart (default "
                             "service-journal)")
    parser.add_argument("--no-journal", action="store_true",
                        help="disable the sweep journal: in-flight "
                             "sweeps are lost on restart")
    parser.add_argument("--breaker-threshold", type=int, default=5,
                        metavar="N",
                        help="consecutive worker crashes that trip the "
                             "circuit breaker (typed 503 until the "
                             "cooldown lapses; default 5)")
    parser.add_argument("--breaker-cooldown", type=float, default=30.0,
                        metavar="SECONDS",
                        help="circuit breaker cooldown (default 30)")
    add_engine_arguments(parser)
    parser.set_defaults(cache_dir="service-cas")
    return parser


async def _serve(args: argparse.Namespace,
                 service: ExperimentService) -> int:
    frontend = HttpFrontend(service, args.host, args.port)
    host, port = await frontend.start()
    url = f"http://{host}:{port}"
    print(f"serving on {url} (queue limit {service.queue_limit}, "
          f"{service.workers} workers, cache {service.ctx.cache_dir}, "
          f"backend {service.ctx.backend})", file=sys.stderr, flush=True)
    print(url, flush=True)
    loop = asyncio.get_running_loop()
    drain_requested = asyncio.Event()
    try:
        # SIGTERM = graceful drain: flip readiness false, park queued
        # work in the journal, finish in-flight jobs, exit clean.
        loop.add_signal_handler(signal.SIGTERM, drain_requested.set)
    except (NotImplementedError, RuntimeError):
        pass                            # non-unix / nested loop
    serve_task = asyncio.ensure_future(frontend.serve_forever())
    drain_task = asyncio.ensure_future(drain_requested.wait())
    try:
        await asyncio.wait({serve_task, drain_task},
                           return_when=asyncio.FIRST_COMPLETED)
        if drain_requested.is_set():
            print("SIGTERM: draining (readiness false, parking queued "
                  "work, finishing in-flight jobs)", file=sys.stderr,
                  flush=True)
            summary = await loop.run_in_executor(None, service.drain)
            print(f"drained: {summary['parked']} parked, "
                  f"{summary['done']} terminal", file=sys.stderr,
                  flush=True)
    except asyncio.CancelledError:
        pass
    finally:
        for task in (serve_task, drain_task):
            task.cancel()
        await asyncio.gather(serve_task, drain_task,
                             return_exceptions=True)
        await frontend.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    validate_engine_args(parser, args)
    if args.queue_limit < 1:
        parser.error("--queue-limit must be >= 1")
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.no_cache:
        # Legal (a pure compute service), but every submission then
        # re-simulates; the operator should have asked for it on
        # purpose.
        print("note: --no-cache disables the shared store; every "
              "sweep will simulate fresh", file=sys.stderr)
        args.cache_dir = None
    if args.breaker_threshold < 1:
        parser.error("--breaker-threshold must be >= 1")
    ctx = context_from_args(args, obs_dir=args.obs_out)
    journal_dir = None if args.no_journal else args.journal_dir
    service = ExperimentService(ctx, queue_limit=args.queue_limit,
                                workers=args.workers,
                                journal_dir=journal_dir,
                                breaker_threshold=args.breaker_threshold,
                                breaker_cooldown=args.breaker_cooldown,
                                ).start()
    try:
        return asyncio.run(_serve(args, service))
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
        return 0
    finally:
        service.shutdown()


if __name__ == "__main__":
    sys.exit(main())
