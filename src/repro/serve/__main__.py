"""``python -m repro.serve`` — run the campaign service from the shell.

Example::

    python -m repro.serve --port 8077 --cache-dir serve-cache \\
        --trace serve-trace.jsonl --workers 4

The process prints one readiness line (``[serve] listening on ...``) once
the socket is bound — scripts and CI wait for it — then serves until
interrupted (SIGINT/SIGTERM), answering pooled and in-flight misses on
the way out.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import os
import signal
import sys

from .service import DEFAULT_PORT, CampaignService
from .trace import TraceError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve campaign requests over JSON/HTTP with a "
                    "content-addressed result cache, request coalescing "
                    "and a replayable workload trace.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"bind port; 0 picks a free one "
                             f"(default: {DEFAULT_PORT})")
    parser.add_argument("--cache-dir", default="serve-cache",
                        help="content-addressed result cache directory "
                             "(default: ./serve-cache)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="append every request to this JSONL workload "
                             "trace (default: no trace)")
    parser.add_argument("--workers", type=int, default=None,
                        help="executor pool size (default: min(4, cpus))")
    parser.add_argument("--cache-max-entries", type=int, default=None,
                        metavar="N",
                        help="evict least-recently-used cache entries "
                             "beyond this count (default: unbounded)")
    parser.add_argument("--cache-max-bytes", type=int, default=None,
                        metavar="N",
                        help="evict least-recently-used cache entries "
                             "beyond this total size (default: unbounded)")
    return parser


async def _serve(args: argparse.Namespace) -> int:
    service = CampaignService(
        args.cache_dir, trace_path=args.trace, workers=args.workers,
        cache_max_entries=args.cache_max_entries,
        cache_max_bytes=args.cache_max_bytes)
    await service.start(args.host, args.port)
    # Handlers first: a SIGTERM sent on the readiness line must drain.
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):  # non-POSIX loops
            loop.add_signal_handler(signum, stop.set)
    print(f"[serve] listening on http://{service.host}:{service.port} "
          f"(cache: {service.cache.root}, workers: {service.workers})",
          flush=True)
    try:
        await stop.wait()
    finally:
        await service.stop()
    print("[serve] stopped", flush=True)
    return 0


def main(argv=None) -> int:
    # No repro module calls BLAS (no dot, matmul or linalg), so the thread
    # pool OpenBLAS starts when numpy loads is start-up cost only.  This
    # module's imports load no numpy, so this runs before anything does; a
    # value the user set wins, and every process this one spawns inherits it.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    if args.workers is not None and args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if not 0 <= args.port <= 65535:
        print("error: --port must be in 0..65535", file=sys.stderr)
        return 2
    for name in ("cache_max_entries", "cache_max_bytes"):
        value = getattr(args, name)
        if value is not None and value < 1:
            flag = "--" + name.replace("_", "-")
            print(f"error: {flag} must be >= 1", file=sys.stderr)
            return 2
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:  # signal handlers unavailable (rare)
        return 0
    except (OSError, TraceError) as exc:  # bind failure, unusable trace
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
