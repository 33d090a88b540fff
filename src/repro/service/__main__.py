"""``python -m repro.service`` — run a verification hub or satellite.

Hub mode (the default) prints ``serving on http://HOST:PORT`` once the
socket is bound (with ``--port 0`` the kernel picks the port, so callers
— the CI smoke job, the e2e tests — parse it from this line), then
serves until interrupted.

Satellite mode (``--satellite http://hub:port``) prints
``satellite WORKER_ID polling URL`` and pulls leased jobs from the hub
until interrupted; it needs no local state directories at all.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading

from repro.service.app import ServiceConfig, VerificationService


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="HTTP verification service over the repro façade",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8765,
                        help="0 binds an ephemeral port (printed on start)")
    parser.add_argument("--workers", type=int, default=2,
                        help="solver processes in the pool")
    parser.add_argument("--queue-dir", default=None,
                        help="persistent job journal directory (hub mode)")
    parser.add_argument("--cache-dir", default=None,
                        help="content-addressed result cache directory "
                             "(hub mode)")
    parser.add_argument("--token", default=None,
                        help="require 'Authorization: Bearer <token>'")
    parser.add_argument("--rate-limit", type=float, default=0.0,
                        help="requests/second per client (0 = unlimited)")
    parser.add_argument("--burst", type=int, default=20,
                        help="rate-limit bucket capacity per client")
    parser.add_argument("--max-attempts", type=int, default=3,
                        help="attempts before a stalling job is parked")
    parser.add_argument("--task-timeout", type=float, default=120.0,
                        help="pool stall bound in seconds")
    parser.add_argument("--no-local-dispatch", action="store_true",
                        help="hub coordinates only: sweep leases and "
                             "accept results, never solve locally")
    parser.add_argument("--metrics-json", default=None,
                        help="write a final /v1/metrics snapshot here on "
                             "shutdown (BENCH-style artifact)")
    satellite = parser.add_argument_group(
        "satellite mode", "pull leased jobs from a remote hub instead "
        "of serving")
    satellite.add_argument("--satellite", metavar="HUB_URL", default=None,
                           help="run as a satellite worker against this "
                                "hub (no local directories needed)")
    satellite.add_argument("--worker-id", default=None,
                           help="satellite worker id (default: generated)")
    satellite.add_argument("--claim-limit", type=int, default=2,
                           help="jobs leased per claim request")
    satellite.add_argument("--lease-seconds", type=float, default=30.0,
                           help="lease duration; heartbeats renew it at "
                                "a third of this")
    satellite.add_argument("--poll-interval", type=float, default=0.25,
                           help="idle re-poll delay in seconds")
    return parser


def _run_satellite(args) -> int:
    # Imported here so hub mode never pays for it (and vice versa).
    from repro.service.satellite import SatelliteWorker

    worker = SatelliteWorker(
        args.satellite,
        worker_id=args.worker_id,
        token=args.token,
        claim_limit=args.claim_limit,
        lease_seconds=args.lease_seconds,
        poll_interval=args.poll_interval,
    )
    print(f"satellite {worker.worker_id} polling {args.satellite}",
          flush=True)
    try:
        worker.run()
    except KeyboardInterrupt:
        worker.stop()
    print(f"satellite {worker.worker_id} stats: "
          f"{json.dumps(worker.stats.snapshot(), sort_keys=True)}",
          flush=True)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.satellite is not None:
        return _run_satellite(args)
    if args.queue_dir is None or args.cache_dir is None:
        parser.error("hub mode requires --queue-dir and --cache-dir "
                     "(or pass --satellite HUB_URL)")
    service = VerificationService(ServiceConfig(
        queue_dir=args.queue_dir,
        cache_dir=args.cache_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        token=args.token,
        rate_limit=args.rate_limit,
        burst=args.burst,
        max_attempts=args.max_attempts,
        task_timeout=args.task_timeout,
        local_dispatch=not args.no_local_dispatch,
    ))
    service.start()
    print(f"serving on {service.url}", flush=True)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        from repro.analysis.report import (
            render_service_table,
            write_service_json,
        )

        snapshot = service.metrics_body()
        service.stop()
        print(render_service_table(snapshot), flush=True)
        if args.metrics_json:
            write_service_json(snapshot, args.metrics_json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
