"""Standalone TCP resynthesis-cache server for multi-host clusters.

``python -m repro.distrib.cache_server --port 8799`` serves one
:class:`~repro.perf.shared_cache._BucketStore` over :mod:`repro.rpc` on an
``AF_INET`` socket — the server a
:class:`~repro.perf.shared_cache.TcpCacheBackend` client dials.  Run one near
your host agents, then point every portfolio at
``share_resynthesis_cache="tcp://host:port"``.

Unlike the server a ``server:`` spec spawns for one run, a network cache
server's lifetime deliberately spans many runs and many hosts: a warm store
keeps serving synthesis results to tomorrow's runs.  Stop it by killing the
process (or sending the protocol ``shutdown`` op).

:func:`start_tcp_cache_server` is the in-process spawn helper tests and
examples use to get an ephemeral-port server with a handle to tear down.
"""

from __future__ import annotations

import argparse

from repro.perf.persist import DEFAULT_FLUSH_INTERVAL
from repro.perf.shared_cache import (
    _serve_cache,
    parse_backend_spec,
    spawn_cache_server,
    tcp_cache_authkey,
)


def start_tcp_cache_server(
    host: str = "127.0.0.1",
    port: int = 0,
    authkey: "bytes | None" = None,
    maxsize: int = 4096,
    match_epsilon: float = 1e-9,
    start_timeout: float = 30.0,
    store_path=None,
    flush_interval: int = DEFAULT_FLUSH_INTERVAL,
):
    """Spawn a cache-server process; returns ``(process, (host, port))``.

    ``port=0`` lets the OS pick a free port (the returned address has the
    real one).  The process is a daemon: it dies with its parent unless the
    parent outlives the runs it serves.  Terminate it (or send the protocol
    ``shutdown`` op) to stop it; there is no owning backend handle.

    ``store_path`` makes the server crash-safe across restarts: it reloads
    the on-disk corpus before binding (a damaged file degrades to its intact
    prefix with a note, never a crash) and snapshots it on shutdown or
    SIGTERM; ``flush_interval`` bounds how many puts a SIGKILL can lose.
    """
    return spawn_cache_server(
        host,
        port,
        authkey if authkey is not None else tcp_cache_authkey(),
        maxsize,
        match_epsilon,
        store_path=store_path,
        flush_interval=flush_interval,
        start_timeout=start_timeout,
    )


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.distrib.cache_server",
        description="Serve a shared resynthesis cache over TCP for multi-host portfolios.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="address to bind (0.0.0.0 for LAN)")
    parser.add_argument("--port", type=int, required=True, help="port to bind")
    parser.add_argument(
        "--cache",
        default=None,
        metavar="SPEC",
        help="spec of the store this server serves, e.g. "
        "'local:?store=PATH&flush_every=N&maxsize=N' — the spec's query "
        "values override --maxsize/--match-epsilon",
    )
    parser.add_argument("--maxsize", type=int, default=4096, help="entry bound of the LRU store")
    parser.add_argument("--match-epsilon", type=float, default=1e-9)
    parser.add_argument(
        "--authkey", default=None, help="connection authkey (default: $REPRO_CACHE_AUTHKEY)"
    )
    args = parser.parse_args(argv)
    maxsize = args.maxsize
    match_epsilon = args.match_epsilon
    store_path = None
    flush_interval = DEFAULT_FLUSH_INTERVAL
    if args.cache:
        try:
            spec = parse_backend_spec(args.cache)
        except (ValueError, TypeError) as error:
            parser.error(str(error))
        if spec.kind != "local":
            parser.error(
                f"--cache {args.cache!r}: a cache server serves a local store; "
                "pass a 'local:' spec (clients dial it as tcp://)"
            )
        maxsize = spec.maxsize if spec.maxsize is not None else maxsize
        match_epsilon = spec.match_epsilon if spec.match_epsilon is not None else match_epsilon
        store_path = spec.store_path
        if spec.flush_interval is not None:
            flush_interval = spec.flush_interval
    key = args.authkey.encode() if args.authkey else tcp_cache_authkey()
    store_note = f"; store {store_path}" if store_path else ""
    print(
        f"[cache-server] serving on {args.host}:{args.port} "
        f"(maxsize {maxsize}){store_note}; url tcp://{args.host}:{args.port}",
        flush=True,
    )
    # Blocks until a client sends the protocol ``shutdown`` op (or the
    # process is killed); every client connection gets a handler thread.
    _serve_cache(
        None,
        key,
        maxsize,
        match_epsilon,
        (args.host, args.port),
        store_path,
        flush_interval,
    )
    print("[cache-server] shut down")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
