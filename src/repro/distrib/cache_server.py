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

from repro.perf.shared_cache import (
    BackendSpec,
    _serve_cache,
    server_store_spec,
    spawn_cache_server,
    tcp_cache_authkey,
)

#: the store a cache server serves when not told otherwise
DEFAULT_SERVER_STORE = "local:?maxsize=4096"


def start_tcp_cache_server(
    host: str = "127.0.0.1",
    port: int = 0,
    authkey: "bytes | None" = None,
    cache: "str | BackendSpec" = DEFAULT_SERVER_STORE,
):
    """Spawn a cache-server process; returns ``(process, (host, port))``.

    ``port=0`` lets the OS pick a free port (the returned address has the
    real one).  The process is a daemon: it dies with its parent unless the
    parent outlives the runs it serves.  Terminate it (or send the protocol
    ``shutdown`` op) to stop it; there is no owning backend handle.

    ``cache`` is the ``local:`` spec of the served store (see
    ``docs/caching.md``; an unset ``maxsize`` is the 512-entry store
    default).  Its ``store=PATH`` makes the server crash-safe
    across restarts: it reloads the on-disk corpus before binding (a damaged
    file degrades to its intact prefix with a note, never a crash) and
    snapshots it on shutdown or SIGTERM; ``flush_every=N`` bounds how many
    puts a SIGKILL can lose.
    """
    return spawn_cache_server(
        host,
        port,
        authkey if authkey is not None else tcp_cache_authkey(),
        cache,
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
        default=DEFAULT_SERVER_STORE,
        metavar="SPEC",
        help="spec of the store this server serves, "
        "'local:?store=PATH&flush_every=N&maxsize=N' (default: %(default)s; "
        "an unset maxsize is 512)",
    )
    parser.add_argument(
        "--authkey", default=None, help="connection authkey (default: $REPRO_CACHE_AUTHKEY)"
    )
    args = parser.parse_args(argv)
    try:
        store_spec = server_store_spec(args.cache)
    except (ValueError, TypeError) as error:
        parser.error(str(error))
    key = args.authkey.encode() if args.authkey else tcp_cache_authkey()
    print(
        f"[cache-server] serving {store_spec.canonical} on {args.host}:{args.port}; "
        f"url tcp://{args.host}:{args.port}",
        flush=True,
    )
    # Blocks until a client sends the protocol ``shutdown`` op (or the
    # process is killed); every client connection gets a handler thread.
    _serve_cache(None, key, store_spec, (args.host, args.port))
    print("[cache-server] shut down")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
