"""The one request/reply transport every server in the package speaks.

Frames are ``multiprocessing.connection`` messages — a pickle preceded by
its byte length — behind that module's HMAC authkey handshake.  A request
is an ``(op, payload)`` pair; the reply is whatever the protocol's handler
returns (the cache and job servers answer ``(ok, result)``, the distrib
coordinator ``(kind, payload)``), so each protocol keeps its own message
shapes on one shared stack.

**Server side** (:class:`Server`): bind (``port=0`` lets the OS choose),
accept on one thread, and serve every connection on its own thread with a
recv → ``handle(op, payload)`` → send loop.  A failed handshake never kills
the accept loop.  Stateful protocols pass a ``session`` factory instead of a
plain handler: one session per connection, whose ``close()`` runs when the
connection ends (the coordinator forfeits a vanished host's runs there).
A handler returns :class:`Shutdown` to send its reply and then stop the
server.  :meth:`Server.stop` wakes the blocked accept with a raw timed
connect — not an authenticated dial, which would wait forever in the listen
backlog for a challenge nobody sends once the accept loop has exited.

**Client side** (:func:`call`): one pooled connection per
``(address, authkey)`` per process, request/reply pairs serialized by its
lock.  A send that fails reached nobody, so it is retried on a fresh dial
up to :data:`SEND_ATTEMPTS` times; a pooled socket the server already hung
up on (restart, crash) is detected before sending and redialed once; a
failure after the request went out is raised and never resent, because the
server may have acted on it.  :class:`Channel` is the same connection
outside the pool, for sessions that must own their socket.
"""

from __future__ import annotations

import os
import socket
import threading
from multiprocessing.connection import Client, Listener
from typing import Callable, NamedTuple

#: failed sends retried on a fresh dial before :func:`call` gives up (each
#: sibling ``drop`` of the pooled socket can sink at most one attempt)
SEND_ATTEMPTS = 5


class Shutdown(NamedTuple):
    """Handler return value: send ``reply``, then stop the server."""

    reply: object


class Server:
    """A listener plus a handler thread per connection.

    Give exactly one of ``handle`` (stateless: ``handle(op, payload)``) or
    ``session`` (a factory called once per connection; the returned object
    has ``handle(op, payload)`` and ``close()``).  The socket is bound on
    construction, so :attr:`address` is valid before :meth:`start`.
    """

    def __init__(
        self,
        address,
        authkey: bytes,
        handle: "Callable | None" = None,
        session: "Callable | None" = None,
    ) -> None:
        if (handle is None) == (session is None):
            raise ValueError("give exactly one of handle= or session=")
        self._handle = handle
        self._session = session
        self._listener = Listener(address, authkey=bytes(authkey))
        self.address = self._listener.address
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        self._running = False

    def start(self) -> "tuple[str, int]":
        """Run :meth:`serve_forever` on a daemon thread; returns the address."""
        threading.Thread(target=self.serve_forever, daemon=True, name="rpc-accept").start()
        return self.address

    def serve_forever(self) -> None:
        """Accept connections until :meth:`stop` (blocks the calling thread)."""
        self._running = True
        try:
            while not self._stopping.is_set():
                try:
                    connection = self._listener.accept()
                except Exception:
                    continue  # a failed handshake (or the wake-up) must not kill the loop
                if self._stopping.is_set():
                    connection.close()
                    break
                threading.Thread(
                    target=self._serve, args=(connection,), daemon=True, name="rpc-conn"
                ).start()
        finally:
            self._listener.close()
            self._stopped.set()

    def stop(self) -> None:
        """Stop accepting (idempotent); live connections are served until they close."""
        self._stopping.set()
        if not self._running:
            self._listener.close()
            return
        try:
            socket.create_connection(self.address, timeout=2.0).close()
        except OSError:
            pass
        self._stopped.wait(10.0)

    def _serve(self, connection) -> None:
        session = self._session() if self._session is not None else None
        handle = session.handle if session is not None else self._handle
        try:
            while True:
                try:
                    request = connection.recv()
                except (EOFError, OSError):
                    return
                try:
                    op, payload = request
                except (TypeError, ValueError):
                    op, payload = request, None  # answered as an unknown op
                reply = handle(op, payload)
                shutdown = isinstance(reply, Shutdown)
                try:
                    connection.send(reply.reply if shutdown else reply)
                except (OSError, ValueError):
                    return
                if shutdown:
                    self.stop()
                    return
        finally:
            connection.close()
            if session is not None:
                session.close()


class Channel:
    """One authenticated connection; :meth:`call` is one request/reply."""

    def __init__(self, address, authkey: bytes) -> None:
        self.connection = Client(address, authkey=bytes(authkey))
        self.lock = threading.Lock()

    def call(self, op: str, payload=None):
        with self.lock:
            self.connection.send((op, payload))
            return self.connection.recv()

    def close(self) -> None:
        # Wait (bounded) for a request in flight so its reply is not cut off.
        acquired = self.lock.acquire(timeout=10.0)
        try:
            self.connection.close()
        except OSError:
            pass
        finally:
            if acquired:
                self.lock.release()


_CONNECTIONS: "dict[tuple, Channel]" = {}
_CONNECTIONS_GUARD = threading.Lock()


def _pool_key(address, authkey: bytes) -> tuple:
    host_port = tuple(address) if isinstance(address, (list, tuple)) else address
    return (host_port, bytes(authkey))


def _pooled(key: tuple, address, authkey: bytes) -> Channel:
    """The pooled channel for ``key``, dialing outside the guard on a miss.

    A slow or black-holed server must not stall every thread's traffic to
    healthy servers while the OS connect times out; a lost race closes the
    extra socket.
    """
    with _CONNECTIONS_GUARD:
        channel = _CONNECTIONS.get(key)
    if channel is not None:
        return channel
    dialed = Channel(address, authkey)
    with _CONNECTIONS_GUARD:
        channel = _CONNECTIONS.setdefault(key, dialed)
    if channel is not dialed:
        dialed.connection.close()
    return channel


def _discard(key: tuple, channel: Channel) -> None:
    """Forget ``channel`` (caller holds its lock) unless a redial replaced it."""
    with _CONNECTIONS_GUARD:
        if _CONNECTIONS.get(key) is channel:
            del _CONNECTIONS[key]
    try:
        channel.connection.close()
    except OSError:
        pass


def _hung_up(connection) -> bool:
    """True when an idle pooled socket is readable: the peer closed it."""
    try:
        return connection.poll(0)
    except (OSError, ValueError):
        return True


def call(address, authkey: bytes, op: str, payload=None):
    """Send ``(op, payload)`` over the pooled connection; return the reply.

    Connection failures surface as :class:`OSError`/:class:`EOFError` once
    the retry rules in the module docstring are exhausted.
    """
    key = _pool_key(address, authkey)
    failed_sends = 0
    redialed = False
    while True:
        channel = _pooled(key, address, authkey)
        with channel.lock:
            if not redialed and _hung_up(channel.connection):
                _discard(key, channel)
                redialed = True
                continue
            try:
                channel.connection.send((op, payload))
            except OSError:
                _discard(key, channel)
                failed_sends += 1
                if failed_sends >= SEND_ATTEMPTS:
                    raise
                continue
            try:
                return channel.connection.recv()
            except (EOFError, OSError):
                _discard(key, channel)
                raise


def drop(address, authkey: bytes) -> None:
    """Close this process's pooled connection to ``address`` (if any)."""
    with _CONNECTIONS_GUARD:
        channel = _CONNECTIONS.pop(_pool_key(address, authkey), None)
    if channel is not None:
        channel.close()


def drain_connection_pool() -> int:
    """Close every pooled connection this process holds; returns the count.

    A long-lived process that outlives many runs against different servers
    (a host agent serving run after run) calls this between runs so dead
    servers' sockets don't accumulate.  Each close waits for the request in
    flight on that socket; the next request simply redials.
    """
    with _CONNECTIONS_GUARD:
        channels = list(_CONNECTIONS.values())
        _CONNECTIONS.clear()
    for channel in channels:
        channel.close()
    return len(channels)


def _forget_pool_in_child() -> None:
    """A forked child must not share its parent's sockets (interleaved frames)."""
    global _CONNECTIONS_GUARD
    _CONNECTIONS_GUARD = threading.Lock()
    for channel in _CONNECTIONS.values():
        try:
            channel.connection.close()  # the child's fd copy only
        except OSError:
            pass
    _CONNECTIONS.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool_in_child)
