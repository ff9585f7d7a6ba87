"""The optimization job server: one listener, one scheduler, many tenants.

:class:`JobServer` listens on an ``AF_INET`` :mod:`repro.rpc` server (the
package's one transport — length-prefixed pickle frames, HMAC authkey
handshake, exactly like the distrib coordinator and the cache servers) and
answers the
:mod:`repro.serve.protocol` ops.  A dedicated scheduler thread drives
:meth:`~repro.serve.scheduler.JobScheduler.tick` — one
``PortfolioRun.step_round`` quantum per tick, granted to the live job with
the smallest weighted-fair virtual time — while per-connection handler
threads serve requests; both sides serialize on one lock, so a status poll
sees a consistent snapshot between quanta and never mid-round.

Every received request is answered — malformed ops and handler exceptions
come back as ``(False, message)`` and are counted in ``requests_failed``,
never silently dropped — which is what lets the CI smoke gate assert
``requests_dropped == 0``.
"""

from __future__ import annotations

import threading
import time

from repro import rpc
from repro.serve.protocol import JobSpec, serve_authkey
from repro.serve.scheduler import JobScheduler

#: how long the scheduler thread sleeps, off-lock, when no job is runnable
IDLE_SLEEP_S = 0.01


class JobServer:
    """Serve anytime circuit-optimization jobs over the wire.

    ``cache`` is a backend spec (see :func:`repro.perf.parse_backend_spec`)
    for the one resynthesis store all jobs — every tenant — share; pass a
    ``tcp://`` spec to share it with other processes and machines too.
    ``tenant_step_budgets`` maps tenant name to a total iteration allowance
    across that tenant's jobs.  Use as a context manager or call
    :meth:`start` / :meth:`stop` explicitly.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        authkey: "bytes | None" = None,
        policy: str = "fair",
        cache: "str | None" = None,
        tenant_step_budgets: "dict[str, int] | None" = None,
        max_resident: int = 8,
    ) -> None:
        self.host = host
        self.port = port
        self.authkey = bytes(authkey) if authkey is not None else serve_authkey()
        self.scheduler = JobScheduler(
            policy=policy,
            cache=cache,
            tenant_step_budgets=tenant_step_budgets,
            max_resident=max_resident,
        )
        self.lock = threading.RLock()
        self._counters = threading.Lock()
        self.requests_received = 0
        self.requests_served = 0
        self.requests_failed = 0
        self._rpc: "rpc.Server | None" = None
        self._address: "tuple[str, int] | None" = None
        self._stop = threading.Event()
        self._scheduler_thread: "threading.Thread | None" = None
        self._started = False

    # -- lifecycle ------------------------------------------------------------

    @property
    def address(self) -> "tuple[str, int]":
        if self._address is None:
            raise RuntimeError("server is not listening (call start())")
        return self._address

    def start(self) -> "tuple[str, int]":
        """Bind, spawn the accept and scheduler threads; returns the address."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        self._rpc = rpc.Server((self.host, self.port), self.authkey, handle=self._answer)
        host, port = self._rpc.start()
        self._address = (str(host), int(port))
        self._scheduler_thread = threading.Thread(
            target=self._scheduler_loop, daemon=True, name="serve-scheduler"
        )
        self._scheduler_thread.start()
        return self._address

    def __enter__(self) -> "JobServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stop(self) -> None:
        """Stop accepting, drain the scheduler, finalize anytime results."""
        if self._stop.is_set():
            return
        self._stop.set()
        if self._rpc is not None:
            self._rpc.stop()
        if self._scheduler_thread is not None:
            self._scheduler_thread.join(timeout=30.0)
        with self.lock:
            self.scheduler.close()

    # -- scheduler thread ------------------------------------------------------

    def _scheduler_loop(self) -> None:
        while not self._stop.is_set():
            with self.lock:
                ran = self.scheduler.tick()
            if not ran:
                # Nothing runnable: sleep off-lock so submits are never
                # starved by an idle spin.
                time.sleep(IDLE_SLEEP_S)

    # -- connection handling ---------------------------------------------------

    def _answer(self, op, payload):
        """Answer one request: ``(True, result)`` or ``(False, message)``."""
        with self._counters:
            self.requests_received += 1
        try:
            result = self._dispatch(str(op), payload)
        except Exception as error:  # noqa: BLE001 - always answer
            with self._counters:
                self.requests_failed += 1
            return False, f"{type(error).__name__}: {error}"
        with self._counters:
            self.requests_served += 1
        if op == "shutdown":
            threading.Thread(target=self.stop, daemon=True).start()
        return True, result

    def _dispatch(self, op: str, payload):
        if op == "ping":
            return "pong"
        if op == "shutdown":
            return "bye"
        with self.lock:
            if op == "submit":
                if not isinstance(payload, JobSpec):
                    raise TypeError(f"submit takes a JobSpec, got {type(payload).__name__}")
                return self.scheduler.submit(payload)
            if op == "status":
                return self.scheduler.status(str(payload))
            if op == "result":
                return self.scheduler.result(str(payload))
            if op == "incumbents":
                job_id, since_seq = payload
                return self.scheduler.incumbents(str(job_id), int(since_seq))
            if op == "cancel":
                return self.scheduler.cancel(str(payload))
            if op == "jobs":
                return self.scheduler.statuses(payload)
            if op == "stats":
                # This very request is still in flight (received, not yet
                # answered); without the correction every stats reply would
                # report itself as dropped.
                return self.stats(in_flight=1)
        raise ValueError(f"unknown op {op!r}")

    # -- accounting ------------------------------------------------------------

    def stats(self, in_flight: int = 0) -> dict:
        """Server counters plus the scheduler's job/tenant accounting."""
        answered = self.requests_served + self.requests_failed + in_flight
        stats = {
            "requests_received": self.requests_received,
            "requests_served": self.requests_served,
            "requests_failed": self.requests_failed,
            # In-flight requests are still being answered; at quiesce this
            # is exactly received - answered, the smoke gate's zero check.
            "requests_dropped": max(0, self.requests_received - answered),
            "policy": self.scheduler.policy,
        }
        stats.update(self.scheduler.stats())
        return stats


__all__ = ["JobServer"]
