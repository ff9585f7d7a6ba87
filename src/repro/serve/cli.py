"""Command line for the optimization job service.

``python -m repro.serve.cli`` subcommands::

    serve    run a job server until a client sends ``shutdown``
    submit   submit one builtin-generator circuit; prints the job id
    status   poll (or watch) a job by id
    cancel   cancel a job by id
    smoke    self-contained end-to-end check for CI: an in-process server,
             N concurrent jobs over one shared tcp cache, gates on
             cross-job cache reuse and zero dropped requests

Flag conventions match the rest of the repo: ``--connect HOST:PORT`` to
dial a server, ``--cache SPEC`` with the :func:`repro.perf.parse_backend_spec`
grammar, ``--emit-bench PATH`` for a ``check_regression.py``-compatible
json.  Submitted circuits are named no-argument generators from
:mod:`repro.suite.generators` (the ``builtin`` suite convention) — library
users submit arbitrary circuits through :class:`repro.serve.JobClient`.
"""

from __future__ import annotations

import argparse
import json
import time

from repro.parallel.portfolio import settings_from_args
from repro.serve.client import JobClient
from repro.serve.protocol import SCHEDULER_POLICIES, JobSpec, serve_authkey
from repro.serve.server import JobServer

_CACHE_SPEC_HELP = (
    "shared resynthesis cache backend spec, e.g. 'local:?store=PATH', 'server:', "
    "or 'tcp://HOST:PORT' (see docs/serving.md for the grammar)"
)


def _parse_connect(value: str) -> "tuple[str, int]":
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(f"--connect must be HOST:PORT, got {value!r}")
    return host, int(port)


def _build_circuit(name: str):
    from repro.suite import generators as suite_generators

    generator = getattr(suite_generators, name, None)
    if generator is None or not callable(generator):
        raise SystemExit(f"unknown builtin generator {name!r} (see repro.suite.generators)")
    return generator()


def _client(args) -> JobClient:
    host, port = args.connect
    authkey = args.authkey.encode() if args.authkey else None
    return JobClient(host, port, authkey=authkey)


def _add_connect(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--connect",
        required=True,
        type=_parse_connect,
        metavar="HOST:PORT",
        help="job server address",
    )
    parser.add_argument(
        "--authkey", default=None, help="connection authkey (default: $REPRO_SERVE_AUTHKEY)"
    )


def _spec_from_args(args, circuit) -> JobSpec:
    return JobSpec(
        circuit=circuit,
        name=args.name or args.circuit,
        seed=args.seed,
        tenant=args.tenant,
        deadline=args.deadline,
        weight=args.weight,
        **settings_from_args(args),
    )


def _cmd_serve(args) -> int:
    budgets = {}
    for entry in args.tenant_budget or ():
        tenant, _, amount = entry.partition("=")
        if not tenant or not amount.isdigit():
            raise SystemExit(f"--tenant-budget must be TENANT=ITERATIONS, got {entry!r}")
        budgets[tenant] = int(amount)
    server = JobServer(
        host=args.host,
        port=args.port,
        authkey=args.authkey.encode() if args.authkey else None,
        policy=args.policy,
        cache=args.cache,
        tenant_step_budgets=budgets or None,
        max_resident=args.max_resident,
    )
    address = server.start()
    print(
        f"[serve] listening on {address[0]}:{address[1]} "
        f"(policy {args.policy}, cache {args.cache or 'private'}); "
        f"connect with --connect {address[0]}:{address[1]}",
        flush=True,
    )
    try:
        # Runs until a client sends the protocol ``shutdown`` op (which
        # trips stop()) or the operator interrupts.
        while not server._stop.wait(timeout=1.0):
            pass
    except KeyboardInterrupt:
        server.stop()
    print("[serve] shut down")
    return 0


def _cmd_submit(args) -> int:
    spec = _spec_from_args(args, _build_circuit(args.circuit))
    with _client(args) as client:
        job_id = client.submit(spec)
        print(job_id)
        if args.wait:
            status, result = client.result(job_id, timeout=args.wait_timeout)
            _print_status(status)
            if result is not None:
                print(
                    f"[{job_id}] {result.initial_cost:g} -> {result.best_cost:g} "
                    f"({result.cost_reduction:.0%}) in {result.total_iterations} iterations"
                )
            return 0 if status.state == "done" else 1
    return 0


def _print_status(status) -> None:
    best = "n/a" if status.best_cost is None else f"{status.best_cost:g}"
    print(
        f"[{status.job_id}] {status.state} (tenant {status.tenant}): best {best}, "
        f"{status.iterations} iterations over {status.quanta} quanta, "
        f"{status.incumbents} incumbent(s)"
        + (f" — {status.message}" if status.message else "")
    )


def _cmd_status(args) -> int:
    with _client(args) as client:
        while True:
            status = client.status(args.job_id)
            _print_status(status)
            if not args.watch or status.terminal:
                return 0 if status.state != "failed" else 1
            time.sleep(args.poll)


def _cmd_cancel(args) -> int:
    with _client(args) as client:
        cancelled = client.cancel(args.job_id)
    print(f"[{args.job_id}] {'cancelled' if cancelled else 'already terminal'}")
    return 0


def _cmd_smoke(args) -> int:
    """N concurrent jobs, one shared cache, hard gates — the CI entry point."""
    from repro.perf.report import PerfReport

    cache_server = None
    cache_spec = args.cache
    if cache_spec is None:
        from repro.distrib.cache_server import start_tcp_cache_server

        cache_server, cache_address = start_tcp_cache_server()
        cache_spec = f"tcp://{cache_address[0]}:{cache_address[1]}"
        print(f"[smoke] started cache server at {cache_spec}")
    started = time.monotonic()
    server = JobServer(
        policy=args.policy,
        cache=cache_spec,
        max_resident=max(args.jobs, 1),
        authkey=serve_authkey(),
    )
    address = server.start()
    exit_code = 0
    try:
        client = JobClient(address=address)
        circuit = _build_circuit(args.circuit)
        job_ids = []
        for index in range(args.jobs):
            # Same circuit, different tenants and seeds: every job resolves
            # the same resynthesis keys, so whoever computes a block first
            # feeds everyone else — the cross-tenant reuse the gate checks.
            spec = JobSpec(
                circuit=circuit,
                name=f"smoke-{index}",
                seed=args.seed + index,
                tenant=f"tenant-{index}",
                **settings_from_args(args),
            )
            job_ids.append(client.submit(spec))
        results = []
        for job_id in job_ids:
            status, result = client.result(job_id, timeout=args.timeout)
            _print_status(status)
            if status.state != "done" or result is None:
                print(f"[smoke] FAIL: job {job_id} ended {status.state!r}")
                exit_code = 1
            else:
                results.append(result)
        stats = client.server_stats()
        elapsed = time.monotonic() - started
        perf = PerfReport.merged(
            [result.perf for result in results if result.perf is not None],
            elapsed=elapsed,
        )
        print(
            f"[smoke] {len(results)}/{args.jobs} jobs done; cache {perf.cache_hits} hits / "
            f"{perf.cache_misses} misses, {perf.cache_remote_hits} remote hits; "
            f"{stats['requests_served']} requests served, "
            f"{stats['requests_dropped']} dropped"
        )
        for note in perf.notes:
            print(f"[smoke] note: {note}")
        if stats["requests_dropped"] or stats["requests_failed"]:
            print(
                f"[smoke] FAIL: {stats['requests_dropped']} dropped / "
                f"{stats['requests_failed']} failed requests"
            )
            exit_code = 1
        if args.emit_bench:
            _emit_bench(args.emit_bench, results, perf, stats, elapsed)
            print(f"[smoke] bench json written to {args.emit_bench}")
    finally:
        server.stop()
        if cache_server is not None:
            cache_server.terminate()
            cache_server.join()
    return exit_code


def _emit_bench(path: str, results, perf, stats: dict, elapsed: float) -> None:
    """Write the pytest-benchmark-shaped json ``check_regression.py`` reads."""
    benchmarks = [
        {
            "name": f"serve_job_{index}",
            "stats": {"mean": result.elapsed},
            "extra_info": {
                "best_cost": result.best_cost,
                "total_iterations": result.total_iterations,
            },
        }
        for index, result in enumerate(results)
    ]
    benchmarks.append(
        {
            "name": "serve_smoke_total",
            "stats": {"mean": elapsed},
            "extra_info": {
                "cache_remote_hits": perf.cache_remote_hits,
                "cache_hit_rate": perf.cache_hit_rate,
                "cache_dropped_requests": perf.cache_dropped_requests
                + stats["requests_dropped"],
                "cache_unreachable_servers": perf.cache_unreachable_servers,
                "jobs": len(results),
                "requests_served": stats["requests_served"],
                "requests_failed": stats["requests_failed"],
            },
        }
    )
    with open(path, "w") as handle:
        json.dump({"benchmarks": benchmarks}, handle, indent=2)
        handle.write("\n")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.cli",
        description="Anytime circuit-optimization job service.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser("serve", help="run a job server")
    serve.add_argument("--host", default="127.0.0.1", help="address to bind (0.0.0.0 for LAN)")
    serve.add_argument("--port", type=int, default=0, help="port to bind (0 = OS-assigned)")
    serve.add_argument(
        "--authkey", default=None, help="connection authkey (default: $REPRO_SERVE_AUTHKEY)"
    )
    serve.add_argument("--cache", default=None, metavar="SPEC", help=_CACHE_SPEC_HELP)
    serve.add_argument("--policy", default="fair", choices=list(SCHEDULER_POLICIES))
    serve.add_argument(
        "--max-resident", type=int, default=8, help="live runs held open at once"
    )
    serve.add_argument(
        "--tenant-budget",
        action="append",
        metavar="TENANT=ITERATIONS",
        help="total iteration allowance for one tenant (repeatable)",
    )
    serve.set_defaults(run=_cmd_serve)

    submit = commands.add_parser("submit", help="submit a builtin-generator circuit")
    _add_connect(submit)
    submit.add_argument("circuit", help="generator name in repro.suite.generators")
    submit.add_argument("--name", default=None, help="job label (default: the generator name)")
    # Search flags default to JobSpec's own defaults (absent unless given).
    settings = submit.add_argument_group("search settings", argument_default=argparse.SUPPRESS)
    settings.add_argument("--gate-set")
    settings.add_argument("--objective", choices=["nisq", "ftqc", "2q"])
    settings.add_argument("--time-limit", type=float)
    settings.add_argument("--max-iterations", type=int)
    settings.add_argument("--num-workers", type=int)
    settings.add_argument("--exchange-interval", type=int)
    submit.add_argument("--seed", type=int, default=None)
    submit.add_argument("--tenant", default="default")
    submit.add_argument(
        "--deadline", type=float, default=None, help="relative deadline seconds (advisory)"
    )
    submit.add_argument("--weight", type=float, default=1.0, help="fair-share weight")
    submit.add_argument("--wait", action="store_true", help="block until the job is terminal")
    submit.add_argument("--wait-timeout", type=float, default=None)
    submit.set_defaults(run=_cmd_submit)

    status = commands.add_parser("status", help="poll a job by id")
    _add_connect(status)
    status.add_argument("job_id")
    status.add_argument("--watch", action="store_true", help="poll until terminal")
    status.add_argument("--poll", type=float, default=0.5)
    status.set_defaults(run=_cmd_status)

    cancel = commands.add_parser("cancel", help="cancel a job by id")
    _add_connect(cancel)
    cancel.add_argument("job_id")
    cancel.set_defaults(run=_cmd_cancel)

    smoke = commands.add_parser(
        "smoke", help="self-contained concurrent-serve check (the CI gate)"
    )
    smoke.add_argument("--jobs", type=int, default=3, help="concurrent jobs to submit")
    smoke.add_argument(
        "--circuit", default="repeated_blocks", help="generator every job optimizes"
    )
    smoke.add_argument(
        "--cache",
        default=None,
        metavar="SPEC",
        help=_CACHE_SPEC_HELP + " (default: start an ephemeral tcp cache server)",
    )
    smoke.add_argument("--policy", default="fair", choices=list(SCHEDULER_POLICIES))
    smoke.add_argument("--seed", type=int, default=11, help="base seed (job i gets seed+i)")
    smoke.add_argument("--max-iterations", type=int, default=40)
    smoke.add_argument("--num-workers", type=int, default=1)
    smoke.add_argument("--exchange-interval", type=int, default=30)
    # The repeated-block workload synthesizes the same blocks in every job,
    # so an aggressive resynthesis rate is what drives cross-job reuse.
    smoke.add_argument("--resynthesis-probability", type=float, default=0.4)
    smoke.add_argument("--synthesis-time-budget", type=float, default=0.3)
    smoke.add_argument("--time-limit", type=float, default=120.0)
    smoke.add_argument("--timeout", type=float, default=300.0)
    smoke.add_argument(
        "--emit-bench", default=None, help="write a check_regression.py-compatible BENCH json"
    )
    smoke.set_defaults(run=_cmd_smoke)

    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    raise SystemExit(main())
