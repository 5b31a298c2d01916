"""CLI surface of the budget server: ``repro serve | submit | tenants``.

All three subcommands operate on one ``--state-dir``; the spool decouples
them, so ``submit`` works whether or not a server is currently running::

    python -m repro.experiments.cli tenants add alice --state-dir d --epsilon 4.0
    python -m repro.experiments.cli submit --state-dir d --tenant alice \\
        --sigma 1.1 --sample-rate 0.01 --steps 100
    python -m repro.experiments.cli serve --state-dir d --workers 4
    python -m repro.experiments.cli tenants report --state-dir d

``serve`` drains gracefully on SIGTERM/SIGINT: the batch in flight
completes and is snapshotted, queued jobs survive to the next start.
A SIGKILL is also safe — every transition is already on disk — it just
re-runs whatever was mid-flight (the ε of which was committed at
admission, so nothing is ever spent twice).
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

#: Subcommand names routed here by the experiments CLI.
SERVICE_COMMANDS = ("serve", "submit", "tenants")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.cli",
        description="Multi-tenant DP budget server (see docs/service.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the budget server loop")
    serve.add_argument("--state-dir", required=True, metavar="DIR")
    serve.add_argument("--workers", type=int, default=1, metavar="N")
    serve.add_argument("--batch-size", type=int, default=8, metavar="N")
    serve.add_argument(
        "--poll", type=float, default=0.2, metavar="SECONDS",
        help="idle sleep between cycles (default: 0.2)",
    )
    serve.add_argument(
        "--once", action="store_true",
        help="drain the spool and queue, then exit instead of serving forever",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve live metrics on this port (0 = ephemeral; "
        "Prometheus at /metrics, snapshots at /state.json)",
    )
    serve.add_argument(
        "--alert-rules", default=None, metavar="FILE",
        help="JSON file with a list of declarative alert rules "
        "(see docs/observability.md) evaluated on top of the built-ins",
    )
    serve.add_argument(
        "--alert-horizon", type=int, default=200, metavar="STEPS",
        help="epsilon burn-rate projection horizon in state transitions",
    )
    serve.add_argument(
        "--profile", default=None, metavar="FILE",
        help="sample the serve loop with SIGPROF and write collapsed "
        "stacks (flamegraph format) to FILE on exit",
    )

    submit = sub.add_parser("submit", help="spool one job submission")
    submit.add_argument("--state-dir", required=True, metavar="DIR")
    submit.add_argument("--tenant", required=True)
    submit.add_argument("--sigma", type=float, required=True, help="noise multiplier")
    submit.add_argument("--sample-rate", type=float, required=True)
    submit.add_argument("--steps", type=int, required=True)
    submit.add_argument("--mechanism", default="gaussian")
    submit.add_argument("--dim", type=int, default=64)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument(
        "--work-ms", type=float, default=0.0,
        help="artificial per-job runtime in milliseconds",
    )

    tenants = sub.add_parser("tenants", help="manage and report tenants")
    tsub = tenants.add_subparsers(dest="tenants_command", required=True)
    tlist = tsub.add_parser("list", help="one line per tenant: budget and spend")
    tlist.add_argument("--state-dir", required=True, metavar="DIR")
    tadd = tsub.add_parser("add", help="register a tenant")
    tadd.add_argument("name")
    tadd.add_argument("--state-dir", required=True, metavar="DIR")
    tadd.add_argument("--epsilon", type=float, required=True, help="epsilon budget")
    tadd.add_argument("--delta", type=float, default=1e-5)
    tadd.add_argument(
        "--on-overspend", default="refuse", choices=("refuse", "queue"),
        help="what to do with jobs whose projected cost exceeds the budget",
    )
    tbudget = tsub.add_parser("set-budget", help="change a tenant's epsilon budget")
    tbudget.add_argument("name")
    tbudget.add_argument("--state-dir", required=True, metavar="DIR")
    tbudget.add_argument("--epsilon", type=float, required=True)
    treport = tsub.add_parser("report", help="per-tenant budget report")
    treport.add_argument("--state-dir", required=True, metavar="DIR")
    treport.add_argument(
        "--format", dest="report_format", default="markdown",
        choices=("markdown", "json"),
    )
    return parser


def _open_server(state_dir, **kwargs):
    from repro.service.server import BudgetServer

    return BudgetServer(state_dir, **kwargs)


def _load_alert_rules(path):
    import json

    from repro.telemetry.live.health import rule_from_dict

    with open(path, encoding="utf-8") as fh:
        specs = json.load(fh)
    return [rule_from_dict(spec) for spec in specs]


def _cmd_serve(args) -> int:
    if args.profile:
        from repro.utils.validation import check_output_path

        try:
            check_output_path("--profile", args.profile)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
    alert_rules = _load_alert_rules(args.alert_rules) if args.alert_rules else None
    server = _open_server(
        args.state_dir,
        workers=args.workers,
        batch_size=args.batch_size,
        metrics_port=args.metrics_port,
        alert_rules=alert_rules,
        alert_horizon_steps=args.alert_horizon,
    )
    if server.metrics_address is not None:
        print(f"[metrics at {server.metrics_address}/metrics]", flush=True)
    profiler = None
    if args.profile:
        from repro.telemetry.live.profiler import SamplingProfiler

        profiler = SamplingProfiler().start()
    try:
        if args.once:
            done = server.run_until_idle()
            print(f"[served {done} transitions; queue drained]")
            return 0
        stop = threading.Event()

        def request_drain(signum, frame):
            print(f"[signal {signum}: draining]", flush=True)
            stop.set()

        signal.signal(signal.SIGTERM, request_drain)
        signal.signal(signal.SIGINT, request_drain)
        print(f"[serving from {args.state_dir}; workers={args.workers}]", flush=True)
        server.serve(poll_interval=args.poll, stop=stop)
        counts = server.queue.counts()
        print(f"[drained; jobs: {counts}]")
        return 0
    finally:
        if profiler is not None:
            profiler.stop().save_collapsed(args.profile)
            print(f"[profile: {profiler.sample_count} samples -> {args.profile}]")


def _cmd_submit(args) -> int:
    from repro.service.persist import ServiceStore, write_submission
    from repro.service.queue import JobSpec

    spec = JobSpec(
        tenant=args.tenant,
        sigma=args.sigma,
        sample_rate=args.sample_rate,
        steps=args.steps,
        mechanism=args.mechanism,
        dim=args.dim,
        seed=args.seed,
        work_ms=args.work_ms,
    )
    store = ServiceStore(args.state_dir)
    path = write_submission(store.spool_dir, spec)
    print(f"[spooled {path.name} for tenant {args.tenant!r}]")
    return 0


def _cmd_tenants(args) -> int:
    from repro.service.report import build_budget_report
    from repro.telemetry.report import render_budget_report
    from repro.utils.tables import format_table

    server = _open_server(args.state_dir)
    if args.tenants_command == "add":
        server.add_tenant(
            args.name,
            epsilon_budget=args.epsilon,
            delta=args.delta,
            on_overspend=args.on_overspend,
        )
        print(
            f"[tenant {args.name!r} registered: epsilon={args.epsilon} "
            f"delta={args.delta} on_overspend={args.on_overspend}]"
        )
        return 0
    if args.tenants_command == "set-budget":
        server.set_tenant_budget(args.name, args.epsilon)
        print(f"[tenant {args.name!r} budget set to epsilon={args.epsilon}]")
        return 0
    if args.tenants_command == "report":
        print(render_budget_report(build_budget_report(server), fmt=args.report_format))
        return 0
    rows = [
        [
            tenant.name,
            tenant.policy.epsilon_budget,
            tenant.spent_epsilon(),
            tenant.remaining_epsilon(),
            tenant.policy.on_overspend,
            len(tenant.ledger.entries),
        ]
        for tenant in server.registry
    ]
    if not rows:
        print("(no tenants registered)")
        return 0
    print(
        format_table(
            ["tenant", "budget", "spent", "remaining", "on_overspend", "ledger"],
            rows,
        )
    )
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    return _cmd_tenants(args)


if __name__ == "__main__":
    sys.exit(main())
