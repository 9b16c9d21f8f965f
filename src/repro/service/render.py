"""One renderer for experiment results, shared by CLI and service.

Historically each CLI subcommand printed its own report block and its
own ``result digest:`` line, and the supervised-executor summary lived
in a private ``_print_supervised`` helper.  The service needs the same
text as a *value* (job results travel over a socket), so the rendering
moved here: every function returns a list of line elements such that

    for line in elements: print(line)

and

    sys.stdout.write("\\n".join(elements) + "\\n")

produce identical bytes.  The CLI does the former, the service stores
the latter — the parity tests in ``tests/test_cli_parity.py`` pin both
against frozen copies of the pre-refactor subcommand bodies.
"""

from __future__ import annotations

from typing import List, Optional

from ..perf.supervisor import SupervisedReport

__all__ = [
    "digest_line",
    "render_resilience",
    "render_scalebench",
    "render_sedov",
    "render_text",
    "supervised_lines",
]


def render_text(elements: List[str]) -> str:
    """The exact bytes ``print``-ing each element would produce."""
    if not elements:
        return ""
    return "\n".join(elements) + "\n"


def digest_line(digest: str) -> str:
    return f"result digest: {digest}"


def supervised_lines(report: SupervisedReport) -> List[str]:
    """Executor summary block shared by the sweep subcommands."""
    lines = ["", report.summary_line()]
    for f in report.failures:
        lines.append(
            f"QUARANTINED cell {f.index} "
            f"({f.kind} after {f.attempts} attempt(s)): {f.error} "
            f"[item={f.item_repr}]"
        )
    if report.journal_path is not None:
        # The CLI keeps a run's events there; the server writes none.
        events = report.journal_path / "telemetry"
        lines.append(f"journal: {report.journal_path}" + (
            f" (events queryable: repro query {events} "
            f'"SELECT kind, count(cell) FROM events GROUP BY kind")'
            if events.is_dir() else ""
        ))
    return lines


def render_sedov(result, show_transport: bool, profile: bool) -> List[str]:
    """The ``repro sedov`` report (Fig. 6 tables, Table I, extras)."""
    lines = [
        result.table_i_text(),
        "",
        result.fig6a_table(),
        "",
        result.fig6b_table(),
        "",
        result.fig6c_table(),
    ]
    for scale in result.scales():
        best = result.best_label(scale)
        lines.append(
            f"\n{scale} ranks: best {best} "
            f"({result.reduction_vs_baseline(scale, best):.1%} vs baseline)"
        )
    if show_transport:
        lines.append("\ntransport (unreliable fabric):")
        for o in result.outcomes:
            s = o.summary
            lines.append(
                f"  {o.scale} ranks · {o.policy_label:<10} "
                f"retrans={s.n_retransmits} drops={s.n_transport_drops} "
                f"rollback={s.n_rollbacks} degraded={s.n_degraded_epochs} "
                f"stall={s.transport_stall_s:.3f}s"
            )
    if profile:
        for o in result.outcomes:
            lines.append(f"\n[{o.scale} ranks · {o.policy_label}]")
            lines.append(o.profile.report())
    if result.executor is not None:
        lines.extend(supervised_lines(result.executor))
        lines.append(digest_line(result.digest()))
    return lines


def render_scalebench(
    rows,
    executor: Optional[SupervisedReport],
    node_classes: Optional[str] = None,
) -> List[str]:
    """The ``repro scalebench`` report (always digest-terminated).

    ``node_classes`` adds the U-curve-under-heterogeneity section;
    ``None`` (homogeneous sweeps) renders byte-identically to before.
    """
    from ..bench import makespan_table, overhead_table, scalebench_digest

    lines = [makespan_table(rows), "", overhead_table(rows)]
    if node_classes is not None:
        from ..bench import hetero_ucurve_table

        lines.extend(["", hetero_ucurve_table(rows, node_classes)])
    if executor is not None:
        lines.extend(supervised_lines(executor))
    lines.append(digest_line(scalebench_digest(rows)))
    return lines


def render_resilience(result) -> List[str]:
    """The ``repro resilience`` three-arm report."""
    lines = [result.report()]
    if result.profiles:
        for arm, profiler in result.profiles.items():
            lines.append(f"\n[{arm}]")
            lines.append(profiler.report())
    return lines
