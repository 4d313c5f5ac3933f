"""Text and JSON reporters for lint results.

Text goes to humans (one ``path:line:col: error [rule] message`` line
per active finding plus a summary); JSON goes to tools (CI annotations,
editors) and carries every finding, suppressed ones included, with its
status.
"""

from __future__ import annotations

import json
from typing import IO

from repro.lint.runner import LintReport

__all__ = ["render_text", "render_json", "write_report"]


def render_text(report: LintReport) -> str:
    lines: list[str] = []
    for finding in report.findings:
        if finding.status != "active":
            continue
        v = finding.violation
        lines.append(
            f"{v.path}:{v.line}:{v.col + 1}: error [{v.rule}] {v.message}"
        )
    for rel_path, message in report.parse_errors:
        lines.append(f"{rel_path}:1:1: error [parse] {message}")
    summary = report.summary()
    lines.append(
        f"checked {summary['files']} files: {summary['errors']} error(s)"
        + (
            f", {summary['suppressed']} suppressed"
            if summary["suppressed"]
            else ""
        )
    )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    payload = {
        "findings": [
            {**finding.violation.as_dict(), "status": finding.status}
            for finding in report.findings
        ],
        "parse_errors": [
            {"path": path, "message": message}
            for path, message in report.parse_errors
        ],
        "summary": report.summary(),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def write_report(report: LintReport, fmt: str, out: IO[str]) -> None:
    text = render_json(report) if fmt == "json" else render_text(report)
    print(text, file=out)
