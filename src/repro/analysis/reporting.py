"""Finding output formats.

``python -m repro lint`` renders its
:class:`~repro.analysis.common.Finding` list through this module:

* ``text`` — one ``path:line:col: RULE [func] message`` line per
  finding (the format the GitHub problem matcher parses);
* ``sarif`` — minimal SARIF 2.1.0, uploadable as a code-scanning
  artifact.
"""

from __future__ import annotations

import json
import os
from typing import Iterable

from repro.analysis.common import Finding

__all__ = [
    "render_findings",
    "render_sarif",
    "render_text",
]


def render_text(findings: Iterable[Finding]) -> str:
    return "\n".join(finding.format() for finding in findings)


def _rel_uri(path: str) -> str:
    """Repo-relative, forward-slash path for SARIF locations."""
    rel = os.path.relpath(path)
    if rel.startswith(".."):
        rel = path
    return rel.replace(os.sep, "/")


def render_sarif(
    findings: Iterable[Finding], rules: dict[str, str], tool: str = "mrlint"
) -> str:
    """Minimal SARIF 2.1.0 document for GitHub code-scanning upload."""
    results = []
    for f in findings:
        message = f"[{f.function}] {f.message}" if f.function else f.message
        results.append(
            {
                "ruleId": f.rule,
                "level": "error",
                "message": {"text": message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": _rel_uri(f.path)},
                            "region": {
                                "startLine": max(f.line, 1),
                                "startColumn": f.col + 1,
                            },
                        }
                    }
                ],
            }
        )
    rule_objects = [
        {"id": rule_id, "shortDescription": {"text": description}}
        for rule_id, description in sorted(rules.items())
    ]
    document = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": tool,
                        "informationUri": "https://github.com/",
                        "rules": rule_objects,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2)


def render_findings(
    findings: list[Finding], fmt: str, rules: dict[str, str], tool: str
) -> str:
    if fmt == "sarif":
        return render_sarif(findings, rules, tool)
    return render_text(findings)
