"""Report documents: deterministic JSON with a mandatory validation section.

Payloads must already be JSON values.  Documents are byte-deterministic for a
fixed invocation and seed: keys are sorted, and wall-clock timing stays None
unless explicitly requested (it is the one excluded field).
"""

from __future__ import annotations

import json
from typing import Optional

SCHEMA = "nebulab-report/1"


def make_report(
    command: str,
    config: dict,
    seed: Optional[int],
    results: dict,
    validation: list[dict],
) -> dict:
    if not validation:
        raise ValueError("reports must re-validate at least one claim")
    return {
        "schema": SCHEMA,
        "command": command,
        "config": config,
        "seed": seed,
        "results": results,
        "validation": validation,
        "timing": None,
    }


def render(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
