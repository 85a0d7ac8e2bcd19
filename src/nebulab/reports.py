"""Report documents: deterministic JSON with a mandatory validation section.

Documents are byte-deterministic for a fixed invocation and seed: keys are
sorted, Fractions render as strings, and wall-clock timing stays None unless
explicitly requested (it is the one excluded field).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

SCHEMA = "nebulab-report/1"


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (frozenset, set)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(_jsonable(k)): _jsonable(v) for k, v in value.items()}
    return value


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
        "config": _jsonable(config),
        "seed": seed,
        "results": _jsonable(results),
        "validation": _jsonable(validation),
        "timing": None,
    }


def render(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
