"""Shared JSON hygiene for the exporters.

Traces export to JSON Lines through `TraceLog.to_jsonl` and reload
through `TraceLog.from_jsonl` (docs/OBSERVABILITY.md, "Trace export");
this module keeps the value sanitising the other JSON writers share.
"""

from __future__ import annotations

import math


def json_safe(value: object) -> object:
    """Recursively replace NaN/±Infinity with None and non-string dict
    keys with strings, so the result dumps as *strict* JSON (what
    ``json.dumps(allow_nan=True)`` would silently violate)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    return value
