"""Helpers shared by the benchmark files."""

from __future__ import annotations

import json
from pathlib import Path


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under the benchmark timer and return its result."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


def record(path: Path, key: str, payload: dict) -> None:
    """Merge one gate's measurements into the JSON document at ``path``."""
    document = {}
    if path.exists():
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            document = {}
    document[key] = payload
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
