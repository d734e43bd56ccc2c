"""Regenerate the reference outputs the benchmark checks every run against.

Run from the root of a checkout::

    python3 perfbench/capture_reference.py

It writes ``perfbench/reference/curves.json``: every ``paper_registry()``
curve from one lumped analysis session, keyed by request tag.  Before writing, the
lumped curves are checked against an unlumped session at the benchmark's
tolerance.  Only regenerate when a change is meant to alter results.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from common import REFERENCE_DIR, TOLERANCE, curve_matches, curve_values, tag_key


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from repro.analysis import AnalysisSession
    from repro.service import paper_registry

    registry = paper_registry()
    requests = [request for name in registry.names for request in registry.expand(name)]
    curves = {}
    for lump in (True, False):
        session = AnalysisSession(lump=lump)
        session.extend(requests)
        for request, result in zip(requests, session.execute()):
            key = tag_key(request.tag)
            values = curve_values(result.squeezed)
            if lump:
                curves[key] = values
            elif not curve_matches(curves[key], values):
                raise SystemExit(f"lumped and unlumped values of {key} differ by > {TOLERANCE}")

    REFERENCE_DIR.mkdir(exist_ok=True)
    with (REFERENCE_DIR / "curves.json").open("w", encoding="utf-8") as handle:
        json.dump({"tolerance": TOLERANCE, "curves": curves}, handle, indent=0)
        handle.write("\n")
    print(f"wrote {len(curves)} curves to {REFERENCE_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
