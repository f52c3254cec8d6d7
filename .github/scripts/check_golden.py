"""Check a runner --json report against the golden series in bench/golden.json.

Usage::

    python .github/scripts/check_golden.py RUNNER_JSON

Every figure that has a golden entry and appears in the report must
equal it bit for bit. Exits 1 on a mismatch, a scale other than the
golden one, or a report that holds no golden figure at all.
"""

import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parents[2] / "bench" / "golden.json"


def main(argv):
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        report = json.load(handle)
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    if report["scale"] != golden["scale"]:
        print(f"report scale {report['scale']!r} is not the golden "
              f"scale {golden['scale']!r}", file=sys.stderr)
        return 1
    checked = 0
    failed = 0
    for key, entry in sorted(golden.items()):
        if not isinstance(entry, dict) or "figure" not in entry:
            continue
        figure = entry["figure"]
        if figure not in report["figures"]:
            continue
        checked += 1
        if report["figures"][figure]["series"] == entry["series"]:
            print(f"{figure} == bench/golden.json[{key!r}]: OK")
        else:
            failed += 1
            print(f"{figure} != bench/golden.json[{key!r}]",
                  file=sys.stderr)
    if not checked:
        print("the report holds no figure with a golden series",
              file=sys.stderr)
        return 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
