"""The fault and open-loop extension experiments equal their pinned series.

``tests/ext_smoke_golden.json`` holds the full SMOKE series of
``ext-faults`` (retry, backoff and quarantine over a faulty node) and
``ext-fleet-openloop`` (hedged and round-robin mirrors behind admission
shedding), as ``runner --json`` writes them. Both experiments are
re-run here in process and must match bit for bit, on whichever event
core is active. A point missing from one side must be missing from the
other; a missing point is an absent x or a NaN/None value.

Regenerate the pin only for an intended change of these series: run
``runner ext-faults ext-fleet-openloop --scale smoke --no-cache --jobs 1
--json PATH`` and write ``{"scale": ..., FIGURE: {"figure": FIGURE,
"series": ...}}`` from it with ``json.dumps(indent=1, sort_keys=True)``.
"""

import json
import math
from pathlib import Path

import pytest

from repro.experiments import EXTENSIONS, SMOKE

GOLDEN = Path(__file__).resolve().parent / "ext_smoke_golden.json"


def _present(series: dict) -> dict:
    """``{label: {x: y}}`` without missing points (None or NaN)."""
    return {label: {x: y for x, y in points.items()
                    if y is not None and not (isinstance(y, float)
                                              and math.isnan(y))}
            for label, points in series.items()}


@pytest.mark.parametrize("figure", ["ext-faults", "ext-fleet-openloop"])
def test_ext_smoke_series_equal_golden(figure):
    with GOLDEN.open(encoding="utf-8") as handle:
        golden = json.load(handle)
    assert golden["scale"] == SMOKE.name
    result = EXTENSIONS[figure](SMOKE, jobs=1, cache=False)
    series = {label: dict(zip(line.xs, line.ys))
              for label, line in zip(result.labels, result.series)}
    # The runner's JSON round trip: x keys become strings.
    series = json.loads(json.dumps(series))
    assert _present(series) == _present(golden[figure]["series"])
