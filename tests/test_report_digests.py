"""Pinned digests of the CLI reports on every shipped arc.

Each digest is the sha256 of a report's JSON, ``timings`` removed and keys
sorted.  The cases are ``analyze`` and ``property-w`` at every n (q81 at
n <= 2), ``bound`` on all but q81, and ``hypersurface`` wherever
``build_surface`` accepts the arc, plus ten exhaustive ``conjecture-scan``
reports: GF(8) at k=4, n=1 (120 arcs), GF(9) at k=3, n=3 (441 arcs),
GF(7) at k=5, n=1 (60 arcs, each with a 15-row residual), GF(13) at k=3,
n=3 (4,015 arcs in 192 frame-symmetry orbits), GF(16) at k=3, n=2
(182 arcs, where the Frobenius map joins orbits), GF(23) at k=3, n=3
(72,030 arcs in 3,100 orbits), GF(11) at k=4, n=2 (30,696 arcs in 272
orbits), GF(25) and GF(27) at k=3, n=3 (106,513 arcs in 2,345 orbits and
152,100 in 2,172, where sigma has order 2 and 3) and GF(9) at k=4, n=2
(3,060 arcs in 17 orbits): 79 digests.  GF(13) and GF(16) were pinned
while the scan still certified every arc, and the last five while it
still listed every arc.
After an intended change of a report,
regenerate the file from the repository root with

    PYTHONPATH=src:tests python -c "import json, test_report_digests as t; \
t.DIGESTS.write_text(json.dumps(t.compute_digests(), indent=1, sort_keys=True) + '\\n')"

and review the diff: only the reports that were meant to change may move.
"""

import hashlib
import json
from pathlib import Path

from arclab.cli import cmd_analyze, cmd_bound, cmd_conjecture, cmd_cosecants, cmd_hypersurface, parse_arc_file
from arclab.hypersurf import ArcTooSmallError, build_surface

from conftest import ARCS_DIR

DIGESTS = Path(__file__).resolve().parent / "report_digests.json"


def digest(report):
    body = {k: v for k, v in report.items() if k != "timings"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def cases():
    """(key, thunk) for every pinned report."""
    for path in sorted(ARCS_DIR.glob("*.arc")):
        name = path.stem
        arc = parse_arc_file(path.read_text())
        top = 2 if name.startswith("q81") else arc.size - arc.k
        for n in range(top + 1):
            yield f"analyze {name} --n {n}", lambda arc=arc, n=n: cmd_analyze(arc, n)
            yield f"property-w {name} --n {n}", lambda arc=arc, n=n: cmd_cosecants(arc, n)
        if not name.startswith("q81"):
            yield f"bound {name}", lambda arc=arc: cmd_bound(arc)
        try:
            build_surface(arc)
        except ArcTooSmallError:
            continue
        yield f"hypersurface {name}", lambda arc=arc: cmd_hypersurface(arc)
    for p, h, k, n in ((2, 3, 4, 1), (3, 2, 3, 3), (7, 1, 5, 1), (13, 1, 3, 3), (2, 4, 3, 2),
                       (23, 1, 3, 3), (11, 1, 4, 2), (5, 2, 3, 3), (3, 3, 3, 3), (3, 2, 4, 2)):
        yield f"conjecture-scan --p {p} --h {h} --k {k} --n {n}", lambda a=(p, h, k, n): cmd_conjecture(*a)


def compute_digests():
    return {key: digest(run()) for key, run in cases()}


def test_report_digests_are_pinned():
    pinned = json.loads(DIGESTS.read_text())
    got = compute_digests()
    assert sorted(got) == sorted(pinned)
    assert [key for key in sorted(got) if got[key] != pinned[key]] == []
