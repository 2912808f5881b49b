"""Brute-force oracles and the text-file interface.

The oracles cross-check the closed-form invariants by explicit bounded
search: sl2_orbit (a lemma check of the tests, tests/lemmas.py) walks a
single (a, b) pair under the loop moves, move_orbit enumerates
whole-decoration orbits, and check_classification (a check of the theorem,
tests/exhaustive.py) exhaustively compares orbits with classification
records in a small window.  The same objects
round-trip through the text format and CLI.
"""

import math
import sys
import tempfile
from pathlib import Path

from decograph import (
    OrbitBounds,
    build_graph,
    make_decoration,
    move_orbit,
    serialize_decorated_graph,
)
from decograph.cli import run_command

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from exhaustive import check_classification
from lemmas import sl2_orbit

# The genus-1 moves only preserve gcd(a, b); the window orbit confirms it.
orbit = sl2_orbit(4, 6, bound=10)
print(f"orbit of (4, 6) in the window: {len(orbit)} points, "
      f"gcds = {sorted({math.gcd(a, b) for a, b in orbit})}")
assert (2, 0) in orbit

# Whole-decoration orbit of a wheel under bounded search.
wheel = build_graph({"W": ("x", "y", "z")}, [("x", "y")])
dec = make_decoration(
    wheel, {"x": 3, "y": -3, "z": 2},
    {("x", "y"): 1, ("y", "x"): 0, ("z", "x"): 0},
)
orbit = move_orbit(wheel, dec, OrbitBounds(max_param=2, max_depth=3))
print(f"move orbit of the (3, 1) wheel: {len(orbit)} decorations")

# Exhaustive desk-scale soundness check: every bounded orbit carries a
# single classification record.
report = check_classification(
    wheel, OrbitBounds(max_param=2, max_depth=3), window=2
)
print(f"window check: {report.n_decorations} decorations, "
      f"{report.n_orbits} orbits, {report.n_classes} classes, "
      f"violations: {report.violations or 'none'}")
assert report.ok

# The CLI drives the same library through files.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "wheel.dg"
    path.write_text(serialize_decorated_graph(wheel, dec))
    print()
    run_command(["validate", str(path)])
    run_command(["invariants", str(path)])
    run_command(["dot", str(path), "-o", str(Path(tmp) / "wheel.dot")])
