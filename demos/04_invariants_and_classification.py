"""Genus-stratified invariants: A~, the classes I-IV, and the Arf invariant.

Genus 0: only the boundary alpha matters.  Genus 1: the single invariant
A~ = gcd({alpha_x - 2 : x external}, a, b) where (a, b) comes from the one
basis cycle.  Genus >= 2: four classes cut out by parities of alpha and
b_c, boundary alpha mod 4, and (for III vs IV) the Arf invariant of the
quadratic refinement over the cycles with alpha = 0 mod 4.  The library
reads the class through classify; decoration_class, the bare class rule,
is a lemma check of the tests (tests/lemmas.py).
"""

import sys
from pathlib import Path

from decograph import (
    build_graph,
    classify,
    frak_C,
    make_decoration,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from lemmas import a_tilde, arf, decoration_class

# Genus 1: wheels.  (a, b) = (4, 6) and (2, 0) both have A~ = 2.
wheel = build_graph({"W": ("x", "y", "z")}, [("x", "y")])
for a, b in ((4, 6), (2, 0), (3, 0)):
    dec = make_decoration(
        wheel, {"x": a, "y": -a, "z": 2},
        {("x", "y"): b, ("y", "x"): 0, ("z", "x"): 0},
    )
    print(f"wheel (a={a}, b={b}):  A~ = {a_tilde(wheel, dec)}")

# Genus 2: the apple tree with two loops hanging off a stem vertex.
apple = build_graph(
    {
        "W1": ("l0a", "l0b", "t0b"),
        "W2": ("l1a", "l1b", "t1b"),
        "S": ("t0a", "t1a", "r"),
    },
    [("l0a", "l0b"), ("l1a", "l1b"), ("t0a", "t0b"), ("t1a", "t1b")],
)


def apple_dec(a0, b0, a1, b1):
    alpha = {"l0a": a0, "l0b": -a0, "l1a": a1, "l1b": -a1,
             "t0b": 2, "t0a": -2, "t1b": 2, "t1a": -2, "r": 6}
    beta = {("l0a", "l0b"): b0, ("l0b", "l0a"): 0, ("t0b", "l0a"): 0,
            ("l1a", "l1b"): b1, ("l1b", "l1a"): 0, ("t1b", "l1a"): 0,
            ("t0a", "r"): 0, ("t1a", "r"): 0, ("r", "t0a"): 0}
    return make_decoration(apple, alpha, beta)


print()
for args in ((3, 0, 4, 0), (4, 1, 4, 0), (4, 0, 4, 0), (4, 2, 4, 0)):
    dec = apple_dec(*args)
    cls = decoration_class(apple, dec)
    line = f"loops {args}:  class {cls}"
    if cls in ("III", "IV"):
        cycles = frak_C(apple, dec)
        line += f"  (|frak_C| = {len(cycles)}, Arf = {arf(apple, dec)})"
    print(line)

# classify() bundles the genus-appropriate record.
print()
print(classify(apple, apple_dec(4, 2, 4, 0)).to_dict())
