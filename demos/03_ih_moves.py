"""IH moves with exact decoration transport.

An IH move contracts an internal edge u~v and re-expands it the other way,
regrouping the four surrounding half-edges.  The decoration is transported
so that the local class B(beta) = (beta_{xu}, beta_{yx}, beta_{zw}+delta,
beta_{wv}+delta) is preserved identically; the refined epsilon residues
provide a mod-4 fingerprint of that class.  B, B' and the epsilon residues
are steps of the proof, so they are computed by the lemma checks of the
tests (tests/lemmas.py), not by the library.
"""

import sys
from pathlib import Path

from decograph import IhMove, apply_script, build_graph, ih_apply, make_decoration
from decograph.moves import with_hashes, MoveScript

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from lemmas import invert_move, local_B, local_B_prime, local_equivalent, refined_epsilon

g = build_graph({"A": ("x", "y", "u"), "B": ("z", "w", "v")}, [("u", "v")])
dec = make_decoration(g, {"x": 2, "y": 0, "u": 0, "v": 0, "z": 0, "w": 2}, {})

B = local_B(g, dec, ("u", "v"))
print("B lifts:", B.lifts, "moduli:", B.moduli, "alpha_u:", B.alpha_u)
print("refined epsilon:", tuple(r.value for r in refined_epsilon(B)))

# Apply the move with pairing choice 'b' ({x,z} | {y,w}).
g2, dec2, trace = ih_apply(g, dec, IhMove(("u", "v"), "b"))
print("new vertices:", dict(g2.vertices))

# The transported decoration realises the same local class, computed on the
# new graph via the B' formula:
B2 = local_B_prime(dec2, trace)
assert B2.lifts == B.lifts
assert local_equivalent(B, B2)
print("B'(beta') == B(beta):", B2.lifts == B.lifts)

# Moves are invertible, and scripts carry tamper-evident state hashes.
back = invert_move(g2, trace)
script = with_hashes(g, dec, MoveScript((IhMove(("u", "v"), "b"), back)))
g3, dec3 = apply_script(g, dec, script)
print("round trip restores the vertex partition:",
      {frozenset(t) for _, t in g3.vertices}
      == {frozenset(t) for _, t in g.vertices})
