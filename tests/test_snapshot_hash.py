"""Snapshot hashes kept on the working state.

``snapshot_hash(g, dec)`` is defined on the canonical text, and the library
reads it off a fresh hashed working state; ``text_digest`` below computes it
from the text alone, as the reference.  The working state keeps the sum of
its lines' hashes and the hash of each line a move can rewrite, under its
vertex (vertex line), half-edge (alpha line) or source (beta line); edge
lines and the boundary line enter the sum once.  An edit subtracts the kept
hashes of the lines it rewrites and hashes the lines it writes.  The tests
below compare the kept hashes and sum with the text, and the digests with
``text_digest``, after every step of random scripts, check that replays catch
tampering, that ``parse_script`` refuses partial and old-scheme hashes, that
hashing a long script serializes the graph a constant number of times, not
once per step, and that a step hashes and builds only the lines it writes.
"""

import hashlib
import random
import re
from collections import Counter

import pytest

from decograph import (
    IhMove,
    MoveScript,
    TrivialMod,
    apply_script,
    apply_trivial_mod,
    build_graph,
    ih_plan,
    parse_script,
    serialize_decorated_graph,
    serialize_script,
)
from decograph import moves, textio
from decograph.cli import run_command
from decograph.moves import HASH_TAG, ScriptError, _PlanState, snapshot_hash, with_hashes
from conftest import random_decoration, tree_with_chords


def random_step(rng, state):
    """A step valid on the state: IH on a non-loop edge, or (decorated) a
    V, I or E modification."""
    edges = [
        (h, p) for h, p in state._partner.items()
        if h < p and state.vertex_of(h) != state.vertex_of(p)
    ]
    if state._beta is None or (edges and rng.random() < 0.5):
        return IhMove(rng.choice(edges), rng.choice("bc"))
    amount = rng.randint(-7, 7)
    kind = rng.choice("VIE" if state.boundary else "VI")
    if kind == "V":
        return TrivialMod("V", rng.choice(sorted(state._triple_of)), amount)
    if kind == "I":
        a, b = rng.choice(sorted(state._partner.items()))
        return TrivialMod("I", (a, b), amount)
    return TrivialMod("E", rng.choice(state.boundary), amount)


def random_pair(rng, v, genus, decorated=True):
    g1 = tree_with_chords(rng, v, genus)
    g2 = tree_with_chords(rng, v, genus)
    dec1 = random_decoration(g1, rng, 5) if decorated else None
    bmap = dict(zip(sorted(g1.boundary), sorted(g2.boundary)))
    return g1, dec1, g2, bmap


def text_digest(g, dec):
    """The digest as TestDefinition states it: the SHA-256 sum, modulo 2^256,
    of the lines of serialize_decorated_graph, with no working state."""
    total = sum(
        int.from_bytes(hashlib.sha256(line.encode()).digest(), "big")
        for line in serialize_decorated_graph(g, dec).splitlines()
    ) % 2**256
    return "m1:" + f"{total:064x}"[:16]


class TestDefinition:
    def test_sum_of_line_hashes(self):
        rng = random.Random(3)
        g = tree_with_chords(rng, 12, 2)
        for dec in (None, random_decoration(g, rng, 5)):
            lines = serialize_decorated_graph(g, dec).splitlines()
            total = sum(
                int.from_bytes(hashlib.sha256(line.encode()).digest(), "big")
                for line in lines
            ) % 2**256
            assert snapshot_hash(g, dec) == "m1:" + f"{total:064x}"[:16]
            assert re.fullmatch(re.escape(HASH_TAG) + "[0-9a-f]{16}", snapshot_hash(g, dec))


class TestKeptSum:
    @pytest.mark.parametrize("decorated", (True, False), ids=("decorated", "bare"))
    @pytest.mark.parametrize("v, graphs, steps", [(4, 12, 30), (40, 4, 60), (200, 2, 40)])
    def test_matches_definition_after_every_step(self, v, graphs, steps, decorated):
        rng = random.Random(v * 2 + decorated)
        for _ in range(graphs):
            g = tree_with_chords(rng, v, rng.randint(0, min(v // 2, 10)))
            dec = random_decoration(g, rng, 5) if decorated else None
            state = _PlanState(g, dec, hashed=True)
            assert state.snapshot_hash() == snapshot_hash(g, dec) == text_digest(g, dec)
            # No move changes an edge line or the boundary line.
            fixed = [
                moves._line_hash(line) for line in serialize_decorated_graph(g, dec).splitlines()
                if line.startswith(("edge ", "boundary "))
            ]
            for _ in range(steps):
                state.apply(random_step(rng, state))
                text = serialize_decorated_graph(*state.freeze())
                kept = [*state._vertex_hash.values()]
                if decorated:
                    kept += [*state._alpha_hash.values(), *state._beta_hash.values()]
                lines = map(moves._line_hash, text.splitlines())
                assert sorted(kept + fixed) == sorted(lines)
                assert state.snapshot_hash() == snapshot_hash(*state.freeze())
                assert state.snapshot_hash() == text_digest(*state.freeze())

    def test_with_hashes_matches_definition(self):
        rng = random.Random(5)
        g1, dec1, g2, bmap = random_pair(rng, 20, 3)
        script = with_hashes(g1, dec1, ih_plan(g1, g2, bmap))
        g, dec = g1, dec1
        for step, digest in zip(script.steps, script.hashes):
            g, dec = apply_script(g, dec, MoveScript((step,)))
            assert digest == snapshot_hash(g, dec) == text_digest(g, dec)


class TestTamper:
    @pytest.fixture(scope="class")
    def planned(self):
        rng = random.Random(11)
        g1, dec1, g2, bmap = random_pair(rng, 30, 3)
        return g1, dec1, with_hashes(g1, dec1, ih_plan(g1, g2, bmap))

    def test_untampered_replays(self, planned):
        g1, dec1, script = planned
        apply_script(g1, dec1, parse_script(serialize_script(script)))

    def test_one_lift(self, planned):
        g1, dec1, script = planned
        h = next(h for h in g1.boundary if abs(dec1.a(h)) != 1)
        tampered = apply_trivial_mod(g1, dec1, TrivialMod("E", h, 1))
        assert tampered != dec1
        with pytest.raises(ScriptError, match=r"step \d+: snapshot hash mismatch"):
            apply_script(g1, tampered, script)

    def test_one_edge(self):
        rng = random.Random(13)
        g1, _, g2, bmap = random_pair(rng, 30, 3, decorated=False)
        script = with_hashes(g1, None, ih_plan(g1, g2, bmap))
        apply_script(g1, None, script)
        (a, b), (c, d) = g1.edges[-2:]
        edges = g1.edges[:-2] + ((a, d), (c, b))
        tampered = build_graph(dict(g1.vertices), edges, boundary=g1.boundary)
        with pytest.raises(ScriptError, match=r"step \d+"):
            apply_script(tampered, None, script)

    def test_one_step(self, planned):
        g1, dec1, script = planned
        k = len(script.steps) // 2
        move = script.steps[k]
        flipped = IhMove(move.edge, "c" if move.pairing_choice == "b" else "b")
        steps = script.steps[:k] + (flipped,) + script.steps[k + 1:]
        with pytest.raises(ScriptError, match=f"step {k}: snapshot hash mismatch"):
            apply_script(g1, dec1, MoveScript(steps, script.hashes))

    def test_one_hash_line_dropped(self, planned):
        _, _, script = planned
        lines = serialize_script(script).splitlines()
        k = len(lines) // 3
        lines[k] = lines[k].split("#")[0]
        with pytest.raises(ScriptError, match=f"line {k + 1}: step {k} has no snapshot hash"):
            parse_script("\n".join(lines))


class TestParseHashes:
    TWO_STEPS = "V A 1  # {}\nIH u-v b  # {}\n"

    def test_first_hash_dropped_and_step_changed(self):
        text = "V A 1\nV B 5  # m1:0123456789abcdef\n"
        with pytest.raises(ScriptError, match="step 0 has no snapshot hash"):
            parse_script(text)

    def test_old_scheme_rejected(self):
        text = self.TWO_STEPS.format("0123456789abcdef", "fedcba9876543210")
        with pytest.raises(ScriptError, match="old whole-text scheme.*re-run") as exc:
            parse_script(text)
        assert "mismatch" not in str(exc.value)

    def test_free_comments(self):
        script = parse_script("# a plan\nV A 1  # first\nIH u-v b\n")
        assert script.hashes == ()
        with pytest.raises(ScriptError, match="step 1 has no snapshot hash"):
            parse_script("V A 1  # m1:0123456789abcdef\nIH u-v b  # note\n")

    def test_tagged_hashes_kept(self):
        text = self.TWO_STEPS.format("m1:0123456789abcdef", "m1:fedcba9876543210")
        assert parse_script(text).hashes == ("m1:0123456789abcdef", "m1:fedcba9876543210")


class TestCli:
    decorated = True

    @pytest.fixture
    def files(self, tmp_path):
        rng = random.Random(17)
        g1, dec1, g2, bmap = random_pair(rng, 16, 2)
        paths = {
            "src": tmp_path / "g1.dg", "dst": tmp_path / "g2.dg",
            "script": tmp_path / "plan.moves", "out": tmp_path / "out.dg",
        }
        dec1 = dec1 if self.decorated else None
        paths["src"].write_text(serialize_decorated_graph(g1, dec1))
        paths["dst"].write_text(serialize_decorated_graph(g2))
        spec = ",".join(f"{a}={b}" for a, b in bmap.items())
        assert run_command([
            "plan", str(paths["src"]), str(paths["dst"]), "--map", spec,
            "-o", str(paths["script"]),
        ]) == 0
        return paths

    def run(self, files):
        return run_command(
            ["run", str(files["src"]), str(files["script"]), "-o", str(files["out"])]
        )

    def test_round_trip(self, files):
        text = files["script"].read_text()
        assert text and all(f"# {HASH_TAG}" in line for line in text.splitlines())
        assert self.run(files) == 0

    def test_tampered_step_exits_2(self, files, capsys):
        lines = files["script"].read_text().splitlines()
        k = len(lines) // 2
        body, _, digest = lines[k].partition("#")
        head, edge, choice = body.split()
        lines[k] = f"{head} {edge} {'c' if choice == 'b' else 'b'}  #{digest}"
        files["script"].write_text("\n".join(lines) + "\n")
        assert self.run(files) == 2
        assert f"step {k}: snapshot hash mismatch" in capsys.readouterr().err

    def test_old_scheme_exits_2(self, files, capsys):
        text = re.sub(r"m1:([0-9a-f]{16})", r"\1", files["script"].read_text())
        files["script"].write_text(text)
        assert self.run(files) == 2
        assert "old whole-text scheme" in capsys.readouterr().err


class TestCliBare(TestCli):
    """The same on a bare source: plan writes hashes and run checks them."""

    decorated = False


def test_hashing_does_not_serialize_per_step(monkeypatch):
    """with_hashes and a checked apply_script seed the sum once and freeze
    once, whatever the number of steps."""
    rng = random.Random(19)
    g1, dec1, g2, bmap = random_pair(rng, 40, 6)
    script = ih_plan(g1, g2, bmap)
    assert len(script.steps) >= 200
    calls = {"serialize": 0, "build": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(textio, "serialize_decorated_graph",
                        counted("serialize", textio.serialize_decorated_graph))
    monkeypatch.setattr(moves, "build_graph", counted("build", moves.build_graph))
    hashed = with_hashes(g1, dec1, script)
    assert calls["serialize"] + calls["build"] <= 2
    calls.update(serialize=0, build=0)
    apply_script(g1, dec1, hashed)
    assert calls["serialize"] + calls["build"] <= 2


@pytest.mark.parametrize(
    "decorated, per_step", [(True, 10), (False, 2)], ids=("decorated", "bare")
)
def test_ih_moves_rehash_only_the_lines_they_rewrite(monkeypatch, decorated, per_step):
    """An IH move keeps its edge's names and the pairing, so its edge line
    is not rehashed: two vertex lines, and on a decorated state the two
    alpha lines of the edge and the six beta lines at its vertices."""
    rng = random.Random(11)
    g = tree_with_chords(rng, 200, 10)
    dec = random_decoration(g, rng, 5) if decorated else None
    script = ih_plan(g, g, {h: h for h in g.boundary})
    state = _PlanState(g, dec, hashed=True)
    calls = []
    line_hash = moves._line_hash

    def counted(line):
        calls.append(line)
        return line_hash(line)

    monkeypatch.setattr(moves, "_line_hash", counted)
    for step in script.steps:
        state.apply(step)
    assert len(calls) == per_step * len(script.steps)
    assert state.snapshot_hash() == snapshot_hash(*state.freeze())


@pytest.mark.parametrize("decorated", (True, False), ids=("decorated", "bare"))
def test_steps_build_only_the_lines_they_write(monkeypatch, decorated):
    """A hashed step builds each line it writes once and no line it
    replaces: 10 for a decorated IH move, 2 for a bare one, and 3, 2 and 1
    for V, I and E.  The line builders are wrapped in every module that
    holds them."""
    rng = random.Random(11)
    g = tree_with_chords(rng, 200, 10)
    dec = random_decoration(g, rng, 5) if decorated else None
    steps = list(ih_plan(g, g, {h: h for h in g.boundary}).steps)
    if decorated:
        mods = [TrivialMod("V", g.vertices[0][0], 1), TrivialMod("I", g.edges[0], 1),
                TrivialMod("E", g.boundary[0], 1)]
        steps[len(steps) // 2:len(steps) // 2] = mods
    state = _PlanState(g, dec, hashed=True)
    built = []

    def counted(fn):
        def wrapper(*args):
            built.append(args)
            return fn(*args)
        return wrapper

    for module in (moves, textio):
        for name in ("vertex_line", "edge_line", "alpha_line", "beta_line"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(module, name)))
    per_step = Counter()
    for step in steps:
        before = len(built)
        state.apply(step)
        per_step[step.kind if isinstance(step, TrivialMod) else "IH", len(built) - before] += 1
    ih_steps = sum(isinstance(step, IhMove) for step in steps)
    want = {("IH", 10 if decorated else 2): ih_steps}
    if decorated:
        want.update({("V", 3): 1, ("I", 2): 1, ("E", 1): 1})
    assert per_step == want
    monkeypatch.undo()
    assert state.snapshot_hash() == snapshot_hash(*state.freeze())
