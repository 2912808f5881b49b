"""Snapshot hashes kept on the working state.

``snapshot_hash(g, dec)`` is defined on the canonical text: the SHA-256 sum
of its vertex blocks (a vertex line, then the alpha and then the beta lines
of its triple), edge lines and boundary line.  The library reads it off a
fresh working state, which seeds the hash of each vertex's block on the
first ``snapshot_hash`` call; ``text_digest`` below computes it from the
text alone, as the reference.  Edge lines and the boundary line enter the
sum once.  A step subtracts the kept hashes of the blocks it rewrites and
hashes them anew.  The tests below compare the kept block hashes and sum
with the text, and the digests with ``text_digest``, after every step of
random scripts, check that replays catch tampering, that ``parse_script``
refuses partial, malformed and retired-scheme hashes, that hashing a long
script serializes the graph a constant number of times, not once per step,
that an IH move rehashes only its two vertex blocks, that a step builds
only the lines of the blocks it writes and that planning hashes nothing.
"""

import hashlib
import random
import re
from collections import Counter

import pytest

from decograph import (
    FileSyntaxError,
    IhMove,
    MoveScript,
    TrivialMod,
    apply_script,
    apply_trivial_mod,
    build_graph,
    ih_plan,
    normal_form,
    parse_script,
    serialize_decorated_graph,
    serialize_script,
)
from decograph import moves, textio
from decograph.cli import run_command
from decograph.moves import (
    HASH_TAG, ScriptError, _PlanState, normalize_to_apple_tree, snapshot_hash, with_hashes,
)
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


def _sha(text):
    return int.from_bytes(hashlib.sha256(text.encode()).digest(), "big")


def text_blocks(g, dec):
    """The vertex blocks of the canonical text of (g, dec), each vertex line
    followed by the alpha and then the beta lines of its triple in the
    vertex line's order, and the text's edge and boundary lines, read off
    serialize_decorated_graph alone."""
    lines = serialize_decorated_graph(g, dec).splitlines()
    alpha = {line.split()[1]: line for line in lines if line.startswith("alpha ")}
    beta = {tuple(line.split()[1:3]): line for line in lines if line.startswith("beta ")}
    blocks, fixed = [], []
    for line in lines:
        head, name, *rest = line.split()
        if head == "vertex":
            triple = rest[1:]
            blocks.append("\n".join([
                line, *[alpha[h] for h in triple if h in alpha],
                *[beta[name, h] for h in triple if (name, h) in beta],
            ]))
        elif head in ("edge", "boundary"):
            fixed.append(line)
    return blocks, fixed


def text_digest(g, dec):
    """The digest as TestDefinition states it: the SHA-256 sum, modulo 2^256,
    of the text's vertex blocks, edge lines and boundary line, with no
    working state."""
    blocks, fixed = text_blocks(g, dec)
    total = sum(map(_sha, blocks + fixed)) % 2**256
    return "m2:" + f"{total:064x}"[:16]


class TestDefinition:
    def test_sum_of_line_hashes(self):
        """The sum over blocks and lines; a bare graph's blocks are its vertex
        lines, so its digest is the sum over the text's lines."""
        rng = random.Random(3)
        g = tree_with_chords(rng, 12, 2)
        for dec in (None, random_decoration(g, rng, 5)):
            assert snapshot_hash(g, dec) == text_digest(g, dec)
            assert re.fullmatch(re.escape(HASH_TAG) + "[0-9a-f]{16}", snapshot_hash(g, dec))
        lines = serialize_decorated_graph(g).splitlines()
        total = sum(map(_sha, lines)) % 2**256
        assert snapshot_hash(g, None) == "m2:" + f"{total:064x}"[:16]


class TestKeptSum:
    @pytest.mark.parametrize("decorated", (True, False), ids=("decorated", "bare"))
    @pytest.mark.parametrize("v, graphs, steps", [(4, 12, 30), (40, 4, 60), (200, 2, 40)])
    def test_matches_definition_after_every_step(self, v, graphs, steps, decorated):
        rng = random.Random(v * 2 + decorated)
        for _ in range(graphs):
            g = tree_with_chords(rng, v, rng.randint(0, min(v // 2, 10)))
            dec = random_decoration(g, rng, 5) if decorated else None
            state = _PlanState(g, dec)
            assert state.snapshot_hash() == snapshot_hash(g, dec) == text_digest(g, dec)
            _, start_fixed = text_blocks(g, dec)
            for _ in range(steps):
                state.apply(random_step(rng, state))
                blocks, fixed = text_blocks(*state.freeze())
                assert fixed == start_fixed  # no move changes an edge or the boundary
                assert sorted(state._block_hash.values()) == sorted(map(_sha, blocks))
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
        text = "V A 1\nV B 5  # m2:0123456789abcdef\n"
        with pytest.raises(ScriptError, match="step 0 has no snapshot hash"):
            parse_script(text)

    def test_old_scheme_rejected(self):
        retired = [
            (("0123456789abcdef", "fedcba9876543210"), "old whole-text scheme"),
            (("m1:0123456789abcdef", "m1:fedcba9876543210"), "retired 'm1:' scheme"),
            (("m1:0123 oops", "m1:fedcba9876543210"), "retired 'm1:' scheme"),
        ]
        for digests, scheme in retired:
            with pytest.raises(ScriptError, match=f"line 1: .*{scheme}.*re-run") as exc:
                parse_script(self.TWO_STEPS.format(*digests))
            assert "mismatch" not in str(exc.value)
        for digest in ("m2:0123 oops", "m2:0123456789ABCDEF", "m2:0123456789abcdef0"):
            with pytest.raises(FileSyntaxError, match="line 2, column 11") as exc:
                parse_script(self.TWO_STEPS.format("m2:0123456789abcdef", digest))
            assert exc.value.line == 2

    def test_free_comments(self):
        script = parse_script("# a plan\nV A 1  # first\nIH u-v b\n")
        assert script.hashes == ()
        with pytest.raises(ScriptError, match="step 1 has no snapshot hash"):
            parse_script("V A 1  # m2:0123456789abcdef\nIH u-v b  # note\n")

    def test_tagged_hashes_kept(self):
        text = self.TWO_STEPS.format("m2:0123456789abcdef", "m2:fedcba9876543210")
        assert parse_script(text).hashes == ("m2:0123456789abcdef", "m2:fedcba9876543210")


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
        text = files["script"].read_text()
        for old, error in ((r"\1", "old whole-text scheme"), (r"m1:\1", "retired 'm1:' scheme"),
                           (r"m1:\1 oops", "retired 'm1:' scheme"),
                           (HASH_TAG + r"\1 oops", "line 1, column")):
            hashed = re.sub(re.escape(HASH_TAG) + "([0-9a-f]{16})", old, text)
            files["script"].write_text(hashed)
            assert self.run(files) == 2
            assert error in capsys.readouterr().err


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


@pytest.mark.parametrize("decorated", (True, False), ids=("decorated", "bare"))
def test_ih_moves_rehash_only_the_lines_they_rewrite(monkeypatch, decorated):
    """An IH move keeps its edge's names and the pairing, so its edge line
    is not rehashed: once the sum is seeded, a step hashes the blocks of the
    edge's two vertices, which hold every line it rewrites, and nothing
    else, decorated or bare."""
    rng = random.Random(11)
    g = tree_with_chords(rng, 200, 10)
    dec = random_decoration(g, rng, 5) if decorated else None
    script = ih_plan(g, g, {h: h for h in g.boundary})
    state = _PlanState(g, dec)
    state.snapshot_hash()  # seeds the kept hashes
    calls = []
    line_hash = moves._line_hash

    def counted(text):
        calls.append(text)
        return line_hash(text)

    monkeypatch.setattr(moves, "_line_hash", counted)
    for step in script.steps:
        del calls[:]
        state.apply(step)
        hashed = sorted(text.split()[1] for text in calls)
        assert all(text.startswith("vertex ") for text in calls)
        assert hashed == sorted(state.vertex_of(h) for h in step.edge)
    monkeypatch.undo()
    assert state.snapshot_hash() == snapshot_hash(*state.freeze())


@pytest.mark.parametrize("decorated", (True, False), ids=("decorated", "bare"))
def test_steps_build_only_the_lines_they_write(monkeypatch, decorated):
    """Once the sum is seeded, a step hashes the block of each vertex it
    rewrites, and builds the lines of those blocks and no other line: per
    block one vertex line and, decorated, three alpha and three beta lines.
    That is 2 blocks for an IH move, 1 for V and E, and for I 1 or 2 as the
    edge is a loop or not; no step builds an edge line.  The I steps run on
    every edge of the apple tree halfway through the plan, which has loops.
    The line builders are wrapped in every module that holds them."""
    rng = random.Random(11)
    g = tree_with_chords(rng, 200, 10)
    dec = random_decoration(g, rng, 5) if decorated else None
    steps = list(ih_plan(g, g, {h: h for h in g.boundary}).steps)
    if decorated:
        apple = len(normalize_to_apple_tree(g, sorted(g.boundary))[0].steps)
        mods = [TrivialMod("V", g.vertices[0][0], 1), TrivialMod("E", g.boundary[0], 1)]
        steps[apple:apple] = mods + [TrivialMod("I", edge, 1) for edge in g.edges]
    state = _PlanState(g, dec)
    state.snapshot_hash()  # seeds the kept hashes
    calls, built = [], []
    line_hash = moves._line_hash

    def counted(text):
        calls.append(text)
        return line_hash(text)

    def builder(name, fn):
        def wrapper(*args):
            built.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(moves, "_line_hash", counted)
    for module in (moves, textio):
        for name in ("vertex_line", "edge_line", "alpha_line", "beta_line"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, builder(name, getattr(module, name)))
    per_block = 7 if decorated else 1
    per_step = Counter()
    for step in steps:
        kind = step.kind if isinstance(step, TrivialMod) else "IH"
        hashes, lines = len(calls), len(built)
        blocks = len({state.vertex_of(h) for h in step.target}) if kind == "I" else None
        state.apply(step)
        per_step[kind, len(calls) - hashes, len(built) - lines, blocks] += 1
    assert "edge_line" not in built
    ih_steps = sum(isinstance(step, IhMove) for step in steps)
    want = {("IH", 2, 2 * per_block, None): ih_steps}
    if decorated:
        want.update({("V", 1, 7, None): 1, ("E", 1, 7, None): 1})
        # The apple tree of genus 10 has ten loops.
        want.update({("I", 2, 14, 2): len(g.edges) - 10, ("I", 1, 7, 1): 10})
    assert per_step == want
    monkeypatch.undo()
    assert state.snapshot_hash() == snapshot_hash(*state.freeze()) == text_digest(*state.freeze())


def test_planning_hashes_nothing(monkeypatch):
    """The planner and normal_form never ask for a snapshot hash, so no
    block or line is hashed while they run."""
    rng = random.Random(23)
    g1, dec1, g2, bmap = random_pair(rng, 40, 4)
    calls = []
    monkeypatch.setattr(moves, "_line_hash", calls.append)
    ih_plan(g1, g2, bmap)
    normal_form(g1, dec1)
    assert calls == []
