"""The one-pass graph-file parser against the parser it replaced.

``reference_parse`` below is the former ``parse_decorated_graph`` with the
``build_graph`` and ``make_decoration`` it called: a token generator over
``str.splitlines``, ``int()`` on integer tokens, a separate zero-fill pass
and a per-source set of candidate lifts.  The new parser must return an
equal (graph, decoration) or raise the same exception class with the same
message on valid texts and on seeded mutations of them.  Two changes are
meant: an <int> is an optional sign and ASCII digits only, and lines end at
'\\n' only.  ``reference_parse(text, strict=True)`` applies exactly those
two rules, and every input on which it differs from the former parser must
hold a token or a character that the rules are about.
"""

import random
import re

import pytest

from decograph import (
    FileSyntaxError,
    SemanticError,
    TrivalentGraph,
    parse_decorated_graph,
)
from decograph.decoration import Decoration, DecorationError, stored_lift
from decograph.graph import (
    DanglingPair,
    DuplicateHalfEdge,
    GraphError,
    HalfEdgeInTwoVertices,
    InternalError,
    SelfPairing,
)
from conftest import random_decoration, tree_with_chords


# -- the reference: the former parser and the constructors it called --------


def reference_build_graph(vertex_triples, pairing=(), boundary=None):
    items = [(str(k), tuple(str(h) for h in v)) for k, v in vertex_triples.items()]
    seen = {}
    names = set()
    for name, triple in items:
        if name in names:
            raise DuplicateHalfEdge(f"duplicate vertex name {name!r}")
        names.add(name)
        if len(triple) != 3:
            raise GraphError(f"vertex {name!r} must have exactly 3 half-edges")
        for h in triple:
            if not h:
                raise DuplicateHalfEdge("empty half-edge name")
            if h in seen:
                kind = HalfEdgeInTwoVertices if seen[h] != name else DuplicateHalfEdge
                raise kind(f"half-edge {h!r} occurs twice (vertices {seen[h]!r}, {name!r})")
            seen[h] = name
    vertices = tuple(sorted((name, tuple(sorted(t))) for name, t in items))

    paired = {}
    for a, b in pairing:
        a, b = str(a), str(b)
        if a == b:
            raise SelfPairing(f"half-edge {a!r} paired with itself")
        for h in (a, b):
            if h not in seen:
                raise DanglingPair(f"pairing references unknown half-edge {h!r}")
            if h in paired:
                raise DanglingPair(f"half-edge {h!r} paired twice")
        paired[a] = b
        paired[b] = a
    edges = tuple(sorted((a, b) for a, b in paired.items() if a < b))

    unpaired = sorted(h for h in seen if h not in paired)
    if boundary is None:
        bound = tuple(unpaired)
    else:
        bound = tuple(str(h) for h in boundary)
        if sorted(bound) != unpaired:
            raise GraphError("declared boundary does not match the unpaired half-edges")
    g = TrivalentGraph(
        vertices=vertices, edges=edges, boundary=bound,
        _vertex_of={h: name for name, t in vertices for h in t},
        _partner=dict(paired), _triple_of=dict(vertices),
    )
    v, i, e = len(g.vertices), len(g.edges), len(g.boundary)
    if 3 * v != 2 * i + e:
        raise InternalError(f"half-edge count {2 * i + e} != 3 * {v} vertices")
    return g


def reference_alpha_problems(g, alpha):
    halves = set(g.half_edges())
    missing = sorted(halves - set(alpha))
    if missing:
        return [f"alpha missing for half-edges {missing}"]
    extra = sorted(set(alpha) - halves)
    if extra:
        return [f"alpha given for unknown half-edges {extra}"]
    problems = []
    for name, triple in g.vertices:
        total = sum(alpha[h] for h in triple)
        if total != 2:
            problems.append(f"vertex {name!r}: alpha sum {total} != 2")
    for a, b in g.edges:
        if alpha[a] + alpha[b] != 0:
            problems.append(
                f"edge {a!r}~{b!r}: alpha_{a} + alpha_{b} = "
                f"{alpha[a] + alpha[b]} != 0"
            )
    return problems


def reference_make_decoration(g, alpha, beta):
    amap = {h: int(a) for h, a in alpha.items()}
    problems = reference_alpha_problems(g, amap)
    if problems:
        raise DecorationError("; ".join(problems))
    lifts = {}
    for name, triple in g.vertices:
        for s in triple:
            t0, t1 = sorted(t for t in triple if t != s)
            given = {
                stored_lift(amap, s, t, o, int(beta[(s, t)]))
                for t, o in ((t0, t1), (t1, t0))
                if (s, t) in beta
            }
            if not given:
                raise DecorationError(f"no beta lift supplied for source half-edge {s!r}")
            if len(given) > 1:
                raise DecorationError(
                    f"vertex {name!r}: beta_({s},{t1}) != beta_({s},{t0}) "
                    f"+ alpha_{t1} - 1 mod {amap[s]}"
                )
            (lifts[s],) = given
    return Decoration(alpha=tuple(sorted(amap.items())), beta=tuple(sorted(lifts.items())))


def reference_zero_fill(g, beta):
    for _, triple in g.vertices:
        for s in triple:
            t0, t1 = [t for t in triple if t != s]
            if (s, t0) not in beta and (s, t1) not in beta:
                beta[(s, t0)] = 0
    return beta


_STRICT_INT = re.compile(r"[+-]?[0-9]+")


def reference_parse(text, strict=False):
    """The former parse_decorated_graph; with strict=True, under the two
    rules the new parser adds."""
    vertices, edges, boundary = {}, [], None
    alpha, beta, beta_lines = {}, {}, []
    lines = text.split("\n") if strict else text.splitlines()

    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue

        def fail(i, expected, got=""):
            end = 0
            for tok in tokens[:i]:
                end = raw.index(tok, end) + len(tok)
            col = raw.index(tokens[i], end) if i < len(tokens) else end
            raise FileSyntaxError(lineno, col + 1, expected, got)

        def need(count, what):
            if len(tokens) != count:
                fail(min(len(tokens), count), what)

        def intval(i):
            if not strict or _STRICT_INT.fullmatch(tokens[i]):
                try:
                    return int(tokens[i])
                except ValueError:
                    pass
            fail(i, "an integer", tokens[i])

        head = tokens[0]
        if head == "vertex":
            need(6, "'vertex <name> : <h1> <h2> <h3>'")
            name = tokens[1]
            if tokens[2] != ":":
                fail(2, "':'", tokens[2])
            if name in vertices:
                raise SemanticError(f"line {lineno}: duplicate vertex {name!r}")
            for i in (3, 4, 5):
                if "-" in tokens[i]:
                    fail(i, "a half-edge name without '-'", tokens[i])
            vertices[name] = (tokens[3], tokens[4], tokens[5])
        elif head == "edge":
            need(3, "'edge <h1> <h2>'")
            edges.append((tokens[1], tokens[2]))
        elif head == "boundary":
            if boundary is not None:
                raise SemanticError(f"line {lineno}: duplicate boundary statement")
            boundary = tokens[1:]
        elif head == "alpha":
            need(3, "'alpha <half-edge> <int>'")
            h = tokens[1]
            if h in alpha:
                raise SemanticError(f"line {lineno}: duplicate alpha for {h!r}")
            alpha[h] = intval(2)
        elif head == "beta":
            need(5, "'beta <vertex> <h_from> <h_to> <int>'")
            v, s, t = tokens[1], tokens[2], tokens[3]
            val = intval(4)
            if (s, t) in beta:
                raise SemanticError(f"line {lineno}: duplicate beta for ({s!r}, {t!r})")
            beta[(s, t)] = val
            beta_lines.append((lineno, v, s, t))
        else:
            fail(0, "one of 'vertex', 'edge', 'boundary', 'alpha', 'beta'", head)

    if not vertices:
        raise SemanticError("file declares no vertices")
    try:
        g = reference_build_graph(vertices, edges, boundary=boundary)
    except GraphError as exc:
        raise SemanticError(str(exc)) from exc

    for lineno, v, s, t in beta_lines:
        if v not in vertices:
            raise SemanticError(f"line {lineno}: no vertex named {v!r}")
        triple = g.triple(v)
        for h in (s, t):
            if h not in triple:
                raise SemanticError(f"line {lineno}: half-edge {h!r} is not at vertex {v!r}")
        if s == t:
            raise SemanticError(f"line {lineno}: beta source equals target")

    if not alpha:
        if beta:
            raise SemanticError("beta statements require alpha statements")
        return g, None
    try:
        return g, reference_make_decoration(g, alpha, reference_zero_fill(g, beta))
    except DecorationError as exc:
        raise SemanticError(f"invalid decoration: {exc}") from exc


def outcome(parse, text, **kwargs):
    """(g, dec), or the exception class and message."""
    try:
        return parse(text, **kwargs)
    except Exception as exc:  # every class counts, so none is left out
        return type(exc), str(exc)


# -- inputs ---------------------------------------------------------------------


_WHITESPACE = (" ", "  ", "\t", " \t ")


def _join(rng, tokens):
    gaps = [rng.choice(_WHITESPACE) if rng.random() < 0.2 else " " for _ in tokens]
    line = "".join(tok + gap for tok, gap in zip(tokens, gaps)).rstrip()
    if rng.random() < 0.1:
        line = rng.choice(_WHITESPACE) + line
    if rng.random() < 0.1:
        line += "  # " + rng.choice(["note", "beta v0 a b 1", "", "#"])
    return line


def random_text(rng, v):
    """A valid decorated (or, one time in eight, bare) graph file on a
    tree_with_chords graph: statements shuffled, comments, blank lines,
    uneven whitespace, each source's lift toward either co-half, both or
    neither, and now and then CRLF line ends."""
    g = tree_with_chords(rng, v, rng.randint(0, v // 3 + 1))
    dec = random_decoration(g, rng) if rng.random() < 0.875 else None
    stmts = [["vertex", name, ":", *rng.sample(triple, 3)] for name, triple in g.vertices]
    stmts += [["edge", *rng.sample(edge, 2)] for edge in g.edges]
    if g.boundary and rng.random() < 0.5:
        stmts.append(["boundary", *rng.sample(g.boundary, len(g.boundary))])
    if dec is not None:
        stmts += [["alpha", h, str(a)] for h, a in dec.alpha]
        for name, triple in g.vertices:
            for s in triple:
                others = [t for t in triple if t != s]
                for t in rng.choice([others[:1], others[1:], others, others, []]):
                    lift = dec.b(s, t) + rng.choice([0, 0, 1, -2]) * abs(dec.a(s))
                    stmts.append(["beta", name, s, t, str(lift)])
    rng.shuffle(stmts)
    lines = [_join(rng, stmt) for stmt in stmts]
    for _ in range(rng.randint(0, 3)):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "# c", "   ", "\t# x"]))
    end = "\r\n" if rng.random() < 0.1 else "\n"
    return end.join(lines) + (end if rng.random() < 0.9 else "")


# Characters and tokens that the two new rules are about.
_SEPARATORS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r"]
_INT_LOOKALIKES = ["\u0663", "1_0", "\uff11", "-\u0661\u0662", "+1_000"]
_TOKENS = [
    "x", ":", "-", "a-b", "#", "vertex", "edge", "alpha", "beta", "boundary", "0",
    "-3", "+2", "007", "-0", "seven", "1.5", "1e3", "+", "--1", "\u00b2",
    "9" * 40, "9" * 5000, "h0", "h1", "h2", "v0", "v1",
] + _INT_LOOKALIKES
_LINES = [
    "beta v0 h0 h0 1", "beta v0 h0 h1", "beta nope h0 h1 0", "alpha h0", "alpha h0 1",
    "edge h0", "edge h0 h0", "edge h0 h1", "boundary", "boundary h0", "vertex v0 : h0 h1 h2",
    "vertex v9 : h0 q r", "vertex v9 : p q", "frobnicate", "beta v0 h1 h0 \u0663",
    "alpha h0 x", "alpha h1 1_0", "beta v0 h0 h1 x", "beta v0 h1 h0 -",
]


def mutate(rng, text):
    """One to three random edits: a token replaced, dropped or copied, an
    integer moved, a line dropped, copied or inserted, a character
    inserted or dropped, or the text cut short."""
    for _ in range(rng.randint(1, 3)):
        lines = text.split("\n")
        i = rng.randrange(len(lines))
        tokens = lines[i].split(" ")
        op = rng.randrange(10)
        if op < 4:  # one token
            k = rng.randrange(len(tokens))
            if op == 0:
                tokens[k] = rng.choice(_TOKENS)
            elif op == 1:
                del tokens[k]
            elif op == 2:
                tokens.insert(k, rng.choice(tokens))
            elif re.fullmatch(r"-?[0-9]{1,9}", tokens[k]):
                tokens[k] = str(int(tokens[k]) + rng.choice([-1, 1, 2, 7]))
            lines[i] = " ".join(tokens)
        elif op == 4:
            del lines[i]
        elif op == 5:
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
        elif op == 6:
            lines.insert(i, rng.choice(_LINES))
        text = "\n".join(lines)
        pos = rng.randrange(len(text) + 1)
        if op == 7:
            text = text[:pos] + rng.choice(_SEPARATORS + ["#", "-", "\n"]) + text[pos:]
        elif op == 8:
            text = text[:pos] + text[pos + 1:]
        elif op == 9:
            text = text[:pos]
    return text


def _affected_by_new_rules(text):
    """text has a line end other than '\\n', or a token int() reads that
    is not an optional sign and ASCII digits."""
    if any(sep in text.replace("\r\n", "\n") for sep in _SEPARATORS):
        return True
    for tok in text.split():
        try:
            int(tok)
        except ValueError:
            continue
        if not _STRICT_INT.fullmatch(tok):
            return True
    return False


def _check(text, counts):
    new = outcome(parse_decorated_graph, text)
    assert new == outcome(reference_parse, text, strict=True), text
    if outcome(reference_parse, text) != new:
        assert _affected_by_new_rules(text), text
        counts["changed"] += 1
    counts["error" if isinstance(new[0], type) else "ok"] += 1


# -- tests -----------------------------------------------------------------------


@pytest.mark.parametrize("v, count", [(4, 60), (40, 20), (200, 4)])
def test_valid_texts_match_reference(v, count):
    rng = random.Random(1000 + v)
    counts = {"ok": 0, "error": 0, "changed": 0}
    for _ in range(count):
        text = random_text(rng, v)
        _check(text, counts)
    assert counts == {"ok": count, "error": 0, "changed": 0}


@pytest.mark.parametrize("v, count", [(4, 1500), (40, 450), (200, 50)])
def test_mutations_match_reference(v, count):
    rng = random.Random(2000 + v)
    texts = [random_text(rng, v) for _ in range(max(4, count // 25))]
    counts = {"ok": 0, "error": 0, "changed": 0}
    for k in range(count):
        _check(mutate(rng, texts[k % len(texts)]), counts)
    # the mutations reach both outcomes and the inputs the new rules change
    assert counts["ok"] > 0 and counts["error"] > count // 2
    assert counts["changed"] > 0


WHEEL = "vertex W : x y z\nedge x y\n"


@pytest.mark.parametrize(
    "text, line, col",
    [
        (WHEEL + "alpha x 4\nalpha y -4\nalpha z \u0662\n", 5, 9),
        (WHEEL + "alpha x 1_0\nalpha y -10\nalpha z 2\n", 3, 9),
        ("vertex W : x y z\x0cedge x y\n", 1, 18),
    ],
)
def test_inputs_the_new_rules_change(text, line, col):
    """The former parser accepted each of these, reading '\\u0662' as 2,
    '1_0' as 10 and '\\x0c' as a line end; the new one names the token."""
    assert not isinstance(outcome(reference_parse, text)[0], type)
    with pytest.raises(FileSyntaxError) as exc:
        parse_decorated_graph(text)
    assert (exc.value.line, exc.value.col) == (line, col)


def test_comment_runs_to_the_newline():
    text = "vertex W : x y z  # wheel\u2028edge x y\n"
    g, _ = reference_parse(text)
    assert g.edges == (("x", "y"),)
    g, _ = parse_decorated_graph(text)
    assert g.edges == () and g.boundary == ("x", "y", "z")
