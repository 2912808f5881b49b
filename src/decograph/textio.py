"""Text formats: decorated graph files, move scripts, and DOT export.

Graph file grammar (one statement per line, '#' starts a comment):

    vertex <name> : <h1> <h2> <h3>
    edge <h1> <h2>
    boundary <h1> <h2> ...
    alpha <half-edge> <int>
    beta <vertex> <h_from> <h_to> <int>

A file with no alpha statements describes a bare graph.  With alpha
statements present, beta statements are optional per source half-edge
(missing sources default to lift 0 toward their least co-half), and
make_decoration checks the decoration.  The serializer is canonical:
parse-serialize is a projection and serialize-parse is the identity.
"""

from __future__ import annotations

from typing import Optional

from .decoration import (
    Decoration,
    DecorationError,
    TrivialMod,
    make_decoration,
)
from .graph import GraphError, TrivalentGraph, build_graph
from .moves import IhMove, MoveScript


class TextError(ValueError):
    pass


class FileSyntaxError(TextError):
    """Bad token or malformed statement, with line/column and expectation."""

    def __init__(self, line: int, col: int, expected: str, got: str = ""):
        self.line, self.col, self.expected = line, col, expected
        shown = f", got {got!r}" if got else ""
        super().__init__(f"line {line}, column {col}: expected {expected}{shown}")


class SemanticError(TextError):
    """Structurally valid statements describing an inconsistent object."""


def _tokenize(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        tokens = []
        col = 1
        for tok in line.split():
            col = line.index(tok, col - 1) + 1
            tokens.append((tok, col))
            col += len(tok)
        yield lineno, tokens


def parse_decorated_graph(
    text: str,
) -> tuple[TrivalentGraph, Optional[Decoration]]:
    """Parse a graph file; the decoration is None for bare graph files."""
    vertices: dict[str, tuple[str, str, str]] = {}
    edges: list[tuple[str, str]] = []
    boundary: Optional[list[str]] = None
    alpha: dict[str, int] = {}
    beta: dict[tuple[str, str], int] = {}
    beta_lines: list[tuple[int, str, str, str]] = []

    def need(tokens, lineno, count, what):
        if len(tokens) != count:
            col = tokens[-1][1] + len(tokens[-1][0]) if len(tokens) < count else tokens[count][1]
            raise FileSyntaxError(lineno, col, what)

    def intval(tok, col, lineno):
        try:
            return int(tok)
        except ValueError:
            raise FileSyntaxError(lineno, col, "an integer", tok) from None

    for lineno, tokens in _tokenize(text):
        head, col0 = tokens[0]
        if head == "vertex":
            need(tokens, lineno, 6, "'vertex <name> : <h1> <h2> <h3>'")
            name = tokens[1][0]
            if tokens[2][0] != ":":
                raise FileSyntaxError(lineno, tokens[2][1], "':'", tokens[2][0])
            if name in vertices:
                raise SemanticError(f"line {lineno}: duplicate vertex {name!r}")
            vertices[name] = (tokens[3][0], tokens[4][0], tokens[5][0])
        elif head == "edge":
            need(tokens, lineno, 3, "'edge <h1> <h2>'")
            edges.append((tokens[1][0], tokens[2][0]))
        elif head == "boundary":
            if boundary is not None:
                raise SemanticError(f"line {lineno}: duplicate boundary statement")
            boundary = [t for t, _ in tokens[1:]]
        elif head == "alpha":
            need(tokens, lineno, 3, "'alpha <half-edge> <int>'")
            h = tokens[1][0]
            if h in alpha:
                raise SemanticError(f"line {lineno}: duplicate alpha for {h!r}")
            alpha[h] = intval(tokens[2][0], tokens[2][1], lineno)
        elif head == "beta":
            need(tokens, lineno, 5, "'beta <vertex> <h_from> <h_to> <int>'")
            v, s, t = tokens[1][0], tokens[2][0], tokens[3][0]
            val = intval(tokens[4][0], tokens[4][1], lineno)
            if (s, t) in beta:
                raise SemanticError(
                    f"line {lineno}: duplicate beta for ({s!r}, {t!r})"
                )
            beta[(s, t)] = val
            beta_lines.append((lineno, v, s, t))
        else:
            raise FileSyntaxError(
                lineno, col0,
                "one of 'vertex', 'edge', 'boundary', 'alpha', 'beta'", head,
            )

    if not vertices:
        raise SemanticError("file declares no vertices")
    try:
        g = build_graph(vertices, edges, boundary=boundary)
    except GraphError as exc:
        raise SemanticError(str(exc)) from exc

    for lineno, v, s, t in beta_lines:
        if v not in vertices:
            raise SemanticError(f"line {lineno}: no vertex named {v!r}")
        triple = g.triple(v)
        for h in (s, t):
            if h not in triple:
                raise SemanticError(
                    f"line {lineno}: half-edge {h!r} is not at vertex {v!r}"
                )
        if s == t:
            raise SemanticError(f"line {lineno}: beta source equals target")

    if not alpha:
        if beta:
            raise SemanticError("beta statements require alpha statements")
        return g, None
    # default gauge: sources with no supplied lift get 0 toward the least co-half
    for _, triple in g.vertices:
        for s in triple:
            others = [t for t in triple if t != s]
            if not any((s, t) in beta for t in others):
                beta[(s, min(others))] = 0
    try:
        return g, make_decoration(g, alpha, beta)
    except DecorationError as exc:
        raise SemanticError(f"invalid decoration: {exc}") from exc


def serialize_decorated_graph(
    g: TrivalentGraph, dec: Optional[Decoration] = None
) -> str:
    """Canonical text form: statements sorted, one beta lift per source
    (toward the least co-half), minimal lifts.  Byte-stable under
    parse-serialize round trips."""
    lines = []
    for name, triple in g.vertices:
        lines.append(f"vertex {name} : {' '.join(triple)}")
    for a, b in g.edges:
        lines.append(f"edge {a} {b}")
    if g.boundary:
        lines.append("boundary " + " ".join(g.boundary))
    if dec is not None:
        for h, a in dec.alpha:
            lines.append(f"alpha {h} {a}")
        for name, triple in g.vertices:
            for s in triple:
                least, _, lift = dec._beta[s]
                lines.append(f"beta {name} {s} {least} {lift}")
    return "\n".join(lines) + "\n"


# -- move scripts ---------------------------------------------------------


def serialize_script(script: MoveScript) -> str:
    lines = []
    for idx, step in enumerate(script.steps):
        if isinstance(step, TrivialMod):
            if step.kind == "I":
                body = f"I {step.target[0]}-{step.target[1]} {step.amount}"
            else:
                body = f"{step.kind} {step.target} {step.amount}"
        elif isinstance(step, IhMove):
            body = f"IH {step.edge[0]}-{step.edge[1]} {step.pairing_choice}"
        else:
            raise TextError(f"unknown step type {type(step).__name__}")
        if script.hashes:
            body += f"  # {script.hashes[idx]}"
        lines.append(body)
    return "\n".join(lines) + ("\n" if lines else "")


def parse_script(text: str) -> MoveScript:
    steps = []
    hashes = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line, _, comment = raw.partition("#")
        if not line.strip():
            continue
        tokens = line.split()
        head = tokens[0]
        if head in ("V", "E"):
            if len(tokens) != 3:
                raise FileSyntaxError(lineno, 1, f"'{head} <target> <int>'")
            try:
                amount = int(tokens[2])
            except ValueError:
                raise FileSyntaxError(lineno, 1, "an integer", tokens[2]) from None
            steps.append(TrivialMod(head, tokens[1], amount))
        elif head == "I":
            if len(tokens) != 3 or "-" not in tokens[1]:
                raise FileSyntaxError(lineno, 1, "'I <x>-<y> <int>'")
            x, _, y = tokens[1].partition("-")
            try:
                amount = int(tokens[2])
            except ValueError:
                raise FileSyntaxError(lineno, 1, "an integer", tokens[2]) from None
            steps.append(TrivialMod("I", (x, y), amount))
        elif head == "IH":
            if len(tokens) != 3 or "-" not in tokens[1]:
                raise FileSyntaxError(lineno, 1, "'IH <u>-<v> <b|c>'")
            if tokens[2] not in ("b", "c"):
                raise FileSyntaxError(lineno, 1, "'b' or 'c'", tokens[2])
            u, _, v = tokens[1].partition("-")
            steps.append(IhMove((u, v), tokens[2]))
        else:
            raise FileSyntaxError(lineno, 1, "one of 'V', 'I', 'E', 'IH'", head)
        hashes.append(comment.strip())
    if all(hashes) and hashes:
        return MoveScript(steps=tuple(steps), hashes=tuple(hashes))
    return MoveScript(steps=tuple(steps))


# -- DOT export -----------------------------------------------------------


def dot_export(g: TrivalentGraph, dec: Optional[Decoration] = None) -> str:
    """Graphviz DOT rendering; alpha values label the half-edge ends."""

    def half_label(h: str) -> str:
        return f"{h} (a={dec.a(h)})" if dec is not None else h

    lines = ["graph decorated {", "  node [shape=circle];"]
    for name, _ in g.vertices:
        lines.append(f'  "{name}";')
    for a, b in g.edges:
        lines.append(
            f'  "{g.vertex_of(a)}" -- "{g.vertex_of(b)}"'
            f' [taillabel="{half_label(a)}", headlabel="{half_label(b)}"];'
        )
    for h in g.boundary:
        lines.append(f'  "ext_{h}" [shape=point, label=""];')
        lines.append(
            f'  "{g.vertex_of(h)}" -- "ext_{h}" [taillabel="{half_label(h)}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
