"""Text formats: decorated graph files, move scripts, and DOT export.

Graph file grammar (one statement per line, '#' starts a comment; lines
end at '\\n' only, and '\\r' is whitespace):

    vertex <name> : <h1> <h2> <h3>
    edge <h1> <h2>
    boundary <h1> <h2> ...
    alpha <half-edge> <int>
    beta <vertex> <h_from> <h_to> <int>

An <int> is an optional sign followed by ASCII digits 0-9.  Half-edge
names contain no '-', which move scripts use to join the two halves of an
edge.  A file with no alpha statements describes a bare graph.  With alpha
statements present, beta statements are optional per source half-edge
(missing sources default to lift 0 toward their least co-half), and
make_decoration checks the decoration.  The serializer is canonical:
parse-serialize is a projection and serialize-parse is the identity.
"""

from __future__ import annotations

import re
from typing import Optional

from .decoration import (
    Decoration, DecorationError, TrivialMod, _check_fit, make_decoration
)
from .graph import GraphError, TrivalentGraph, build_graph
from .moves import (
    HASH_TAG, IhMove, MoveScript, ScriptError, alpha_line, beta_line, boundary_line,
    edge_line, vertex_line,
)


_HASH = re.compile(re.escape(HASH_TAG) + "[0-9a-f]{16}")
_RETIRED = re.compile("(m[0-9]+:)|[0-9a-f]{16}$")  # another tag, or the old untagged hash


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


def _to_int(tok: str) -> Optional[int]:
    """tok as an <int>, or None; int() alone takes '1_0' and non-ASCII digits."""
    if tok.isascii() and (tok.isdigit() or tok[0] in "+-" and tok[1:].isdigit()):
        try:
            return int(tok)
        except ValueError:  # more digits than int() reads
            pass
    return None


def _syntax_error(lineno, raw, tokens, i, expected, got=""):
    """The FileSyntaxError at tokens[i], or just past the last token; only
    errors need columns, so they are found here."""
    end = 0
    for tok in tokens[:i]:
        end = raw.index(tok, end) + len(tok)
    col = raw.index(tokens[i], end) if i < len(tokens) else end
    return FileSyntaxError(lineno, col + 1, expected, got)


def parse_decorated_graph(text: str) -> tuple[TrivalentGraph, Optional[Decoration]]:
    """Parse a graph file; the decoration is None for bare graph files.
    Each statement is read and checked once; lines end at '\\n' only."""
    vertices: dict[str, tuple[str, str, str]] = {}
    edges: list[tuple[str, str]] = []
    boundary: Optional[list[str]] = None
    alpha: dict[str, int] = {}
    beta: dict[tuple[str, str], int] = {}
    beta_lines: list[tuple[int, str, str, str]] = []  # to check on the graph

    for lineno, raw in enumerate(text.split("\n"), start=1):
        tokens = (raw.partition("#")[0] if "#" in raw else raw).split()
        if not tokens:
            continue
        head, n = tokens[0], len(tokens)
        # alpha and beta make up most lines, so they are tested first
        if head == "alpha":
            if n != 3:
                form = "'alpha <half-edge> <int>'"
                raise _syntax_error(lineno, raw, tokens, min(n, 3), form)
            _, h, val = tokens
            if h in alpha:
                raise SemanticError(f"line {lineno}: duplicate alpha for {h!r}")
            num = _to_int(val)
            if num is None:
                raise _syntax_error(lineno, raw, tokens, 2, "an integer", val)
            alpha[h] = num
        elif head == "beta":
            if n != 5:
                form = "'beta <vertex> <h_from> <h_to> <int>'"
                raise _syntax_error(lineno, raw, tokens, min(n, 5), form)
            _, v, s, t, val = tokens
            num = _to_int(val)
            if num is None:
                raise _syntax_error(lineno, raw, tokens, 4, "an integer", val)
            key = (s, t)
            if key in beta:
                raise SemanticError(f"line {lineno}: duplicate beta for ({s!r}, {t!r})")
            beta[key] = num
            beta_lines.append((lineno, v, s, t))
        elif head == "vertex":
            if n != 6:
                form = "'vertex <name> : <h1> <h2> <h3>'"
                raise _syntax_error(lineno, raw, tokens, min(n, 6), form)
            _, name, colon, a, b, c = tokens
            if colon != ":":
                raise _syntax_error(lineno, raw, tokens, 2, "':'", colon)
            if name in vertices:
                raise SemanticError(f"line {lineno}: duplicate vertex {name!r}")
            if "-" in raw:  # scripts write an edge as <h1>-<h2>
                for i in (3, 4, 5):
                    if "-" in tokens[i]:
                        expected = "a half-edge name without '-'"
                        raise _syntax_error(lineno, raw, tokens, i, expected, tokens[i])
            vertices[name] = (a, b, c)
        elif head == "edge":
            if n != 3:
                form = "'edge <h1> <h2>'"
                raise _syntax_error(lineno, raw, tokens, min(n, 3), form)
            edges.append((tokens[1], tokens[2]))
        elif head == "boundary":
            if boundary is not None:
                raise SemanticError(f"line {lineno}: duplicate boundary statement")
            boundary = tokens[1:]
        else:
            expected = "one of 'vertex', 'edge', 'boundary', 'alpha', 'beta'"
            raise _syntax_error(lineno, raw, tokens, 0, expected, head)

    if not vertices:
        raise SemanticError("file declares no vertices")
    try:
        g = build_graph(vertices, edges, boundary=boundary)
    except GraphError as exc:
        raise SemanticError(str(exc)) from exc

    triple_of = g._triple_of
    for lineno, v, s, t in beta_lines:
        triple = triple_of.get(v)
        if triple is None:
            raise SemanticError(f"line {lineno}: no vertex named {v!r}")
        if s not in triple or t not in triple:
            h = s if s not in triple else t
            raise SemanticError(f"line {lineno}: half-edge {h!r} is not at vertex {v!r}")
        if s == t:
            raise SemanticError(f"line {lineno}: beta source equals target")

    if not alpha:
        if beta:
            raise SemanticError("beta statements require alpha statements")
        return g, None
    try:
        return g, make_decoration(g, alpha, beta)
    except DecorationError as exc:
        raise SemanticError(f"invalid decoration: {exc}") from exc


def serialize_decorated_graph(
    g: TrivalentGraph, dec: Optional[Decoration] = None
) -> str:
    """Canonical text form: statements sorted, one beta lift per source
    (toward the least co-half), minimal lifts.  Byte-stable under
    parse-serialize round trips.  A decoration that does not fit g raises
    DecorationError."""
    _check_fit(g, dec)
    lines = [vertex_line(name, triple) for name, triple in g.vertices]
    lines += [edge_line(a, b) for a, b in g.edges]
    if g.boundary:
        lines.append(boundary_line(g.boundary))
    if dec is not None:
        lines += [alpha_line(h, a) for h, a in dec.alpha]
        beta = dec._beta
        lines += [beta_line(n, s, beta[s]) for n, triple in g.vertices for s in triple]
    return "\n".join(lines) + "\n"


# -- move scripts ---------------------------------------------------------


def serialize_script(script: MoveScript) -> str:
    lines = []
    for idx, step in enumerate(script.steps):
        if isinstance(step, IhMove):
            head, target, last = "IH", step.edge, step.pairing_choice
        elif isinstance(step, TrivialMod):
            head, target, last = step.kind, step.target, step.amount
        else:
            raise TextError(f"unknown step type {type(step).__name__}")
        if head in ("I", "IH"):
            # parse_script splits <x>-<y> at the first '-'
            if any("-" in h for h in target):
                raise TextError(f"edge {target!r} has a half-edge name containing '-'")
            target = "-".join(target)
        body = f"{head} {target} {last}"
        if script.hashes:
            body += f"  # {script.hashes[idx]}"
        lines.append(body)
    return "\n".join(lines) + ("\n" if lines else "")


def parse_script(text: str) -> MoveScript:
    """Parse a move script.  A comment of HASH_TAG and 16 hex digits is the
    step's snapshot hash: either every step carries one or none does.  Any
    other comment that starts with HASH_TAG is malformed, and one that starts
    with another tag ('m1:', ...) or is 16 bare hex digits is a hash of a
    retired scheme, which cannot be checked: both raise.  Others are free."""
    steps, hashes = [], []
    unhashed = None  # (line, step index) of the first step without a hash
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line, _, comment = raw.partition("#")
        if not line.strip():
            continue
        tokens = line.split()
        head = tokens[0]
        if head in ("V", "I", "E"):
            edge = head == "I"
            if len(tokens) != 3 or (edge and "-" not in tokens[1]):
                form = "'I <x>-<y> <int>'" if edge else f"'{head} <target> <int>'"
                raise FileSyntaxError(lineno, 1, form)
            amount = _to_int(tokens[2])
            if amount is None:
                raise FileSyntaxError(lineno, 1, "an integer", tokens[2])
            target = tuple(tokens[1].split("-", 1)) if edge else tokens[1]
            steps.append(TrivialMod(head, target, amount))
        elif head == "IH":
            if len(tokens) != 3 or "-" not in tokens[1]:
                raise FileSyntaxError(lineno, 1, "'IH <u>-<v> <b|c>'")
            if tokens[2] not in ("b", "c"):
                raise FileSyntaxError(lineno, 1, "'b' or 'c'", tokens[2])
            u, _, v = tokens[1].partition("-")
            steps.append(IhMove((u, v), tokens[2]))
        else:
            raise FileSyntaxError(lineno, 1, "one of 'V', 'I', 'E', 'IH'", head)
        comment = comment.strip()
        if _HASH.fullmatch(comment):
            hashes.append(comment)
        elif comment.startswith(HASH_TAG):
            raise FileSyntaxError(lineno, len(line) + 1, f"'{HASH_TAG}<16 hex>'", comment)
        elif retired := _RETIRED.match(comment):
            scheme = f"retired {retired[1]!r}" if retired[1] else "old whole-text"
            raise ScriptError(
                f"line {lineno}: {comment!r} is a snapshot hash of the {scheme}"
                " scheme, which cannot be checked; re-run 'decograph plan'"
            )
        elif unhashed is None:
            unhashed = (lineno, len(steps) - 1)
    if hashes and unhashed:
        raise ScriptError(
            f"line {unhashed[0]}: step {unhashed[1]} has no snapshot hash,"
            " but other steps have one"
        )
    return MoveScript(steps=tuple(steps), hashes=tuple(hashes))


# -- DOT export -----------------------------------------------------------


def dot_export(g: TrivalentGraph, dec: Optional[Decoration] = None) -> str:
    """Graphviz DOT rendering; alpha values label the half-edge ends.  Ids
    and labels are quoted, with backslash and double quote escaped."""
    _check_fit(g, dec)

    def q(text: str) -> str:
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'

    def half_label(h: str) -> str:
        return q(f"{h} (a={dec.a(h)})" if dec is not None else h)

    lines = ["graph decorated {", "  node [shape=circle];"]
    for name, _ in g.vertices:
        lines.append(f"  {q(name)};")
    for a, b in g.edges:
        lines.append(
            f"  {q(g.vertex_of(a))} -- {q(g.vertex_of(b))}"
            f" [taillabel={half_label(a)}, headlabel={half_label(b)}];"
        )
    for h in g.boundary:
        ext = q("ext_" + h)
        lines.append(f'  {ext} [shape=point, label=""];')
        lines.append(f"  {q(g.vertex_of(h))} -- {ext} [taillabel={half_label(h)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
