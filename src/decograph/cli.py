"""Command-line interface over decorated-graph text files.

Exit codes: 0 success (and "equivalent" for equiv), 1 "not equivalent",
2 invalid input, 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import tempfile
from typing import Optional

from .decoration import DecorationError
from .graph import GraphError, InternalError, graph_stats
from .invariants import InvariantError, classify, equivalent, normal_form
from .moves import (
    IhMove,
    MoveError,
    apply_script,
    ih_apply,
    ih_plan,
    with_hashes,
)
from .oracle import FrontierExceeded, OrbitBounds, move_orbit
from .textio import (
    TextError,
    dot_export,
    parse_decorated_graph,
    parse_script,
    serialize_decorated_graph,
    serialize_script,
)

USER_ERRORS = (TextError, GraphError, DecorationError, MoveError, InvariantError, OSError)


def _atomic_write(path: str, content: str) -> None:
    """Replace path by a file holding content, in one step, with the mode
    open(path, "w") gives: the old file's, else 0o666 less the umask."""
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        os.fchmod(fd, mode)
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise TextError(f"{path}: does not decode as text ({exc.reason})") from None


def _load(path: str, need_decoration: bool = False):
    g, dec = parse_decorated_graph(_read(path))
    if need_decoration and dec is None:
        raise TextError(f"{path}: file carries no decoration (alpha statements)")
    return g, dec


def _parse_map(spec: Optional[str], g1) -> dict:
    if not spec:
        return {h: h for h in g1.boundary}
    out = {}
    for item in spec.split(","):
        a, sep, b = item.partition("=")
        if not sep or not a or not b:
            raise TextError(f"bad map entry {item!r}; expected a=b")
        if a in out:
            raise TextError(f"map entry {item!r} repeats the source {a!r}")
        out[a] = b
    return out


def _cmd_validate(args) -> int:
    g, dec = _load(args.file)
    stats = graph_stats(g)
    kind = "decorated graph" if dec is not None else "graph"
    print(
        f"ok: {kind} with {stats.v} vertices, {stats.i} internal edges, "
        f"{stats.e} external edges, {stats.components} component(s), "
        f"genus {list(stats.genus)}"
    )
    return 0


def _cmd_invariants(args) -> int:
    g, dec = _load(args.file, need_decoration=True)
    report = classify(g, dec)
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    else:
        for key, value in sorted(report.to_dict().items()):
            print(f"{key}: {value}")
    return 0


def _cmd_equiv(args) -> int:
    g1, dec1 = _load(args.file1, need_decoration=True)
    g2, dec2 = _load(args.file2, need_decoration=True)
    bmap = _parse_map(args.map, g1)
    if equivalent(g1, dec1, g2, dec2, bmap):
        print("equivalent")
        return 0
    print("not equivalent")
    return 1


def _cmd_ih(args) -> int:
    g, dec = _load(args.file)
    u, sep, v = args.edge.partition("-")
    if not sep:
        raise TextError(f"bad --edge {args.edge!r}; expected u-v")
    g2, dec2, _ = ih_apply(g, dec, IhMove((u, v), args.pairing))
    _atomic_write(args.output, serialize_decorated_graph(g2, dec2))
    print(f"wrote {args.output}")
    return 0


def _cmd_plan(args) -> int:
    g1, dec1 = _load(args.file1)
    g2, _ = _load(args.file2)
    bmap = _parse_map(args.map, g1)
    script = with_hashes(g1, dec1, ih_plan(g1, g2, bmap))
    _atomic_write(args.output, serialize_script(script))
    print(f"wrote {args.output} ({len(script.steps)} moves)")
    return 0


def _cmd_run(args) -> int:
    g, dec = _load(args.file)
    script = parse_script(_read(args.script))
    g2, dec2 = apply_script(g, dec, script)
    _atomic_write(args.output, serialize_decorated_graph(g2, dec2))
    print(f"wrote {args.output}")
    return 0


def _cmd_normalize(args) -> int:
    g, dec = _load(args.file, need_decoration=True)
    nf = normal_form(g, dec)
    _atomic_write(args.output, serialize_decorated_graph(nf.graph, nf.decoration))
    print(f"wrote {args.output}")
    print(json.dumps(nf.report.to_dict(), sort_keys=True))
    return 0


def _cmd_orbit(args) -> int:
    for flag, value in (("--bound", args.bound), ("--depth", args.depth)):
        if value < 0:
            raise TextError(f"{flag} must be >= 0, got {value}")
    g, dec = _load(args.file, need_decoration=True)
    start = classify(g, dec).key()  # a graph classify rejects fails before the walk
    bounds = OrbitBounds(max_param=args.bound, max_depth=args.depth)
    try:
        orbit = move_orbit(g, dec, bounds)
        print(f"orbit size {len(orbit)} (bound {args.bound}, depth {args.depth})")
    except FrontierExceeded as exc:
        orbit = exc.partial
        print(f"frontier exceeded after {len(orbit)} states")
    if {classify(g, d).key() for d in orbit} != {start}:
        raise InternalError("classification not constant on orbit")
    print("classification constant on orbit: yes")
    return 0


def _cmd_dot(args) -> int:
    g, dec = _load(args.file)
    text = dot_export(g, dec)
    if args.output:
        _atomic_write(args.output, text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decograph",
        description="Combinatorics of decorated trivalent graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a graph file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("invariants", help="print the classification record")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("equiv", help="decide equivalence of two files")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--map", help="boundary map a=b,c=d (default: identity)")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("ih", help="apply one IH move")
    p.add_argument("file")
    p.add_argument("--edge", required=True, metavar="u-v")
    p.add_argument("--pairing", required=True, choices=("b", "c"))
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_ih)

    p = sub.add_parser("plan", help="plan an IH-move script between graphs")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--map", help="boundary map a=b,c=d (default: identity)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("run", help="replay a move script on a file")
    p.add_argument("file")
    p.add_argument("script")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("normalize", help="reduce to the canonical apple tree")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("orbit", help="bounded brute-force move orbit")
    p.add_argument("file")
    p.add_argument("--bound", type=int, default=1)
    p.add_argument("--depth", type=int, default=4)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("dot", help="export Graphviz DOT")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_dot)

    return parser


def run_command(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
