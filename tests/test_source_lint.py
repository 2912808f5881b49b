"""Static checks on the library source.

The library's behaviour must not depend on ``assert`` (stripped under
``python -O``), and modules and functions import only what they use.
``__init__.py`` re-exports names, so its imports are not checked.  An import
inside a function breaks an import cycle or is not there.  Every function,
method and class the library defines is named somewhere in the repository,
and a public one in the library or the benchmark, with no exemption: a name
that only tests or demos call belongs in the tests.  The planner in
``moves.py`` stays free of the isomorphism search and of decorations,
``normal_form`` reads its class off ``classify``, and the orbit walk in
``oracle.py`` free of whole-graph rebuilds and of the working state's
internals.  The working state takes no option.  The moves in ``moves.py``
keep every half-edge and the pairing.  Only ``_check_fit`` runs the fit rule, ``validate_decoration``.
``tests/conftest.py`` imports its sibling test modules lazily.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "decograph").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = _tree(path)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_top_level_imports(path):
    """Each name an import binds is read in the module and, for an import
    inside a function (a lazy import), in that function."""
    tree = _tree(path)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    functions = [n for n in ast.walk(tree) if isinstance(n, kinds)]
    unused = set()
    for scope in (tree, *functions):
        used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        for node in ast.walk(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.add(f"{name} (line {node.lineno})")
    assert sorted(unused) == [], f"{path.name}: unused imports {sorted(unused)}"


def _imported_modules(nodes):
    """The modules that the import statements among nodes name, each with
    its line; a package module goes by its stem, as ``from .lattice``
    names it."""
    out = {}
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module:
            out[node.module] = node.lineno
        elif isinstance(node, ast.Import):
            out.update((alias.name, node.lineno) for alias in node.names)
    return out


def test_conftest_imports_siblings_lazily():
    """bench/tests loads tests/conftest.py by path, without tests/ on the
    import path, so conftest.py imports a sibling test module (lemmas or a
    test file) only inside a function, which only the suite calls."""
    tests = ROOT / "tests"
    siblings = {p.stem for p in tests.glob("*.py")} - {"conftest"}
    tree = _tree(tests / "conftest.py")
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    inside = {
        id(node)
        for fn in ast.walk(tree) if isinstance(fn, kinds)
        for node in ast.walk(fn)
    }
    outside = [node for node in ast.walk(tree) if id(node) not in inside]
    flagged = [
        f"line {line}: {module}"
        for module, line in _imported_modules(outside).items()
        if module.split(".")[0] in siblings
    ]
    assert flagged == [], f"conftest.py imports test modules at load: {flagged}"


def test_lazy_imports_break_cycles():
    """An import inside a function (a lazy import) of module X is there to
    break an import cycle, so X must import this module at top level;
    otherwise the import belongs at the top."""
    top = {p.stem: _imported_modules(_tree(p).body) for p in SOURCES}
    misplaced = []
    for path in SOURCES:
        for fn in ast.walk(_tree(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for module, line in _imported_modules(ast.walk(fn)).items():
                    if path.stem not in top.get(module, {}):
                        misplaced.append(f"{path.name}:{line} {module}")
    assert misplaced == [], f"lazy imports that break no cycle: {misplaced}"


def _references(node):
    """The names node refers to: a name, an attribute, an imported name or a
    string constant that is an identifier (tables of names in bench/)."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.name.rsplit(".", 1)[-1] for alias in node.names]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value] if node.value.isidentifier() else []
    return []


def test_no_unreferenced_definitions():
    """A function, method or class defined in the library and named nowhere
    in src/, tests/, demos/ or bench/ is dead code; dunders are skipped."""
    defined = {}
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
    referenced = set()
    for top in ("src", "tests", "demos", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(_tree(path)):
                referenced.update(_references(node))
    dead = sorted(
        f"{name} ({where})" for name, where in defined.items() if name not in referenced
    )
    assert dead == [], f"definitions named nowhere: {dead}"


def test_library_names_are_called_by_the_library_or_bench():
    """A public top-level function or class of the library stays only if
    src/ or bench/ names it outside its own definition (``__init__.py``'s
    re-exports aside): the CLI, the decision paths and the benchmark are
    what the library is for.  A step of a proof that only tests check
    belongs in tests/lemmas.py, and a check of the theorem in
    tests/exhaustive.py."""
    paths = [p for p in SOURCES if p.name != "__init__.py"]
    trees = {p: _tree(p) for p in [*paths, *sorted((ROOT / "bench").rglob("*.py"))]}
    named = Counter(
        name for tree in trees.values() for node in ast.walk(tree) for name in _references(node)
    )
    uncalled = []
    for path in paths:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            inside = sum(
                _references(n).count(node.name) for n in ast.walk(node)
            )
            if named[node.name] == inside:
                uncalled.append(f"{node.name} ({path.name}:{node.lineno})")
    assert uncalled == [], f"library names only tests or demos call: {uncalled}"


def _names(filename):
    """Every name a module imports, binds or reads, attributes included."""
    path = next(p for p in SOURCES if p.name == filename)
    names = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_fit_rule_runs_only_in_check_fit():
    """validate_decoration states the fit rule and only _check_fit runs it,
    after its constant-time test of the graph a decoration is bound to, so
    no entry point scans a decoration on every call.  __init__.py only
    re-exports it."""
    flagged = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = _tree(path)
        inside = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "_check_fit"
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, (ast.Name, ast.Attribute)):
                names = [node.id if isinstance(node, ast.Name) else node.attr]
            else:
                continue
            if "validate_decoration" in names and id(node) not in inside:
                flagged.append(f"{path.name}:{node.lineno}")
    assert flagged == [], f"validate_decoration named outside _check_fit: {flagged}"


def test_planner_does_not_search():
    """ih_plan reads its bijection off the normalizations; moves.py must not
    import or call the isomorphism search."""
    assert "boundary_isomorphism" not in _names("moves.py")


def _function(filename, name):
    """The top-level definition of ``name`` in a library module."""
    path = next(p for p in SOURCES if p.name == filename)
    return next(
        node for node in _tree(path).body
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


def test_planner_takes_no_decoration():
    """normalize_to_apple_tree is a graph algorithm: no parameter is a
    decoration, by name or by annotation; decorations follow by replay."""
    planner = _function("moves.py", "normalize_to_apple_tree")
    args = planner.args
    flagged = [
        f"line {a.lineno}: {a.arg}"
        for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
        if a.arg.startswith("dec")
        or (a.annotation is not None and "Decoration" in ast.unparse(a.annotation))
    ]
    assert flagged == [], f"normalize_to_apple_tree takes a decoration: {flagged}"


def test_normal_form_reads_the_class_off_classify():
    """normal_form builds the canonical apple from classify's key, so it
    names none of the loop-tuple path; that cross-check lives in the tests."""
    loop_tuple_path = {"extract_loop_tuple", "tuple_reduce", "tuple_class"}
    flagged = [
        f"line {node.lineno}: {node.id}"
        for node in ast.walk(_function("invariants.py", "normal_form"))
        if isinstance(node, ast.Name) and node.id in loop_tuple_path
    ]
    assert flagged == [], f"normal_form names the loop-tuple path: {flagged}"


def test_oracle_does_not_rebuild():
    """The orbit walk edits one working state per round trip; oracle.py
    must not import or call the whole-graph move or the graph builder."""
    names = _names("oracle.py")
    assert "ih_apply" not in names
    assert "build_graph" not in names


def test_oracle_stays_out_of_the_state():
    """The round trips edit, name and read the working state through
    _PlanState's methods; oracle.py names none of the state's dicts."""
    state_dicts = {"_alpha", "_beta", "_triple_of", "_vertex_of", "_partner"}
    assert _names("oracle.py") & state_dicts == set()


def test_plan_state_has_no_options():
    """A working state seeds its hashes when snapshot_hash is first asked
    for, so its constructor takes the graph and the decoration and nothing
    else."""
    path = next(p for p in SOURCES if p.name == "moves.py")
    state = next(
        node for node in _tree(path).body
        if isinstance(node, ast.ClassDef) and node.name == "_PlanState"
    )
    init = next(
        node for node in state.body
        if isinstance(node, ast.FunctionDef) and node.name == "__init__"
    )
    args = init.args
    names = [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]]
    assert names == ["self", "g", "dec"] and not (args.vararg or args.kwarg)


def _state_edits(tree):
    """Where ``tree`` deletes or pops a key of _vertex_of, _alpha or _beta,
    or writes to _partner in any way, directly or through a local name
    bound to one of them, as "line: dict"."""
    keyed, every = {"_vertex_of", "_alpha", "_beta"}, {"_partner"}
    alias = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                alias.update(
                    (t.id, v.attr) for t, v in pairs
                    if isinstance(t, ast.Name) and isinstance(v, ast.Attribute)
                )

    def dict_of(node):
        if isinstance(node, ast.Attribute):
            return node.attr
        return alias.get(node.id) if isinstance(node, ast.Name) else None

    def subscripted(targets):
        for t in targets:
            if isinstance(t, ast.Tuple):
                yield from subscripted(t.elts)
            elif isinstance(t, ast.Subscript):
                yield dict_of(t.value)

    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Delete):
            found = set(subscripted(node.targets)) & (keyed | every)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found = set(subscripted(targets)) & every
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            mutators = {"pop", "popitem", "clear", "update", "setdefault"}
            found = {dict_of(node.func.value)} & (keyed | every)
            found = found if node.func.attr in mutators else set()
        else:
            continue
        hits += [f"{node.lineno}: {name}" for name in sorted(found)]
    return hits


def test_moves_keep_every_half_edge():
    """An IH move keeps its edge's names and the pairing, so moves.py
    deletes no half-edge from the working state and never writes to the
    pairing it shares with the graph; no fresh-name helper is left."""
    assert _state_edits(_tree(next(p for p in SOURCES if p.name == "moves.py"))) == []
    assert [p.name for p in SOURCES if "_fresh_name" in p.read_text()] == []
