"""Tests of the benchmark itself: generator, determinism, tracer, run.py.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import importlib.util
import json
import os
import random
import shutil
import subprocess
import sys
import time
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import decograph  # noqa: E402
import gen  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(BENCH, "pinned.json")) as fh:
    WORKLOADS = workloads.make(decograph, json.load(fh))


# -- generator ----------------------------------------------------------


@pytest.mark.parametrize("v", [1, 2, 5, 12, 30, 60, 100, 200])
def test_generator_hits_v_and_genus_connected(v):
    rng = random.Random(v)
    for genus in sorted({0, 1, 2, 3, 8, 50, (v + 1) // 2}):
        if 2 * genus > v + 1:
            continue
        text = gen.to_text(gen.connected_graph(rng, v, genus))
        assert gen.text_stats(text) == (v, genus + v - 1, v + 2 - 2 * genus, genus)
        stats = decograph.graph_stats(decograph.parse_decorated_graph(text)[0])
        assert (stats.v, stats.components, stats.genus) == (v, 1, (genus,))


def test_generated_decorations_are_valid():
    rng = random.Random(5)
    for v, genus in [(3, 1), (30, 0), (40, 6), (80, 2)]:
        g = gen.connected_graph(rng, v, genus)
        alpha = gen.random_alpha(rng, g)
        text = gen.to_text(g, alpha, gen.random_beta(rng, g, alpha))
        graph, dec = decograph.parse_decorated_graph(text)  # validates
        assert decograph.validate_decoration(graph, dec) == []


def test_generator_rejects_impossible_sizes():
    with pytest.raises(ValueError):
        gen.connected_graph(random.Random(0), 4, 3)


def test_corpus_is_the_test_suite_enumeration():
    spec = importlib.util.spec_from_file_location(
        "suite_conftest", os.path.join(ROOT, "tests", "conftest.py"))
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    theirs = [(g.vertices, g.edges, g.boundary) for g in suite.small_graph_corpus()]
    ours = [(g.vertices, g.edges, g.boundary) for g in gen.small_graph_corpus()]
    assert ours == theirs


# -- determinism --------------------------------------------------------


def _round_text(name: str, seed: int) -> str:
    w = WORKLOADS[name]
    return json.dumps(w.round(random.Random(f"{name}:{seed}:0"), 0), sort_keys=True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    assert _round_text(name, 7) == _round_text(name, 7)
    assert _round_text(name, 7) != _round_text(name, 8)


def test_plan_genus3_pairs_cycle_through_a_fixed_pool():
    w = WORKLOADS["plan"]
    k, n = w.genus3_per_round, w.pool_size // w.genus3_per_round

    def round_(seed, r):
        items = w.round(random.Random(f"plan:{seed}:{r}"), r)
        return items[:-k], items[-k:]

    assert round_(7, 0)[0] != round_(8, 0)[0]
    assert round_(7, 0)[1] == round_(8, 0)[1] == round_(8, n)[1]
    assert [item for r in range(n) for item in round_(7, r)[1]] == w.pool()
    stats = {gen.text_stats(item["source"]) for item in w.pool()}
    assert {s[3] for s in stats} == {3} and {s[0] for s in stats} == set(range(7, 10))


def test_inputs_do_not_depend_on_hash_seed():
    code = ("import sys, json, random; sys.path[:0] = [{!r}, {!r}]\n"
            "import decograph, workloads\n"
            "w = workloads.make(decograph, {{}})['decide']\n"
            "print(json.dumps(w.round(random.Random('decide:3:0'), 0), sort_keys=True))").format(
                BENCH, os.path.join(ROOT, "src"))
    texts = {
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                       env=dict(os.environ, PYTHONHASHSEED=str(h))).stdout
        for h in (1, 2)
    }
    assert texts == {_round_text("decide", 3) + "\n"}


# -- tracer -------------------------------------------------------------


def _fake_package(name: str):
    """Two modules; ``b`` imports ``a.leaf`` by name, as decograph's modules do."""
    pkg = types.ModuleType(name)
    a = types.ModuleType(f"{name}.a")
    exec("import time\n"
         "def leaf():\n    time.sleep(0.02)\n"
         "def middle():\n    time.sleep(0.01)\n    leaf()\n", a.__dict__)
    b = types.ModuleType(f"{name}.b")
    b.leaf = a.leaf
    exec("def top():\n    middle()\n    leaf()\n", b.__dict__)
    b.middle = a.middle
    pkg.a, pkg.b = a, b
    return {name: pkg, f"{name}.a": a, f"{name}.b": b}


def test_tracer_self_times_and_gaps_add_up(monkeypatch):
    mods = _fake_package("fakepkg")
    for k, m in mods.items():
        monkeypatch.setitem(sys.modules, k, m)
    tr = tracing.Tracer("fakepkg", {"a": ["leaf", "middle"], "b": ["top"]})
    tr.install()
    try:
        t0 = time.perf_counter()
        with tr:
            mods["fakepkg.b"].top()
            time.sleep(0.01)  # untraced gap inside the active region
        wall = time.perf_counter() - t0
    finally:
        tr.restore()
    summary = tr.summary()
    assert {q: c for q, (c, _) in summary.items()} == {"a.leaf": 2, "a.middle": 1, "b.top": 1}
    assert summary["a.leaf"][1] == pytest.approx(0.04, abs=0.015)
    assert summary["a.middle"][1] == pytest.approx(0.01, abs=0.01)
    assert summary["b.top"][1] == pytest.approx(0.0, abs=0.01)
    total_self = sum(s for _, s in summary.values())
    assert tr.untraced_gap() == pytest.approx(0.01, abs=0.01)
    assert total_self + tr.untraced_gap() == pytest.approx(tr.wall, abs=1e-6)
    assert tr.wall == pytest.approx(wall, abs=0.005)


def test_tracer_restores_every_binding():
    before = {name: dict(vars(m)) for name, m in sys.modules.items()
              if name == "decograph" or name.startswith("decograph.")}
    tr = tracing.Tracer("decograph", tracing.TRACED)
    tr.install()
    try:
        assert decograph.moves.build_graph is not decograph.graph.build_graph.__wrapped__
        assert decograph.moves.build_graph is decograph.graph.build_graph
        assert decograph.normal_form.__wrapped__ is before["decograph"]["normal_form"]
    finally:
        tr.restore()
    for name, namespace in before.items():
        now = vars(sys.modules[name])
        assert all(now[k] is v for k, v in namespace.items()), name


def test_tracer_sees_calls_made_inside_the_library():
    text = WORKLOADS["normalize"].pinned_inputs()[2]
    tr = tracing.Tracer("decograph", tracing.TRACED)
    tr.install()
    try:
        with tr:
            nf = decograph.normal_form(*decograph.parse_decorated_graph(text))
    finally:
        tr.restore()
    summary = tr.summary()
    steps = sum(isinstance(s, decograph.IhMove) for s in nf.script.steps)
    assert steps > 0
    # Planning on the bare graph and the replay each apply every move once.
    assert summary["moves.ih_apply"][0] == 2 * steps
    assert summary["graph.build_graph"][0] >= 2 * steps
    assert summary["decoration.make_decoration"][0] >= steps


# -- run.py -------------------------------------------------------------


def _run(args, cwd):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py")] + args,
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_metrics_as_the_last_line(trace):
    proc = _run(["--workload", "decide", "--seed", "3", "--seconds", "0.3", "--trace", trace], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(["--workload", "plan", "--seed", "1", "--seconds", "1", "--trace", "0"], str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
