"""Tests of the benchmark's own parts: the reference counters, the self-time
arithmetic, the tracer's installation, and a one-instance smoke pass of each
workload.  Run from the repository root:

    python3 -m pytest -q bench
"""

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
from run import import_fresh, timed_pass  # noqa: E402
from spans import ROOT as NO_PARENT, Tracer, self_times  # noqa: E402


# --- reference counters -------------------------------------------------------

def test_chain2_two_objects_is_boolean_chain():
    # boolean_chain.json: 3 presheaves; antitone maps 00, 10, 11 with the
    # six pointwise-ordered pairs.
    assert reference.chain_poset_counts(2, 2) == (3, 6)


def test_ladder_top_rungs():
    assert reference.chain_poset_counts(4, 5) == (56, 1176)
    assert reference.codiscrete_loop_counts(4, 3) == (16, 1024)
    assert reference.codiscrete_loop_counts(2, 2) == (2, 8)


def test_action_spaces():
    # One value map per antitone choice is the only non-empty action space.
    assert reference.chain_poset_action_space(2, 2) == 2 ** 2
    assert reference.codiscrete_loop_action_space(4, 3) == 4 ** 9


def test_coend_conical_and_representable():
    f_cards, f_steps = [2, 3], [[0, 1]]
    # Terminal weight: the conical colimit of 0 -> 1 is F(1).
    assert reference.coend_card([1, 1], [[0]], f_cards, f_steps) == 3
    # Weight hom(-, 0) = Y(0): co-Yoneda gives F(0).
    assert reference.coend_card([1, 0], [[]], f_cards, f_steps) == 2
    # Of the two points of W(0), only the one W(1) restricts to is glued to
    # the copy of F over object 1.
    assert reference.coend_card([2, 1], [[0]], [1, 1], [[0]]) == 2


# --- self-time arithmetic -------------------------------------------------------

def test_self_times_nested_spans():
    spans = [
        ("root", 0.0, 10.0, NO_PARENT, 1.0),
        ("a", 1.0, 4.0, 0, 0.0),
        ("b", 2.0, 3.0, 1, 0.0),
        ("c", 5.0, 9.0, 0, 1.0),   # 1 s of light-wrapped calls inside c
    ]
    got = self_times(spans)
    assert got == pytest.approx({"root": 3.0, "a": 2.0, "b": 1.0, "c": 3.0})
    assert sum(got.values()) + 1.0 == pytest.approx(10.0)


def test_self_times_sum_repeated_names():
    spans = [
        ("root", 0.0, 6.0, NO_PARENT, 0.5),
        ("gen", 1.0, 2.0, 0, 0.0),     # two resumptions of one generator
        ("gen", 3.0, 3.5, 0, 0.0),
        ("f", 4.0, 6.0, 0, 0.5),
        ("f", 4.5, 5.0, 3, 0.5),       # recursion; the light time is inside it
    ]
    got = self_times(spans)
    assert got == pytest.approx({"root": 2.5, "gen": 1.5, "f": 1.5})


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.core defines the functions, fakepkg.user binds one by name
    and holds a class method that calls through the module."""
    core = types.ModuleType("fakepkg.core")
    exec(
        "def leaf(x):\n    return x + 1\n"
        "def outer(x):\n    return leaf(x) * 2\n"
        "def gen(n):\n    for i in range(n):\n        yield leaf(i)\n",
        vars(core))
    user = types.ModuleType("fakepkg.user")
    user.outer = core.outer
    user.core = core

    class Holder:
        def call(self, x):
            return core.outer(x)

    Holder.__module__ = "fakepkg.user"
    Holder.outer = core.outer
    user.Holder = Holder
    pkg = types.ModuleType("fakepkg")
    for name, mod in (("fakepkg", pkg), ("fakepkg.core", core), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    return core, user


def test_install_replaces_every_reference(fake_package):
    core, user = fake_package
    original = core.outer
    tracer = Tracer(clock=FakeClock())
    replacements = tracer.light_wrappers("core", core)
    replacements.update({core.outer: tracer.span_wrapper("core.outer", core.outer),
                         core.gen: tracer.span_wrapper("core.gen", core.gen)})
    tracer.install("fakepkg", replacements)
    try:
        assert user.outer is core.outer is user.Holder.outer is not original
        assert user.outer(1) == 4
        assert user.Holder().call(2) == 6
        assert list(core.gen(3)) == [1, 2, 3]
    finally:
        tracer.uninstall()
    assert user.outer is core.outer is user.Holder.outer is original
    assert tracer.call_count("core.outer") == 2
    assert tracer.call_count("core.gen") == 1
    assert tracer.call_count("core.leaf") == 5
    # three resumptions yield, each after a leaf call; a fourth ends it
    gen_light = [s[4] for s in tracer.spans if s[0] == "core.gen"]
    assert gen_light == [1.0, 1.0, 1.0, 0.0]
    assert all(s[4] == 1.0 for s in tracer.spans if s[0] == "core.outer")


def test_light_wrapper_does_not_wrap_sibling_calls(fake_package):
    core, _ = fake_package
    tracer = Tracer(clock=FakeClock())
    tracer.install("fakepkg", tracer.light_wrappers("core", core))
    try:
        assert core.outer(1) == 4
    finally:
        tracer.uninstall()
    # outer's own call to leaf runs on the unwrapped sibling
    assert tracer.call_count("core.outer") == 1
    assert tracer.call_count("core.leaf") == 0
    assert tracer.light_seconds("core") == 1.0
    assert tracer.self_times() == {"core": 1.0}
    tracer.reset()
    assert tracer.call_count("core.outer") == 0
    assert tracer.light_seconds("core") == 0.0


# --- smoke passes ------------------------------------------------------------------

@pytest.fixture
def enrichkit_modules(monkeypatch):
    monkeypatch.chdir(ROOT)
    import_fresh()


def _one_instance(workload):
    import workloads
    if workload is workloads.PresheafLadder:
        return [workloads.ladder_rung_tables("chain", 3, 4)]
    if workload is workloads.ColimitChain:
        return workload.make_inputs(0)[:1]
    return [cmd for cmd in workload.make_inputs(0)
            if cmd[0] in ("fuzz seed=1", "validate corrupted_assoc", "yoneda s3_pair")]


@pytest.mark.parametrize("name", ["presheaf-ladder", "colimit-chain", "fuzz-cli"])
def test_smoke_pass(name, enrichkit_modules):
    import workloads
    workload = workloads.WORKLOADS[name]
    inputs = _one_instance(workload)
    run = workloads.Run()
    for _ in range(2):
        timed_pass(workload, inputs, run)
    assert run.failures == []
    operations, verdicts = {"presheaf-ladder": (5, 3), "colimit-chain": (7, 6),
                            "fuzz-cli": (3, 33 + 1 + 2)}[name]
    assert run.attempted == 2 * operations
    assert len(run.verdict_s) == 2 * verdicts
    assert all(t > 0 for t in run.verdict_s)


def test_smoke_traced_pass(enrichkit_modules):
    import layers
    import workloads
    tracer, replacements = layers.make_tracer()
    run = workloads.Run()
    inputs = _one_instance(workloads.ColimitChain)
    tracer.install("enrichkit", replacements)
    try:
        timed_pass(workloads.ColimitChain, inputs, run)
    finally:
        tracer.uninstall()
    assert run.failures == []
    metrics = layers.pass_metrics(tracer)
    assert set(metrics) == {n for n, _, _ in layers.METRICS if not n.startswith("trace.")}
    assert metrics["wcolim.weighted_colimit.calls"] >= 1
    assert metrics["wcolim.apex_card"] >= inputs[0]["apex_card"]
    assert metrics["finset.compose.calls"] > 0
    assert metrics["finset.self_s"] > 0
    assert metrics["presheaf.enumerate_presheaves.self_s"] == 0


def test_wrong_answer_is_a_failed_operation(enrichkit_modules):
    import workloads
    inputs = [dict(workloads.ladder_rung_tables("chain", 3, 4), presheaves=16)]
    run = workloads.Run()
    timed_pass(workloads.PresheafLadder, inputs, run)
    assert run.attempted == 5
    assert run.failed == 5   # the mismatch, then four dependent operations
    assert "expected (16, 105)" in run.failures[0]


def test_benchmark_json_names_every_metric():
    import layers
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in layers.METRICS]
    import workloads
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
