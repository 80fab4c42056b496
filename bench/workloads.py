"""The three benchmark workloads.

Each workload has two halves.  ``make_inputs(seed)`` generates raw input
tables (plain ints, strings and lists) together with the known answers from
``reference``; it uses no enrichkit object, so it can run inside the timed
set-up.  ``run_pass(inputs, run)`` hands those tables to enrichkit's public
API, one operation at a time, and records whether each result matches the
known answer and how long each verdict took.

Operations run closed-loop in one thread: each starts when the previous
verdict has returned.  enrichkit is imported inside the pass functions so
they always bind the modules the set-up imported last.
"""

import contextlib
import hashlib
import io
import json
import random
import time

import reference

# --- bookkeeping shared by the workloads ------------------------------------


class Run:
    """Operation outcomes and verdict times collected over a run.

    A verdict is an answer of the checker: a validator accepting its input,
    a validated Yoneda functor, a check report, a CLI check record.  Its
    time runs from the previous verdict (or the start of the pass) to its
    own, so constructions that feed a check, such as enumerate_presheaves
    or weighted_colimit, count in the time of the verdict that follows.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.verdict_s = []
        self.failures = []
        self.rungs = {}      # presheaf-ladder: rung label -> record
        self.digests = {}    # fuzz-cli: command label -> report SHA-256
        self._last_verdict = None

    def start_pass(self):
        self._last_verdict = time.perf_counter()

    def verdict(self):
        now = time.perf_counter()
        self.verdict_s.append(now - self._last_verdict)
        self._last_verdict = now

    def fail(self, label, why):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {why}")

    def op(self, label, fn, check, verdict=True):
        """Run one operation and compare its result with the known answer;
        check(value) returns a problem or None.  Any raise, SizeBound and
        Overflow included, is a failed operation."""
        self.attempted += 1
        try:
            value = fn()
        except Exception as exc:
            problem = f"{type(exc).__name__}: {exc}"
        else:
            problem = None
        if verdict:
            self.verdict()
        if problem is None:
            try:
                problem = check(value)
            except Exception as exc:  # a result of the wrong shape
                problem = f"unexpected result: {type(exc).__name__}: {exc}"
        if problem:
            self.fail(label, problem)
            return None
        return value

    def skip(self, label, count):
        """Operations that cannot run because an earlier one failed."""
        for _ in range(count):
            self.attempted += 1
            self.fail(label, "not run: an earlier operation of its instance failed")


def _expect(what, got, want):
    return None if got == want else f"{what} {got!r}, expected {want!r}"


# --- presheaf-ladder ---------------------------------------------------------

# (shape, k, n): the chain poset rungs run over the k-chain meet base, the
# codiscrete rungs over the one-object base Z_k with every composite r0.
RUNGS = [("chain", 3, 4), ("chain", 4, 4), ("chain", 4, 5),
         ("codiscrete", 3, 3), ("codiscrete", 4, 3)]


def _chain_mor(i, j):
    return f"le{i}{j}" if i != j else f"id_{i}"


def ladder_rung_tables(shape, k, n):
    """hom, unit and comp tables of one rung, by base object and morphism
    name, plus its known answers."""
    xs = range(n)
    if shape == "chain":
        top = k - 1
        hom = {(x, y): (top if x <= y else 0) for x in xs for y in xs}
        unit = {x: _chain_mor(top, top) for x in xs}
        comp = {(x, y, z): _chain_mor(min(hom[(y, z)], hom[(x, y)]), hom[(x, z)])
                for x in xs for y in xs for z in xs}
        hom = {key: str(v) for key, v in hom.items()}
        presheaves, morphisms = reference.chain_poset_counts(k, n)
        space = reference.chain_poset_action_space(k, n)
        base_objects = k
    else:
        hom = {(x, y): "*" for x in xs for y in xs}
        unit = {x: "r0" for x in xs}
        comp = {(x, y, z): "r0" for x in xs for y in xs for z in xs}
        presheaves, morphisms = reference.codiscrete_loop_counts(k, n)
        space = reference.codiscrete_loop_action_space(k, n)
        base_objects = 1
    return {
        "label": f"{shape}{n}/k{k}", "shape": shape, "k": k, "n": n,
        "objects": [f"x{i}" for i in xs], "hom": hom, "unit": unit, "comp": comp,
        "presheaves": presheaves, "morphisms": morphisms,
        "bijections": presheaves * n * base_objects,
        "ff_bijections": n * n * base_objects,
        "search_space": space,
    }


class PresheafLadder:
    """P_M(A) for chain posets (thin) and codiscrete loops (non-thin hom-sets)
    up to 56 presheaves / 1176 morphisms.  presheaf, search, fincat and
    tensored do over 95% of the work; finset, wcolim and corpus do none."""

    name = "presheaf-ladder"

    @staticmethod
    def make_inputs(seed):
        # Deterministic: the ladder is a fixed scaling series; the seed is unused.
        return [ladder_rung_tables(*rung) for rung in RUNGS]

    @staticmethod
    def run_pass(inputs, run):
        from enrichkit.caps import DEFAULT_CAPS
        from enrichkit.enriched import validate_mcat
        from enrichkit.monoidal import chain_meet_monoidal, loop_monoidal
        from enrichkit.presheaf import (
            check_fully_faithful, check_yoneda_lemma, enumerate_presheaves, yoneda)

        for t in inputs:
            label = t["label"]
            t0 = time.perf_counter()

            def enumerate_rung(t=t):
                base = (chain_meet_monoidal(t["k"]) if t["shape"] == "chain"
                        else loop_monoidal(t["k"]))
                c = base.carrier
                A = validate_mcat(
                    base, t["objects"],
                    {xy: c.obj(o) for xy, o in t["hom"].items()},
                    {x: c.mor(m) for x, m in t["unit"].items()},
                    {xyz: c.mor(m) for xyz, m in t["comp"].items()},
                    name=label, caps=DEFAULT_CAPS)
                return enumerate_presheaves(A, DEFAULT_CAPS)

            # Building and validating the rung's MCat takes milliseconds and
            # is part of the enumeration operation.
            pscat = run.op(f"{label} enumerate_presheaves", enumerate_rung,
                           lambda p: _expect("presheaves/morphisms",
                                             (len(p.presheaves), len(p.morphisms)),
                                             (t["presheaves"], t["morphisms"])),
                           verdict=False)
            if pscat is None:
                run.skip(label, 4)
                continue
            module = run.op(f"{label} as_module", pscat.as_module,
                            lambda m: _expect("module carrier objects",
                                              m.carrier.n_objects, t["presheaves"]),
                            verdict=False)
            if module is None:
                run.skip(label, 3)
                continue
            run.op(f"{label} yoneda", lambda: yoneda(pscat, DEFAULT_CAPS),
                   lambda Y: _expect("object map length", len(Y.ob_map), t["n"]))
            run.op(f"{label} check_yoneda_lemma", lambda: check_yoneda_lemma(pscat),
                   lambda r: _expect("(passed, bijections)", (r.passed, r.checked),
                                     (True, t["bijections"])))
            run.op(f"{label} check_fully_faithful",
                   lambda: check_fully_faithful(pscat, DEFAULT_CAPS),
                   lambda r: _expect("(passed, bijections)", (r.passed, r.checked),
                                     (True, t["ff_bijections"])))
            rec = run.rungs.setdefault(label, {
                "shape": t["shape"], "k": t["k"], "n": t["n"],
                "presheaves": len(pscat.presheaves),
                "morphisms": len(pscat.morphisms),
                "guard_fill": t["search_space"] / DEFAULT_CAPS.max_search,
                "seconds": []})
            rec["seconds"].append(time.perf_counter() - t0)


# --- colimit-chain -----------------------------------------------------------

CHAIN = 8
PAIRS = 10
PROBES = 20
# The values of W and F are rotations of this list that depend on the pair's
# index only, so every seed does a similar amount of work; the seed draws
# the maps.
CARDS = [1, 2, 3, 4, 1, 2, 3, 4]


def _composite(steps, x, y, backwards):
    """The map along x <= y derived from the generating steps: tables of
    W(i+1) -> W(i) when backwards, of F(i) -> F(i+1) otherwise."""
    def apply(v):
        for i in (range(y - 1, x - 1, -1) if backwards else range(x, y)):
            v = steps[i][v]
        return v
    return apply


def colimit_pair_tables(rng, index):
    """The index-th weight W (a presheaf on the chain) and diagram F (a functor
    out of it), as raw tables over chain_cat(CHAIN) ingested into finite
    sets, where hom(x, y) has one element when x <= y and none otherwise."""
    w_cards = [CARDS[(x + index) % CHAIN] for x in range(CHAIN)]
    f_cards = [CARDS[(x + 3 * index + 2) % CHAIN] for x in range(CHAIN)]
    w_steps = [[rng.randrange(w_cards[i]) for _ in range(w_cards[i + 1])]
               for i in range(CHAIN - 1)]
    f_steps = [[rng.randrange(f_cards[i + 1]) for _ in range(f_cards[i])]
               for i in range(CHAIN - 1)]
    w_action, f_phi = {}, {}
    for x in range(CHAIN):
        for y in range(CHAIN):
            if x <= y:
                w = _composite(w_steps, x, y, backwards=True)
                f = _composite(f_steps, x, y, backwards=False)
                w_action[(x, y)] = (w_cards[y], [w(s) for s in range(w_cards[y])])
                f_phi[(x, y)] = (f_cards[x], [f(a) for a in range(f_cards[x])])
            else:
                w_action[(x, y)] = (0, [])
                f_phi[(x, y)] = (0, [])
    return {
        "w_cards": w_cards, "w_action": w_action,
        "f_cards": f_cards, "f_phi": f_phi,
        "probe_seed": rng.randrange(2 ** 32),
        "apex_card": reference.coend_card(w_cards, w_steps, f_cards, f_steps),
    }


class ColimitChain:
    """Seeded weights and diagrams over chain_cat(8): finset, wcolim and the
    mfunctor and presheaf validators do the work.  Presheaf enumeration and
    the corpus sampler are bypassed, so an optimisation of either must show
    no change here."""

    name = "colimit-chain"

    @staticmethod
    def make_inputs(seed):
        rng = random.Random(seed)
        return [colimit_pair_tables(rng, i) for i in range(PAIRS)]

    @staticmethod
    def run_pass(inputs, run):
        from enrichkit.caps import DEFAULT_CAPS
        from enrichkit.enriched import mcat_from_fincat
        from enrichkit.fincat import chain_cat
        from enrichkit.finset import SkMap, SkSet
        from enrichkit.mfunctor import validate_mfun_et
        from enrichkit.presheaf import validate_presheaf
        from enrichkit.wcolim import (
            FinSetModule, canonical_presentation, check_equivalence,
            check_universal, sample_probes, weighted_colimit)

        def hom_cards(A):
            got = [[A.hom(x, y).card for y in range(CHAIN)] for x in range(CHAIN)]
            want = [[int(x <= y) for y in range(CHAIN)] for x in range(CHAIN)]
            return _expect("hom cardinalities", got, want)

        A = run.op("chain8 mcat_from_fincat",
                   lambda: mcat_from_fincat(chain_cat(CHAIN), DEFAULT_CAPS), hom_cards)
        if A is None:
            run.skip("chain8", 6 * len(inputs))
            return
        B = FinSetModule(DEFAULT_CAPS)
        for i, t in enumerate(inputs):
            label = f"pair{i}"

            def weight(t=t):
                values = [SkSet(c) for c in t["w_cards"]]
                action = {xy: SkMap(SkSet(d), values[xy[0]], tuple(table))
                          for xy, (d, table) in t["w_action"].items()}
                return validate_presheaf(A, values, action)

            def diagram(t=t):
                values = [SkSet(c) for c in t["f_cards"]]
                phi = {xy: SkMap(SkSet(d), values[xy[1]], tuple(table))
                       for xy, (d, table) in t["f_phi"].items()}
                return validate_mfun_et(A, B, values, phi, caps=DEFAULT_CAPS)

            W = run.op(f"{label} validate_presheaf", weight,
                       lambda W: _expect("weight values",
                                         [v.card for v in W.values], t["w_cards"]))
            F = run.op(f"{label} validate_mfun_et", diagram,
                       lambda F: _expect("diagram values",
                                         [v.card for v in F.ob_map], t["f_cards"]))
            if W is None or F is None:
                run.skip(label, 4)
                continue
            wc = run.op(f"{label} weighted_colimit",
                        lambda: weighted_colimit(W, F, B),
                        lambda wc: _expect("apex card", wc.apex.card, t["apex_card"]),
                        verdict=False)
            if wc is None:
                run.skip(label, 1)
            else:
                run.op(f"{label} check_universal",
                       lambda: check_universal(
                           wc, sample_probes(wc, random.Random(t["probe_seed"]),
                                             PROBES, B), B),
                       lambda r: _expect("(passed, probes)", (r.passed, r.probes),
                                         (True, PROBES)))
            run.op(f"{label} canonical_presentation",
                   lambda: canonical_presentation(W, DEFAULT_CAPS),
                   lambda r: _expect("(passed, points)", (r.passed, r.points),
                                     (True, CHAIN)))
            run.op(f"{label} check_equivalence",
                   lambda: check_equivalence([(A, F, [W])], caps=DEFAULT_CAPS),
                   lambda r: _expect("passed", r.passed, True))


# --- fuzz-cli ----------------------------------------------------------------

SPECS = "demos/specs"
FUZZ_SEEDS = range(12)


def _records(*records):
    """(check, instance, verdict[, details subset]) with details defaulting
    to nothing."""
    return [(*r, {}) if len(r) == 3 else r for r in records]


# Hand-written expected answers: (exit code, [(check, instance, verdict,
# details subset)]) per command.  Each fuzz record is a theorem instance, so
# it must pass.
FUZZ_EXPECTED = (0, _records(
    *[("fuzz.yoneda", f"instance{i}", "pass") for i in range(25)],
    *[("fuzz.wcolim", f"instance{i}", "pass") for i in range(8)],
    ("fuzz.unit_automatism", "corpus", "pass")))

SPEC_EXPECTED = {
    ("validate", "boolean_chain"): (0, _records(
        ("validate.category", "bool2", "pass"),
        ("validate.monoidal", "bool_and", "pass"),
        ("validate.enriched", "chain2", "pass"))),
    ("validate", "s3_pair"): (0, _records(
        ("validate.category", "s3", "pass"),
        ("validate.monoidal", "s3_mul", "pass"),
        ("validate.enriched", "pair", "pass"))),
    ("validate", "c3_loop"): (0, _records(
        ("validate.category", "c3", "pass"),
        ("validate.monoidal", "c3_mul", "pass"),
        ("validate.enriched", "loop", "pass"))),
    ("validate", "wcolim_demo"): (0, _records(
        ("validate.category", "Apar", "pass"),
        ("validate.category", "Aarr", "pass"),
        ("validate.mfunctor", "Fswap", "pass"),
        ("validate.mfunctor", "Farr", "pass"),
        ("validate.weight", "Wterm", "pass"),
        ("validate.weight", "Wyb", "pass"))),
    # The one corrupted cell: r1∘r1 is associated inconsistently.
    ("validate", "corrupted_assoc"): (1, _records(
        ("validate.category", "c3bad", "fail",
         {"witness": {"f": "r1", "g": "r1", "h": "r1"}}))),
    ("yoneda", "boolean_chain"): (0, _records(
        ("yoneda.lemma", "chain2", "pass", {"presheaves": 3}),
        ("yoneda.fully_faithful", "chain2", "pass"))),
    ("yoneda", "s3_pair"): (0, _records(
        ("yoneda.lemma", "pair", "pass", {"presheaves": 6}),
        ("yoneda.fully_faithful", "pair", "pass"))),
    ("yoneda", "c3_loop"): (0, _records(
        ("yoneda.lemma", "loop", "pass", {"presheaves": 3}),
        ("yoneda.fully_faithful", "loop", "pass"))),
    ("presheaves", "s3_pair"): (0, _records(
        ("presheaves.enumerate", "pair", "pass", {"count": 6}))),
    # Conical colimit of the swap is a point; co-Yoneda gives F(b), 3 points.
    ("wcolim", "wcolim_demo"): (0, _records(
        ("wcolim.universal", "Wterm*Fswap", "pass", {"apex_card": 1}),
        ("wcolim.universal", "Wyb*Farr", "pass", {"apex_card": 3}))),
    ("universal", "wcolim_demo"): (0, _records(
        ("universal.equivalence", "Fswap", "pass"),
        ("universal.equivalence", "Farr", "pass"))),
}


def fuzz_commands():
    """(label, argv, expected) of every command of one fuzz-cli pass."""
    out = [(f"fuzz seed={s}", ["--check", "fuzz", "--seed", str(s)], FUZZ_EXPECTED)
           for s in FUZZ_SEEDS]
    for (check, spec), expected in SPEC_EXPECTED.items():
        out.append((f"{check} {spec}",
                    ["--spec", f"{SPECS}/{spec}.json", "--check", check], expected))
    return out


def _report_problem(text, code, expected):
    want_code, want_records = expected
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    try:
        report = json.loads(text)
    except ValueError as exc:
        return f"machine report is not JSON: {exc}"
    if report.get("resource_error"):
        return f"resource error {report['resource_error']}"
    got = [(r["check"], r["instance"], r["verdict"]) for r in report["checks"]]
    want = [(c, i, v) for c, i, v, _ in want_records]
    if got != want:
        return f"records {got!r}, expected {want!r}"
    for rec, (_, _, _, details) in zip(report["checks"], want_records):
        for key, value in details.items():
            if rec["details"].get(key) != value:
                return (f"{rec['instance']} detail {key}={rec['details'].get(key)!r},"
                        f" expected {value!r}")
        if rec["verdict"] == "fail" and rec["check"] == "validate.category":
            if not rec["witnesses"][0].startswith("AssociativityViolation"):
                return f"witness {rec['witnesses'][0]!r}"
    return None


class FuzzCli:
    """About 400 verdicts a pass through enrichkit.cli.main, decided by
    hundreds of small instances: per-check overhead, tiny validations,
    rejection sampling in random_mcat and backtracking in random_diagram."""

    name = "fuzz-cli"

    @staticmethod
    def make_inputs(seed):
        # The command list is fixed; the seed only shuffles its order.
        commands = fuzz_commands()
        random.Random(seed).shuffle(commands)
        return commands

    @staticmethod
    def run_pass(inputs, run):
        from enrichkit import cli

        original = cli._run_record

        def record_verdict(*args, **kwargs):
            record = original(*args, **kwargs)
            run.verdict()
            return record

        cli._run_record = record_verdict
        try:
            for label, argv, expected in inputs:
                run.attempted += 1
                out, err = io.StringIO(), io.StringIO()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main(argv + ["--format", "machine"])
                except Exception as exc:  # a traceback is a failed operation
                    run.fail(label, f"{type(exc).__name__}: {exc}")
                    continue
                text = out.getvalue()
                digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
                problem = _report_problem(text, code, expected)
                first = run.digests.setdefault(label, digest)
                if problem is None and first != digest:
                    problem = "machine report bytes differ from the first pass"
                if problem:
                    run.fail(label, problem)
        finally:
            cli._run_record = original


WORKLOADS = {w.name: w for w in (PresheafLadder, ColimitChain, FuzzCli)}
