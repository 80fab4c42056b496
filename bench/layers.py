"""Which enrichkit functions the traced run wraps, and the per-layer metrics
derived from the spans and counts of one traced pass.

Layer names are the enrichkit module names.  ``*.self_s`` is the summed
self time of a function's spans, ``*.calls`` its call count; the remaining
metrics are deterministic counts read from return values and sampler stats.
"""

import sys

from spans import Tracer

# (layer, owner, function) for every span-wrapped function; owner is a class
# name inside the module, or None for a module-level function.
SPAN_FUNCTIONS = [
    ("search", None, "backtrack"),
    ("search", None, "guard_space"),
    ("presheaf", None, "enumerate_presheaves"),
    ("presheaf", "PresheafCategory", "as_module"),
    ("presheaf", None, "yoneda"),
    ("presheaf", None, "check_yoneda_lemma"),
    ("presheaf", None, "check_fully_faithful"),
    ("presheaf", None, "validate_presheaf"),
    ("fincat", None, "validate_fincat"),
    ("tensored", None, "validate_module"),
    ("tensored", None, "hom_object_all"),
    ("monoidal", None, "validate_monoidal"),
    ("enriched", None, "validate_mcat"),
    ("enriched", None, "mcat_from_fincat"),
    ("mfunctor", None, "validate_mfun_et"),
    ("mfunctor", None, "check_mfun_mor"),
    ("mfunctor", None, "measure_unit_automatism"),
    ("wcolim", None, "weighted_colimit"),
    ("wcolim", None, "check_universal"),
    ("wcolim", None, "canonical_presentation"),
    ("wcolim", None, "check_equivalence"),
    ("wcolim", None, "mediate"),
    ("corpus", "CorpusSampler", "random_mcat"),
    ("corpus", "CorpusSampler", "random_presheaf"),
    ("corpus", "CorpusSampler", "random_diagram"),
    ("corpus", None, "terminal_weight"),
    ("cli", None, "parse_spec"),
    ("cli", None, "run"),
    ("cli", "Report", "to_machine_json"),
]

# Every public function of this layer is light-wrapped (see spans.py).
LIGHT_LAYER = "finset"

# (name, unit, better) of every per-layer metric, in report order.
METRICS = [
    ("search.backtrack.self_s", "s", "lower"),
    ("search.backtrack.calls", "count", "lower"),
    ("search.backtrack.solutions", "count", "higher"),
    ("search.guard_space.max_fill", "ratio", "lower"),
    ("presheaf.enumerate_presheaves.self_s", "s", "lower"),
    ("presheaf.as_module.self_s", "s", "lower"),
    ("presheaf.yoneda.self_s", "s", "lower"),
    ("presheaf.check_yoneda_lemma.self_s", "s", "lower"),
    ("presheaf.check_fully_faithful.self_s", "s", "lower"),
    ("presheaf.validate_presheaf.self_s", "s", "lower"),
    ("presheaf.validate_presheaf.calls", "count", "lower"),
    ("presheaf.presheaves", "count", "higher"),
    ("presheaf.morphisms", "count", "higher"),
    ("presheaf.bijections", "count", "higher"),
    ("fincat.validate_fincat.self_s", "s", "lower"),
    ("fincat.validate_fincat.calls", "count", "lower"),
    ("fincat.morphisms_validated", "count", "lower"),
    ("tensored.validate_module.self_s", "s", "lower"),
    ("tensored.validate_module.calls", "count", "lower"),
    ("tensored.hom_object_all.self_s", "s", "lower"),
    ("monoidal.validate_monoidal.self_s", "s", "lower"),
    ("monoidal.validate_monoidal.calls", "count", "lower"),
    ("enriched.validate_mcat.self_s", "s", "lower"),
    ("enriched.validate_mcat.calls", "count", "lower"),
    ("enriched.mcat_from_fincat.self_s", "s", "lower"),
    ("mfunctor.validate_mfun_et.self_s", "s", "lower"),
    ("mfunctor.validate_mfun_et.calls", "count", "lower"),
    ("mfunctor.check_mfun_mor.self_s", "s", "lower"),
    ("mfunctor.measure_unit_automatism.self_s", "s", "lower"),
    ("finset.self_s", "s", "lower"),
    ("finset.compose.calls", "count", "lower"),
    ("finset.product_map.calls", "count", "lower"),
    ("finset.coequalizer.calls", "count", "lower"),
    ("wcolim.weighted_colimit.self_s", "s", "lower"),
    ("wcolim.weighted_colimit.calls", "count", "lower"),
    ("wcolim.apex_card", "count", "higher"),
    ("wcolim.check_universal.self_s", "s", "lower"),
    ("wcolim.canonical_presentation.self_s", "s", "lower"),
    ("wcolim.check_equivalence.self_s", "s", "lower"),
    ("wcolim.mediate.calls", "count", "lower"),
    ("corpus.random_mcat.self_s", "s", "lower"),
    ("corpus.mcat.attempts", "count", "lower"),
    ("corpus.mcat.acceptance", "ratio", "higher"),
    ("corpus.random_presheaf.self_s", "s", "lower"),
    ("corpus.presheaf.fallbacks", "count", "lower"),
    ("corpus.random_diagram.self_s", "s", "lower"),
    ("corpus.diagram.fallbacks", "count", "lower"),
    ("cli.parse_spec.self_s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


# --- hooks: counts taken from arguments and return values -------------------

def _guard_space(tracer, args, kwargs):
    # Recorded before the call, so a space that trips the cap counts too.
    total, caps = args[0], args[1]
    tracer.maximum("search.guard_space.max_fill", total / caps.max_search)


def _solutions(tracer, item, args, kwargs, state):
    tracer.count("search.backtrack.solutions")


def _enumerated(tracer, pscat, args, kwargs, state):
    tracer.count("presheaf.presheaves", len(pscat.presheaves))
    tracer.count("presheaf.morphisms", len(pscat.morphisms))


def _bijections(tracer, report, args, kwargs, state):
    tracer.count("presheaf.bijections", report.checked)


def _fincat_size(tracer, cat, args, kwargs, state):
    tracer.count("fincat.morphisms_validated", cat.n_morphisms)


def _apex(tracer, wc, args, kwargs, state):
    card = getattr(wc.apex, "card", None)
    if card is not None:
        tracer.count("wcolim.apex_card", card)


def _mcat_stats(tracer, args, kwargs):
    stats = args[0].mcat_stats
    return stats.attempts, stats.accepted


def _mcat_after(tracer, result, args, kwargs, before):
    stats = args[0].mcat_stats
    tracer.count("corpus.mcat.attempts", stats.attempts - before[0])
    tracer.count("corpus.mcat.accepted", stats.accepted - before[1])


def _terminal_weight(tracer, result, args, kwargs, state):
    # After 64 failed attempts random_presheaf substitutes the terminal
    # weight and still counts the call as accepted.
    if tracer.parent_name() == "corpus.random_presheaf":
        tracer.count("corpus.presheaf.fallbacks")


def _diagram(tracer, functor, args, kwargs, state):
    if functor.name == "terminal-diagram":
        tracer.count("corpus.diagram.fallbacks")


def _report_bytes(tracer, text, args, kwargs, state):
    tracer.count("cli.report_bytes", len(text.encode("utf-8")))


HOOKS = {
    "search.guard_space": (_guard_space, None),
    "search.backtrack": (None, _solutions),
    "presheaf.enumerate_presheaves": (None, _enumerated),
    "presheaf.check_yoneda_lemma": (None, _bijections),
    "presheaf.check_fully_faithful": (None, _bijections),
    "fincat.validate_fincat": (None, _fincat_size),
    "wcolim.weighted_colimit": (None, _apex),
    "corpus.random_mcat": (_mcat_stats, _mcat_after),
    "corpus.terminal_weight": (None, _terminal_weight),
    "corpus.random_diagram": (None, _diagram),
    "cli.to_machine_json": (None, _report_bytes),
}


def make_tracer(package="enrichkit"):
    """A tracer with a wrapper ready for every traced function; call
    ``tracer.install(package, replacements)`` to activate it."""
    tracer = Tracer()
    replacements = {}
    for layer, owner, fname in SPAN_FUNCTIONS:
        holder = sys.modules[f"{package}.{layer}"]
        if owner is not None:
            holder = vars(holder)[owner]
        fn = vars(holder)[fname]
        name = f"{layer}.{fname}"
        before, after = HOOKS.get(name, (None, None))
        replacements[fn] = tracer.span_wrapper(name, fn, after=after, before=before)
    replacements.update(
        tracer.light_wrappers(LIGHT_LAYER, sys.modules[f"{package}.{LIGHT_LAYER}"]))
    return tracer, replacements


def pass_metrics(tracer):
    """Per-layer values of one traced pass (trace.* are filled in by the
    caller, which also knows the untraced passes)."""
    selfs = tracer.self_times()
    out = {}
    for name, _, _ in METRICS:
        if name.startswith("trace."):
            continue
        if name.endswith(".self_s"):
            out[name] = selfs.get(name[:-len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            out[name] = tracer.call_count(name[:-len(".calls")])
        elif name == "search.guard_space.max_fill":
            out[name] = tracer.maxima.get(name, 0.0)
        elif name == "corpus.mcat.acceptance":
            attempts = tracer.counts["corpus.mcat.attempts"]
            out[name] = (tracer.counts["corpus.mcat.accepted"] / attempts
                         if attempts else 0.0)
        else:
            out[name] = tracer.counts[name]
    return out
