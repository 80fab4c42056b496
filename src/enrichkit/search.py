"""Constraint-pruned backtracking: the one search engine of the library.

A search is a dict of candidate lists per slot, in slot order, and a law
table of entries (needed slots, predicate, witness cell); the predicate is
called as predicate(assignment, cell) once the last needed slot is assigned
(Mackworth, "Consistency in networks of relations", AI 8(1), 1977).
Solutions come out in lexicographic order of the candidate indices, which
makes every enumeration canonical.  Validators evaluate the same tables on
one fixed assignment (``failures``, ``check_family``, ``mor_failures``).
"""

import itertools

from .errors import EnrichKitError, SizeBound, TypeMismatch


def search_space(cands):
    total = 1
    for c in cands.values():
        total *= len(c)
        if total == 0:
            return 0
    return total


def backtrack(cands, laws):
    """Yield every complete assignment of the slots of ``cands`` that
    satisfies all laws, each checked on the partial assignment as soon as
    its needed slots are assigned.  The stack of candidate iterators keeps
    the generator free of reference cycles, so its state is freed as soon
    as it is exhausted or dropped."""
    slots = list(cands)
    order = {s: i for i, s in enumerate(slots)}
    triggers = [[] for _ in slots]
    for needed, pred, cell in laws:
        if needed:
            triggers[max(order[s] for s in needed)].append((pred, cell))
        elif not pred({}, cell):
            return
    if not slots:
        yield {}
        return

    assignment = {}
    stack = [iter(cands[slots[0]])]
    while stack:
        i = len(stack) - 1
        s = slots[i]
        for c in stack[i]:
            assignment[s] = c
            if all(pred(assignment, cell) for pred, cell in triggers[i]):
                break
        else:
            stack.pop()
            assignment.pop(s, None)
            continue
        if i + 1 == len(slots):
            yield dict(assignment)
        else:
            stack.append(iter(cands[slots[i + 1]]))


def failures(laws, assignment):
    """Witness cells of the entries a complete assignment violates, in table
    order; lazy, so the first failure costs only the scan up to it."""
    return (cell for _, holds, cell in laws if not holds(assignment, cell))


def check_family(cat, slots, maps, groups, names, pruned=None):
    """Raise on the first slot of ``slots`` = [(slot, (dom, cod))] whose map
    is missing or mistyped, then on the first failing cell of each
    (error, message, laws) group in turn; ``names`` names the witness.
    ``pruned`` (rule C, see ``enriched.MCat``), when given, is a law table
    whose holding implies every group's: it is scanned first, and the
    groups only when it fails, so the error is always the full scan's."""
    for slot, (dom, cod) in slots:
        a = maps.get(slot)
        if a is None:
            raise TypeMismatch("missing action component", witness=names(slot))
        if cat.dom(a) != dom or cat.cod(a) != cod:
            raise TypeMismatch("action component has wrong dom/cod",
                               witness=names(slot))
    if pruned is not None and all_hold(pruned, maps):
        return
    for error, message, laws in groups:
        for cell in failures(laws, maps):
            raise error(message, witness=names(cell))


def mor_failures(source, cat, src_values, tgt_values, laws, components, pruned=None):
    """Witness list for ``cat`` components src_values[x] -> tgt_values[x]:
    the ill-typed ones, or else the failing cells of ``laws``; empty = valid.
    ``pruned``, when given, is scanned first as in ``check_family``."""
    ill_typed = [{"x": source.obj_name(x), "kind": "ill-typed"}
                 for x in range(source.n_objects)
                 if (cat.dom(components[x]) != src_values[x]
                     or cat.cod(components[x]) != tgt_values[x])]
    if ill_typed or (pruned is not None and all_hold(pruned, components)):
        return ill_typed
    return [{**source.cell_names(cell), "kind": "square"}
            for cell in failures(laws, components)]


def all_hold(laws, assignment):
    """Whether a complete assignment satisfies every law of ``laws``; False
    also when evaluating one raises (``Overflow``), so that a full scan
    after it meets that error at its own cell."""
    try:
        return next(failures(laws, assignment), None) is None
    except EnrichKitError:
        return False


def bounded_plans(values, n, cands_for, caps, what):
    """[(value map, cands_for(value map))] for every map range(n) -> values
    with a non-empty search space, in lexicographic order.  The number of
    value maps and the summed search space are checked against the cap
    before anything is searched."""
    values = list(values)
    guard_space(len(values) ** n, caps, f"{what} value-map")
    total = 0
    plans = []
    for vmap in itertools.product(values, repeat=n):
        cands = cands_for(vmap)
        space = search_space(cands)
        total += max(space, 1)
        guard_space(total, caps, f"{what} action-map")
        if space:
            plans.append((vmap, cands))
    return plans


def guard_space(total, caps, what):
    if total > caps.max_search:
        raise SizeBound(f"{what} search space {total} exceeds cap {caps.max_search}")
