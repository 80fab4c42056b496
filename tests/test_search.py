import gc
import weakref

from enrichkit.search import backtrack


class Cands(list):
    """A candidate list that can be weakly referenced."""


def test_backtrack_state_is_freed_without_the_cycle_collector():
    # The search state (candidate lists, triggers, assignment) must die by
    # reference counting alone once the generator is exhausted or dropped.
    gc.disable()
    try:
        for drain in (False, True):
            cands = {0: Cands([0, 1]), 1: Cands([0, 1])}
            ref = weakref.ref(cands[0])
            search = backtrack(cands, [])
            if drain:
                assert len(list(search)) == 4
            else:
                assert next(search) == {0: 0, 1: 0}
            del search, cands
            assert ref() is None, "drained" if drain else "first solution"
    finally:
        gc.enable()


def test_backtrack_lexicographic_order_and_empty_cases():
    cands = {"a": [0, 1, 2], "b": [0, 1]}
    laws = [(("a", "b"), lambda asg, cell: asg["a"] >= asg["b"], ("a", "b"))]
    assert list(backtrack(cands, laws)) == [
        {"a": 0, "b": 0}, {"a": 1, "b": 0}, {"a": 1, "b": 1},
        {"a": 2, "b": 0}, {"a": 2, "b": 1}]
    assert list(backtrack({}, [])) == [{}]
    assert list(backtrack({}, [((), lambda asg, cell: False, ())])) == []
    assert list(backtrack({"a": [0], "b": []}, [])) == []
