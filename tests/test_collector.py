"""The calls that build large object graphs run with Python's cyclic
collector paused (`ontology._gc_paused`): `parse_ontology` (and so
`read_ontology`), `divide`, `write_division`, `read_division` and
`read_alignment_tsv`.  Each leaves the collector as it found it, and the
pipeline makes no reference cycle that only the collector could free.

The numpy-free checks of `parse_ontology` and `read_ontology` are in
`model_checks.py`.
"""

import gc
import threading
import types
from collections import Counter
from pathlib import Path

import pytest

from model_checks import collections_during, collector

import ontodivide
from ontodivide.division import (DivisionConfig, divide, read_alignment_tsv,
                                 read_division, write_division)
from ontodivide.metrics import coverage_ratio
from ontodivide.ontology import read_ontology

FAST = DivisionConfig(seed=42, epochs=5, dim=16)
DATA = Path(ontodivide.ontology.__file__).resolve().parent / "data"
# `write_division` writes `division.json` through the pure-Python JSON
# encoder, whose closures reach themselves through their cells
JSON_CLOSURES = {"_iterencode", "_iterencode_dict", "_iterencode_list",
                 "floatstr"}


def toy_pair():
    return (read_ontology(DATA / "anatomy_toy_1.ofn"),
            read_ontology(DATA / "anatomy_toy_2.ofn"))


def one_pass(out: Path) -> None:
    """Parse the toy pair, divide it, write the division, read it back and
    compute each task's coverage of its own candidates."""
    o1, o2 = toy_pair()
    write_division(divide(o1, o2, 4, FAST), (o1, o2), out)
    back = read_division(out)
    for task in back.subtasks:
        candidates = read_alignment_tsv(
            out / f"task_{task.task_id}" / "candidates.tsv")
        assert coverage_ratio(back, candidates) == 1.0


def module_of(obj) -> str:
    """The module of a function, of a cell's contents, or of an object's
    class."""
    if isinstance(obj, types.CellType):
        try:
            obj = obj.cell_contents
        except ValueError:  # an empty cell
            return ""
    if isinstance(obj, types.FunctionType):
        return obj.__module__
    return type(obj).__module__


def left_for_the_collector(garbage: list) -> list:
    """The objects of `garbage` that the pipeline should not leave: lists,
    functions but the JSON encoder's closures, and the cells and instances
    of `ontodivide`'s modules."""
    def json_closure(fn) -> bool:
        return fn.__module__ == "json.encoder" and fn.__name__ in JSON_CLOSURES

    return [obj for obj in garbage if type(obj) is list
            or (isinstance(obj, types.FunctionType) and not json_closure(obj))
            or module_of(obj).partition(".")[0] == "ontodivide"]


def test_warm_pass_makes_no_cycles(tmp_path):
    one_pass(tmp_path / "warm")  # imports, lazy modules, caches
    gc.collect()
    debug = gc.get_debug()
    with collector(False):
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            one_pass(tmp_path / "pass")
            gc.collect()
            left = left_for_the_collector(gc.garbage)
        finally:
            gc.set_debug(debug)
            gc.garbage.clear()
    assert not left, Counter(f"{module_of(obj)}.{type(obj).__qualname__}"
                             for obj in left)


@pytest.fixture(scope="module")
def toy_division(tmp_path_factory):
    out = tmp_path_factory.mktemp("collector") / "division"
    o1, o2 = toy_pair()
    write_division(divide(o1, o2, 4, FAST), (o1, o2), out)
    return out


def test_read_division_collects_nothing(toy_division):
    # with a threshold of one object, an unpaused read collects at once
    with collector(True, threshold=1):
        assert collections_during(read_division.__wrapped__, toy_division)
        assert collections_during(read_division, toy_division) == []


@pytest.mark.parametrize("enabled", [True, False],
                         ids=["enabled", "disabled"])
def test_paused_calls_leave_the_collector_as_it_was(enabled, tmp_path,
                                                    toy_division):
    with collector(enabled):
        o1, o2 = toy_pair()
        assert gc.isenabled() is enabled
        div = divide(o1, o2, 2, FAST)
        assert gc.isenabled() is enabled
        write_division(div, (o1, o2), tmp_path / "out")
        assert gc.isenabled() is enabled
        read_division(toy_division)
        assert gc.isenabled() is enabled
        read_alignment_tsv(toy_division / "task_0" / "candidates.tsv")
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False],
                         ids=["enabled", "disabled"])
@pytest.mark.parametrize("call, error", [
    (lambda path: divide(*toy_pair(), 10**6, FAST), ValueError),
    (lambda path: read_division(path), FileNotFoundError),
    (lambda path: read_alignment_tsv(path / "missing.tsv"),
     FileNotFoundError),
], ids=["divide-n-too-large", "read-division-no-json", "read-tsv-missing"])
def test_raising_call_leaves_the_collector_as_it_was(call, error, enabled,
                                                     tmp_path):
    with collector(enabled):
        with pytest.raises(error):
            call(tmp_path)
        assert gc.isenabled() is enabled


def test_threads_leave_the_collector_enabled(toy_division,
                                             fast_thread_switching):
    serial = read_division(toy_division)
    start = threading.Barrier(4)
    read = {}

    def reader(i):
        start.wait(timeout=60)
        read[i] = read_division(toy_division)

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert read == {i: serial for i in range(4)}
    assert gc.isenabled()
