"""The harness itself: it names the first op that diverges, it models the
frozen sort-weight deviation exactly, and a cell that leaves a store open
fails."""

import pytest

from repro.storage.store import TripleStore
from repro.topk import kernels

from harness.differential import Ask, Compact, Ingest, Storage, pages, run, world

ROWS = [("A", "p", "B", 0.5), ("C", "p", "D", 1.0), ("E", "q", "F", 0.8)]


def test_the_first_diverging_op_is_named(monkeypatch):
    score_block = kernels.score_block

    def off_by_an_ulp(*args, **kwargs):
        return [score * (1 + 2**-52) for score in score_block(*args, **kwargs)]

    monkeypatch.setattr(kernels, "score_block", off_by_an_ulp)
    workload = [Ingest([("G", "p", "H", 0.7)]), *pages("?x p ?y", [1, 2])]
    with pytest.raises(AssertionError, match=r"^op 1 Page\(.*per-item engine"):
        run(world(ROWS), "fresh", workload, {"block_size": 4})


def test_a_frozen_statement_sorts_by_the_evidence_it_was_frozen_with(layout):
    # A gains weight 3.6 while frozen at 0.5: it ranks below C (1.0) and
    # the new G (0.7) until an in-memory compaction of the delta re-sorts
    # it, and for good on a directory.
    workload = [
        Ingest([("A", "p", "B", 0.9, 3), ("G", "p", "H", 0.7)]),
        Ask("?x p ?y"),
        Storage(),
        Compact(),
        Ask("?x p ?y"),
        Storage(),
    ]
    trace = run(world(ROWS), layout, workload)
    subjects = [[binding[0][1].name for binding, *_ in trace[i][0]] for i in (1, 4)]
    compacted = ["A", "C", "G"] if layout == "fresh" else ["C", "G", "A"]
    assert subjects == [["C", "G", "A"], compacted]


def test_a_cell_that_leaves_a_store_open_fails(monkeypatch):
    monkeypatch.setattr(TripleStore, "close", lambda self: None)
    with pytest.raises(AssertionError, match="left a store open"):
        run(world(ROWS), "fresh", [Ask("?x p ?y")])
