"""Unit tests of the block execution kernels (:mod:`repro.topk.kernels`).

The kernels are the vectorised inner loops of the id-space hot path; every
one of them has a scalar reference it must match *bit for bit* — these
tests pin each kernel against its reference directly, across the branch
combinations (zero mass, zero collection mass, background-off ``lam=0``)
that the hoisted block variants resolve once per block instead of once per
item.
"""

import math

import pytest

from repro.topk import kernels
from repro.topk.kernels import (
    bind_block,
    filter_consistent_block,
    gather_weights,
    prepare_head_block,
    score_block,
)

WEIGHTS = [0.05, 0.21, 0.5, 0.7777, 1.0, 0.333333, 0.9, 0.12345]


def scalar_score(weight, lam, mass, cmass, multiplier):
    # The per-item reference: IdPostingCursor._score_weight, verbatim.
    foreground = weight / mass if mass > 0 else 0.0
    if lam == 0.0:
        return multiplier * foreground
    background = weight / cmass if cmass > 0 else 0.0
    return multiplier * ((1.0 - lam) * foreground + lam * background)


@pytest.mark.parametrize("lam", [0.0, 0.1, 0.5, 0.999])
@pytest.mark.parametrize("mass", [0.0, 0.3, 7.123])
@pytest.mark.parametrize("cmass", [0.0, 11.7])
@pytest.mark.parametrize("multiplier", [1.0, 0.25])
def test_score_block_bit_identical_to_scalar(lam, mass, cmass, multiplier):
    block = score_block(WEIGHTS, lam, mass, cmass, multiplier)
    reference = [
        scalar_score(w, lam, mass, cmass, multiplier) for w in WEIGHTS
    ]
    assert len(block) == len(reference)
    for got, want in zip(block, reference):
        # Bit-identity, not approximation: the block path must emit the
        # same float the per-item path does.
        assert math.copysign(1.0, got) == math.copysign(1.0, want)
        assert got == want
        assert got.hex() == want.hex()


def test_score_block_empty():
    assert list(score_block([], 0.3, 1.0, 2.0, 1.0)) == []


def test_gather_weights_routes_through_getitem():
    class Column:
        def __getitem__(self, tid):
            return tid * 0.5

    assert gather_weights(Column(), [4, 0, 2]) == [2.0, 0.0, 1.0]


@pytest.mark.parametrize("start", [0, 30])
def test_prepare_head_block_matches_tuple_reference(start):
    postings = [(i * 7) % 10 for i in range(10)]
    weights = {start + i: 0.1 + i / 7 for i in range(10)}
    subjects = [9 - i for i in range(10)]
    objects = [i % 4 for i in range(10)]
    names = {i: f"t{i}" for i in range(10)}

    class Weights:
        def __getitem__(self, gid):
            return weights[gid]

    for lo, hi in ((2, 7), (4, 5)):
        keys, gids = prepare_head_block(
            postings, start, Weights(), lo, hi, (subjects, objects), names.get
        )
        reference = [
            ((-weights[start + p], names[subjects[p]], names[objects[p]]), start + p)
            for p in postings[lo:hi]
        ]
        assert list(zip(keys, gids)) == reference
        # Exact negation: the weight part equals the weight column bit for
        # bit (float negation flips the sign bit only).
        for key, (want, _) in zip(keys, reference):
            assert key[0].hex() == want[0].hex()
    # A fully bound lookup has no free columns: the weight is the whole key.
    keys, _gids = prepare_head_block(postings, start, Weights(), 0, 2, (), names.get)
    assert keys == [(-weights[start],), (-weights[start + 7],)]


def test_filter_consistent_block_single_pair():
    spo = {1: (5, 9, 5), 2: (5, 9, 6), 3: (7, 9, 7), 4: (0, 1, 2)}
    out = filter_consistent_block([1, 2, 3, 4], spo.__getitem__, [(0, 2)])
    assert out == [1, 3]


def test_filter_consistent_block_multi_pair():
    spo = {1: (5, 5, 5), 2: (5, 5, 6), 3: (6, 6, 6)}
    out = filter_consistent_block(
        [1, 2, 3], spo.__getitem__, [(0, 1), (1, 2)]
    )
    assert out == [1, 3]


def test_bind_block_fills_template_slots():
    spo = {10: (3, 4, 5), 11: (6, 4, 7)}
    rows = bind_block(
        [10, 11],
        spo.__getitem__,
        [(0, 1), (2, 0)],  # position 0 -> slot 1, position 2 -> slot 0
        [-1, -1, -1],
    )
    assert rows == [(5, 3, -1), (7, 6, -1)]
    # One slot and none: binding tuples all the same.
    assert bind_block([10, 11], spo.__getitem__, [(1, 0)], [-1]) == [(4,), (4,)]
    assert bind_block([10, 11], spo.__getitem__, [], []) == [(), ()]
