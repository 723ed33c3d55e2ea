"""Arithmetic of the benchmark itself: self time from nested spans, the
patching that spans and checks share, and the tie-aware signed-rank
reference.

Run from the repository root: python3 -m pytest benchmark/tests -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from reference import enumerated_signed_rank_p  # noqa: E402
from spans import (  # noqa: E402
    Patches,
    Span,
    Tracer,
    covered_length,
    self_time_by_name,
    self_times,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_covered_length_merges_overlaps():
    assert covered_length([]) == 0.0
    assert covered_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert covered_length([(0.0, 2.0), (1.0, 3.0)]) == 3.0
    assert covered_length([(1.0, 2.0), (0.0, 4.0)]) == 4.0
    assert covered_length([(0.0, 1.0), (1.0, 2.0)]) == 2.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("op", 0.0, 10.0, None, "t"),
        Span("a", 1.0, 4.0, 0, "t"),
        Span("b", 2.0, 3.0, 1, "t"),      # grandchild of op
        Span("c", 5.0, 9.0, 0, "t"),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_clips_children_to_parent():
    spans = [
        Span("op", 0.0, 4.0, None, None),
        Span("x", 3.0, 6.0, 0, None),
        Span("y", 2.0, 3.5, 0, None),
    ]
    assert self_times(spans)[0] == 2.0


def test_self_time_by_name_over_a_range():
    spans = [
        Span("setup", 0.0, 1.0, None, None),
        Span("op", 1.0, 5.0, None, None),
        Span("model", 2.0, 4.0, 1, None),
        Span("op", 5.0, 6.0, None, None),
    ]
    loop = self_time_by_name(spans, 1)
    assert loop == {"op": 3.0, "model": 2.0}
    assert self_time_by_name(spans, 0, 1) == {"setup": 1.0}


def test_tracer_nesting_and_trial_inheritance():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    with tr.span("op", trial="r1"):
        clock.now = 1.0
        with tr.span("inner"):
            clock.now = 3.0
        clock.now = 4.0
    assert [(s.name, s.start, s.end, s.parent, s.trial) for s in tr.spans] == [
        ("op", 0.0, 4.0, None, "r1"),
        ("inner", 1.0, 3.0, 0, "r1"),
    ]
    assert self_times(tr.spans) == [2.0, 2.0]


def test_tracer_wrap_counts_and_restores():
    class Mod:
        @staticmethod
        def work(n):
            return list(range(n))

    tr = Tracer()
    original = Mod.work
    tr.wrap(Mod, "work", "layer.work",
            counter=lambda t, a, k, r: t.count("layer.items", len(r)),
            trial_of=lambda a, k: f"n={a[0]}")
    assert Mod.work(3) == [0, 1, 2]
    assert Mod.work(2) == [0, 1]
    assert [s.name for s in tr.spans] == ["layer.work", "layer.work"]
    assert [s.trial for s in tr.spans] == ["n=3", "n=2"]
    assert tr.counts["layer.items"] == 5
    tr.restore()
    assert Mod.work is original


def test_patches_see_arguments_and_result_and_restore():
    class Mod:
        @staticmethod
        def work(n):
            return n * 2

    seen = []

    def keep(original, *args, **kwargs):
        result = original(*args, **kwargs)
        seen.append((args, result))
        return result

    original = Mod.work
    patches = Patches()
    patches.patch(Mod, "work", keep)
    assert Mod.work(4) == 8
    assert seen == [((4,), 8)]
    patches.restore()
    assert Mod.work is original


def test_enumerated_signed_rank_matches_scipy_without_ties():
    rng = np.random.default_rng(7)
    for n in (5, 9, 16):
        d = rng.normal(size=n)
        assert enumerated_signed_rank_p(d) == pytest.approx(
            scipy.stats.wilcoxon(d, method="exact").pvalue, rel=1e-12)
