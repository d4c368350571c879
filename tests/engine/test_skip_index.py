"""The shared skip-index DFS (:func:`repro.va.indexed.enumerate_skip_index`)
behind both bitmask backends: output-linear delay pinned by counting loop
steps (not wall time), and the degraded skip-index path — with the index
capped at 0 or 1 entries the walk steps through forced stretches instead
of hopping, and must still produce the same mappings in the same order."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SpanRelation
from repro.va import evaluate_naive, regex_to_va, trim
from repro.va import indexed as indexed_module
from repro.va.indexed import IndexedMatchGraph
from repro.va.vectorized import VectorizedMatchGraph, numpy_available
from repro.workloads.packs.csv_records import (
    field_formula,
    generate_csv,
    record_formula,
)

from ..properties.conftest import documents, sequential_formulas

_SETTINGS = settings(max_examples=40, deadline=None)


class CountingGuard:
    """A guard stub whose checkpoints only count: ``ticks`` is the number
    of enumeration loop steps (DFS layer steps plus skip-index steps)."""

    budget = None

    def __init__(self):
        self.ticks = 0
        self.edge_rows = 0

    def tick(self):
        self.ticks += 1

    def check(self):
        pass

    def charge_edge_rows(self, count=1):
        self.edge_rows += count

    def charge_states(self, count):
        pass

    def gauge_cache_bytes(self, estimate):
        pass


def _indexed(va, doc, guard=None):
    return IndexedMatchGraph(va.indexed(), doc, guard=guard)


def _indexed_plain(va, doc, guard=None):
    return IndexedMatchGraph(va.indexed(), doc, compressed=False, guard=guard)


def _vectorized(va, doc, guard=None):
    return VectorizedMatchGraph(va.vectorized(), doc, guard=guard)


def _vectorized_scalar(va, doc, guard=None):
    return VectorizedMatchGraph(va.vectorized(), doc, block_size=0, guard=guard)


#: Every substrate the shared loop runs on that this environment can build
#: (the vectorized ones need numpy).
GRAPHS = {
    name: maker
    for name, maker in (
        ("indexed", _indexed),
        ("indexed-plain", _indexed_plain),
        ("vectorized", _vectorized),
        ("vectorized-scalar", _vectorized_scalar),
    )
    if numpy_available() or not name.startswith("vectorized")
}
each_graph = pytest.mark.parametrize("maker", list(GRAPHS.values()), ids=list(GRAPHS))


class TestDelayCountsSteps:
    """Loop steps per emitted mapping stay below one constant on exports of
    12, 48 and 96 records.  The pre-skip-index indexed walk re-popped the
    whole ``Σ*`` suffix per mapping, so its per-mapping count grew with the
    export (≈410 → 2650 steps per record mapping)."""

    #: Steps per mapping measured at ≈166 (record) and ≈76 (field) on
    #: every export size; the plain substrate adds ≈57 per record mapping
    #: for its per-letter backward pass, still a per-record constant.
    MAX_STEPS_PER_MAPPING = 300

    @each_graph
    @pytest.mark.parametrize(
        "formula", [record_formula, field_formula], ids=["record", "field"]
    )
    def test_steps_per_mapping_do_not_grow_with_export_length(
        self, maker, formula
    ):
        va = trim(regex_to_va(formula()))
        for records in (12, 48, 96):
            guard = CountingGuard()
            graph = maker(va, generate_csv(records, seed=0), guard=guard)
            guard.ticks = 0  # construction is not enumeration
            emitted = sum(1 for _ in graph.enumerate())
            assert emitted >= records
            steps = guard.ticks / emitted
            assert steps <= self.MAX_STEPS_PER_MAPPING, (records, steps)

    def test_indexed_charges_each_context_row_once(self):
        # Rows are cached per (letter, live mask, state): a second full
        # enumeration of the same graph builds and charges nothing new.
        va = trim(regex_to_va(record_formula()))
        guard = CountingGuard()
        graph = _indexed(va, generate_csv(48, seed=0), guard=guard)
        first = list(graph.enumerate())
        rows = guard.edge_rows
        assert 0 < rows < len(graph.document)
        assert list(graph.enumerate()) == first
        assert guard.edge_rows == rows


#: Run-heavy documents: long single-letter stretches, where forced
#: stretches (and so the skip index) cover most layers.
run_documents = st.lists(
    st.tuples(st.sampled_from("ab"), st.integers(min_value=1, max_value=30)),
    min_size=0,
    max_size=4,
).map(lambda runs: "".join(letter * length for letter, length in runs))


def _degraded(limit_value, produce):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(indexed_module, "_SKIP_INDEX_LIMIT", limit_value)
        return produce()


class TestDegradedSkipIndex:
    @given(sequential_formulas(), st.one_of(documents, run_documents))
    @_SETTINGS
    def test_capped_index_keeps_content_and_order(self, formula, doc):
        va = trim(regex_to_va(formula))
        expected = evaluate_naive(va, doc)
        for maker in GRAPHS.values():
            full = list(maker(va, doc).enumerate())
            assert SpanRelation(full) == expected
            assert len(full) == len(set(full))
            for cap in (0, 1):
                assert (
                    _degraded(cap, lambda: list(maker(va, doc).enumerate()))
                    == full
                ), (maker.__name__, cap)
                for k in (1, 2, 5):
                    assert _degraded(
                        cap, lambda: list(maker(va, doc).enumerate(limit=k))
                    ) == full[:k], (maker.__name__, cap, k)

    @given(
        sequential_formulas(),
        st.one_of(documents, run_documents),
        st.one_of(documents, run_documents),
    )
    @_SETTINGS
    def test_capped_index_on_extended_graphs(self, formula, prefix, suffix):
        va = trim(regex_to_va(formula))
        doc = prefix + suffix
        expected = evaluate_naive(va, doc)
        for maker in GRAPHS.values():
            full = list(maker(va, doc).enumerate())
            assert SpanRelation(full) == expected
            for cap in (0, 1):
                extended = _degraded(
                    cap,
                    lambda: list(maker(va, prefix).extended(doc).enumerate()),
                )
                assert extended == full, (maker.__name__, cap)

    @each_graph
    @pytest.mark.parametrize("cap", [0, 1])
    def test_capped_index_on_csv_exports(self, maker, cap):
        doc = generate_csv(12, seed=0)
        for formula in (record_formula(), field_formula()):
            va = trim(regex_to_va(formula))
            full = list(maker(va, doc).enumerate())
            assert full
            assert _degraded(cap, lambda: list(maker(va, doc).enumerate())) == full
            assert _degraded(
                cap, lambda: list(maker(va, doc).enumerate(limit=3))
            ) == full[:3]
