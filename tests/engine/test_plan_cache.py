"""The compiled-plan cache: static prefixes compile once, ad-hoc suffixes
per document, and the engine's statistics expose which happened."""

import gc
import random

import pytest

from repro import (
    Difference,
    Engine,
    Instantiation,
    Join,
    Leaf,
    PlannerConfig,
    Project,
    RAQuery,
    UnionNode,
    parse,
)
from repro.core import Mapping, SpannerError
from repro.core.spanner import RelationSpanner
from repro.algebra.planner import evaluate_ra
from repro.engine.plan import (
    BlackboxNode,
    DifferencePlanNode,
    ProjectSyncDifferencePlanNode,
    StaticNode,
    SyncDifferencePlanNode,
    build_plan,
)
from repro.workloads import (
    alpha_info,
    alpha_recommendation,
    alpha_student_mail,
    alpha_student_phone,
    alpha_uk_mail,
    generate_students,
)


def _static_query():
    tree = Project(Join(Leaf("a"), Leaf("b")), frozenset({"x"}))
    inst = Instantiation(
        spanners={
            "a": parse("(a|b)*x{(a|b)+}(a|b)*"),
            "b": parse("(a|b)*x{(a|b)+}y{(a|b)*}"),
        }
    )
    return tree, inst


def _adhoc_query():
    tree = Difference(Leaf("a"), Leaf("c"))
    inst = Instantiation(
        spanners={
            "a": parse("(a|b)*x{(a|b)+}(a|b)*"),
            "c": parse("(a|b)*x{a}(a|b)*"),
        }
    )
    return tree, inst


class TestPlanStructure:
    def test_fully_static_tree_collapses_to_one_node(self):
        tree, inst = _static_query()
        plan = build_plan(tree, inst)
        assert plan.is_fully_static
        assert isinstance(plan.root, StaticNode)
        assert plan.n_static == 1 and plan.n_adhoc == 0

    def test_difference_keeps_static_children_fused(self):
        tree, inst = _adhoc_query()
        plan = build_plan(tree, inst)
        assert not plan.is_fully_static
        assert isinstance(plan.root, DifferencePlanNode)
        assert isinstance(plan.root.left, StaticNode)
        assert isinstance(plan.root.right, StaticNode)
        assert plan.n_static == 2 and plan.n_adhoc == 1

    def test_blackbox_leaf_is_adhoc(self):
        blackbox = RelationSpanner(
            lambda doc: [Mapping({"b": doc.full_span()})], {"b"}
        )
        tree = UnionNode(Leaf("a"), Leaf("bb"))
        inst = Instantiation(
            spanners={"a": parse("x{a*}"), "bb": blackbox}
        )
        plan = build_plan(tree, inst)
        assert not plan.is_fully_static
        assert isinstance(plan.root.right, BlackboxNode)
        # The regex half of the union is still fused statically.
        assert isinstance(plan.root.left, StaticNode)
        assert build_plan(Leaf("a"), inst).is_fully_static

    def test_static_join_bound_checked_at_build_time(self):
        tree, inst = _static_query()
        with pytest.raises(SpannerError):
            build_plan(tree, inst, PlannerConfig(max_shared=0))


class TestPlanCacheBehaviour:
    def test_static_plan_compiles_once_across_documents(self):
        tree, inst = _static_query()
        engine = Engine()
        query = RAQuery(tree, inst, engine=engine)
        query.evaluate("abab")
        query.evaluate("ba")
        query.evaluate("abab")
        stats = engine.stats
        assert stats.plan_misses == 1
        assert stats.plan_hits == 2
        assert stats.adhoc_compiles == 0
        assert stats.document_misses == 1  # prepared once, ever
        assert stats.document_hits == 2

    def test_adhoc_suffix_recompiles_per_document(self):
        tree, inst = _adhoc_query()
        engine = Engine()
        query = RAQuery(tree, inst, engine=engine)
        query.evaluate("abab")
        query.evaluate("ba")
        stats = engine.stats
        assert stats.plan_misses == 1 and stats.plan_hits == 1
        # One DifferencePlanNode compiled per document; its two static
        # children are served from the plan both times.
        assert stats.adhoc_compiles == 2
        assert stats.static_reuses == 4
        assert stats.document_misses == 2 and stats.document_hits == 0

    def test_document_cache_serves_repeated_documents(self):
        tree, inst = _adhoc_query()
        engine = Engine(document_cache_size=4)
        query = RAQuery(tree, inst, engine=engine)
        for doc in ("abab", "ba", "abab", "abab"):
            query.evaluate(doc)
        stats = engine.stats
        assert stats.document_misses == 2
        assert stats.document_hits == 2
        assert stats.adhoc_compiles == 2  # only the two distinct documents

    def test_document_cache_evicts_lru(self):
        tree, inst = _adhoc_query()
        engine = Engine(document_cache_size=1)
        query = RAQuery(tree, inst, engine=engine)
        query.evaluate("abab")
        query.evaluate("ba")    # evicts "abab"
        query.evaluate("abab")  # miss again
        assert engine.stats.document_misses == 3
        assert engine.stats.document_hits == 0

    def test_plan_cache_lru_eviction(self):
        engine = Engine(plan_cache_size=1)
        tree_a, inst_a = _static_query()
        tree_b, inst_b = _adhoc_query()
        engine.evaluate(RAQuery(tree_a, inst_a), "ab")
        engine.evaluate(RAQuery(tree_b, inst_b), "ab")
        engine.evaluate(RAQuery(tree_a, inst_a), "ab")  # was evicted
        assert engine.stats.plan_misses == 3
        assert engine.stats.plan_hits == 0

    def test_equal_queries_share_one_plan(self):
        tree, inst = _static_query()
        engine = Engine()
        engine.evaluate(RAQuery(tree, inst), "ab")
        engine.evaluate(RAQuery(tree, inst), "ba")  # distinct RAQuery object
        assert engine.stats.plan_misses == 1
        assert engine.stats.plan_hits == 1

    def test_bare_va_queries_are_cached_by_identity(self):
        from repro.va import regex_to_va, trim

        va = trim(regex_to_va(parse("x{a*}b")))
        engine = Engine()
        assert engine.evaluate(va, "aab") == engine.evaluate(va, "aab")
        assert engine.stats.plan_misses == 1
        assert engine.stats.plan_hits == 1


class TestEngineMatchesPlanner:
    @pytest.mark.parametrize("backend", ["matchgraph", "indexed"])
    def test_mixed_tree_matches_one_shot_planner(self, backend):
        tree = Project(
            Difference(Join(Leaf("a"), Leaf("b")), Leaf("c")), frozenset({"x"})
        )
        inst = Instantiation(
            spanners={
                "a": parse("(a|b)*x{(a|b)+}(a|b)*"),
                "b": parse("(a|b)*x{(a|b)+}y{(a|b)*}"),
                "c": parse("(a|b)*x{a}(a|b)*"),
            }
        )
        config = PlannerConfig(max_shared=2)
        engine = Engine(backend=backend)
        for doc in ("abab", "", "b", "aabba"):
            assert engine.evaluate(
                RAQuery(tree, inst, config), doc
            ) == evaluate_ra(tree, inst, doc, config)

    def test_blackbox_query_matches_one_shot_planner(self):
        blackbox = RelationSpanner(
            lambda doc: [Mapping({"b": doc.full_span()})], {"b"}
        )
        tree = UnionNode(Leaf("a"), Leaf("bb"))
        inst = Instantiation(spanners={"a": parse("x{a*}"), "bb": blackbox})
        engine = Engine()
        for doc in ("ab", "", "ba"):
            assert engine.evaluate(RAQuery(tree, inst), doc) == evaluate_ra(
                tree, inst, doc
            )


def _figure2(engine):
    """π_xstdnt((αsm ⋈ αsp) \\ αnr) — Figure 2."""
    tree = Project(Difference(Join(Leaf("sm"), Leaf("sp")), Leaf("nr")), "keep")
    inst = Instantiation(
        spanners={
            "sm": alpha_student_mail(),
            "sp": alpha_student_phone(),
            "nr": alpha_recommendation(),
        },
        projections={"keep": frozenset({"xstdnt"})},
    )
    return RAQuery(tree, inst, PlannerConfig(max_shared=2), engine=engine)


def _example24(engine):
    """αinfo \\ αUKm — Example 2.4."""
    inst = Instantiation(spanners={"info": alpha_info(), "uk": alpha_uk_mail()})
    return RAQuery(Difference(Leaf("info"), Leaf("uk")), inst, engine=engine)


def _rosters(count):
    rng = random.Random(4)
    return [
        generate_students(8, rng, with_recommendation=0.3).text for _ in range(count)
    ]


class TestSyncDifferenceStaticHalf:
    def test_student_queries_lower_to_sync_nodes(self):
        engine = Engine()
        figure2 = engine.prepare(_figure2(engine)).plan
        assert isinstance(figure2.root, ProjectSyncDifferencePlanNode)
        assert isinstance(figure2.root.child, SyncDifferencePlanNode)
        example24 = engine.prepare(_example24(engine)).plan
        assert isinstance(example24.root, SyncDifferencePlanNode)

    def test_used_set_components_once_per_node(self, monkeypatch):
        import repro.algebra.sync_difference as sync_difference

        calls = []
        original = sync_difference.used_set_components

        def counting(va, shared):
            calls.append(shared)
            return original(va, shared)

        monkeypatch.setattr(sync_difference, "used_set_components", counting)
        for make in (_figure2, _example24):
            calls.clear()
            engine = Engine()
            query = make(engine)
            for doc in _rosters(3):
                engine.evaluate(query, doc)
            assert engine.stats.document_misses == 3
            assert len(calls) == 1, make.__name__

    def test_evaluation_leaves_no_cyclic_garbage(self):
        # The ad-hoc automaton caches its indexed form; the indexed form
        # must not point back at it, or every document leaves a cycle.
        engine = Engine()
        queries = (_figure2(engine), _example24(engine))
        warm, *docs = _rosters(3)
        for query in queries:
            engine.evaluate(query, warm)
        gc.collect()
        gc.disable()
        try:
            for query in queries:
                for doc in docs:
                    assert engine.evaluate(query, doc) is not None
            assert gc.collect() == 0
        finally:
            gc.enable()
