"""The logical-plan optimizer: one unit test per rewrite rule, plus plan
CSE, ``Plan.explain()``, the fingerprint-keyed plan cache, and the
``optimize=False`` escape hatch."""

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
from repro.algebra.logical import (
    LDifference,
    LJoin,
    LProject,
    LSyncDifference,
    LUnion,
    StaticAtom,
)
from repro.algebra.planner import compile_static_atom
from repro.engine import EngineStats, SyncDifferencePlanNode, build_plan
from repro.engine.optimizer import optimize
from repro.engine.plan import (
    DifferencePlanNode,
    ProjectSyncDifferencePlanNode,
    StaticNode,
)
from repro.va import empty_va


def atom(text: str) -> StaticAtom:
    return StaticAtom(compile_static_atom(parse(text)))


class TestRewriteRules:
    def test_flatten_union(self):
        nested = LUnion((LUnion((atom("x{a}"), atom("x{b}"))), atom("x{ab}")))
        out, report = optimize(nested)
        assert isinstance(out, LUnion)
        assert len(out.operands) == 3
        assert report.fired["flatten-union"] >= 1

    def test_flatten_join(self):
        nested = LJoin((LJoin((atom("x{a}[ab]*"), atom("[ab]*y{b}"))), atom("[ab]*z{a}[ab]*")))
        out, report = optimize(nested)
        assert isinstance(out, LJoin)
        assert len(out.operands) == 3
        assert report.fired["flatten-join"] >= 1

    def test_dedup_union(self):
        # Structurally identical operands (separately compiled) collapse.
        out, report = optimize(LUnion((atom("x{(a|b)+}"), atom("x{(a|b)+}"))))
        assert isinstance(out, StaticAtom)
        assert report.fired["dedup-union"] == 1

    def test_join_is_not_deduplicated(self):
        # Schemaless ⋈ is not idempotent: A ⋈ A may combine mappings with
        # different domains.  The optimizer must keep both operands.
        duplicated = LJoin((atom("x{a}|y{a}"), atom("x{a}|y{a}")))
        out, _ = optimize(duplicated)
        assert isinstance(out, LJoin)
        assert len(out.operands) == 2

    def test_prune_empty_union(self):
        empty = StaticAtom(empty_va())
        out, report = optimize(LUnion((empty, atom("x{a}"))))
        assert isinstance(out, StaticAtom)
        assert not out.is_empty
        assert report.fired["prune-empty"] == 1

    def test_prune_empty_join(self):
        empty = StaticAtom(empty_va())
        out, _ = optimize(LJoin((atom("x{a}"), empty)))
        assert isinstance(out, StaticAtom)
        assert out.is_empty

    def test_prune_empty_difference(self):
        empty = StaticAtom(empty_va())
        keep = atom("x{a}")
        left_empty, _ = optimize(LDifference(empty, keep))
        assert isinstance(left_empty, StaticAtom) and left_empty.is_empty
        right_empty, _ = optimize(LDifference(keep, empty))
        assert isinstance(right_empty, StaticAtom) and not right_empty.is_empty

    def test_project_project_fuses(self):
        # A difference child cannot be folded statically, so the nested
        # projections must fuse on their own: π_{y,z}(π_{x,y}(A)) = π_{y}(A).
        child = LDifference(atom("x{a}y{b}z{a}"), atom("w{ab}"))
        inner = LProject(child, frozenset({"x", "y"}))
        out, report = optimize(LProject(inner, frozenset({"y", "z"})))
        assert isinstance(out, LProject)
        assert out.keep == frozenset({"y"})
        assert not isinstance(out.child, LProject)
        assert report.fired["project-project"] == 1

    def test_project_identity_dropped(self):
        base = atom("x{a}")
        out, report = optimize(LProject(base, frozenset({"x", "unused"})))
        assert out is base
        assert report.fired["project-identity"] == 1

    def test_push_project_through_union(self):
        union = LUnion((atom("x{a}y{b}"), atom("x{b}z{a}")))
        out, report = optimize(LProject(union, frozenset({"x"})))
        assert report.fired["push-project-union"] == 1
        # Both arms fold to x-only atoms; the union stays n-ary static.
        assert isinstance(out, LUnion)
        assert all(
            isinstance(child, StaticAtom) and child.variables == frozenset({"x"})
            for child in out.operands
        )

    def test_push_project_through_join_keeps_shared_variables(self):
        join = LJoin((atom("x{a}y{b}[ab]*"), atom("[ab]*x{a}z{b}")))
        out, report = optimize(LProject(join, frozenset({"y"})))
        assert report.fired["push-project-join"] == 1
        # The shared variable x must survive inside the join operands even
        # though only y is kept outside.
        assert isinstance(out, LProject) and out.keep == frozenset({"y"})
        assert isinstance(out.child, LJoin)
        operand_vars = [child.variables for child in out.child.operands]
        assert frozenset({"x", "y"}) in operand_vars
        assert frozenset({"x"}) in operand_vars

    def test_fold_static_project_shrinks_atom(self):
        base = atom("x{a}y{(a|b)+}")
        out, report = optimize(LProject(base, frozenset({"x"})))
        assert isinstance(out, StaticAtom)
        assert out.variables == frozenset({"x"})
        assert out.va.n_states <= base.va.n_states
        assert report.fired["fold-static-project"] == 1

    def test_order_operands_by_estimated_states(self):
        big = atom("x{(a|b)+}(a|b)*y{(a|b)+}")
        small = atom("z{a}")
        out, report = optimize(LUnion((big, small)))
        assert report.fired["order-operands"] == 1
        assert [child.estimated_states for child in out.operands] == sorted(
            child.estimated_states for child in out.operands
        )

    def test_sync_difference_lowered_for_synchronized_subtrahend(self):
        minuend = atom("(a|b)*x{(a|b)+}(a|b)*")
        subtrahend = atom("(a|b)*x{a}(a|b)*")  # functional ⇒ synchronized
        out, report = optimize(LDifference(minuend, subtrahend))
        assert isinstance(out, LSyncDifference)
        assert report.fired["sync-difference"] == 1

    def test_sync_difference_not_lowered_for_unsynchronized_subtrahend(self):
        minuend = atom("(a|b)*x{(a|b)+}(a|b)*")
        # Some accepting runs use x, others do not: not synchronized.
        subtrahend = atom("(a|b)*x{a}(a|b)*|b+")
        out, report = optimize(LDifference(minuend, subtrahend))
        assert isinstance(out, LDifference)
        assert not isinstance(out, LSyncDifference)
        assert "sync-difference" not in report.fired


class TestPlanLevelCSE:
    def test_duplicate_subtrees_share_one_physical_node(self):
        shared_text = "(a|b)*x{a}(a|b)*"
        tree = UnionNode(
            Difference(Leaf("a"), Leaf("c1")),
            Difference(Leaf("b"), Leaf("c2")),
        )
        inst = Instantiation(
            spanners={
                "a": parse("(a|b)*x{(a|b)+}"),
                "b": parse("x{(a|b)+}(a|b)*"),
                "c1": parse(shared_text),
                "c2": parse(shared_text),  # distinct object, same structure
            }
        )
        stats = EngineStats()
        plan = build_plan(tree, inst, stats=stats)
        assert plan.root.left.right is plan.root.right.right
        assert stats.cse_hits >= 1
        assert "[shared ×2]" in plan.explain()

    def test_static_cache_shares_atoms_across_plans(self):
        engine = Engine()
        formula = "(a|b)*x{(a|b)+}(a|b)*"
        engine.evaluate(
            RAQuery(Leaf("a"), Instantiation(spanners={"a": parse(formula)})), "ab"
        )
        before = engine.stats.cse_hits
        engine.evaluate(
            RAQuery(
                UnionNode(Leaf("a"), Leaf("b")),
                Instantiation(
                    spanners={"a": parse(formula), "b": parse("y{a}")}
                ),
            ),
            "ab",
        )
        assert engine.stats.cse_hits > before

    def test_fingerprint_cache_shares_plans_across_equal_queries(self):
        from repro.va import regex_to_va, trim

        engine = Engine()
        text = "(a|b)*x{(a|b)+}(a|b)*"

        def fresh_query():
            # Fresh VA atoms every time: VAs key the cheap plan cache by
            # object identity, so only the structural fingerprint can hit.
            return RAQuery(
                UnionNode(Leaf("a"), Leaf("b")),
                Instantiation(
                    spanners={
                        "a": trim(regex_to_va(parse(text))),
                        "b": trim(regex_to_va(parse("y{a}b"))),
                    }
                ),
            )

        first = engine.evaluate(fresh_query(), "abab")
        second = engine.evaluate(fresh_query(), "abab")
        assert first == second
        assert engine.stats.plan_misses == 1
        assert engine.stats.fingerprint_hits == 1

    def test_structurally_equal_formulas_hit_the_cheap_key(self):
        # Regex formulas hash structurally, so re-parsed (equal) formulas
        # reuse the plan without even building the logical IR.
        engine = Engine()
        text = "(a|b)*x{(a|b)+}(a|b)*"

        def fresh_query():
            return RAQuery(
                Leaf("a"), Instantiation(spanners={"a": parse(text)})
            )

        engine.evaluate(fresh_query(), "abab")
        engine.evaluate(fresh_query(), "abab")
        assert engine.stats.plan_misses == 1
        assert engine.stats.plan_hits == 1
        assert engine.stats.fingerprint_hits == 0


class TestEngineIntegration:
    def _difference_query(self, engine=None):
        tree = Difference(Leaf("a"), Leaf("c"))
        inst = Instantiation(
            spanners={
                "a": parse("(a|b)*x{(a|b)+}(a|b)*"),
                "c": parse("(a|b)*x{a}(a|b)*"),
            }
        )
        return RAQuery(tree, inst, engine=engine)

    def test_sync_difference_plan_node_used(self):
        engine = Engine()
        query = self._difference_query(engine)
        plan = engine.prepare(query).plan
        assert isinstance(plan.root, SyncDifferencePlanNode)
        # ... which is still a DifferencePlanNode for plan introspection.
        assert isinstance(plan.root, DifferencePlanNode)

    def test_sync_difference_matches_adhoc_difference(self):
        optimized = self._difference_query(Engine())
        plain = self._difference_query(Engine(optimize=False))
        for doc in ("", "a", "ab", "abab", "bbab"):
            assert optimized.evaluate(doc) == plain.evaluate(doc)

    def test_projection_fuses_into_sync_difference(self):
        tree = Project(Difference(Leaf("a"), Leaf("c")), frozenset({"y"}))
        inst = Instantiation(
            spanners={
                "a": parse("(a|b)*x{(a|b)+}(a|b)*y{b}(a|b)*"),
                "c": parse("(a|b)*x{a}(a|b)*"),
            }
        )
        engine = Engine()
        plan = engine.prepare(RAQuery(tree, inst, engine=engine)).plan
        assert isinstance(plan.root, ProjectSyncDifferencePlanNode)
        assert plan.n_adhoc == 1
        assert "π[y] ∘ ∖ synchronized (Thm 4.8) [ad hoc, fused]" in plan.explain()
        plain = Engine(optimize=False)
        for doc in ("", "ab", "abab", "aabba"):
            assert RAQuery(tree, inst, engine=engine).evaluate(doc) == RAQuery(
                tree, inst, engine=plain
            ).evaluate(doc)

    def test_sync_lowering_lifts_max_shared_bound(self):
        # Theorem 4.8 needs no bound on the common variables, so the
        # optimized plan evaluates where the ad-hoc route would refuse.
        tree = Difference(Leaf("a"), Leaf("b"))
        inst = Instantiation(
            spanners={"a": parse("x{a}y{b}"), "b": parse("x{a}y{b}")}
        )
        config = PlannerConfig(max_shared=1)
        from repro.core import SpannerError

        with pytest.raises(SpannerError):
            RAQuery(tree, inst, config, engine=Engine(optimize=False)).evaluate("ab")
        relation = RAQuery(tree, inst, config, engine=Engine()).evaluate("ab")
        assert relation.is_empty  # identical operands

    def test_join_bound_checked_on_written_association(self):
        # order-operands re-folds joins smallest-first; the max_shared
        # check must still be evaluated against the association the user
        # wrote, so this (valid as written) query may not start failing.
        inst = Instantiation(
            spanners={
                "a": parse("(a|b)*x{(a|b)+}(a|b)*y{(a|b)+}(a|b)*"),  # big
                "b": parse("(a|b)*x{a}(a|b)*"),
                "c": parse("(a|b)*y{b}(a|b)*"),
            }
        )
        tree = Join(Join(Leaf("a"), Leaf("b")), Leaf("c"))
        config = PlannerConfig(max_shared=1)  # (a,b) share 1; (ab,c) share 1
        on = Engine().evaluate(RAQuery(tree, inst, config), "abab")
        off = Engine(optimize=False).evaluate(RAQuery(tree, inst, config), "abab")
        assert on == off

    def test_join_bound_violation_still_raises_when_optimized(self):
        from repro.core import SpannerError

        inst = Instantiation(
            spanners={"a": parse("x{a}y{b}"), "b": parse("x{a}y{b}")}
        )
        tree = Join(Leaf("a"), Leaf("b"))
        with pytest.raises(SpannerError, match="shares 2"):
            Engine().evaluate(RAQuery(tree, inst, PlannerConfig(max_shared=1)), "ab")

    def test_static_cache_does_not_bypass_join_bound(self):
        # A lax-config plan must not satisfy a strict-config query from
        # the engine's cross-plan static cache.
        from repro.core import SpannerError

        engine = Engine(optimize=False)
        text_a, text_b = "x{a}[ab]*", "x{a}y{b}[ab]*"

        def query(max_shared):
            return RAQuery(
                Join(Leaf("a"), Leaf("b")),
                Instantiation(spanners={"a": parse(text_a), "b": parse(text_b)}),
                PlannerConfig(max_shared=max_shared),
            )

        engine.evaluate(query(2), "ab")  # populates the static cache
        with pytest.raises(SpannerError):
            engine.evaluate(query(0), "ab")

    def test_optimize_false_escape_hatch(self):
        engine = Engine(optimize=False)
        tree = Project(UnionNode(Leaf("a"), Leaf("b")), frozenset({"x"}))
        inst = Instantiation(
            spanners={"a": parse("x{(a|b)+}"), "b": parse("x{(a|b)+}")}
        )
        plan = engine.prepare(RAQuery(tree, inst)).plan
        assert plan.report is None
        assert "optimizer: disabled" in plan.explain()
        assert engine.stats.rules_fired == 0

    def test_optimized_and_unoptimized_agree(self):
        tree = Project(UnionNode(Leaf("a"), Leaf("b")), frozenset({"x"}))
        inst = Instantiation(
            spanners={"a": parse("x{(a|b)+}y{a*}"), "b": parse("x{(a|b)+}")}
        )
        on, off = Engine(), Engine(optimize=False)
        for doc in ("", "ab", "abab"):
            assert on.evaluate(RAQuery(tree, inst), doc) == off.evaluate(
                RAQuery(tree, inst), doc
            )

    def test_explain_sections(self):
        engine = Engine()
        text = engine.explain(self._difference_query(engine))
        assert "physical:" in text
        assert "logical (optimized):" in text
        assert "optimizer:" in text
        assert "synchronized (Thm 4.8)" in text

    def test_stats_record_rule_fires(self):
        engine = Engine()
        tree = Project(UnionNode(Leaf("a"), Leaf("b")), frozenset({"x"}))
        inst = Instantiation(
            spanners={"a": parse("x{(a|b)+}"), "b": parse("x{(a|b)+}")}
        )
        engine.evaluate(RAQuery(tree, inst), "ab")
        assert engine.stats.rules_fired >= 1
        assert engine.stats.rule_fires
        assert sum(engine.stats.rule_fires.values()) == engine.stats.rules_fired
        assert "optimizer rewrites" in engine.stats.summary()


class TestStatsDictCounters:
    def test_merge_adds_rule_fires(self):
        a = EngineStats(rules_fired=2, rule_fires={"dedup-union": 2})
        b = EngineStats(rules_fired=3, rule_fires={"dedup-union": 1, "prune-empty": 2})
        a.merge(b)
        assert a.rules_fired == 5
        assert a.rule_fires == {"dedup-union": 3, "prune-empty": 2}

    def test_delta_subtracts_rule_fires(self):
        before = EngineStats(rules_fired=1, rule_fires={"dedup-union": 1})
        after = EngineStats(rules_fired=4, rule_fires={"dedup-union": 2, "prune-empty": 2})
        diff = after.delta(before)
        assert diff.rules_fired == 3
        assert diff.rule_fires == {"dedup-union": 1, "prune-empty": 2}

    def test_snapshot_is_independent(self):
        stats = EngineStats(rule_fires={"dedup-union": 1})
        snap = stats.snapshot()
        stats.rule_fires["dedup-union"] = 99
        assert snap.rule_fires == {"dedup-union": 1}
