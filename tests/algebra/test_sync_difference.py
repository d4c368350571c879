"""Synchronized difference (Theorem 4.8 / Corollary 4.9)."""

import random

import pytest

from repro.core import NotSynchronizedError
from repro.engine import available_backends, get_backend
from repro.regex import concat, parse, sigma_star, sym, union
from repro.va import (
    IndexedMatchGraph,
    IndexedVA,
    evaluate_naive,
    evaluate_va,
    is_sequential,
    normalize,
    regex_to_va,
    rename_variables,
    trim,
)
from repro.va.operations import is_trim
from repro.algebra import (
    SyncDifferenceStats,
    semantic_difference,
    semantic_projection,
    synchronized_difference,
)
from repro.algebra.sync_difference import SyncDifference
from repro.workloads import (
    random_sequential_formula,
    synchronized_block_formula,
    unsynchronized_block_formula,
)


def compile_formula(formula) -> "VA":
    if isinstance(formula, str):
        formula = parse(formula)
    return trim(regex_to_va(formula))


def check(minuend, subtrahend, doc: str, **kwargs) -> None:
    a1, a2 = compile_formula(minuend), compile_formula(subtrahend)
    compiled = synchronized_difference(a1, a2, doc, **kwargs)
    assert is_sequential(compiled)
    expected = semantic_difference(evaluate_va(a1, doc), evaluate_va(a2, doc))
    assert evaluate_va(compiled, doc) == expected, (doc,)


class TestSynchronizedSubtrahend:
    def test_block_family(self):
        check(
            synchronized_block_formula(2),
            synchronized_block_formula(2, alphabet="a"),
            "abcba",
        )

    def test_minuend_with_optional_variables(self):
        # A1 skips x on some runs; the skipped variable is unconstrained.
        check("(x1{a*}|ε)c·x2{[ab]*}", synchronized_block_formula(2), "acb")

    def test_boolean_subtrahend_accepting(self):
        # Subtrahend with no common variables that accepts the document:
        # its empty mapping kills everything.
        check("x{a}[abc]*", "[abc]*", "abc")

    def test_boolean_subtrahend_rejecting(self):
        check("x{a}[abc]*", "[abc]*d|d[abc]*", "abc")

    def test_subtrahend_empty_spanner(self):
        check("x{a}[ab]*", "∅", "ab")

    def test_subtrahend_empty_on_document(self):
        check(synchronized_block_formula(1), "x1{b}c*", "ac")

    def test_extra_subtrahend_variables_projected(self):
        # Variables of A2 not in A1 cannot affect the difference.
        check("x1{a}[abc]*", "x1{a}y{[abc]*}", "abc")

    def test_never_used_common_variable_dropped(self):
        # A2 mentions x2 only on dead branches; x2 must not constrain.
        check(synchronized_block_formula(2), "x1{a*}c[ab]*", "acb")


class TestPreconditions:
    def test_unsynchronized_subtrahend_rejected(self):
        a1 = compile_formula(synchronized_block_formula(1))
        a2 = compile_formula("(x1{a}|ε a x1{ε})[ab]*")
        with pytest.raises(NotSynchronizedError):
            synchronized_difference(a1, a2, "ab")

    def test_unsynchronized_allowed_when_not_required(self):
        # The construction stays correct; only the size bound is forfeit.
        f2 = unsynchronized_block_formula(1)
        check("x1{[ab]*}", f2, "ab", require_synchronized=False)
        check("x1{[ab]*}", f2, "ba", require_synchronized=False)

    def test_stats_populated(self):
        stats = SyncDifferenceStats()
        a1 = compile_formula(synchronized_block_formula(2))
        a2 = compile_formula(synchronized_block_formula(2, alphabet="a"))
        synchronized_difference(a1, a2, "aca", stats=stats)
        assert stats.effective_common == {"x1", "x2"}
        assert stats.components >= 1
        assert stats.max_tracked_set >= 1
        assert stats.product_nodes > 0


class TestRandomizedAgainstSemantic:
    def test_random_minuends(self):
        rng = random.Random(5)
        subtrahend = compile_formula(synchronized_block_formula(2))
        for _ in range(10):
            f1 = random_sequential_formula(rng.randint(0, 2), rng, alphabet="abc", depth=2)
            a1 = trim(regex_to_va(f1))
            doc = "".join(rng.choice("abc") for _ in range(rng.randint(0, 4)))
            # rename f1's variables into the shared ones half the time
            compiled = synchronized_difference(a1, subtrahend, doc)
            expected = semantic_difference(
                evaluate_naive(a1, doc), evaluate_va(subtrahend, doc)
            )
            assert evaluate_va(compiled, doc) == expected, (f1.to_text(), doc)

    def test_random_shared_variable_minuends(self):
        rng = random.Random(6)
        subtrahend = compile_formula(synchronized_block_formula(1, alphabet="ab"))
        for _ in range(10):
            f1 = random_sequential_formula(1, rng, alphabet="ab", depth=2)
            # Rename the formula's variable to the shared name x1.
            a1 = trim(regex_to_va(f1))
            if a1.variables:
                a1 = rename_variables(a1, {next(iter(a1.variables)): "x1"})
            doc = "".join(rng.choice("ab") for _ in range(rng.randint(0, 4)))
            compiled = synchronized_difference(a1, subtrahend, doc)
            expected = semantic_difference(
                evaluate_naive(a1, doc), evaluate_va(subtrahend, doc)
            )
            assert evaluate_va(compiled, doc) == expected, (f1.to_text(), doc)

    def test_emitted_form_is_normal_indexed_and_fuses_projection(self):
        # Minuends ``f1 c f2`` sharing the block variables with the
        # subtrahend; each half may skip its variable (several used-set
        # components, whose initial nodes merge).
        rng = random.Random(13)
        subtrahend = compile_formula(synchronized_block_formula(2, alphabet="ab"))

        def half(var):
            f = random_sequential_formula(1, rng, alphabet="ab", depth=2)
            f = parse(f.to_text().replace("v0", var))
            if rng.random() < 0.7:
                f = concat(sigma_star("ab"), f, sigma_star("ab"))
            return union(f, sigma_star("ab")) if rng.random() < 0.5 else f

        minuends = [compile_formula("(x1{[ab]*}|ε)c·x2{[ab]*}")]
        while len(minuends) < 8:
            minuends.append(compile_formula(concat(half("x1"), sym("c"), half("x2"))))
        checked = nonempty = 0
        for a1 in minuends:
            operands = SyncDifference(a1, subtrahend)
            for _ in range(4):
                doc = "".join(rng.choice("ab") for _ in range(rng.randint(0, 3)))
                doc += "c" + "".join(rng.choice("ab") for _ in range(rng.randint(0, 3)))
                expected = semantic_difference(
                    evaluate_naive(a1, doc), evaluate_va(subtrahend, doc)
                )
                out = synchronized_difference(a1, subtrahend, doc)
                _check_normal(out)
                _check_attached_indexed_form(out, doc, expected)
                for keep in (frozenset(), frozenset({"x1"}), frozenset({"x2"}), a1.variables):
                    fused = operands.compile(doc, keep=keep)
                    _check_normal(fused)
                    assert evaluate_va(fused, doc) == semantic_projection(expected, keep), (
                        a1, doc, keep,
                    )
                checked += 1
                nonempty += bool(expected)
        assert nonempty >= checked // 4


def _check_normal(out) -> None:
    """The emitted automaton needs no normalization pass (an empty result
    is the one-state automaton :func:`trim` itself returns)."""
    assert is_trim(out) or (not out.accepting and out.n_states == 1)
    assert all(label is not None for _, label, _ in out.transitions)
    normal = normalize(out)
    assert (normal.n_states, normal.n_transitions) == (out.n_states, out.n_transitions)


def _check_attached_indexed_form(out, doc, expected) -> None:
    """The indexed form handed over by the sweep enumerates what a fresh
    factorization of the emitted VA does, on every substrate."""
    fresh = set(IndexedMatchGraph(IndexedVA(out), doc).enumerate())
    assert fresh == set(expected)
    for name in ("indexed", "vectorized", "matchgraph"):
        if name not in available_backends():
            continue
        prepared = get_backend(name).prepare(out)
        assert set(prepared.run(doc).enumerate()) == fresh, (name, doc)
