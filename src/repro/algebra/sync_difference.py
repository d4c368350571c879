"""Difference against a synchronized subtrahend (Theorem 4.8 / Cor. 4.9).

Bounding the number of common variables (Lemma 4.2) is one route to a
tractable difference; this module implements the other: ``A1 \\ A2`` with
**unboundedly many** common variables X, provided ``A1`` is semi-functional
for X and ``A2`` is synchronized for X.

Construction (following Appendix B.5):

1. Project ``A2`` onto X and trim.  Synchronizedness makes every variable
   either used on all accepting runs or on none; never-used variables are
   dropped from X (they cannot constrain compatibility), after which the
   subtrahend is *functional* over the effective common set.
2. Build the match graphs of both operands on the document.  Decompose
   ``A1`` by the exact subset ``Y`` of common variables its runs use.
3. For each component, sweep the document once, layer by layer, tracking
   the product nodes ``(q1, T)`` where ``q1`` is an A1-state and ``T`` the
   **set** of A2 match-graph states reachable under operation sets that
   agree with A1's on ``Γ_Y`` (operations on skipped variables are
   unconstrained — a compatible subtrahend mapping may place them
   anywhere).  Each node records its macro rows ``(S, σ, target)`` — A1
   performs ``S`` and reads ``σ`` — and, at the last layer, the accepting
   sets ``S`` that no consistent A2 acceptance blocks: exactly then the A1
   mapping survives the difference.  The layer-0 nodes of all components
   are one merged initial node.
4. Trim the nodes with one backward pass over the layered graph, number
   the live ones in BFS order, and emit the result once, from the same
   rows: the :class:`~repro.va.indexed.IndexedVA` tables, and the VA that
   expands every ``(node, S)`` into one chain of single-operation states
   with the node's letters leaving the chain end (acceptance sits on chain
   ends).  The VA is already normal — trim, ε-free, duplicate-free — and
   carries the indexed form, so nothing normalizes or factorizes it again.

Step 1 and the decomposition of step 2 do not depend on the document:
:class:`SyncDifference` computes them once (the engine keeps one per plan
node) and :meth:`SyncDifference.compile` runs steps 2–4 per document.  Its
``keep`` argument fuses a projection on top: survival is still decided on
the full operation sets, but only ``S ∩ keep`` is emitted, and rows that
become equal merge.

Tracking the *set* ``T`` is the universally-correct form of the paper's
deterministic match structure ``D2``: for a synchronized subtrahend the
sets stay polynomially small (they are the paper's D2 states), which
:class:`SyncDifferenceStats` records empirically (E8 ablation).  The
construction is *correct* for any sequential functional-over-X subtrahend;
only the polynomial bound needs synchronizedness, so ``require_synchronized
= False`` lets experiments probe the unsynchronized regime.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.document import Document, as_document
from ..core.errors import NotSequentialError, NotSynchronizedError
from ..core.mapping import Variable
from ..va.automaton import VA, State
from ..va.indexed import IndexedVA
from ..va.matchgraph import FactorizedVA, MatchGraph, OpSet
from ..va.matchstruct import never_used_variables
from ..va.normalization import normalize
from ..va.operations import empty_va, project_va, trim
from ..va.properties import is_functional, is_sequential, is_synchronized_for
from .join import _canonical_op_order, used_set_components


@dataclass
class SyncDifferenceStats:
    """Instrumentation of one synchronized-difference compilation."""

    effective_common: frozenset[Variable] = frozenset()
    components: int = 0
    max_tracked_set: int = 0  # width of the D2-like subset tracking
    product_nodes: int = 0

    def observe_set(self, size: int) -> None:
        self.max_tracked_set = max(self.max_tracked_set, size)


def synchronized_difference(
    first: VA,
    second: VA,
    document: Document | str,
    require_synchronized: bool = True,
    stats: SyncDifferenceStats | None = None,
) -> VA:
    """An ad-hoc sequential VA ``Ad`` with ``⟦Ad⟧(d) = ⟦A1 \\ A2⟧(d)``
    (Theorem 4.8), in normal form and with its indexed form attached.

    Args:
        first: the minuend ``A1`` (sequential; semi-functionalised for the
            common variables internally if needed).
        second: the subtrahend ``A2``; must be synchronized for the common
            variables unless ``require_synchronized=False``.
        document: the document the result is valid for.
        require_synchronized: when True (default), raise
            :class:`NotSynchronizedError` if ``A2`` is not synchronized
            for the effective common variables — without that property the
            polynomial size bound is forfeit (the construction stays
            correct).
        stats: optional accumulator for the E8 ablation measurements.
    """
    return SyncDifference(first, second, require_synchronized).compile(
        document, stats=stats
    )


class SyncDifference:
    """The document-independent half of ``A1 \\ A2`` (Theorem 4.8).

    Construction checks and prepares the operands once: sequentiality,
    the subtrahend's projection onto the effective common variables and
    its synchronization, the minuend's used-set components, and the
    factorizations of the components and the subtrahend (whose closure
    caches then grow across documents).  It raises what
    :func:`synchronized_difference` raises.  :meth:`compile` runs the
    per-document sweep.
    """

    def __init__(self, first: VA, second: VA, require_synchronized: bool = True):
        if not is_sequential(first) or not is_sequential(second):
            raise NotSequentialError("synchronized_difference requires sequential operands")
        self.minuend = trim(first)
        second = trim(second)
        common = self.minuend.variables & second.variables
        #: The effective common variables, or ``None`` when the subtrahend
        #: is the empty spanner.
        self.effective: frozenset[Variable] | None = None
        self.subtrahend: FactorizedVA | None = None
        #: ``(Y, factorized component)`` per used set ``Y`` of the minuend.
        self.components: list[tuple[frozenset[Variable], FactorizedVA]] = []
        self._minuend_results: dict[frozenset[Variable] | None, VA] = {}
        projected = trim(project_va(second, common))
        if not projected.accepting:
            return
        # Drop variables the subtrahend never extracts: they never constrain
        # compatibility.  For a synchronized subtrahend every variable is
        # all-or-nothing, so afterwards the projection is functional.
        effective = frozenset(common - never_used_variables(projected, common))
        subtrahend = trim(project_va(projected, effective))
        if effective and require_synchronized and not is_synchronized_for(subtrahend, effective):
            raise NotSynchronizedError(
                "the subtrahend is not synchronized for the common variables "
                f"{sorted(effective)}; Theorem 4.8 does not apply "
                "(pass require_synchronized=False to build anyway, or use "
                "adhoc_difference for the bounded-common-variable route)"
            )
        if effective and not is_functional(subtrahend):
            raise NotSynchronizedError(
                "after dropping never-used variables the subtrahend must be "
                "functional over the common variables; it is not — the input "
                "violates Theorem 4.8's preconditions"
            )
        self.effective = effective
        self.subtrahend = FactorizedVA(subtrahend)
        if effective:
            self.components = [
                (used, FactorizedVA(component))
                for used, component in used_set_components(self.minuend, effective).items()
            ]

    def compile(
        self,
        document: Document | str,
        keep: frozenset[Variable] | None = None,
        stats: SyncDifferenceStats | None = None,
    ) -> VA:
        """The ad-hoc VA of the difference on ``document`` — of its
        projection onto ``keep`` when given — in normal form, with its
        indexed form attached."""
        doc = as_document(document)
        if self.subtrahend is None:
            return self._minuend_result(keep)  # the subtrahend is the empty spanner
        if stats is not None:
            stats.effective_common = self.effective
        graph2 = MatchGraph(self.subtrahend, doc)
        if graph2.is_empty:
            return self._minuend_result(keep)  # it extracts nothing from this document
        if not self.effective:
            # Boolean subtrahend that accepts d: its empty mapping is
            # compatible with everything.
            return empty_va()
        if stats is not None:
            stats.components = len(self.components)
        return _emit(*self._sweep(graph2, doc, keep, stats))

    def _minuend_result(self, keep: frozenset[Variable] | None) -> VA:
        """The (projected) minuend, normalized once and reused."""
        found = self._minuend_results.get(keep)
        if found is None:
            va = self.minuend if keep is None else project_va(self.minuend, keep)
            found = self._minuend_results[keep] = normalize(va)
        return found

    def _sweep(
        self,
        graph2: MatchGraph,
        doc: Document,
        keep: frozenset[Variable] | None,
        stats: SyncDifferenceStats | None,
    ) -> tuple[list[dict], list[dict], list[list[int]]]:
        """Step 3: the product nodes of every component on ``doc``.

        Returns per node its rows ``{(S, σ, target): None}`` and accepting
        sets ``{S: None}`` (dicts keep them ordered and merged), and the
        node ids per layer.  Node 0 is the merged initial node."""
        n = len(doc)
        rows: list[dict[tuple[OpSet, str, int], None]] = [{}]
        accept: list[dict[OpSet, None]] = [{}]
        layers: list[list[int]] = [[] for _ in range(n + 1)]
        layers[0].append(0)
        initial_tracked = frozenset((self.subtrahend.va.initial,))
        emitted = (lambda ops: ops) if keep is None else _restriction(keep)
        for used, factorized in self.components:
            graph1 = MatchGraph(factorized, doc)
            if graph1.is_empty:
                continue
            constrained = _restriction(used)

            frontier: dict[tuple[State, frozenset[State]], int] = {
                (factorized.va.initial, initial_tracked): 0
            }
            for layer in range(n + 1):
                # Per tracked set: the next tracked set per constrained key
                # (or, at the last layer, the blocked keys).
                by_tracked: dict[frozenset[State], dict[OpSet, frozenset[State]]] = {}
                following: dict[tuple[State, frozenset[State]], int] = {}
                letter = doc.letter(layer + 1) if layer < n else ""
                for (q1, tracked), node in frontier.items():
                    if stats is not None:
                        stats.observe_set(len(tracked))
                        stats.product_nodes += 1
                    options = by_tracked.get(tracked)
                    if options is None:
                        options = by_tracked[tracked] = (
                            _blocked_keys(graph2, tracked, constrained)
                            if layer == n
                            else _tracked_successors(graph2, layer, tracked, constrained)
                        )
                    if layer == n:
                        node_accept = accept[node]
                        for ops1 in graph1.final_opsets.get(q1, ()):
                            if constrained(ops1) not in options:
                                node_accept[emitted(ops1)] = None
                        continue
                    node_rows = rows[node]
                    for ops1, targets1 in graph1.edges[layer].get(q1, {}).items():
                        next_tracked = options.get(constrained(ops1), frozenset())
                        ops = emitted(ops1)
                        for r1 in targets1:
                            key = (r1, next_tracked)
                            target = following.get(key)
                            if target is None:
                                target = following[key] = len(rows)
                                rows.append({})
                                accept.append({})
                                layers[layer + 1].append(target)
                            node_rows[(ops, letter, target)] = None
                frontier = following
        return rows, accept, layers


def _restriction(variables: frozenset[Variable]):
    """``S ↦ S`` restricted to operations on ``variables``, memoized."""
    memo: dict[OpSet, OpSet] = {}

    def restrict(ops: OpSet) -> OpSet:
        found = memo.get(ops)
        if found is None:
            found = memo[ops] = frozenset(op for op in ops if op.var in variables)
        return found

    return restrict


def _tracked_successors(graph2: MatchGraph, layer: int, tracked, constrained) -> dict:
    """From a tracked set of A2 states: the next tracked set per
    constrained operation key."""
    out: dict[OpSet, set[State]] = {}
    for ops2, targets2 in graph2.successor_options(layer, tracked).items():
        out.setdefault(constrained(ops2), set()).update(targets2)
    return {key: frozenset(targets) for key, targets in out.items()}


def _blocked_keys(graph2: MatchGraph, tracked, constrained) -> dict:
    """The constrained keys of the accepting sets of a last-layer tracked
    set: an A1 acceptance with one of these keys is subtracted."""
    return {constrained(ops2): None for ops2 in graph2.final_options(tracked)}


def _emit(
    rows: list[dict], accept: list[dict], layers: list[list[int]]
) -> VA:
    """Step 4: trim the product nodes, number them in BFS order, and build
    the indexed form and the chain-expanded VA from the same rows."""
    n = len(layers) - 1
    live = [False] * len(rows)
    for node in layers[n]:
        live[node] = bool(accept[node])
    for layer in range(n - 1, -1, -1):
        for node in layers[layer]:
            kept = [row for row in rows[node] if live[row[2]]]
            rows[node] = kept
            live[node] = bool(kept)
    if not live[0]:
        return empty_va()
    number = [-1] * len(rows)
    number[0] = 0
    order = [0]
    for node in order:
        for _, _, target in rows[node]:
            if number[target] < 0:
                number[target] = len(order)
                order.append(target)
    index_rows: list[tuple[int, str, OpSet, int]] = []
    index_accept: list[tuple[int, OpSet]] = []
    transitions: list = []
    accepting: list[int] = []
    fresh = len(order)
    op_orders: dict[OpSet, list] = {}
    for sid, node in enumerate(order):
        ends: dict[OpSet, int] = {}
        for ops, letter, target in rows[node]:
            tid = number[target]
            index_rows.append((sid, letter, ops, tid))
            end = ends.get(ops)
            if end is None:
                end, fresh = _chain(sid, ops, fresh, transitions, op_orders)
                ends[ops] = end
            transitions.append((end, letter, tid))
        for ops in accept[node]:
            index_accept.append((sid, ops))
            end, fresh = _chain(sid, ops, fresh, transitions, op_orders)
            accepting.append(end)
    indexed = IndexedVA.from_rows(len(order), index_rows, index_accept)
    return VA(0, accepting, transitions, indexed=indexed)


def _chain(
    source: int, ops: OpSet, fresh: int, transitions: list, op_orders: dict
) -> tuple[int, int]:
    """Append ``source --ops…--> end`` over fresh states (canonical
    operation order); returns the chain end and the next fresh state."""
    sequence = op_orders.get(ops)
    if sequence is None:
        sequence = op_orders[ops] = _canonical_op_order(ops)
    current = source
    for op in sequence:
        transitions.append((current, op, fresh))
        current = fresh
        fresh += 1
    return current, fresh
