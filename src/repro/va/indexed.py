"""Dense-indexed evaluation substrate (the engine's ``indexed`` backend).

:class:`~repro.va.matchgraph.FactorizedVA` keeps states as arbitrary
hashable objects and macro transitions as per-state dictionaries — flexible,
but the match-graph hot loop then spends its time hashing tuples and
chasing dictionaries.  :class:`IndexedVA` relabels the states of a trimmed
sequential VA to dense integers ``0..n-1`` (BFS order from the initial
state), interns its letters into a dense :class:`~repro.core.document.Alphabet`,
interns every operation set to a small integer, and precomputes, for every
(letter id, state) pair, the grouped macro transitions as tuples of
``(opset_id, target_bitmask)`` plus an *aggregate successor mask* (the union
of all targets, ignoring operation sets).  Producers that already hold the
macro transitions — the synchronized difference of Theorem 4.8 — build the
same tables directly through :meth:`IndexedVA.from_rows`.

State *sets* are then Python integers used as bitsets, and documents are
arrays of letter ids (cached on the :class:`~repro.core.document.Document`
per alphabet), so the forward pass is array indexing and ``|``/``&`` on
machine words instead of string hashing and frozenset algebra.

:class:`IndexedMatchGraph` is *lazy* (streaming): construction runs only a
cheap Boolean forward pass — enough to decide emptiness (Theorem 2.5's
linear preprocessing).  By default that pass is **run-compressed**: it
walks the document's cached run-length encoding
(:meth:`~repro.core.document.Document.runs`) and advances each maximal
single-letter run through the :class:`~repro.va.kernel.TransitionKernel`
in O(log run) memoized mask applications instead of O(run) per-letter
steps, so construction cost scales with the number of *runs*, not letters.
The per-layer forward masks, the backward co-reachability pruning, and the
enumeration edge rows all materialise on demand — and the backward pass
reuses the kernel's predecessor transformers with fixpoint fill inside
runs.

Enumeration is :func:`enumerate_skip_index`, the one DFS shared by both
bitmask backends (this one and :mod:`repro.va.vectorized`).  It is
parameterised only by a *fan builder* — the canonical ``(opset, target)``
choices of a profile at a layer — and hops over forced no-capture
stretches through a path-compressed ``(layer, profile)`` skip index (the
jump function of Florenzano et al., PODS 2018, and Amarilli et al.,
ICDT 2019), so the delay between mappings is linear in the output, not in
the document.  The dedicated :meth:`IndexedMatchGraph.first` walk keeps
its own same-letter run-skip (:attr:`IndexedMatchGraph.jump`).
``compressed=False`` is the plain-kernel escape hatch (the pre-kernel
per-letter behaviour, also exposed as the engine's ``indexed-plain``
backend); ``eager=True`` additionally prebuilds every edge row up front.
Semantics are identical on every path — the equivalence tests in
``tests/engine`` check compressed against plain against eager against the
naive enumerator.

Both indexed forms are document independent and safe to share across
documents; :meth:`VA.indexed` caches one per automaton.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterable, Iterator

from ..core.document import Alphabet, Document, as_document
from ..core.errors import NotSequentialError, SpannerError
from ..core.mapping import Mapping
from ..core.spans import Span
from ..utils.bits import apply_masks, iter_bits
from .automaton import VA, State
from .matchgraph import (
    EMPTY_OPSET,
    FactorizedVA,
    OpSet,
    opset_sort_key,
)
from .properties import is_sequential

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .kernel import TransitionKernel


class IndexedVA:
    """Document-independent indexed form of a (sequential) VA.

    The tables have one constructor, :meth:`from_rows`, which takes the
    macro transitions ``source --(S, σ)--> target`` over dense state ids
    and the accepting operation sets per state.  Two producers feed it:
    ``IndexedVA(va)`` factorizes an automaton (trimmed first, states
    numbered in BFS order from the initial state), and the synchronized
    difference (:mod:`repro.algebra.sync_difference`) hands over the rows
    its product sweep already computed.  The form keeps no reference to
    the automaton it indexes, so caching it on that automaton
    (:meth:`VA.indexed`) creates no reference cycle.

    Attributes:
        n_states: number of states (dense ids ``0..n_states-1``).
        initial_id: dense id of the initial state (always 0).
        alphabet: the interned :class:`Alphabet` of the automaton's letters.
        opsets: interned operation sets; index = opset id.
        empty_opset_id: the id of the empty operation set, or ``-1`` when
            every macro transition performs at least one operation — the
            run-skip fast paths key on it.
        tables: ``tables[letter_id][state_id]`` is a tuple of
            ``(opset_id, target_bitmask)`` macro transitions, canonically
            ordered.
        successor_masks: ``successor_masks[letter_id][state_id]`` is the
            union of the target bitmasks of ``tables[letter_id][state_id]``
            — the Boolean (operation-blind) transition relation the lazy
            match graph's forward/backward passes run on.
        accept: ``accept[state_id]`` is the tuple of accepting opset ids,
            canonically ordered.
        accept_mask: bitmask of states with at least one accepting opset.
        opset_rank: canonical enumeration rank per opset id.
    """

    def __init__(self, va: VA, factorized: FactorizedVA | None = None):
        if factorized is None:
            factorized = FactorizedVA(va)
        tva = factorized.va  # trimmed
        order: dict[State, int] = {tva.initial: 0}
        queue = deque((tva.initial,))
        while queue:
            state = queue.popleft()
            for _, target in tva.transitions_from(state):
                if target not in order:
                    order[target] = len(order)
                    queue.append(target)
        # Trimming keeps only reachable states, so `order` covers them all.
        rows: list[tuple[int, str, OpSet, int]] = []
        accepting: list[tuple[int, OpSet]] = []
        for state, sid in order.items():
            for ops, mid in factorized.closure(state):
                for label, target in tva.transitions_from(mid):
                    if isinstance(label, str):
                        rows.append((sid, label, ops, order[target]))
            for ops in factorized.accepting_opsets(state):
                accepting.append((sid, ops))
        self._build(len(order), rows, accepting)

    @classmethod
    def from_rows(
        cls,
        n_states: int,
        rows: "Iterable[tuple[int, str, OpSet, int]]",
        accepting: "Iterable[tuple[int, OpSet]]",
    ) -> "IndexedVA":
        """The indexed form of the automaton with states ``0..n_states-1``
        (0 initial), macro transitions ``rows`` as ``(source, letter, S,
        target)``, and accepting operation sets ``accepting`` as
        ``(state, S)``.  Repeated rows are merged."""
        indexed = cls.__new__(cls)
        indexed._build(n_states, rows, accepting)
        return indexed

    def _build(self, n_states, rows, accepting) -> None:
        self.n_states = n_states
        self.initial_id = 0
        opsets: list[OpSet] = []
        opset_ids: dict[OpSet, int] = {}

        def intern(ops: OpSet) -> int:
            found = opset_ids.get(ops)
            if found is None:
                found = opset_ids[ops] = len(opsets)
                opsets.append(ops)
            return found

        cells: dict[tuple[str, int], dict[int, int]] = {}
        for source, letter, ops, target in rows:
            oid = intern(ops)
            cell = cells.get((letter, source))
            if cell is None:
                cell = cells[(letter, source)] = {}
            cell[oid] = cell.get(oid, 0) | (1 << target)
        final: dict[int, set[int]] = {}
        for sid, ops in accepting:
            final.setdefault(sid, set()).add(intern(ops))
        self.opsets = opsets
        self.empty_opset_id = opset_ids.get(EMPTY_OPSET, -1)
        # Canonical enumeration rank per opset id (ids are interned in
        # discovery order, which is not the canonical order).
        ranked = sorted(range(len(opsets)), key=lambda oid: opset_sort_key(opsets[oid]))
        rank = self.opset_rank = [0] * len(opsets)
        for position, oid in enumerate(ranked):
            rank[oid] = position
        self.alphabet = Alphabet.of({letter for letter, _ in cells})
        letter_id = self.alphabet.ids
        n_letters = len(self.alphabet)
        tables: list[list[tuple[tuple[int, int], ...]]] = [
            [()] * n_states for _ in range(n_letters)
        ]
        successor_masks: list[list[int]] = [[0] * n_states for _ in range(n_letters)]
        for (letter, sid), cell in cells.items():
            lid = letter_id[letter]
            entries = tuple(sorted(cell.items(), key=lambda kv: rank[kv[0]]))
            tables[lid][sid] = entries
            mask = 0
            for _, target_mask in entries:
                mask |= target_mask
            successor_masks[lid][sid] = mask
        accept: list[tuple[int, ...]] = [()] * n_states
        accept_mask = 0
        for sid, oids in final.items():
            accept[sid] = tuple(sorted(oids, key=rank.__getitem__))
            accept_mask |= 1 << sid
        self.tables = tables
        self.successor_masks = successor_masks
        self.accept = accept
        self.accept_mask = accept_mask
        self._kernel: "TransitionKernel | None" = None

    def kernel(self) -> "TransitionKernel":
        """The run-compressed transition kernel over this automaton
        (:mod:`repro.va.kernel`), built once and cached.  Its memoized
        ``(letter, 2^k)`` power transformers are shared by every document
        evaluated through this indexed form."""
        if self._kernel is None:
            from .kernel import TransitionKernel

            self._kernel = TransitionKernel(self)
        return self._kernel

    def letter_edge_arrays(
        self, letter_id: int
    ) -> "tuple[list[int], list[int], list[int]]":
        """The macro transitions of one letter, flattened to parallel
        arrays ``(source_sids, opset_ids, target_masks)`` over every
        ``(state, opset)`` edge of ``tables[letter_id]``.

        This is the columnar view the vectorized batch edge-row builder
        gathers from: one plane AND over the whole target column prunes
        every edge of a layer context at once, instead of walking
        ``tables[letter_id][sid]`` per (layer, state) pair.  Built once
        per letter and cached (document independent)."""
        cache = getattr(self, "_letter_edge_arrays", None)
        if cache is None:
            cache = self._letter_edge_arrays = {}
        arrays = cache.get(letter_id)
        if arrays is None:
            sids: list[int] = []
            oids: list[int] = []
            targets: list[int] = []
            for sid, entries in enumerate(self.tables[letter_id]):
                for oid, target_mask in entries:
                    sids.append(sid)
                    oids.append(oid)
                    targets.append(target_mask)
            arrays = cache[letter_id] = (sids, oids, targets)
        return arrays

    def op_programs(self) -> "list[tuple[tuple[str, ...], tuple[str, ...]]]":
        """Per-opset ``(open_vars, close_vars)`` programs, indexed by
        opset id — the unpacked form of :attr:`opsets` the bulk mapping
        emitter replays without iterating frozensets per accepting path.
        Built once and cached (document independent)."""
        programs = getattr(self, "_op_programs", None)
        if programs is None:
            programs = self._op_programs = [
                (
                    tuple(op.var for op in ops if op.is_open),
                    tuple(op.var for op in ops if not op.is_open),
                )
                for ops in self.opsets
            ]
        return programs

    def __repr__(self) -> str:
        return (
            f"IndexedVA(states={self.n_states}, opsets={len(self.opsets)}, "
            f"letters={len(self.alphabet)})"
        )


def indexed_nonempty(
    indexed: IndexedVA,
    document: Document | str,
    compressed: bool = True,
    guard=None,
) -> bool:
    """Decide ``⟦A⟧(d) ≠ ∅`` with the Boolean bitmask pass alone.

    One forward sweep — no edge rows, no backward pruning, early exit as
    soon as the frontier dies.  By default the sweep is run-compressed: it
    advances over the document's run-length encoding through the
    :class:`~repro.va.kernel.TransitionKernel`, costing O(runs · log run)
    instead of O(letters).  ``compressed=False`` keeps the plain per-letter
    walk (the ``indexed-plain`` escape hatch).  An
    :class:`~repro.engine.guards.ExecutionGuard` is checked once per run
    (compressed) or ticked per letter (plain).
    """
    doc = as_document(document)
    if compressed:
        kernel = indexed.kernel()
        letter_id = indexed.alphabet.ids.get
        mask = 1 << indexed.initial_id
        for letter, _start, length in doc.runs():
            if guard is not None:
                guard.check()
            lid = letter_id(letter, -1)
            if lid < 0:
                return False  # letter unknown to the VA: no run survives
            mask = kernel.advance(lid, mask, length)
            if not mask:
                return False
        return bool(mask & indexed.accept_mask)
    ids = doc.encoded(indexed.alphabet)
    succ = indexed.successor_masks
    mask = 1 << indexed.initial_id
    for lid in ids:
        if guard is not None:
            guard.tick()
        if lid < 0:
            return False  # letter unknown to the VA: no run survives
        nxt = apply_masks(succ[lid], mask)
        if not nxt:
            return False
        mask = nxt
    return bool(mask & indexed.accept_mask)


#: Entry cap of the forced-stretch skip index of
#: :func:`enumerate_skip_index`: one entry per distinct ``(layer, profile)``
#: pair inside a forced stretch, so the cap only trips when the DFS
#: genuinely visits that many distinct pairs — at which point the index
#: stops growing and the walk degrades to stepping, never to incorrectness.
_SKIP_INDEX_LIMIT = 1 << 19


def _mapping_from_entries(entries: "list[tuple[int, OpSet]]") -> Mapping:
    """Assemble a mapping from sparse ``(position, operation set)`` pairs
    in ascending position order — the run-skipping walks only record the
    positions that actually perform operations, so reconstruction costs
    O(operations) instead of O(document).  Equivalent to
    :func:`~repro.va.matchgraph.mapping_from_opsets` on the padded list
    (the input comes from valid runs of a sequential VA, so the
    caller-error checks there cannot fire here)."""
    opened: dict = {}
    spans: dict = {}
    for position, ops in entries:
        for op in ops:
            if op.is_open:
                opened[op.var] = position
        for op in ops:
            if not op.is_open:
                spans[op.var] = Span(opened.pop(op.var), position)
    return Mapping(spans)


class IndexedMatchGraph:
    """The layered match graph of an :class:`IndexedVA` on one document,
    with layers as state bitmasks — built *lazily*.

    Construction runs only the Boolean forward pass (run-compressed by
    default, through the shared :class:`~repro.va.kernel.TransitionKernel`),
    which already decides :attr:`is_empty`.  The per-layer forward masks
    and the backward pruning pass materialise on first access to
    :attr:`forward` / :attr:`alive` (with fixpoint fill inside letter
    runs).  Enumeration edge rows are materialised per *layer context*
    ``(letter, live successor mask)`` and state as the DFS reaches them,
    so every layer, run repetition, and re-visit that reproduces a context
    shares one row; the option fans :func:`enumerate_skip_index` consumes
    are assembled from those rows and memoised per ``(profile, letter,
    live mask)``.  Pass ``compressed=False`` for the plain per-letter
    kernel (the pre-kernel behaviour), ``eager=True`` to prebuild every
    edge row up front (kept for the comparison benches and equivalence
    tests).

    ``guard`` attaches an :class:`~repro.engine.guards.ExecutionGuard`:
    the forward/backward passes check it once per letter run (O(runs)
    overhead, not O(positions)), the enumeration DFS ticks it per layer
    step and per skip-index step, and every materialised edge row is
    charged against the ``edge_rows`` budget.  With no guard every
    checkpoint is a single ``is not None`` test.
    """

    __slots__ = (
        "indexed",
        "document",
        "final",
        "final_mask",
        "_n",
        "_runs",
        "_kernel",
        "_letter_ids",
        "_forward",
        "_frontier",
        "_alive",
        "_jump",
        "_edges",
        "_rows",
        "_fans",
        "_forced_skips",
        "_guard",
    )

    def __init__(
        self,
        indexed: IndexedVA,
        document: Document | str,
        eager: bool = False,
        compressed: bool = True,
        guard=None,
    ):
        self.indexed = indexed
        self.document = as_document(document)
        self._guard = guard
        n = len(self.document)
        self._init_lazy(n)
        if compressed:
            # Boolean forward pass over the run-length encoding: each
            # maximal letter run advances through the kernel in O(log run).
            kernel = self._kernel = indexed.kernel()
            letter_id = indexed.alphabet.ids.get
            self._runs: tuple[tuple[int, int, int], ...] | None = tuple(
                (letter_id(letter, -1), start, length)
                for letter, start, length in self.document.runs()
            )
            mask = 1 << indexed.initial_id
            for lid, _start, length in self._runs:
                if guard is not None:
                    guard.check()
                if lid < 0:
                    mask = 0  # letter unknown to the VA: nothing survives
                    break
                mask = kernel.advance(lid, mask, length)
                if not mask:
                    break
        else:
            # Plain per-letter pass (the escape hatch): fills every
            # forward layer eagerly, the pre-kernel behaviour.
            self._runs = None
            self._kernel = None
            succ = indexed.successor_masks
            forward = [0] * (n + 1)
            mask = forward[0] = 1 << indexed.initial_id
            for i, lid in enumerate(self.letter_ids):
                if guard is not None:
                    guard.tick()
                if lid < 0:
                    mask = 0  # letter unknown to the VA: nothing lives past
                    break
                nxt = apply_masks(succ[lid], mask)
                if not nxt:
                    mask = 0
                    break
                forward[i + 1] = mask = nxt
            self._forward = forward
        # Checkpoint the raw pre-acceptance frontier: an append-extension
        # resumes the forward pass from here instead of position 0.
        self._frontier = mask
        # Acceptance at the last layer.
        final_mask = mask & indexed.accept_mask
        self.final_mask = final_mask
        accept = indexed.accept
        self.final: dict[int, tuple[int, ...]] = {
            sid: accept[sid] for sid in iter_bits(final_mask)
        }
        if eager:
            self.materialise()

    def _init_lazy(self, n: int) -> None:
        """Reset the on-demand layers and enumeration caches of a fresh
        ``n``-letter graph (shared by every constructor path)."""
        self._n = n
        self._letter_ids: tuple[int, ...] | None = None
        self._forward: list[int] | None = None
        self._alive: list[int] | None = None
        self._jump: list[int] | None = None
        # _edges[layer] is the row dict of the layer's context in _rows:
        # _rows[(letter, live mask)][sid] -> [(opset_id, live_target), ...].
        self._edges: list[dict | None] = [None] * n
        self._rows: dict = {}
        # _fans[(profile, letter, live mask)] -> rank-sorted option fan.
        self._fans: dict = {}
        # _forced_skips[(layer, profile)] -> (layer, profile) of the next
        # event past a forced no-capture stretch (enumerate_skip_index).
        self._forced_skips: dict = {}

    @property
    def is_empty(self) -> bool:
        """Whether ``⟦A⟧(d) = ∅`` — no accepting state is forward-reachable
        at the last layer (decided by the Boolean pass alone)."""
        return not self.final_mask

    @property
    def letter_ids(self) -> tuple[int, ...]:
        """The document as dense letter ids (cached on the document; built
        on demand — the run-compressed Boolean pass never needs it)."""
        ids = self._letter_ids
        if ids is None:
            ids = self._letter_ids = self.document.encoded(self.indexed.alphabet)
        return ids

    def checkpoint(self) -> int:
        """The raw forward frontier at the last layer, *before* the
        acceptance intersection — the state :meth:`extended` resumes from.
        Distinct from :attr:`final_mask`: a frontier with no accepting
        state today may reach one after the next append."""
        return self._frontier

    def extended(self, document: Document | str, guard=None) -> "IndexedMatchGraph":
        """The match graph of ``document`` — an append-extension of this
        graph's document — built by resuming the Boolean forward pass from
        the checkpointed frontier instead of position 0.

        The graph is layered by position, so the appended letters only
        extend the frontier: the prefix contributes nothing but its
        checkpoint, already-materialised prefix forward layers are carried
        over, and an appended run that merges with the tail run advances
        through the kernel's memoized transformer powers in O(log extra).
        The backward pruning, jump table, skip index, and enumeration edge
        rows are *not* carried over — they are pruned against the final
        layer's acceptance, which every append changes — and rebuild
        lazily over the new document on demand.

        ``document`` must extend ``self.document`` letter for letter;
        callers (normally a tail session, via
        :meth:`~repro.core.document.Document.append`) guarantee it, and
        only the lengths are checked — a full prefix comparison would cost
        the O(document) this path exists to avoid.
        """
        doc = as_document(document)
        old_n = self._n
        n = len(doc)
        if n < old_n:
            raise SpannerError(
                f"extended() needs an append-extension of the graph's "
                f"document ({n} letters < {old_n})"
            )
        indexed = self.indexed
        graph = IndexedMatchGraph.__new__(IndexedMatchGraph)
        graph.indexed = indexed
        graph.document = doc
        graph._guard = guard
        graph._init_lazy(n)
        mask = self._frontier
        if self._runs is not None:
            # Run-compressed: splice the encoded runs (only the possibly
            # merged tail run and the new suffix runs are re-encoded) and
            # advance the checkpoint over the overhang.
            kernel = graph._kernel = self._kernel
            letter_id = indexed.alphabet.ids.get
            old_runs = self._runs
            keep = max(len(old_runs) - 1, 0)
            graph._runs = old_runs[:keep] + tuple(
                (letter_id(letter, -1), start, length)
                for letter, start, length in doc.runs()[keep:]
            )
            for lid, start, length in graph._runs[keep:]:
                if guard is not None:
                    guard.check()
                end = start + length
                if end <= old_n or not mask:
                    continue
                if lid < 0:
                    mask = 0
                    break
                mask = kernel.advance(lid, mask, end - max(start, old_n))
                if not mask:
                    break
            reuse_forward = self._forward is not None
        else:
            # Plain per-letter substrate: its forward layers are always
            # eager, so the extension fills the suffix layers eagerly too.
            graph._runs = None
            graph._kernel = None
            reuse_forward = True
        if reuse_forward:
            succ = indexed.successor_masks
            ids_get = indexed.alphabet.ids.get
            forward = list(self._forward)
            forward.extend([0] * (n - old_n))
            m = self._frontier
            i = old_n
            for ch in doc.text[old_n:]:
                if guard is not None:
                    guard.tick()
                if not m:
                    break
                lid = ids_get(ch, -1)
                if lid < 0:
                    m = 0
                    break
                m = apply_masks(succ[lid], m)
                if not m:
                    break
                i += 1
                forward[i] = m
            graph._forward = forward
            if graph._runs is None:
                mask = m
        graph._frontier = mask
        final_mask = mask & indexed.accept_mask
        graph.final_mask = final_mask
        accept = indexed.accept
        graph.final = {sid: accept[sid] for sid in iter_bits(final_mask)}
        return graph

    @property
    def forward(self) -> list[int]:
        """Forward-reachable state masks per layer, expanded on demand.

        The run-compressed construction keeps only the run-boundary
        frontier; this expands run interiors layer by layer, short-cutting
        to a slice fill once a run's frontier hits a fixpoint."""
        forward = self._forward
        if forward is None:
            n = self._n
            indexed = self.indexed
            guard = self._guard
            forward = [0] * (n + 1)
            mask = forward[0] = 1 << indexed.initial_id
            succ = indexed.successor_masks
            for lid, start, length in self._runs:
                if guard is not None:
                    guard.check()
                if lid < 0 or not mask:
                    mask = 0
                    break
                row = succ[lid]
                end = start + length
                i = start
                while i < end:
                    nxt = apply_masks(row, mask)
                    if not nxt:
                        mask = 0
                        break
                    i += 1
                    forward[i] = nxt
                    if nxt == mask:
                        # Fixpoint: the rest of the run repeats this mask.
                        forward[i + 1 : end + 1] = [nxt] * (end - i)
                        i = end
                    mask = nxt
                if not mask:
                    break
            self._forward = forward
        return forward

    @property
    def alive(self) -> list[int]:
        """Live (co-reachable ∩ reachable) state masks per layer, from the
        Boolean backward pass (run once, on demand).

        On the run-compressed path the pass walks the run-length encoding
        with the kernel's predecessor transformers, filling whole run
        interiors once the co-reachability chain hits a fixpoint.  An empty
        graph never runs the pass at all: a full accepting path crosses
        every layer, so one empty layer means all layers are empty."""
        alive = self._alive
        if alive is None:
            n = self._n
            if not self.final_mask:
                alive = [0] * (n + 1)
            elif self._runs is not None:
                alive = self._alive_compressed()
            else:
                alive = self._alive_plain()
            self._alive = alive
            guard = self._guard
            if (
                guard is not None
                and guard.budget is not None
                and guard.budget.states is not None
            ):
                guard.charge_states(sum(mask.bit_count() for mask in alive))
        return alive

    def _alive_compressed(self) -> list[int]:
        n = self._n
        forward = self.forward
        kernel = self._kernel
        alive = [0] * (n + 1)
        # `live` chains M[i] = pred(M[i+1]) ∩ forward[i], which equals the
        # reachable ∩ co-reachable pruning exactly (a live state's path
        # successor is itself live); intersecting every layer keeps the
        # masks small.  Inside a run, once both M and the forward mask are
        # stable the recurrence reproduces itself, so the rest of the
        # stable stretch fills without further mask applications.
        guard = self._guard
        live = alive[n] = self.final_mask
        for lid, start, length in reversed(self._runs):
            if guard is not None:
                guard.check()
            if not live:
                break  # nothing co-reachable earlier either
            pred = kernel.pred_row(lid)
            end = start + length
            i = end - 1
            while i >= start:
                nxt = apply_masks(pred, live) & forward[i]
                alive[i] = nxt
                if nxt == live and forward[i] == forward[i + 1]:
                    # Stable: M[j] = pred(M[j+1]) ∩ forward[j] keeps
                    # producing the same mask while the forward chain
                    # stays equal — fill the stretch.
                    j = i - 1
                    fwd_i = forward[i]
                    while j >= start and forward[j] == fwd_i:
                        alive[j] = nxt
                        j -= 1
                    i = j
                else:
                    i -= 1
                live = nxt
        return alive

    def _alive_plain(self) -> list[int]:
        ids = self.letter_ids
        forward = self.forward
        succ = self.indexed.successor_masks
        n = self._n
        guard = self._guard
        alive = [0] * (n + 1)
        live = alive[n] = self.final_mask
        for i in range(n - 1, -1, -1):
            if guard is not None:
                guard.tick()
            if not live:
                break  # nothing co-reachable earlier either
            row = succ[ids[i]]
            layer_alive = 0
            mask = forward[i]
            while mask:
                low = mask & -mask
                if row[low.bit_length() - 1] & live:
                    layer_alive |= low
                mask ^= low
            alive[i] = live = layer_alive
        return alive

    @property
    def jump(self) -> list[int]:
        """Run-skip destinations per layer, built once on demand.

        ``jump[i]`` is the last layer ``j ≥ i+1`` such that every layer in
        ``i..j-1`` reads the same letter and sees the same live mask at its
        successor layer — exactly the stretch whose per-position choices
        repeat layer ``i``'s.  :meth:`first` consults it in O(1) per skip,
        so skipping costs one backward sweep total instead of a rescan."""
        jump = self._jump
        if jump is None:
            n = self._n
            jump = list(range(1, n + 1))
            if n > 1:
                ids = self.letter_ids
                alive = self.alive
                for i in range(n - 2, -1, -1):
                    if ids[i + 1] == ids[i] and alive[i + 2] == alive[i + 1]:
                        jump[i] = jump[i + 1]
            self._jump = jump
        return jump

    def states_alive(self) -> int:
        """Total live states across all layers (graph-size gauge)."""
        return sum(mask.bit_count() for mask in self.alive)

    def width(self) -> int:
        """Maximum number of live states in any layer."""
        return max((mask.bit_count() for mask in self.alive), default=0)

    def _context_rows(self, layer: int) -> dict:
        """The row dict of ``layer``'s context ``(letter, live successor
        mask)``, shared by every layer that reproduces the context."""
        rows = self._edges[layer]
        if rows is None:
            key = (self.letter_ids[layer], self.alive[layer + 1])
            rows = self._edges[layer] = self._rows.setdefault(key, {})
        return rows

    def edge_row(self, layer: int, sid: int) -> list[tuple[int, int]]:
        """The pruned macro transitions of live state ``sid`` at ``layer``
        (``(opset_id, live_target_mask)`` pairs), built on first demand
        per ``(letter, live mask, state)`` and charged once to the guard's
        ``edge_rows`` budget.  The returned list is the cache entry: treat
        it as immutable.  Rows keep the table's canonical opset order, so
        a one-state profile's row is already its option fan."""
        rows = self._context_rows(layer)
        row = rows.get(sid)
        if row is None:
            if self._guard is not None:
                self._guard.charge_edge_rows(1)
            live = self.alive[layer + 1]
            row = rows[sid] = [
                (oid, target_mask & live)
                for oid, target_mask in self.indexed.tables[self.letter_ids[layer]][sid]
                if target_mask & live
            ]
        return row

    def edge_layer(self, layer: int) -> dict[int, list[tuple[int, int]]]:
        """All edge rows of one layer (every live state), materialised."""
        for sid in iter_bits(self.alive[layer]):
            self.edge_row(layer, sid)
        return self._edges[layer]  # type: ignore[return-value]

    def materialise(self) -> None:
        """Prebuild the backward pass and every edge row (eager mode)."""
        for layer in range(self._n):
            self.edge_layer(layer)

    def _fan(self, profile: int, letter_id: int, layer: int) -> tuple:
        """The fan builder of :func:`enumerate_skip_index` over the int
        bitmask tables: the distinct ``(opset_id, union live target)``
        choices of ``profile`` at ``layer``, rank sorted, assembled from
        the shared context rows and memoised per ``(profile, letter, live
        mask)``."""
        # Called only from enumerate_skip_index, after it materialised
        # `alive`; the row build inlines edge_row (this is the hot path).
        live = self._alive[layer + 1]
        rows = self._edges[layer]
        if rows is None:
            rows = self._edges[layer] = self._rows.setdefault((letter_id, live), {})
        row_table = self.indexed.tables[letter_id]
        guard = self._guard
        options = None
        mask = profile
        while mask:
            low = mask & -mask
            mask ^= low
            sid = low.bit_length() - 1
            row = rows.get(sid)
            if row is None:
                if guard is not None:
                    guard.charge_edge_rows(1)
                row = rows[sid] = [
                    (oid, target & live) for oid, target in row_table[sid] if target & live
                ]
            if options is None:
                if not mask:
                    fan = row  # one state: its row is already a rank-ordered fan
                    break
                options = {}
            for oid, target in row:
                prev = options.get(oid)
                options[oid] = target if prev is None else prev | target
        if options is not None:
            rank = self.indexed.opset_rank
            fan = tuple(sorted(options.items(), key=lambda kv: rank[kv[0]]))
        self._fans[(profile, letter_id, live)] = fan
        return fan

    def enumerate(self, limit: int | None = None) -> Iterator[Mapping]:
        """DFS enumeration with output-linear delay (Theorem 2.5 and the
        jump function of the constant-delay literature): the shared
        :func:`enumerate_skip_index` loop over the int-bitmask fans of
        :meth:`_fan`.  ``limit`` stops after that many mappings; the lazy
        rows mean a small limit touches only the contexts along the
        walked paths."""
        return enumerate_skip_index(self, self._fans, self._fan, limit)

    def first(self) -> Mapping | None:
        """The first mapping in canonical order, or ``None`` if empty —
        one Boolean pass plus the edges along a single root-to-sink path.

        A dedicated greedy walk: the DFS's first leaf is reached by taking
        the canonically-minimal operation set at every layer, so no stack,
        no generator frames, and no alternatives are ever pushed.  The
        :attr:`jump` table fast-forwards through forced empty-opset
        stretches inside letter runs.
        """
        if self.is_empty:
            return None
        indexed = self.indexed
        opsets, rank = indexed.opsets, indexed.opset_rank
        empty_oid = indexed.empty_opset_id
        edge_row = self.edge_row
        jump = self.jump
        n = self._n
        guard = self._guard
        entries: list[tuple[int, OpSet]] = []
        profile = 1 << indexed.initial_id
        layer = 0
        while layer < n:
            if guard is not None:
                guard.tick()
            best_oid = -1
            best_rank = -1
            best_mask = 0
            mask = profile
            while mask:
                low = mask & -mask
                mask ^= low
                sid = low.bit_length() - 1
                for oid, target_mask in edge_row(layer, sid):
                    if best_rank < 0 or rank[oid] < best_rank:
                        best_rank, best_oid, best_mask = rank[oid], oid, target_mask
                    elif oid == best_oid:
                        best_mask |= target_mask
            if best_oid == empty_oid and best_mask == profile:
                # Run-skip: forced-equivalent empty steps on a fixpoint
                # profile — the greedy choice repeats through the stretch.
                layer = jump[layer]
            else:
                ops = opsets[best_oid]
                if ops:
                    entries.append((layer + 1, ops))
                profile = best_mask
                layer += 1
        final = self.final
        best_final = -1
        mask = profile
        while mask:
            low = mask & -mask
            mask ^= low
            for oid in final.get(low.bit_length() - 1, ()):
                if best_final < 0 or rank[oid] < rank[best_final]:
                    best_final = oid
        final_ops = opsets[best_final]
        if final_ops:
            entries.append((n + 1, final_ops))
        return _mapping_from_entries(entries)


def enumerate_skip_index(graph, fans: dict, build_fan, limit=None) -> Iterator[Mapping]:
    """The DFS enumerator of both bitmask backends: output-linear delay over
    a path-compressed forced-stretch skip index.

    ``graph`` is an :class:`IndexedMatchGraph` (or subclass); it supplies
    the live layers, the letter ids, the accepting fans, the guard, and the
    per-graph skip index.  The substrate enters only through the fan memo
    ``fans`` — probed with ``(profile, letter_id, live successor mask)``
    — and the *fan builder* ``build_fan(profile, letter_id, layer)``, called
    on a memo miss, which returns the canonical option fan: the distinct
    ``(opset_id, live target mask)`` choices of ``profile`` at ``layer``
    in opset rank order (storing it in ``fans`` is the builder's job, and
    so is charging built rows to the guard's ``edge_rows`` budget).

    A fan with a single empty-opset option is a *forced no-op stretch*:
    nothing to record and nothing to choose until the next fan, operating
    step, or the leaf.  The skip index maps ``(layer, profile)`` to that
    event in one hop.  It crosses letter boundaries *and* profile changes
    (a scanning profile may oscillate per letter), and path compression
    means the first path to walk a forced suffix pays O(stretch) once
    while every later path joins it within a few layers — so the steps
    between two mappings do not grow with the document.  The index stops
    growing at :data:`_SKIP_INDEX_LIMIT` entries; past it the walk steps
    instead of hopping, with identical output.

    Paths are parent-pointer arenas holding only *operating* steps, so a
    leaf rebuilds its spans in O(captures) and emits through the trusted
    :meth:`Mapping.from_arrays` constructor.  The guard is ticked per
    layer step and per skip-index step.
    """
    if graph.is_empty or (limit is not None and limit <= 0):
        return
    indexed = graph.indexed
    opsets, rank = indexed.opsets, indexed.opset_rank
    programs = indexed.op_programs()
    n = graph._n
    final = graph.final
    alive = graph.alive
    letter_ids = graph.letter_ids
    fskip = graph._forced_skips
    skip_limit = _SKIP_INDEX_LIMIT
    guard = graph._guard
    emitted = 0
    # Parent-pointer arenas: one slot per *operating* (non-empty opset)
    # step — forced stretches and empty steps leave no trace.
    node_pos: list[int] = []
    node_oid: list[int] = []
    node_parent: list[int] = []
    stack: list[tuple[int, int, int]] = [(0, 1 << indexed.initial_id, -1)]
    while stack:
        layer, profile, parent = stack.pop()
        while layer < n:
            if guard is not None:
                guard.tick()
            lid = letter_ids[layer]
            opts = fans.get((profile, lid, alive[layer + 1]))
            if opts is None:
                opts = build_fan(profile, lid, layer)
            if len(opts) == 1:
                oid, target = opts[0]
                if not opsets[oid]:
                    hop = fskip.get((layer, profile))
                    if hop is None:
                        walked = [(layer, profile)]
                        hl, hp = layer + 1, target
                        while hl < n:
                            if guard is not None:
                                guard.tick()
                            step = (hl, hp)
                            hop = fskip.get(step)
                            if hop is not None:
                                break
                            hlid = letter_ids[hl]
                            hopts = fans.get((hp, hlid, alive[hl + 1]))
                            if hopts is None:
                                hopts = build_fan(hp, hlid, hl)
                            if len(hopts) != 1 or opsets[hopts[0][0]]:
                                break
                            walked.append(step)
                            hl += 1
                            hp = hopts[0][1]
                        if hop is None:
                            hop = (hl, hp)
                        if len(fskip) < skip_limit:
                            for step in walked:
                                fskip[step] = hop
                    layer, profile = hop
                    continue
            elif not opts:
                break  # dead profile (unreachable on live layers)
            else:
                # Alternatives pushed in reverse rank so later pops walk
                # them canonically; the rank-first option continues inline
                # without a push/pop round-trip.
                for oid, target in opts[:0:-1]:
                    if opsets[oid]:
                        node_pos.append(layer + 1)
                        node_oid.append(oid)
                        node_parent.append(parent)
                        stack.append((layer + 1, target, len(node_pos) - 1))
                    else:
                        stack.append((layer + 1, target, parent))
                oid, target = opts[0]
            if opsets[oid]:
                node_pos.append(layer + 1)
                node_oid.append(oid)
                node_parent.append(parent)
                parent = len(node_pos) - 1
            profile = target
            layer += 1
        else:
            # Leaf (layer == n): canonical final fan over the profile's
            # accepting states, spans rebuilt once from the parent chain
            # and shared across the fan.
            options_set: set[int] = set()
            for sid in iter_bits(profile):
                options_set.update(final.get(sid, ()))
            chain: list[int] = []
            p = parent
            while p >= 0:
                chain.append(p)
                p = node_parent[p]
            opened: dict[str, int] = {}
            spans: dict[str, Span] = {}
            for p in reversed(chain):
                position = node_pos[p]
                opens, closes = programs[node_oid[p]]
                for var in opens:
                    opened[var] = position
                for var in closes:
                    spans[var] = Span(opened.pop(var), position)
            base_items = None
            for foid in sorted(options_set, key=rank.__getitem__):
                fopens, fcloses = programs[foid]
                if fopens or fcloses:
                    opened_f = dict(opened)
                    spans_f = dict(spans)
                    for var in fopens:
                        opened_f[var] = n + 1
                    for var in fcloses:
                        spans_f[var] = Span(opened_f.pop(var), n + 1)
                    yield Mapping.from_arrays(tuple(sorted(spans_f.items())))
                else:
                    if base_items is None:
                        base_items = tuple(sorted(spans.items()))
                    yield Mapping.from_arrays(base_items)
                emitted += 1
                if limit is not None and emitted >= limit:
                    return


def enumerate_indexed(
    indexed: IndexedVA | VA, document: Document | str, limit: int | None = None
) -> Iterator[Mapping]:
    """Enumerate ``⟦A⟧(d)`` via the indexed substrate.

    Accepts a prebuilt :class:`IndexedVA` (shared across documents) or a
    raw sequential :class:`VA`.  The match graph is built lazily on the
    first ``next()``, so the first delay carries the preprocessing.
    """
    if isinstance(indexed, VA):
        if not is_sequential(indexed):
            raise NotSequentialError(
                "indexed enumeration requires a sequential VA"
            )
        indexed = IndexedVA(indexed)
    yield from IndexedMatchGraph(indexed, document).enumerate(limit=limit)
