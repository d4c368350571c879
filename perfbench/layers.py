"""The engine's entry points, decomposed into calls into each layer.

The traced run answers every operation twice: once through the engine's
own entry point (``Engine.evaluate``, ``evaluate_many``, ``TailSession
.reevaluate``, ...) and once through :class:`Layers`, which makes the same
sequence of calls into the layers' public functions that the entry point
makes internally and records a span around each one.  The harness checks
that both return the same output, so the spans describe the work the
engine really does, while the engine itself stays untouched.

Span names are the layer names of the per-layer metrics: ``plan.prepare``,
``plan.adhoc_compile``, ``prefilter.admits``, ``index.plan``,
``store.hydrate``, ``backend.prepare``, ``backend.run``,
``backend.enumerate``, ``relation.build``, ``tail.reset``, ``tail.diff``,
``tail.checkpoint``, ``core.document``, and ``engine.collect`` (a batch
call assembling its per-document answers in store order).
"""

from __future__ import annotations

from repro import SpanRelation
from repro.core.document import as_document


class Layers:
    """Decomposed entry points plus the layer counters they observe."""

    def __init__(self, tracer, engine):
        self.tracer = tracer
        self.engine = engine
        self.span = tracer.span
        #: Prefilter decisions: documents checked / admitted / admitted
        #: and yielding a mapping.
        self.checked = 0
        self.admitted = 0
        self.admitted_hits = 0
        #: Index plans: documents in scope / candidates / candidates
        #: yielding a mapping.
        self.index_scope = 0
        self.index_candidates = 0
        self.index_hits = 0
        #: Mappings drained from ``PreparedRun.enumerate``.
        self.drained = 0
        #: States of every per-document (ad-hoc) automaton compiled.
        self.adhoc_states: list[int] = []
        #: Tail re-evaluations: mappings re-enumerated / fresh.
        self.tail_enumerated = 0
        self.tail_fresh = 0

    # -- shared steps ---------------------------------------------------------

    def _admits(self, context, doc, count: bool = True) -> bool:
        prefilter = context.prefilter()
        with self.span("prefilter.admits"):
            admitted = prefilter is None or prefilter.admits(doc)
        if count:
            self.checked += 1
            self.admitted += admitted
        return admitted

    def _prepared(self, context, doc):
        """What ``ExecutionContext.prepared_for`` does, split into the
        plan's per-document compile and the backend's prepare."""
        if context.plan.is_fully_static:
            with self.span("backend.prepare"):
                return context.prepared_for(doc)
        with self.span("plan.adhoc_compile"):
            va = context.compile(doc)
        self.adhoc_states.append(va.n_states)
        with self.span("backend.prepare"):
            return self.engine.backend.prepare(va)

    def _drain(self, prepared, doc) -> list:
        with self.span("backend.run"):
            run = prepared.run(doc)
        with self.span("backend.enumerate"):
            mappings = list(run.enumerate())
            run.states_alive()  # the engine's states_explored gauge
            del run  # freeing the run's graph is backend work too
        self.drained += len(mappings)
        return mappings

    # -- single-document entry points ------------------------------------------

    def mappings(self, query, document) -> list:
        """``Engine.enumerate(query, document)``, drained."""
        with self.span("core.document"):
            doc = as_document(document)
        with self.span("plan.prepare"):
            context = self.engine.prepare(query)
        if not self._admits(context, doc):
            return []
        mappings = self._drain(self._prepared(context, doc), doc)
        self.admitted_hits += bool(mappings)
        with self.span("core.document"):
            del doc  # the engine drops the document when the call ends
        return mappings

    def evaluate(self, query, document) -> SpanRelation:
        """``Engine.evaluate(query, document)``."""
        mappings = self.mappings(query, document)
        with self.span("relation.build"):
            return SpanRelation(mappings)

    # -- corpus-store entry points ------------------------------------------------

    def _store_survivors(self, context, store):
        with self.span("store.ids"):
            ids = store.doc_ids()
        prefilter = context.prefilter()
        if prefilter is None:
            self.checked += len(ids)
            self.admitted += len(ids)
            return ids, ids, None
        with self.span("index.plan"):
            plan, kept = store.survivors(prefilter, within=ids)
        candidates = set(plan.doc_ids)
        self.index_scope += len(ids)
        self.index_candidates += len(candidates)
        self.checked += len(ids)
        self.admitted += len(kept)
        return ids, kept, candidates

    def _store_query(self, query, store, answer):
        with self.span("plan.prepare"):
            context = self.engine.prepare(query)
        ids, kept, candidates = self._store_survivors(context, store)
        answers = {}
        for doc_id in kept:
            with self.span("store.hydrate"):
                doc = store.document(doc_id)
            if not self._admits(context, doc, count=False):
                continue
            result = answers[doc_id] = answer(self._prepared(context, doc), doc)
            hit = bool(result)
            self.admitted_hits += hit
            if candidates is not None and doc_id in candidates:
                self.index_hits += hit
        return ids, answers

    def evaluate_many(self, query, store) -> list:
        """``Engine.evaluate_many(query, store)``."""

        def answer(prepared, doc):
            mappings = self._drain(prepared, doc)
            with self.span("relation.build"):
                return SpanRelation(mappings)

        ids, answers = self._store_query(query, store, answer)
        with self.span("engine.collect"):
            empty = SpanRelation(())
            return [answers.get(doc_id, empty) for doc_id in ids]

    def is_nonempty_many(self, query, store) -> list:
        """``Engine.is_nonempty_many(query, store)``."""

        def answer(prepared, doc):
            with self.span("backend.run"):
                return prepared.is_nonempty(doc)

        ids, answers = self._store_query(query, store, answer)
        with self.span("engine.collect"):
            return [answers.get(doc_id, False) for doc_id in ids]


class TracedTail:
    """``TailSession``, decomposed: the same checkpoint-resume logic, with
    every layer call spanned."""

    def __init__(self, layers: Layers, query):
        self.layers = layers
        with layers.span("plan.prepare"):
            self.context = layers.engine.prepare(query)
        self.reset("")

    def reset(self, document) -> None:
        # Dropping the previous run and emitted set frees them: tail work.
        with self.layers.span("tail.reset"):
            self.document = as_document(document)
            self._prepared = None
            self._run = None
            self._seen = set()

    def reevaluate(self, text: str = "") -> list:
        layers = self.layers
        span = layers.span
        if text:
            with span("core.document"):
                self.document = self.document.append(text)
        doc = self.document
        if not layers._admits(self.context, doc, count=False):
            return []
        prepared = layers._prepared(self.context, doc)
        with span("backend.run"):
            if (
                self._run is not None
                and prepared is self._prepared
                and prepared.supports_extension()
            ):
                run = prepared.run_extended(self._run, doc)
            else:
                run = prepared.run(doc)
            empty = run.is_empty
        with span("tail.checkpoint"):  # frees the run it replaces
            self._prepared, self._run = prepared, run
        if empty:
            return []
        with span("backend.enumerate"):
            mappings = list(run.enumerate())
        layers.drained += len(mappings)
        with span("tail.diff"):
            seen = self._seen
            fresh = [m for m in mappings if m not in seen]
            seen.update(fresh)
            layers.tail_enumerated += len(mappings)
            del mappings
        layers.tail_fresh += len(fresh)
        return fresh
