"""Vset-automata (paper §2.3).

A vset-automaton (VA) is an NFA whose transitions carry either an alphabet
letter, ε, or a *variable operation*: ``x⊢`` (open variable ``x``) or
``⊣x`` (close it).  Variable operations do not consume input.

Transition labels:

* ``None`` — an ε-transition;
* a one-character ``str`` — a letter transition;
* a :class:`VarOp` — a variable operation.

States may be any hashable objects; :meth:`VA.relabelled` canonicalises them
to consecutive integers (useful after product constructions whose states are
nested tuples).

The class is immutable after construction; all "mutations" in
:mod:`repro.va.operations` build new automata.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from hashlib import sha256
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Iterator

from ..core.errors import SpannerError
from ..core.mapping import Variable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .indexed import IndexedVA
    from .prefilter import VAPrefilter
    from .vectorized import VectorizedVA

State = Hashable


@dataclass(frozen=True, slots=True, order=True)
class VarOp:
    """A variable operation: ``x⊢`` (open) or ``⊣x`` (close)."""

    var: Variable
    is_open: bool

    def __str__(self) -> str:
        return f"{self.var}⊢" if self.is_open else f"⊣{self.var}"

    @property
    def is_close(self) -> bool:
        return not self.is_open


def open_op(var: Variable) -> VarOp:
    """``x⊢``."""
    return VarOp(var, True)


def close_op(var: Variable) -> VarOp:
    """``⊣x``."""
    return VarOp(var, False)


#: A transition label: ε (None), a letter, or a variable operation.
Label = None | str | VarOp

#: One transition (source, label, target).
Transition = tuple[State, Label, State]


def _check_label(label: Label) -> None:
    if label is None or isinstance(label, VarOp):
        return
    if isinstance(label, str):
        if len(label) != 1:
            raise SpannerError(
                f"letter labels must be single characters, got {label!r}"
            )
        return
    raise SpannerError(f"invalid transition label {label!r}")


class VA:
    """An immutable vset-automaton ``(Q, q0, F, δ)``.

    Following footnote 4 of the paper we allow multiple accepting states.
    """

    __slots__ = (
        "_initial",
        "_accepting",
        "_transitions",
        "_out",
        "_states",
        "_vars",
        "_indexed",
        "_vectorized",
        "_prefilter",
        "_fingerprint",
    )

    def __init__(
        self,
        initial: State,
        accepting: Iterable[State],
        transitions: Iterable[Transition],
        states: Iterable[State] = (),
        *,
        indexed: "IndexedVA | None" = None,
    ):
        trans = tuple(transitions)
        for _, label, _ in trans:
            _check_label(label)
        self._initial = initial
        self._accepting = frozenset(accepting)
        self._transitions = trans
        all_states: set[State] = {initial}
        all_states.update(self._accepting)
        all_states.update(states)
        out: dict[State, list[tuple[Label, State]]] = {}
        variables: set[Variable] = set()
        for src, label, dst in trans:
            all_states.add(src)
            all_states.add(dst)
            out.setdefault(src, []).append((label, dst))
            if isinstance(label, VarOp):
                variables.add(label.var)
        self._states = frozenset(all_states)
        self._out = {state: tuple(edges) for state, edges in out.items()}
        self._vars = frozenset(variables)
        self._indexed = indexed
        self._vectorized = None
        self._prefilter: "VAPrefilter | None" = None
        self._fingerprint: str | None = None

    # -- structure accessors ---------------------------------------------------

    @property
    def initial(self) -> State:
        """The initial state ``q0``."""
        return self._initial

    @property
    def accepting(self) -> frozenset[State]:
        """The accepting states ``F``."""
        return self._accepting

    @property
    def states(self) -> frozenset[State]:
        """All states ``Q``."""
        return self._states

    @property
    def transitions(self) -> tuple[Transition, ...]:
        """All transitions ``δ`` as (source, label, target) triples."""
        return self._transitions

    @property
    def variables(self) -> frozenset[Variable]:
        """``Vars(A)``: variables mentioned by some transition."""
        return self._vars

    @property
    def n_states(self) -> int:
        return len(self._states)

    @property
    def n_transitions(self) -> int:
        return len(self._transitions)

    def transitions_from(self, state: State) -> tuple[tuple[Label, State], ...]:
        """Outgoing (label, target) pairs of ``state``."""
        return self._out.get(state, ())

    def is_accepting(self, state: State) -> bool:
        return state in self._accepting

    def indexed(self) -> "IndexedVA":
        """The dense-integer indexed form of this automaton (see
        :mod:`repro.va.indexed`), computed once and cached.

        The indexed form is document independent; sharing it across
        documents amortises factorization and table building.  Requires a
        sequential automaton (checked by the enumeration entry points).
        A producer that already holds the macro transitions may hand the
        form over at construction (``VA(..., indexed=...)``); it must then
        describe exactly this automaton's runs.
        """
        if self._indexed is None:
            from .indexed import IndexedVA

            self._indexed = IndexedVA(self)
        return self._indexed

    def vectorized(self) -> "VectorizedVA":
        """The numpy plane-table form of this automaton (see
        :mod:`repro.va.vectorized`), computed once and cached.

        Wraps :meth:`indexed` with the uint64 successor-plane tables and
        the shared frontier-stepping kernel; document independent like the
        indexed form.  Raises
        :class:`~repro.core.errors.BackendUnavailableError` without numpy.
        """
        if self._vectorized is None:
            from .vectorized import VectorizedVA

            self._vectorized = VectorizedVA(self.indexed())
        return self._vectorized

    def prefilter(self) -> "VAPrefilter":
        """The document prefilter derived from this automaton (see
        :mod:`repro.va.prefilter`), computed once and cached.

        A bundle of necessary conditions — alphabet closure, a length
        window, and must-occur letter bounds — that rejects non-matching
        documents in O(1).  Sound only for the sequential automata the
        engine evaluates (the same requirement as :meth:`indexed`).
        """
        if self._prefilter is None:
            from .prefilter import VAPrefilter

            self._prefilter = VAPrefilter(self.indexed())
        return self._prefilter

    def bfs_order(self) -> dict[State, int]:
        """States numbered in BFS discovery order from the initial state
        (unreachable states last, in a stable arbitrary order) — the one
        canonical order shared by :meth:`relabelled`, :meth:`fingerprint`,
        and the normalization pipeline."""
        order: dict[State, int] = {self._initial: 0}
        queue = deque((self._initial,))
        while queue:
            state = queue.popleft()
            for _, target in self.transitions_from(state):
                if target not in order:
                    order[target] = len(order)
                    queue.append(target)
        for state in sorted(self._states - order.keys(), key=repr):
            order[state] = len(order)
        return order

    def fingerprint(self) -> str:
        """A structural digest of the automaton, stable across processes.

        States are canonicalised to BFS discovery order (the
        :meth:`relabelled` order), so two automata that are identical up to
        state names share a fingerprint.  Used by the logical plan layer
        for common-subexpression elimination and fingerprint-keyed plan
        caching; computed once and cached.
        """
        if self._fingerprint is None:
            order = self.bfs_order()

            def label_key(label: Label) -> str:
                if label is None:
                    return "e"
                if isinstance(label, VarOp):
                    return ("o:" if label.is_open else "c:") + repr(label.var)
                return "l:" + label

            parts = [
                str(len(order)),
                ",".join(str(order[s]) for s in sorted(self._accepting, key=order.__getitem__)),
                ";".join(
                    sorted(
                        f"{order[p]}>{label_key(label)}>{order[q]}"
                        for p, label, q in self._transitions
                    )
                ),
            ]
            digest = sha256("|".join(parts).encode("utf-8", "backslashreplace"))
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def letters(self) -> frozenset[str]:
        """All letters occurring on transitions."""
        return frozenset(
            label for _, label, _ in self._transitions if isinstance(label, str)
        )

    # -- simple rewrites --------------------------------------------------------

    def with_accepting(self, accepting: Iterable[State]) -> "VA":
        """A copy with a different accepting set (states preserved)."""
        return VA(self._initial, accepting, self._transitions, self._states)

    def map_states(self, func: Callable[[State], State]) -> "VA":
        """A copy with every state replaced by ``func(state)``.

        ``func`` must be injective on this automaton's states.
        """
        mapped = {s: func(s) for s in self._states}
        if len(set(mapped.values())) != len(mapped):
            raise SpannerError("state mapping must be injective")
        return VA(
            mapped[self._initial],
            (mapped[s] for s in self._accepting),
            ((mapped[p], label, mapped[q]) for p, label, q in self._transitions),
            mapped.values(),
        )

    def relabelled(self) -> "VA":
        """A copy with states canonicalised to 0..n-1 (BFS order from the
        initial state, unreachable states last in arbitrary-but-stable
        order)."""
        return self.map_states(self.bfs_order().__getitem__)

    def map_labels(self, func: Callable[[Label], Label]) -> "VA":
        """A copy with every transition label replaced by ``func(label)``.

        Used by projection (variable ops → ε) and variable renaming.
        """
        return VA(
            self._initial,
            self._accepting,
            ((p, func(label), q) for p, label, q in self._transitions),
            self._states,
        )

    # -- presentation -----------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"VA(states={self.n_states}, transitions={self.n_transitions}, "
            f"vars={sorted(self._vars)}, accepting={len(self._accepting)})"
        )

    def describe(self) -> str:
        """A multi-line listing of the automaton, for debugging."""
        lines = [f"initial: {self._initial!r}", f"accepting: {sorted(map(repr, self._accepting))}"]
        for p, label, q in self._transitions:
            text = "ε" if label is None else str(label)
            lines.append(f"  {p!r} --{text}--> {q!r}")
        return "\n".join(lines)

    def iter_var_ops(self) -> Iterator[VarOp]:
        """All distinct variable operations on transitions."""
        seen: set[VarOp] = set()
        for _, label, _ in self._transitions:
            if isinstance(label, VarOp) and label not in seen:
                seen.add(label)
                yield label


def gamma(variables: Iterable[Variable]) -> frozenset[VarOp]:
    """``Γ_V``: the set of variable operations over ``V`` (paper §2.3)."""
    out: set[VarOp] = set()
    for var in variables:
        out.add(open_op(var))
        out.add(close_op(var))
    return frozenset(out)
