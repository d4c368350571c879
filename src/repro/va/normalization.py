"""The VA normalization pipeline.

Every composition in the algebra (``union_va``, ``fpt_join``, the ad-hoc
differences, …) introduces administrative structure: fresh ε-initials,
duplicate transitions from product constructions, states that cannot reach
acceptance, and operations on variables no accepting run extracts.  None of
it changes the recognised spanner, but all of it is paid for again by every
construction *above* — products are quadratic in the operand sizes, so
keeping intermediates small compounds.

:func:`normalize` composes the individual passes into the canonical
post-composition cleanup the planner applies after every ``apply_*`` but
one: ``apply_sync_difference`` (Theorem 4.8) skips it, because
:mod:`repro.algebra.sync_difference` trims its product nodes itself and
emits a VA that is already in normal form — no ε-transitions (acceptance
sits on chain ends, the components share one initial state), no dead or
duplicate structure, and only operations that lie on accepting runs — so
the pass would only rebuild an equal-size copy and drop the indexed form
the construction attaches:

1. :func:`drop_never_used_ops` — ε-out operations on variables that no
   accepting run extracts (before trimming, while there is still junk for
   the analysis to find);
2. :func:`trim` — drop states that are unreachable or cannot accept;
3. :func:`eliminate_epsilon` — remove ε-transitions by closure (the fresh
   initials of unions and the residue of projections disappear here);
4. :func:`dedup_transitions` — collapse duplicate ``(p, label, q)`` triples;
5. a final :func:`trim` for states orphaned by the ε-elimination.

All passes preserve the spanner exactly (mappings come from variable
operations, which are ordinary non-ε labels) and preserve sequentiality
(runs correspond one-to-one modulo ε steps), so normalized automata remain
valid inputs to every enumeration backend.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automaton import VA, State, Transition
from .matchstruct import never_used_variables
from .operations import project_va, trim


@dataclass
class NormalizeReport:
    """Size accounting of one :func:`normalize` run."""

    states_before: int = 0
    states_after: int = 0
    transitions_before: int = 0
    transitions_after: int = 0
    epsilon_removed: int = 0
    duplicates_removed: int = 0
    dead_ops_removed: int = 0

    @property
    def states_removed(self) -> int:
        return self.states_before - self.states_after

    @property
    def transitions_removed(self) -> int:
        return self.transitions_before - self.transitions_after


def dedup_transitions(va: VA) -> VA:
    """Remove duplicate ``(source, label, target)`` triples (first
    occurrence wins, preserving transition order)."""
    seen: set[Transition] = set()
    unique: list[Transition] = []
    for transition in va.transitions:
        if transition not in seen:
            seen.add(transition)
            unique.append(transition)
    if len(unique) == len(va.transitions):
        return va
    return VA(va.initial, va.accepting, unique, va.states)


def _deterministic_state_order(va: VA) -> list[State]:
    """States in the automaton's canonical BFS order — keeps rebuilt
    transition lists deterministic."""
    return list(va.bfs_order())


def epsilon_closure(va: VA, state: State) -> frozenset[State]:
    """All states reachable from ``state`` through ε-transitions only."""
    closure: set[State] = {state}
    stack = [state]
    while stack:
        current = stack.pop()
        for label, target in va.transitions_from(current):
            if label is None and target not in closure:
                closure.add(target)
                stack.append(target)
    return frozenset(closure)


def eliminate_epsilon(va: VA) -> VA:
    """An equivalent VA without ε-transitions.

    Standard NFA ε-elimination lifted to VAs: variable operations are
    ordinary (non-consuming but labelled) transitions, so only the ``None``
    labels are closed over.  A state becomes accepting when its ε-closure
    meets the accepting set.  States are preserved; ones reachable only
    through removed ε-edges are left for the following :func:`trim`.
    """
    if not any(label is None for _, label, _ in va.transitions):
        return va
    transitions: list[Transition] = []
    seen: set[Transition] = set()
    accepting: set[State] = set()
    for state in _deterministic_state_order(va):
        closure = epsilon_closure(va, state)
        if closure & va.accepting:
            accepting.add(state)
        for member in sorted(closure, key=repr):
            for label, target in va.transitions_from(member):
                if label is None:
                    continue
                transition = (state, label, target)
                if transition not in seen:
                    seen.add(transition)
                    transitions.append(transition)
    return VA(va.initial, accepting, transitions, va.states)


def drop_never_used_ops(va: VA) -> VA:
    """ε-out operations on variables no accepting run extracts.

    Runs before trimming (on a trimmed *sequential* automaton every
    surviving operation lies on some accepting run, so there would be
    nothing left to find): compositions hand us untrimmed automata whose
    dead branches may operate on variables the live part never uses, and
    a dropped variable shrinks every product built on top (the factorized
    constructions are exponential in the variable count, not just linear).
    """
    unused = never_used_variables(va, va.variables)
    if not unused:
        return va
    return project_va(va, va.variables - unused)


def normalize(va: VA, report: NormalizeReport | None = None) -> VA:
    """The full post-composition cleanup (see module docstring).

    Args:
        va: any VA (need not be trimmed).
        report: optional accumulator recording the size deltas.

    Returns:
        An equivalent VA with no dead states, no ε-transitions, no
        duplicate transitions, and no operations on never-extracted
        variables.
    """
    if report is not None:
        report.states_before += va.n_states
        report.transitions_before += va.n_transitions
    dropped = drop_never_used_ops(va)
    if report is not None:
        report.dead_ops_removed += sum(
            1 for _, label, _ in va.transitions if label is not None
        ) - sum(1 for _, label, _ in dropped.transitions if label is not None)
    out = trim(dropped)
    eliminated = eliminate_epsilon(out)
    if report is not None:
        report.epsilon_removed += sum(
            1 for _, label, _ in out.transitions if label is None
        )
    deduped = dedup_transitions(eliminated)
    if report is not None:
        report.duplicates_removed += eliminated.n_transitions - deduped.n_transitions
    out = trim(deduped)
    if report is not None:
        report.states_after += out.n_states
        report.transitions_after += out.n_transitions
    return out
