"""Maximal progress and conversion of closed I/O-IMCs to CTMCs.

A composed and fully hidden I/O-IMC is *closed*: it has no input actions
left (or its remaining inputs are never triggered) and its interactive
transitions are all internal.  Under the maximal-progress assumption,
internal transitions take place immediately and therefore pre-empt the
Markovian delays of the same state.  If the internal behaviour is
deterministic (at most one internal move per vanishing state, possibly in a
chain), every vanishing state can be short-circuited to the stable state it
inevitably reaches, and what remains is a CTMC over the stable states.

Nondeterminism — several internal moves to genuinely different successors —
is reported as an error: exactly as the paper notes, the absence of
simultaneous failures is the prerequisite for translating the case study to
a CTMC, and the Arcade models produced by :mod:`repro.arcade.to_iomc`
satisfy it by construction.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Mapping

from repro.ctmc import CTMC
from repro.ctmc.ctmc import CTMCBuilder
from repro.iomc.iomc import IOIMC, IOIMCError


def apply_maximal_progress(model: IOIMC) -> IOIMC:
    """Remove Markovian transitions from states that have urgent (internal/output) moves."""
    urgent_actions = model.signature.outputs | model.signature.internals
    urgent_states = {
        transition.source
        for transition in model.interactive_transitions
        if transition.action in urgent_actions
    }
    reduced = IOIMC(
        name=f"maxprogress({model.name})",
        signature=model.signature,
        states=set(model.states),
        initial_state=model.initial_state,
        interactive_transitions=list(model.interactive_transitions),
        markovian_transitions=[
            transition
            for transition in model.markovian_transitions
            if transition.source not in urgent_states
        ],
        descriptions=dict(model.descriptions),
    )
    return reduced


def _stable_successor(
    state: Hashable,
    internal_successors: Mapping[Hashable, list[Hashable]],
    cache: dict[Hashable, Hashable],
) -> Hashable:
    """Follow internal moves from ``state`` until a stable state is reached."""
    if state in cache:
        return cache[state]
    seen: list[Hashable] = []
    current = state
    visited = set()
    while True:
        if current in cache:
            result = cache[current]
            break
        successors = internal_successors.get(current, [])
        if not successors:
            result = current
            break
        distinct = set(successors)
        if len(distinct) > 1:
            raise IOIMCError(
                f"nondeterministic internal behaviour in state {current!r}: "
                f"successors {sorted(map(repr, distinct))}"
            )
        if current in visited:
            raise IOIMCError(f"divergent internal loop through state {current!r}")
        visited.add(current)
        seen.append(current)
        current = successors[0]
    for visited_state in seen:
        cache[visited_state] = result
    cache[state] = result
    return result


def to_ctmc(model: IOIMC, label_fn=None) -> CTMC:
    """Convert a closed, deterministic I/O-IMC into a CTMC.

    Parameters
    ----------
    model:
        The I/O-IMC; its outputs and internals are treated as urgent, and
        any remaining input actions are assumed never to be triggered by the
        environment (they are ignored).
    label_fn:
        Optional callable ``description -> iterable of label names`` used to
        attach atomic propositions to the CTMC's states; it receives the
        stored description of each stable state.

    Returns
    -------
    repro.ctmc.CTMC
        The CTMC over the reachable stable states.
    """
    model.validate()
    reduced = apply_maximal_progress(model)

    urgent_actions = reduced.signature.outputs | reduced.signature.internals
    internal_successors: dict[Hashable, list[Hashable]] = {}
    for transition in reduced.interactive_transitions:
        if transition.action in urgent_actions:
            internal_successors.setdefault(transition.source, []).append(transition.target)

    markovian_by_source: dict[Hashable, list] = {}
    for transition in reduced.markovian_transitions:
        markovian_by_source.setdefault(transition.source, []).append(transition)

    cache: dict[Hashable, Hashable] = {}
    initial_stable = _stable_successor(reduced.initial_state, internal_successors, cache)

    builder = CTMCBuilder()
    index_of: dict[Hashable, int] = {}
    descriptions: list = []

    def register(stable_state: Hashable) -> int:
        if stable_state in index_of:
            return index_of[stable_state]
        index = builder.add_state()
        index_of[stable_state] = index
        descriptions.append(reduced.describe(stable_state))
        queue.append(stable_state)
        return index

    queue: deque[Hashable] = deque()
    register(initial_stable)

    while queue:
        stable_state = queue.popleft()
        source_index = index_of[stable_state]
        for transition in markovian_by_source.get(stable_state, []):
            target_stable = _stable_successor(transition.target, internal_successors, cache)
            target_index = register(target_stable)
            builder.add_transition(source_index, target_index, transition.rate)

    chain = builder.build({0: 1.0})
    if label_fn is not None:
        labels: dict[str, list[int]] = {}
        for index, description in enumerate(descriptions):
            for label in label_fn(description):
                labels.setdefault(label, []).append(index)
        for name, states in labels.items():
            chain.add_label(name, states)
    return chain
