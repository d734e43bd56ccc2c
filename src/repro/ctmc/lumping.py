"""Ordinary lumpability (strong bisimulation) for CTMCs.

Two states are strongly bisimilar if they carry the same atomic propositions
and have, for every equivalence class ``C``, the same cumulative rate into
``C``.  The coarsest such partition is computed by classical partition
refinement (a CTMC variant of Paige–Tarjan / Derisavi-style splitting, here
implemented with the simple "split by rate signature" iteration, which is
more than fast enough for the state spaces of this project).

Lumping serves two purposes in the reproduction:

* It is the minimization step that the original Arcade/CADP tool chain
  applies to composed I/O-IMCs (mentioned in the paper's conclusions).
* It gives tests a way to check that two differently-encoded CTMCs (e.g. the
  reactive-modules translation and the direct Arcade state-space generator)
  are equivalent: their quotients must be isomorphic and all measures must
  coincide.
* It backs the analysis planner's quotient substitution: regular bounded
  reachability (PR 2), and since PR 10 also the interval-until bundles
  (separate backward/forward quotients with lift/project glue) and the
  long-run measure groups (quotients seeded with target/safe/reward
  observables, solved through the same BSCC + linear-system machinery).
  Because the rate signatures computed here include the own-block column,
  exit rates are constant within a block, which is what makes the embedded
  DTMC, steady-state and reward quotients exact rather than approximate.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
from scipy import sparse

from repro.ctmc.ctmc import CTMC, CTMCBuilder

#: Decimal places rate signatures are rounded to before comparison; shared by
#: the vectorized refinement and the reference loop so both split identically.
_RATE_DECIMALS = 10


def _first_seen_ids(keys: list) -> list[int]:
    """Map each key to a block id in first-seen order (the loop's numbering)."""
    ids: dict = {}
    out = [0] * len(keys)
    for index, key in enumerate(keys):
        block = ids.get(key)
        if block is None:
            block = len(ids)
            ids[key] = block
        out[index] = block
    return out


def _initial_partition(chain: CTMC, respect_initial: bool) -> list[int]:
    """Partition states by their label sets (and optionally initial mass).

    Built from the stacked label masks (one bool column per label, plus the
    rounded initial distribution when requested): states with equal rows are
    equivalent, and block ids are assigned in first-seen state order — the
    same numbering the original per-state loop produced.
    """
    columns: list[np.ndarray] = [
        chain.label_mask(name).astype(np.int8) for name in chain.label_names
    ]
    if respect_initial:
        columns.append(np.round(chain.initial_distribution, 12))
    if not columns:
        return [0] * chain.num_states
    stacked = np.ascontiguousarray(np.stack(columns, axis=1))
    row_bytes = stacked.view(np.uint8).reshape(chain.num_states, -1)
    return _first_seen_ids([row.tobytes() for row in row_bytes])


def lumping_partition(
    chain: CTMC,
    respect_initial: bool = False,
    max_iterations: int | None = None,
) -> list[int]:
    """Return the coarsest ordinary-lumpability partition of ``chain``.

    The result is a list mapping each state to its block index.  States in
    the same block agree on all labels and on the cumulative rate into every
    block.

    Each refinement round is vectorized: the per-state cumulative rates into
    the current blocks are one sparse mat–mat product ``R @ indicator`` (an
    ``(n, num_blocks)`` CSR matrix), and states are re-split by unique rows
    of that matrix — no per-state Python loop over transitions remains.  The
    resulting partition is identical to the classical per-state refinement
    (:func:`lumping_partition_reference`), which the tier-1 suite pins.

    Parameters
    ----------
    chain:
        The CTMC to partition.
    respect_initial:
        If true, states with different initial probability are kept in
        different blocks (needed when the initial distribution matters for
        the measure being preserved).
    max_iterations:
        Optional safety bound; the refinement always terminates after at
        most ``num_states`` iterations.
    """
    num_states = chain.num_states
    assignment = _initial_partition(chain, respect_initial)
    matrix = chain.rate_matrix.tocsr()
    limit = max_iterations if max_iterations is not None else num_states + 1

    for _ in range(limit):
        num_blocks = max(assignment) + 1 if assignment else 0
        indicator = sparse.csr_matrix(
            (
                np.ones(num_states),
                (np.arange(num_states), np.asarray(assignment, dtype=int)),
            ),
            shape=(num_states, num_blocks),
        )
        block_rates = sparse.csr_matrix(matrix @ indicator)
        block_rates.sort_indices()
        # Round like the reference loop so float-noise never splits a block;
        # entries rounding to zero are *kept* (a transition with a tiny rate
        # is still a transition in the reference signature).
        data = np.round(block_rates.data, _RATE_DECIMALS)
        indptr = block_rates.indptr
        indices = block_rates.indices
        keys = [
            (
                assignment[state],
                indices[indptr[state] : indptr[state + 1]].tobytes(),
                data[indptr[state] : indptr[state + 1]].tobytes(),
            )
            for state in range(num_states)
        ]
        new_assignment = _first_seen_ids(keys)
        if new_assignment == assignment:
            break
        assignment = new_assignment
    return assignment


def lumping_partition_reference(
    chain: CTMC,
    respect_initial: bool = False,
    max_iterations: int | None = None,
) -> list[int]:
    """The original per-state refinement loop, kept as the test oracle.

    Semantically identical to :func:`lumping_partition` but walks every
    state's CSR row in Python; the tier-1 suite pins the vectorized
    refinement against this implementation on a spread of chains.
    """
    blocks: dict[tuple, int] = {}
    assignment = [0] * chain.num_states
    initial = chain.initial_distribution
    for state in range(chain.num_states):
        key_parts: list = [tuple(sorted(chain.labels_of_state(state)))]
        if respect_initial:
            key_parts.append(round(float(initial[state]), 12))
        key = tuple(key_parts)
        if key not in blocks:
            blocks[key] = len(blocks)
        assignment[state] = blocks[key]

    matrix = chain.rate_matrix.tocsr()
    limit = max_iterations if max_iterations is not None else chain.num_states + 1
    for _ in range(limit):
        signatures: dict[tuple, int] = {}
        new_assignment = [0] * chain.num_states
        for state in range(chain.num_states):
            row = matrix.getrow(state)
            per_block: dict[int, float] = defaultdict(float)
            for target, rate in zip(row.indices, row.data):
                per_block[assignment[int(target)]] += float(rate)
            signature = (
                assignment[state],
                tuple(
                    sorted(
                        (block, round(rate, _RATE_DECIMALS))
                        for block, rate in per_block.items()
                    )
                ),
            )
            if signature not in signatures:
                signatures[signature] = len(signatures)
            new_assignment[state] = signatures[signature]
        if new_assignment == assignment:
            break
        assignment = new_assignment
    return assignment


def lump_ctmc(
    chain: CTMC,
    partition: list[int] | None = None,
    respect_initial: bool = True,
) -> tuple[CTMC, list[int]]:
    """Build the quotient CTMC of ``chain`` under ordinary lumpability.

    Returns the quotient chain and the state-to-block assignment.  The
    quotient preserves transient and steady-state probabilities of all
    labelled sets, hence all CSL measures over the chain's labels.
    """
    if partition is None:
        partition = lumping_partition(chain, respect_initial=respect_initial)

    num_blocks = max(partition) + 1 if partition else 0
    builder = CTMCBuilder(num_states=num_blocks)
    representatives: list[int] = [-1] * num_blocks
    for state, block in enumerate(partition):
        if representatives[block] < 0:
            representatives[block] = state

    # Cumulative rates out of a representative state per target block: by
    # lumpability these are equal for every member of the block.
    matrix = chain.rate_matrix.tocsr()
    for block, representative in enumerate(representatives):
        row = matrix.getrow(representative)
        per_block: dict[int, float] = defaultdict(float)
        for target, rate in zip(row.indices, row.data):
            per_block[partition[int(target)]] += float(rate)
        for target_block, rate in per_block.items():
            if target_block != block:
                builder.add_transition(block, target_block, rate)

    # Labels: a block carries a label iff its representative does (all
    # members agree by construction of the initial partition).
    for name in chain.label_names:
        mask = chain.label_mask(name)
        for block, representative in enumerate(representatives):
            if mask[representative]:
                builder.add_label(name, block)

    # Initial distribution: sum the mass of each block.
    initial = np.zeros(num_blocks)
    chain_initial = chain.initial_distribution
    for state, block in enumerate(partition):
        initial[block] += chain_initial[state]

    return builder.build(initial), partition


def count_blocks(partition: list[int]) -> int:
    """Number of blocks in a partition (convenience for tests and reports)."""
    return len(set(partition))
