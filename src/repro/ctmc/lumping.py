"""Ordinary lumpability (strong bisimulation) for CTMCs.

Two states are strongly bisimilar if they carry the same atomic propositions
and have, for every equivalence class ``C``, the same cumulative rate into
``C``.  The coarsest such partition is computed by classical partition
refinement: each round splits every block by the states' rate signatures
(cumulative rate into every current block), until no block splits.  A round
is a handful of array operations — one sparse product ``R @ indicator`` and
a lexicographic sort of integer signature rows, one batch per out-degree —
with no per-state Python loop.

Lumping serves three purposes in the reproduction:

* It is the minimization step that the original Arcade/CADP tool chain
  applies to composed I/O-IMCs (mentioned in the paper's conclusions).
* It gives tests a way to check that two differently-encoded CTMCs (e.g. the
  reactive-modules translation and the direct Arcade state-space generator)
  are equivalent: their quotients must be isomorphic and all measures must
  coincide.
* It backs the analysis planner's quotient substitution: each distinct
  chain is partitioned once, seeded with its own labels, and every lumped
  group on that chain (bounded reachability, rewards, interval-until and
  long-run groups) reuses the quotient, taking its absorbing transforms on
  the quotient itself.  Absorbing a union of blocks zeroes whole blocks'
  rows, so the partition stays lumpable for the absorbed chain (and
  absorbed blocks that agree on every observable may merge).  Because
  the rate signatures computed here include the own-block column, exit
  rates are constant within a block, which is what makes the embedded
  DTMC, steady-state and reward quotients exact rather than approximate.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.ctmc.ctmc import CTMC

#: Decimal places rate signatures are rounded to before comparison; the
#: test suite's per-state reference refinement rounds the same way, so both
#: split identically.
_RATE_DECIMALS = 10


def first_seen_ids(rows: np.ndarray) -> np.ndarray:
    """Number the distinct rows of a 2-D array in first-seen order.

    Equal rows share an id, and ids follow the index of each row class's
    first member — the numbering the per-state reference loop produces.
    """
    num_rows, width = rows.shape
    if num_rows == 0 or width == 0:
        return np.zeros(num_rows, dtype=np.int64)
    order = np.lexsort(rows.T)  # stable: equal rows stay in index order
    ordered = rows[order]
    starts = np.empty(num_rows, dtype=bool)
    starts[0] = True
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    first = order[starts]  # each class's first member
    rank = np.empty(first.shape[0], dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.shape[0])
    ids = np.empty(num_rows, dtype=np.int64)
    ids[order] = rank[np.cumsum(starts) - 1]
    return ids


def block_indicator(partition: np.ndarray, num_blocks: int) -> sparse.csr_matrix:
    """The ``(num_states, num_blocks)`` 0/1 block-membership matrix."""
    num_states = partition.shape[0]
    return sparse.csr_matrix(
        (np.ones(num_states), partition, np.arange(num_states + 1)),
        shape=(num_states, num_blocks),
    )


def _initial_partition(chain: CTMC, respect_initial: bool) -> np.ndarray:
    """Partition states by their label sets (and optionally initial mass).

    States with equal rows of the stacked label masks (plus the initial
    distribution rounded to 12 decimals, when requested) share a block.
    """
    columns: list[np.ndarray] = [
        chain.label_mask(name).astype(float) for name in chain.label_names
    ]
    if respect_initial:
        columns.append(np.round(chain.initial_distribution, 12))
    if not columns:
        return np.zeros(chain.num_states, dtype=np.int64)
    return first_seen_ids(np.stack(columns, axis=1))


def _refine(assignment: np.ndarray, block_rates: sparse.csr_matrix) -> np.ndarray:
    """Split every block by its states' rate signatures (one round).

    A state's signature is its current block, the sorted ids of the blocks
    it has transitions into and the cumulative rates into them, rounded to
    :data:`_RATE_DECIMALS` (entries rounding to zero are *kept*: a tiny rate
    is still a transition).  States with different numbers of target blocks
    never share a signature, so the rows are built per out-degree: each
    state's row is ``[block, targets..., rates as int64...]`` and memory
    stays ``O(num_states + nnz)``.
    """
    indptr = block_rates.indptr
    indices = block_rates.indices.astype(np.int64)
    rates = np.round(block_rates.data, _RATE_DECIMALS).view(np.int64)
    degrees = np.diff(indptr)
    signature = np.empty(assignment.shape[0], dtype=np.int64)
    offset = 0
    for degree in np.unique(degrees):
        members = np.flatnonzero(degrees == degree)
        positions = indptr[members, None] + np.arange(degree)
        rows = np.concatenate(
            (assignment[members, None], indices[positions], rates[positions]), axis=1
        )
        local = first_seen_ids(rows)
        signature[members] = offset + local
        offset += int(local.max()) + 1
    return first_seen_ids(signature[:, None])


def lumping_partition(chain: CTMC, respect_initial: bool = False) -> list[int]:
    """Return the coarsest ordinary-lumpability partition of ``chain``.

    The result is a list mapping each state to its block index; blocks are
    numbered in the order of their first state.  States in the same block
    agree on all labels and on the cumulative rate into every block.  The
    partition, numbering included, is identical to the classical per-state
    refinement, which the test suite keeps as its reference.  Every round
    but the last splits at least one block, so the refinement stops after at
    most ``num_states`` rounds.

    Parameters
    ----------
    chain:
        The CTMC to partition.
    respect_initial:
        If true, states with different initial probability are kept in
        different blocks (needed when the initial distribution matters for
        the measure being preserved).
    """
    assignment = _initial_partition(chain, respect_initial)
    while True:
        num_blocks = int(assignment.max(initial=-1)) + 1
        block_rates = sparse.csr_matrix(
            chain.rate_matrix @ block_indicator(assignment, num_blocks)
        )
        block_rates.sort_indices()
        refined = _refine(assignment, block_rates)
        if np.array_equal(refined, assignment):
            return assignment.tolist()
        assignment = refined


def lump_ctmc(
    chain: CTMC,
    partition: list[int] | None = None,
    respect_initial: bool = True,
) -> tuple[CTMC, list[int]]:
    """Build the quotient CTMC of ``chain`` under ordinary lumpability.

    Returns the quotient chain and the state-to-block assignment.  The
    quotient preserves transient and steady-state probabilities of all
    labelled sets, hence all CSL measures over the chain's labels.

    The quotient is three array products: its rates are the cumulative
    rates of one representative (first) state per block into every block,
    ``R[representatives] @ indicator`` (by lumpability every member agrees;
    the own-block diagonal is dropped by :class:`CTMC`), a block carries a
    label iff its representative does, and its initial distribution sums
    each block's mass.
    """
    if partition is None:
        partition = lumping_partition(chain, respect_initial=respect_initial)
    blocks = np.asarray(partition, dtype=np.int64)
    num_blocks = int(blocks.max()) + 1 if blocks.size else 0
    _, representatives = np.unique(blocks, return_index=True)
    indicator = block_indicator(blocks, num_blocks)
    rates = sparse.csr_matrix(chain.rate_matrix[representatives] @ indicator)
    rates.sort_indices()
    labels = {
        name: chain.label_mask(name)[representatives] for name in chain.label_names
    }
    initial = indicator.T @ chain.initial_distribution
    return CTMC(rates, initial, labels=labels), partition

