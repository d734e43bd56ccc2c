"""Ordinary lumpability (strong bisimulation) for CTMCs.

Two states are strongly bisimilar if they carry the same atomic propositions
and have, for every equivalence class ``C``, the same cumulative rate into
``C``.  The coarsest such partition is computed by classical partition
refinement: each round splits every block by the states' rate signatures
(cumulative rate into every current block), until no block splits.  A round
is a handful of array operations with no per-state Python loop: one sparse
product ``R @ indicator`` gives every signature, one 64-bit hash per state
keys it, one stable sort numbers the keys, and one exact comparison of every
state with its class's first member verifies the classes (a hash collision
re-hashes the round with another salt, so the partition is exact).  The
refinement may start from vectors that must stay block-constant besides
the labels (target masks, reward vectors, a coarser partition).

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

import itertools
from collections.abc import Iterable

import numpy as np
from scipy import sparse

from repro.ctmc.ctmc import CTMC

#: Decimal places rate signatures are rounded to before comparison; the
#: test suite's per-state reference refinement rounds the same way, so both
#: split identically.
_RATE_DECIMALS = 10

#: 2**64 divided by the golden ratio (odd): each salt's multiplier is an odd
#: multiple of it, spread far from the others.
_GOLDEN = 0x9E3779B97F4A7C15


def _first_seen(order: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class ids in first-seen order, and each class's first member by id.

    ``order`` is a stable sort of the items by class and ``starts`` flags
    the positions of ``order`` where a new class begins.
    """
    first = order[starts]  # each class's first member (stable sort)
    by_index = np.argsort(first)
    rank = np.empty(first.shape[0], dtype=np.int64)
    rank[by_index] = np.arange(first.shape[0])
    ids = np.empty(order.shape[0], dtype=np.int64)
    ids[order] = rank[np.cumsum(starts) - 1]
    return ids, first[by_index]


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
    return _first_seen(order, starts)[0]


def block_representatives(partition: np.ndarray) -> np.ndarray:
    """Each block's first state, for blocks numbered ``0 .. num_blocks - 1``.

    With first-seen numbering (what :func:`lumping_partition` and
    :func:`first_seen_ids` give) those are the states where the running
    maximum block id grows, found without a sort; any other numbering is
    recognised by the same pass and sorted.
    """
    if partition.size == 0:
        return np.zeros(0, dtype=np.int64)
    running = np.maximum.accumulate(partition)
    grows = np.empty(partition.shape[0], dtype=bool)
    grows[0] = True
    grows[1:] = running[1:] != running[:-1]
    first = np.flatnonzero(grows)
    if first.size == running[-1] + 1 and np.array_equal(
        partition[first], np.arange(first.size)
    ):
        return first
    return np.unique(partition, return_index=True)[1]


def block_indicator(partition: np.ndarray, num_blocks: int) -> sparse.csr_matrix:
    """The ``(num_states, num_blocks)`` 0/1 block-membership matrix."""
    num_states = partition.shape[0]
    return sparse.csr_matrix(
        (np.ones(num_states), partition, np.arange(num_states + 1)),
        shape=(num_states, num_blocks),
    )


def _initial_partition(
    chain: CTMC, respect_initial: bool, observables: Iterable[np.ndarray]
) -> np.ndarray:
    """Partition states by their labels and observable values.

    States share a block exactly when they agree on every label, on every
    observable vector and, when requested, on their initial probability
    rounded to 12 decimals.  Values compare as ``np.unique`` compares them:
    ``-0.0`` equals ``0.0`` and every NaN equals every other NaN.
    """
    columns: list[np.ndarray] = [
        chain.label_mask(name).astype(float) for name in chain.label_names
    ]
    if respect_initial:
        columns.append(np.round(chain.initial_distribution, 12))
    columns.extend(np.asarray(vector, dtype=float) for vector in observables)
    if not columns:
        return np.zeros(chain.num_states, dtype=np.int64)
    values = np.stack(columns, axis=1) + 0.0  # -0.0 + 0.0 is +0.0
    values[np.isnan(values)] = np.nan  # one NaN bit pattern
    return first_seen_ids(values.view(np.int64))


def _mix(values: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser, elementwise on ``uint64`` (wrapping)."""
    values = values ^ (values >> np.uint64(30))
    values *= np.uint64(0xBF58476D1CE4E5B9)
    values ^= values >> np.uint64(27)
    values *= np.uint64(0x94D049BB133111EB)
    values ^= values >> np.uint64(31)
    return values


def _signature_keys(
    assignment: np.ndarray, block_rates: sparse.csr_matrix, rate_bits: np.ndarray, salt: int
) -> np.ndarray:
    """One 64-bit key per state's signature, under hash ``salt``.

    Every transition entry hashes its (target block, rounded-rate bits)
    pair; a state's key mixes the wrapping sum of its row's entry hashes
    with its block and its out-degree.  Equal signatures get equal keys;
    unequal ones collide with a chance of about ``2**-64`` per pair, and
    each salt has its own odd multiplier, so no collision persists across
    salts.  :func:`_refine` checks for them.
    """
    indptr = block_rates.indptr
    multiplier = np.uint64((2 * salt + 1) * _GOLDEN % 2**64)
    entries = block_rates.indices.astype(np.uint64)
    entries *= multiplier
    entries += rate_bits.view(np.uint64)
    sums = np.zeros(entries.shape[0] + 1, dtype=np.uint64)
    np.cumsum(_mix(entries), out=sums[1:])
    keys = assignment.astype(np.uint64)
    keys *= multiplier
    keys += np.diff(indptr).astype(np.uint64)
    keys = _mix(keys)
    keys += sums[indptr[1:]] - sums[indptr[:-1]]  # wrapping per-row sums
    return _mix(keys)


def _refine(assignment: np.ndarray, block_rates: sparse.csr_matrix) -> np.ndarray:
    """Split every block by its states' rate signatures (one round).

    A state's signature is its current block, the sorted ids of the blocks
    it has transitions into and the cumulative rates into them, rounded to
    :data:`_RATE_DECIMALS` (entries rounding to zero are *kept*: a tiny rate
    is still a transition).  Each state gets one key
    (:func:`_signature_keys`), equal keys are numbered first-seen, and every
    state is compared exactly with its class's first member: block,
    out-degree, every target block and every rounded rate.  Any mismatch is
    a hash collision and re-hashes the round with the next salt, so the
    classes returned are exactly the signature classes.
    """
    indptr, targets = block_rates.indptr, block_rates.indices
    rate_bits = np.round(block_rates.data, _RATE_DECIMALS).view(np.int64)
    degrees = np.diff(indptr)
    for salt in itertools.count():
        keys = _signature_keys(assignment, block_rates, rate_bits, salt)
        order = np.argsort(keys, kind="stable")  # equal keys stay in index order
        starts = np.ones(keys.shape[0], dtype=bool)
        starts[1:] = keys[order[1:]] != keys[order[:-1]]
        ids, first = _first_seen(order, starts)
        representative = first[ids]
        if np.array_equal(assignment[representative], assignment) and np.array_equal(
            degrees[representative], degrees
        ):
            entries = np.arange(targets.shape[0]) + np.repeat(
                indptr[representative] - indptr[:-1], degrees
            )
            if np.array_equal(targets[entries], targets) and np.array_equal(
                rate_bits[entries], rate_bits
            ):
                return ids


def lumping_partition(
    chain: CTMC,
    respect_initial: bool = False,
    observables: Iterable[np.ndarray] = (),
) -> np.ndarray:
    """Return the coarsest ordinary-lumpability partition of ``chain``.

    The result is an ``int64`` array mapping each state to its block
    index; blocks are numbered in the order of their first state.  States
    in the same block agree on all labels, on every observable and on the
    cumulative rate into every block.  The partition, numbering included, is identical to
    the classical per-state refinement of the chain relabelled with the
    joint value classes of its labels and observables, which the test suite
    keeps as its reference.  Each round hashes every state's signature once
    and verifies the hashed classes exactly (see :func:`_refine`).  Every
    round but the last splits at least one block, so the refinement stops
    after at most ``num_states`` rounds.

    Parameters
    ----------
    chain:
        The CTMC to partition.
    respect_initial:
        If true, states with different initial probability are kept in
        different blocks (needed when the initial distribution matters for
        the measure being preserved).
    observables:
        Vectors over the states that must be constant on every block
        (target masks, reward vectors, a coarser partition).  The
        refinement starts from the joint value classes of the labels and
        these vectors.
    """
    assignment = _initial_partition(chain, respect_initial, observables)
    while True:
        num_blocks = int(assignment.max(initial=-1)) + 1
        block_rates = sparse.csr_matrix(
            chain.rate_matrix @ block_indicator(assignment, num_blocks)
        )
        block_rates.sort_indices()
        refined = _refine(assignment, block_rates)
        if np.array_equal(refined, assignment):
            return assignment
        assignment = refined


def lump_ctmc(
    chain: CTMC,
    partition: list[int] | np.ndarray | None = None,
    respect_initial: bool = True,
    representatives: np.ndarray | None = None,
) -> tuple[CTMC, list[int] | np.ndarray]:
    """Build the quotient CTMC of ``chain`` under ordinary lumpability.

    Returns the quotient chain and the state-to-block assignment.  The
    quotient preserves transient and steady-state probabilities of all
    labelled sets, hence all CSL measures over the chain's labels.

    The quotient is three array products: its rates are the cumulative
    rates of one representative (first) state per block into every block,
    ``R[representatives] @ indicator`` (by lumpability every member agrees;
    the own-block diagonal is dropped by :class:`CTMC`), a block carries a
    label iff its representative does, and its initial distribution sums
    each block's mass.  A caller that already holds the partition's
    :func:`block_representatives` passes them in.
    """
    if partition is None:
        partition = lumping_partition(chain, respect_initial=respect_initial)
    blocks = np.asarray(partition, dtype=np.int64)
    num_blocks = int(blocks.max()) + 1 if blocks.size else 0
    if representatives is None:
        representatives = block_representatives(blocks)
    indicator = block_indicator(blocks, num_blocks)
    rates = sparse.csr_matrix(chain.rate_matrix[representatives] @ indicator)
    rates.sort_indices()
    labels = {
        name: chain.label_mask(name)[representatives] for name in chain.label_names
    }
    initial = indicator.T @ chain.initial_distribution
    return CTMC(rates, initial, labels=labels), partition

