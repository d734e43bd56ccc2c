"""Replaced CTMC code, kept as references.

:func:`repro.ctmc.lumping.lumping_partition` refines a whole partition per
round with array operations.  This module keeps the state-by-state loop it
replaced, which walks every state's CSR row in Python, so tests can require
the two to agree exactly, block numbering included.  It also keeps the
``setdiag`` construction of a chain's rate matrix that ``CTMC`` replaced
with one mask.
"""

from __future__ import annotations

from collections import defaultdict

from scipy import sparse

from repro.ctmc import CTMC
from repro.ctmc.lumping import _RATE_DECIMALS


def lumping_partition_reference(chain: CTMC, respect_initial: bool = False) -> list[int]:
    """The coarsest ordinary-lumpability partition, one state at a time.

    Semantically identical to :func:`repro.ctmc.lumping.lumping_partition`:
    blocks are numbered in the order of their first state, and cumulative
    rates are rounded to the same number of decimals before comparison.
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
    while True:
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
            return assignment
        assignment = new_assignment


def count_blocks(partition: list[int]) -> int:
    """Number of blocks in a partition."""
    return len(set(partition))


def rate_matrix_reference(rate_matrix) -> sparse.csr_matrix:
    """The rate matrix ``CTMC`` kept before it built its own arrays.

    Self-loops were zeroed with ``setdiag`` and dropped with
    ``eliminate_zeros``, explicit zeros with them.  Works on a copy, so the
    caller's matrix is left alone.
    """
    matrix = sparse.csr_matrix(rate_matrix, dtype=float, copy=True)
    matrix.setdiag(0.0)
    matrix.eliminate_zeros()
    return matrix
