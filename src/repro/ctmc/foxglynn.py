"""Fox–Glynn computation of Poisson probabilities.

Uniformization expresses the transient distribution of a CTMC as a Poisson
mixture of DTMC step distributions:

.. math::

   \\pi(t) = \\sum_{k=0}^{\\infty} e^{-qt} \\frac{(qt)^k}{k!} \\; \\pi(0) P^k .

The Fox–Glynn algorithm (Fox & Glynn, CACM 1988) computes the weights
``e^{-qt} (qt)^k / k!`` for the indices ``L..R`` that carry all but an
``epsilon`` fraction of the probability mass, in a numerically stable way
(weights are computed unnormalised around the mode and normalised by their
sum, avoiding underflow of ``e^{-qt}`` for large ``qt``).

The implementation below follows the structure used by PRISM and MRMC: find
the left and right truncation points from Chernoff-style bounds, then recurse
outward from the mode.

A curve needs the weights of every grid point ``q·tᵢ`` at once.
:func:`fox_glynn_table` computes them in one vectorised call and returns a
:class:`PoissonTable`, a sparse row per rate that stores only that rate's
window; each row is bit for bit the one-rate :func:`fox_glynn` window, which
is the table's one-row case.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy import sparse


@dataclass(frozen=True)
class FoxGlynnWeights:
    """Truncated, normalised Poisson weights.

    Attributes
    ----------
    left:
        Index of the first weight (inclusive).
    right:
        Index of the last weight (inclusive).
    weights:
        Array of length ``right - left + 1`` with
        ``weights[k - left] ≈ e^{-λ} λ^k / k!``; the weights sum to at most 1
        and to at least ``1 - epsilon``.
    total:
        The sum of the stored weights (before normalisation it is the value
        used to normalise; after construction ``weights.sum() == total``).
    """

    left: int
    right: int
    weights: np.ndarray
    total: float

    def __post_init__(self) -> None:
        if self.right < self.left:
            raise ValueError("right truncation point smaller than left")
        if len(self.weights) != self.right - self.left + 1:
            raise ValueError("weight array length does not match truncation window")

    def weight(self, k: int) -> float:
        """Return the weight of index ``k`` (zero outside the window)."""
        if k < self.left or k > self.right:
            return 0.0
        return float(self.weights[k - self.left])


def _truncation_points(rates: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Return the (left, right) truncation points of Poisson(rate) per rate.

    Uses simple, conservative tail bounds: the normal approximation with a
    generous safety margin for the left point, and a Chernoff-style bound
    (walk right until the tail bound drops below epsilon/2) for the right
    point.  The bounds are deliberately a little loose — a few extra terms
    cost almost nothing, whereas missing mass would bias results.  A zero
    rate has the one-point window ``(0, 0)``.
    """
    left = np.zeros(rates.shape[0], dtype=np.int64)
    right = np.zeros(rates.shape[0], dtype=np.int64)

    # Rates below 25 cannot underflow: start at zero and walk right until the
    # cumulative mass reaches 1 - epsilon/2.  All rates walk in step with
    # their own running terms, so each walk is the scalar one up to where it
    # stops; what a stopped walk computes afterwards is never read.
    small = np.flatnonzero((rates > 0.0) & (rates < 25.0))
    small_rates = rates[small]
    term = np.array([math.exp(-rate) for rate in small_rates.tolist()])
    cumulative = np.zeros(small.shape[0])
    walked = np.zeros(small.shape[0], dtype=np.int64)
    live = cumulative + term < 1.0 - epsilon / 2.0
    step = 0
    while live.any():
        if step >= 10_000:
            raise ValueError(
                f"Fox-Glynn right truncation walk did not accumulate "
                f"1 - epsilon/2 within 10000 terms (rate={small_rates[live][0]}, "
                f"epsilon={epsilon}); epsilon is too small for double precision"
            )
        cumulative += term
        step += 1
        walked += live
        term *= small_rates / step
        live &= cumulative + term < 1.0 - epsilon / 2.0
    right[small] = np.maximum(walked, np.floor(small_rates).astype(np.int64) + 1)

    large = np.flatnonzero(rates >= 25.0)
    standard_deviation = np.sqrt(rates[large])
    # Left point: mean minus a multiple of the standard deviation, clamped at 0.
    k_left = math.ceil(math.sqrt(2.0 * math.log(4.0 / epsilon)))
    left[large] = np.maximum(
        0, np.floor(rates[large] - (k_left + 1.0) * standard_deviation - 1.0)
    )
    # Right point: mean plus a multiple of the standard deviation with a
    # correction term; mirrors the bound used in the original algorithm.
    k_right = math.ceil(math.sqrt(2.0 * math.log(4.0 / epsilon)) + 1.0)
    right[large] = np.ceil(rates[large] + (k_right + 1.0) * standard_deviation + 4.0)
    return left, right


def _segment_positions(lengths: np.ndarray) -> np.ndarray:
    """``0 .. n-1`` for each segment length ``n``, concatenated."""
    total = int(lengths.sum())
    starts = np.cumsum(lengths) - lengths
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)


def _running_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The running sum of each consecutive segment of ``values``.

    Bit for bit ``np.cumsum`` of every segment: each position adds its value
    to its predecessor's sum, one position of all segments at a time.  The
    entries are laid out position-major with the longest segments first, so
    the segments still running at a position are one contiguous slice.
    """
    order = np.argsort(-lengths, kind="stable")
    descending = lengths[order]
    starts = (np.cumsum(lengths) - lengths)[order]
    running = np.searchsorted(-descending, -np.arange(int(descending.max(initial=0))))
    bounds = np.concatenate(([0], np.cumsum(running))).tolist()
    source = starts[_segment_positions(running)] + np.repeat(
        np.arange(running.shape[0]), running
    )
    by_position = values[source]
    for position in range(1, running.shape[0]):
        lo, count = bounds[position], int(running[position])
        by_position[lo : lo + count] += by_position[
            bounds[position - 1] : bounds[position - 1] + count
        ]
    sums = np.empty(values.shape[0])
    sums[source] = by_position
    return sums


@dataclass(frozen=True, eq=False)
class PoissonTable:
    """Truncated Poisson weights of many rates, one sparse row per rate.

    Row ``i`` of ``matrix`` holds its weights at the columns
    ``k = left[i] .. right[i]`` and nothing else, so the table stores the
    sum of its window widths, however many rows it has.  ``matrix @ V``
    applies every row to a sequence ``V[k]`` in one product.

    A tails table (:meth:`tails`) also carries ``head``: below ``left[i]``
    its row weighs every ``k`` by the constant ``head[i]``, which
    :meth:`fold` applies through a running sum instead of storing it.
    """

    matrix: sparse.csr_matrix
    left: np.ndarray
    right: np.ndarray
    head: np.ndarray | None = None

    @property
    def num_rows(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def nbytes(self) -> int:
        """Bytes held by the table's arrays (its cache weight)."""
        arrays = [self.matrix.data, self.matrix.indices, self.matrix.indptr]
        arrays += [self.left, self.right] + ([] if self.head is None else [self.head])
        return sum(int(array.nbytes) for array in arrays)

    def row(self, index: int) -> FoxGlynnWeights:
        """Row ``index`` as a :class:`FoxGlynnWeights` window."""
        lo, hi = self.matrix.indptr[index], self.matrix.indptr[index + 1]
        weights = self.matrix.data[lo:hi].copy()
        return FoxGlynnWeights(
            left=int(self.left[index]),
            right=int(self.right[index]),
            weights=weights,
            total=float(weights.sum()),
        )

    def tails(self) -> "PoissonTable":
        """``P[N_i > k]`` per row, the weights of accumulated reward.

        Inside the window the tail is the window mass left after ``k``;
        below ``left[i]`` it is the whole window mass, the row's ``head``.
        """
        widths = self.right - self.left + 1
        mass = _running_sums(self.matrix.data, widths)
        totals = mass[self.matrix.indptr[1:] - 1]
        tails = sparse.csr_matrix(
            (np.repeat(totals, widths) - mass, self.matrix.indices, self.matrix.indptr),
            shape=self.matrix.shape,
        )
        return PoissonTable(tails, self.left, self.right, totals)

    def from_zero(self) -> sparse.csr_matrix:
        """A tails table's ``matrix`` with each row's head written out at
        ``k < left[i]``, as a new matrix."""
        heads = sparse.csr_matrix(
            (
                np.repeat(self.head, self.left),
                _segment_positions(self.left),
                np.concatenate(([0], np.cumsum(self.left))),
            ),
            shape=self.matrix.shape,
        )
        return self.matrix + heads

    def fold(self, sequence: np.ndarray) -> np.ndarray:
        """``Σ_k table[i, k] · sequence[k]`` for every row ``i``.

        ``sequence`` has one entry (of any trailing shape) per ``k`` up to
        the table's largest right point; the result has one per row.
        """
        flat = sequence.reshape(sequence.shape[0], -1)
        folded = self.matrix @ flat
        if self.head is not None:
            prefix = np.concatenate((np.zeros((1, flat.shape[1])), np.cumsum(flat, axis=0)))
            folded += self.head[:, None] * prefix[self.left]
        return folded.reshape((self.num_rows,) + sequence.shape[1:])


def fox_glynn_table(rates: Sequence[float] | np.ndarray, epsilon: float = 1e-12) -> PoissonTable:
    """Truncated Poisson weights of every rate in ``rates``, as one table.

    Row ``i`` is bit for bit the window :func:`fox_glynn` gives for
    ``rates[i]``: the same truncation points, the same log ratios summed
    outward from the mode in the same order, and the same normalisation by
    the window's own sum.

    Parameters
    ----------
    rates:
        The Poisson rates ``λ = q·tᵢ`` (finite and non-negative), in any
        order and with repeats.
    epsilon:
        Bound on the total truncated probability mass of each row.
    """
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 1:
        raise ValueError("Poisson rates must be a one-dimensional sequence")
    bad = ~np.isfinite(rates) | (rates < 0.0)
    if bad.any():
        raise ValueError(
            f"Poisson rate must be finite and non-negative, got {rates[bad][0]}"
        )
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")

    left, right = _truncation_points(rates, epsilon)
    mode = np.minimum(np.maximum(np.floor(rates).astype(np.int64), left), right)
    widths = right - left + 1
    offsets = np.concatenate(([0], np.cumsum(widths)))

    # Work in log space around the mode to avoid under/overflow, then shift.
    # Right of the mode w[k+1] = w[k] * rate / (k+1), left of it
    # w[k-1] = w[k] * k / rate: each side is a sequential running sum of log
    # ratios.  ``math.log`` rather than ``np.log``: numpy's SIMD log rounds
    # some ratios differently in the last bit, which would move the weights.
    up, down = right - mode, mode - left
    up_steps, down_steps = _segment_positions(up), _segment_positions(down)
    ratios = np.concatenate(
        (
            np.repeat(rates, up) / (np.repeat(mode + 1, up) + up_steps),
            (np.repeat(mode, down) - down_steps) / np.repeat(rates, down),
        )
    )
    logs = np.fromiter(map(math.log, ratios.tolist()), dtype=float, count=ratios.shape[0])
    sums = _running_sums(logs, np.concatenate((up, down)))
    at_mode = offsets[:-1] + (mode - left)
    log_weights = np.zeros(int(offsets[-1]))
    log_weights[np.repeat(at_mode + 1, up) + up_steps] = sums[: up_steps.shape[0]]
    log_weights[np.repeat(at_mode - 1, down) - down_steps] = sums[up_steps.shape[0] :]

    # Normalise each row by its window sum: the true weights are
    # exp(log_weights + C) for the C that makes the untruncated sum 1, and the
    # window carries all but epsilon of it.  Each row is summed on its own:
    # numpy's pairwise summation depends on the row's length.
    shift = np.maximum.reduceat(log_weights, offsets[:-1]) if rates.size else []
    weights = np.exp(log_weights - np.repeat(shift, widths))
    rows = zip(offsets[:-1].tolist(), offsets[1:].tolist())
    weights /= np.repeat([weights[lo:hi].sum() for lo, hi in rows], widths)
    matrix = sparse.csr_matrix(
        (weights, np.repeat(left, widths) + _segment_positions(widths), offsets),
        shape=(rates.shape[0], int(right.max(initial=0)) + 1),
    )
    return PoissonTable(matrix, left, right)


def fox_glynn(rate: float, epsilon: float = 1e-12) -> FoxGlynnWeights:
    """Compute truncated Poisson(rate) weights with total error below ``epsilon``.

    The one-row case of :func:`fox_glynn_table`.

    Parameters
    ----------
    rate:
        The Poisson rate ``λ = q·t`` (must be non-negative).
    epsilon:
        Bound on the total truncated probability mass.

    Returns
    -------
    FoxGlynnWeights
        The truncation window and normalised weights.
    """
    return fox_glynn_table([rate], epsilon).row(0)


def poisson_cdf_complement(rate: float, k: int) -> float:
    """Return ``P[Poisson(rate) > k]`` (used in tests as an oracle)."""
    if rate == 0.0:
        return 0.0
    term = math.exp(-rate)
    cumulative = 0.0
    for index in range(0, k + 1):
        if index > 0:
            term *= rate / index
        cumulative += term
    return max(0.0, 1.0 - cumulative)
