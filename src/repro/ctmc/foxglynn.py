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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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


def _find_truncation_points(rate: float, epsilon: float) -> tuple[int, int]:
    """Return (left, right) truncation points for Poisson(rate).

    Uses simple, conservative tail bounds: the normal approximation with a
    generous safety margin for the left point, and a Chernoff-style bound
    (walk right until the tail bound drops below epsilon/2) for the right
    point.  The bounds are deliberately a little loose — a few extra terms
    cost almost nothing, whereas missing mass would bias results.
    """
    mode = int(math.floor(rate))
    if rate < 25.0:
        # For small rates underflow is not an issue; start at zero and walk
        # right until the cumulative mass reaches 1 - epsilon/2.
        left = 0
        cumulative = 0.0
        term = math.exp(-rate)
        k = 0
        while cumulative + term < 1.0 - epsilon / 2.0:
            if k >= 10_000:
                raise ValueError(
                    f"Fox-Glynn right truncation walk did not accumulate "
                    f"1 - epsilon/2 within 10000 terms (rate={rate}, "
                    f"epsilon={epsilon}); epsilon is too small for double precision"
                )
            cumulative += term
            k += 1
            term *= rate / k
        right = max(k, mode + 1)
        return left, right

    standard_deviation = math.sqrt(rate)
    # Left point: mean minus a multiple of the standard deviation, clamped at 0.
    k_left = math.ceil(math.sqrt(2.0 * math.log(4.0 / epsilon)))
    left = max(0, int(math.floor(rate - (k_left + 1.0) * standard_deviation - 1.0)))
    # Right point: mean plus a multiple of the standard deviation with a
    # correction term; mirrors the bound used in the original algorithm.
    k_right = math.ceil(math.sqrt(2.0 * math.log(4.0 / epsilon)) + 1.0)
    right = int(math.ceil(rate + (k_right + 1.0) * standard_deviation + 4.0))
    return left, right


def fox_glynn(rate: float, epsilon: float = 1e-12) -> FoxGlynnWeights:
    """Compute truncated Poisson(rate) weights with total error below ``epsilon``.

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
    if rate < 0.0:
        raise ValueError(f"Poisson rate must be non-negative, got {rate}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if rate == 0.0:
        return FoxGlynnWeights(left=0, right=0, weights=np.array([1.0]), total=1.0)

    left, right = _find_truncation_points(rate, epsilon)
    mode = min(max(int(math.floor(rate)), left), right)
    size = right - left + 1

    # Work in log space around the mode to avoid under/overflow, then shift.
    # Right of the mode w[k+1] = w[k] * rate / (k+1), left of it
    # w[k-1] = w[k] * k / rate: each side is a sequential running sum of log
    # ratios.  ``math.log`` rather than ``np.log``: numpy's SIMD log rounds
    # some ratios differently in the last bit, which would move the weights.
    log_weights = np.zeros(size, dtype=float)
    right_ratios = rate / np.arange(mode + 1, right + 1)
    left_ratios = np.arange(mode, left, -1) / rate
    log_weights[mode - left + 1 :] = np.cumsum(
        list(map(math.log, right_ratios.tolist())), dtype=float
    )
    log_weights[: mode - left][::-1] = np.cumsum(
        list(map(math.log, left_ratios.tolist())), dtype=float
    )

    # Normalise: true weight_k = exp(log_weights_k + C) for the C that makes
    # the full (untruncated) sum equal 1; since we only have the window we
    # normalise by the window sum, then rescale by the exact window mass
    # 1 - tails, which we approximate as 1 (the tails are below epsilon).
    shift = log_weights.max()
    weights = np.exp(log_weights - shift)
    window_sum = float(weights.sum())
    # exact normaliser: sum_k exp(log w_k) = window mass of Poisson / exp(shift)
    weights /= window_sum
    # Scale so the window carries the correct Poisson mass.  The window mass
    # equals 1 minus the truncated tails; bounding it by 1 keeps the result
    # conservative (sums to <= 1) and the error below epsilon.
    total = float(weights.sum())
    return FoxGlynnWeights(left=left, right=right, weights=weights, total=total)


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
