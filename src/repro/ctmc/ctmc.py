"""Labelled CTMCs and Markov reward models.

A CTMC is stored explicitly with a sparse rate matrix ``R`` where ``R[i, j]``
is the transition rate from state ``i`` to state ``j`` (``i != j``).  The
generator matrix ``Q = R - diag(exit_rates)`` is derived on demand.  States
carry a labelling with atomic propositions, which is what the CSL/CSRL model
checker consumes.  What a state *is* stays with the generator that built the
chain (e.g. :attr:`repro.arcade.statespace.ArcadeStateSpace.states`).

The classes here are intentionally independent of how the chain was obtained
(reactive modules, Arcade translation, I/O-IMC composition, or hand
construction), so every higher layer funnels into the same numerical code.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse


class CTMCError(ValueError):
    """Raised when a CTMC is constructed or used inconsistently."""


def _normalise_distribution(
    values: Mapping[int, float] | Sequence[float] | np.ndarray,
    num_states: int,
) -> np.ndarray:
    """Return ``values`` as a dense probability vector of length ``num_states``."""
    if isinstance(values, Mapping):
        vector = np.zeros(num_states, dtype=float)
        for state, probability in values.items():
            if not 0 <= state < num_states:
                raise CTMCError(f"initial state index {state} out of range")
            vector[state] = probability
    else:
        vector = np.asarray(values, dtype=float)
        if vector.shape != (num_states,):
            raise CTMCError(
                f"initial distribution has shape {vector.shape}, expected ({num_states},)"
            )
    if np.any(vector < -1e-12):
        raise CTMCError("initial distribution has negative entries")
    total = float(vector.sum())
    if total <= 0:
        raise CTMCError("initial distribution sums to zero")
    if abs(total - 1.0) > 1e-9:
        vector = vector / total
    return np.clip(vector, 0.0, None)


def as_state_mask(chain: "CTMC", states: Iterable[int] | np.ndarray | str) -> np.ndarray:
    """Normalise a state set given as label name, index list or boolean mask.

    The canonical helper shared by the transient/reachability routines and
    the analysis-session request layer.
    """
    if isinstance(states, str):
        return chain.label_mask(states)
    array = np.asarray(list(states) if not isinstance(states, np.ndarray) else states)
    mask = np.zeros(chain.num_states, dtype=bool)
    if array.size == 0:
        return mask
    if array.dtype == bool:
        if array.shape != (chain.num_states,):
            raise CTMCError("boolean state mask has the wrong length")
        return array.copy()
    mask[array.astype(int)] = True
    return mask


@dataclass(frozen=True)
class RewardStructure:
    """A reward structure over a CTMC.

    Attributes
    ----------
    name:
        Identifier of the structure (e.g. ``"cost"``).
    state_rewards:
        Array of length ``num_states``; ``state_rewards[i]`` is the reward
        *rate* earned while residing in state ``i`` (unit: reward per time
        unit), as in Markov reward models / CSRL.
    transition_rewards:
        Optional sparse matrix of impulse rewards earned when a transition is
        taken.  May be ``None`` if the structure is purely rate based.
    """

    name: str
    state_rewards: np.ndarray
    transition_rewards: sparse.csr_matrix | None = None

    def __post_init__(self) -> None:
        rewards = np.asarray(self.state_rewards, dtype=float)
        object.__setattr__(self, "state_rewards", rewards)

    @property
    def num_states(self) -> int:
        return int(self.state_rewards.shape[0])

    def expected_rate(self, distribution: np.ndarray) -> float:
        """Expected reward rate under the given state distribution."""
        return float(distribution @ self.state_rewards)


class CTMC:
    """An explicit-state labelled continuous-time Markov chain.

    Parameters
    ----------
    rate_matrix:
        Square sparse (or dense) matrix of transition rates; the diagonal is
        ignored (self-loops carry no meaning in a CTMC and are dropped), so
        the chain's infinitesimal generator is accepted too.
    initial_distribution:
        Either a mapping ``{state_index: probability}`` or a full vector.
    labels:
        Mapping from atomic-proposition name to the set (or boolean vector)
        of states satisfying it.
    """

    def __init__(
        self,
        rate_matrix: sparse.spmatrix | np.ndarray,
        initial_distribution: Mapping[int, float] | Sequence[float] | np.ndarray,
        labels: Mapping[str, Iterable[int] | np.ndarray] | None = None,
    ) -> None:
        given = sparse.csr_matrix(rate_matrix, dtype=float)
        if given.shape[0] != given.shape[1]:
            raise CTMCError(f"rate matrix must be square, got shape {given.shape}")
        # Keep the off-diagonal non-zeros in input order, in new arrays: a
        # float CSR input shares its arrays with ``given``, so dropping
        # self-loops in place would rewrite the caller's matrix.
        rows = np.repeat(
            np.arange(given.shape[0], dtype=given.indices.dtype), np.diff(given.indptr)
        )
        keep = (given.indices != rows) & (given.data != 0.0)
        rates = given.data[keep]
        # Only kept entries are rates: an infinitesimal generator's negative
        # diagonal is ignored like any other self-loop.
        if rates.size and rates.min() < -1e-12:
            raise CTMCError("rate matrix has negative rates")
        kept_before = np.concatenate(([0], np.cumsum(keep)))
        matrix = sparse.csr_matrix(
            (
                rates,
                given.indices[keep],
                kept_before[given.indptr].astype(given.indptr.dtype),
            ),
            shape=given.shape,
        )
        self._rates = matrix
        self._num_states = matrix.shape[0]
        self._initial = _normalise_distribution(initial_distribution, self._num_states)
        self._labels: dict[str, np.ndarray] = {}
        for name, states in (labels or {}).items():
            self.add_label(name, states)
        self._exit_rates = np.asarray(matrix.sum(axis=1)).ravel()
        self._fingerprint: str | None = None
        self._content_key: str | None = None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        """Number of states."""
        return self._num_states

    @property
    def num_transitions(self) -> int:
        """Number of (non-zero, off-diagonal) transitions."""
        return int(self._rates.nnz)

    @property
    def rate_matrix(self) -> sparse.csr_matrix:
        """The sparse matrix of transition rates (diagonal is zero)."""
        return self._rates

    @property
    def exit_rates(self) -> np.ndarray:
        """Vector of total exit rates per state."""
        return self._exit_rates

    @property
    def max_exit_rate(self) -> float:
        """The largest exit rate; used as the uniformization constant."""
        if self._num_states == 0:
            return 0.0
        return float(self._exit_rates.max())

    @property
    def fingerprint(self) -> str:
        """A stable content hash of the chain's *dynamics* (the rate matrix).

        Two chains with bit-identical sparse rate matrices share a
        fingerprint, regardless of object identity, labels or initial
        distribution — exactly the equivalence under which uniformization
        sweeps, absorbing transforms and lumping quotients are reusable.
        (Initial distributions are batch inputs of a sweep and labels are
        resolved to masks before any cached artifact is built, so neither
        belongs in the key.)  Computed lazily and cached: the rate matrix is
        immutable after construction.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            digest.update(np.int64(self._num_states).tobytes())
            digest.update(self._rates.indptr.tobytes())
            digest.update(self._rates.indices.tobytes())
            digest.update(self._rates.data.tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    @property
    def content_key(self) -> str:
        """A content hash of everything a measure request reads from the chain.

        Extends :attr:`fingerprint` with the initial distribution and the
        label masks, so two chains with equal content keys answer every
        measure request identically and one can stand in for the other (the
        sharded service sends each chain to a worker once under this key).
        Computed lazily and cached; :meth:`add_label` invalidates it.
        """
        if self._content_key is None:
            digest = hashlib.sha256(self.fingerprint.encode())
            digest.update(self._initial.tobytes())
            for name in sorted(self._labels):
                encoded = name.encode()
                digest.update(np.int64(len(encoded)).tobytes())
                digest.update(encoded)
                digest.update(self._labels[name].tobytes())
            self._content_key = digest.hexdigest()
        return self._content_key

    @property
    def initial_distribution(self) -> np.ndarray:
        """The initial probability distribution over states."""
        return self._initial.copy()

    @property
    def initial_state(self) -> int:
        """The most likely initial state (exact if the initial distribution is a point mass)."""
        return int(np.argmax(self._initial))

    @property
    def label_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._labels))

    # ------------------------------------------------------------------
    # labels
    # ------------------------------------------------------------------
    def add_label(self, name: str, states: Iterable[int] | np.ndarray) -> None:
        """Attach (or replace) the labelling for atomic proposition ``name``."""
        mask = np.zeros(self._num_states, dtype=bool)
        states_array = np.asarray(list(states) if not isinstance(states, np.ndarray) else states)
        if states_array.dtype == bool:
            if states_array.shape != (self._num_states,):
                raise CTMCError(
                    f"label {name!r}: boolean mask has wrong shape {states_array.shape}"
                )
            mask = states_array.copy()
        else:
            indices = states_array.astype(int)
            if indices.size and (indices.min() < 0 or indices.max() >= self._num_states):
                raise CTMCError(f"label {name!r}: state index out of range")
            mask[indices] = True
        self._labels[name] = mask
        self._content_key = None

    def label_mask(self, name: str) -> np.ndarray:
        """Boolean vector of states labelled with ``name``."""
        try:
            return self._labels[name].copy()
        except KeyError:
            raise CTMCError(
                f"unknown label {name!r}; known labels: {', '.join(self.label_names) or '(none)'}"
            ) from None

    def label_states(self, name: str) -> np.ndarray:
        """Indices of states labelled with ``name``."""
        return np.flatnonzero(self.label_mask(name))

    def labels_of_state(self, state: int) -> frozenset[str]:
        """The set of atomic propositions holding in ``state``."""
        return frozenset(name for name, mask in self._labels.items() if mask[state])

    # ------------------------------------------------------------------
    # derived matrices
    # ------------------------------------------------------------------
    def generator_matrix(self) -> sparse.csr_matrix:
        """The infinitesimal generator ``Q`` (rows sum to zero)."""
        generator = self._rates.tolil(copy=True)
        generator.setdiag(-self._exit_rates)
        return generator.tocsr()

    def uniformized_matrix(self, rate: float | None = None) -> tuple[sparse.csr_matrix, float]:
        """Return the uniformized probability matrix ``P`` and the rate used.

        ``P = I + Q / q`` for a uniformization rate ``q >= max exit rate``.
        Computed on every call, so callers own the result; sweeps reuse it
        through the ``operator`` kind of
        :class:`repro.ctmc.artifacts.ArtifactCache`.
        """
        q = self.max_exit_rate if rate is None else float(rate)
        if q <= 0.0:
            # Absorbing-only chain: the uniformized matrix is the identity.
            return sparse.identity(self._num_states, format="csr"), 1.0
        if q < self.max_exit_rate - 1e-12:
            raise CTMCError(
                f"uniformization rate {q} is smaller than the maximal exit rate "
                f"{self.max_exit_rate}"
            )
        probabilities = sparse.csr_matrix(self._rates / q)
        diagonal = 1.0 - self._exit_rates / q
        return sparse.csr_matrix(probabilities + sparse.diags(diagonal)), q

    def uniformized_transpose(self, rate: float | None = None) -> tuple[sparse.csr_matrix, float]:
        """Return ``Pᵀ`` of :meth:`uniformized_matrix` in CSR form, and the rate.

        ``Pᵀ`` is the forward-sweep operator of uniformization
        (``π_{k+1} = π_k P`` computed as ``Pᵀ πₖ``).  Computed on every call,
        like :meth:`uniformized_matrix`; the forward sweep reuses it through
        the ``operator`` kind of :class:`repro.ctmc.artifacts.ArtifactCache`.
        """
        matrix, q = self.uniformized_matrix(rate)
        return matrix.T.tocsr(), q

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def with_initial_distribution(
        self, initial: Mapping[int, float] | Sequence[float] | np.ndarray
    ) -> "CTMC":
        """Return a copy of the chain with a different initial distribution."""
        return CTMC(
            self._rates,
            initial,
            labels={name: mask.copy() for name, mask in self._labels.items()},
        )

    def make_absorbing(self, states: Iterable[int] | np.ndarray) -> "CTMC":
        """Return a copy where all outgoing transitions of ``states`` are removed.

        This is the standard transformation used for time-bounded
        reachability: probability mass that enters an absorbing target state
        stays there.  The rows are cleared with vectorized CSR index
        arithmetic (no per-state Python loop).
        """
        mask = np.zeros(self._num_states, dtype=bool)
        states_array = np.asarray(
            list(states) if not isinstance(states, np.ndarray) else states
        )
        if states_array.dtype == bool:
            mask = states_array.copy()
        elif states_array.size:
            mask[states_array.astype(int)] = True
        row_lengths = np.diff(self._rates.indptr)
        keep = np.repeat(~mask, row_lengths)
        indptr = np.concatenate(([0], np.cumsum(np.where(mask, 0, row_lengths))))
        cleared = sparse.csr_matrix(
            (self._rates.data[keep], self._rates.indices[keep], indptr),
            shape=self._rates.shape,
        )
        return CTMC(
            cleared,
            self._initial,
            labels={name: label.copy() for name, label in self._labels.items()},
        )

    def restrict_labels(self, **labels: Iterable[int] | np.ndarray) -> "CTMC":
        """Return a copy with additional labels attached."""
        copy = CTMC(
            self._rates,
            self._initial,
            labels={name: mask.copy() for name, mask in self._labels.items()},
        )
        for name, states in labels.items():
            copy.add_label(name, states)
        return copy

    def successors(self, state: int) -> list[tuple[int, float]]:
        """List of ``(successor, rate)`` pairs for ``state``."""
        row = self._rates.getrow(state)
        return [(int(j), float(r)) for j, r in zip(row.indices, row.data)]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"CTMC(states={self._num_states}, transitions={self.num_transitions}, "
            f"labels={list(self.label_names)})"
        )


class MarkovRewardModel:
    """A CTMC together with one or more named reward structures.

    This is the model class over which CSRL reward formulas are evaluated.
    """

    def __init__(
        self,
        chain: CTMC,
        rewards: Mapping[str, RewardStructure] | Iterable[RewardStructure] | RewardStructure,
    ) -> None:
        self._chain = chain
        structures: dict[str, RewardStructure] = {}
        if isinstance(rewards, RewardStructure):
            structures[rewards.name] = rewards
        elif isinstance(rewards, Mapping):
            structures.update(rewards)
        else:
            for structure in rewards:
                structures[structure.name] = structure
        for name, structure in structures.items():
            if structure.num_states != chain.num_states:
                raise CTMCError(
                    f"reward structure {name!r} covers {structure.num_states} states "
                    f"but the chain has {chain.num_states}"
                )
        if not structures:
            raise CTMCError("a Markov reward model needs at least one reward structure")
        self._rewards = structures

    @property
    def chain(self) -> CTMC:
        return self._chain

    @property
    def reward_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._rewards))

    def reward_structure(self, name: str | None = None) -> RewardStructure:
        """Return the named reward structure (or the only one if unnamed)."""
        if name is None:
            if len(self._rewards) == 1:
                return next(iter(self._rewards.values()))
            raise CTMCError(
                f"model has several reward structures ({', '.join(self.reward_names)}); "
                "specify one by name"
            )
        try:
            return self._rewards[name]
        except KeyError:
            raise CTMCError(
                f"unknown reward structure {name!r}; known: {', '.join(self.reward_names)}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"MarkovRewardModel(chain={self._chain!r}, rewards={list(self.reward_names)})"


@dataclass
class CTMCBuilder:
    """Incremental builder used by state-space generators.

    The builder collects transitions as COO triplets and labels as index
    lists, then produces a :class:`CTMC` in one go.  This avoids repeatedly
    reallocating sparse matrices during exploration.
    """

    num_states: int = 0
    _rows: list[int] = field(default_factory=list)
    _cols: list[int] = field(default_factory=list)
    _rates: list[float] = field(default_factory=list)
    _labels: dict[str, list[int]] = field(default_factory=dict)

    def add_state(self) -> int:
        """Add a state and return its index."""
        index = self.num_states
        self.num_states += 1
        return index

    def add_transition(self, source: int, target: int, rate: float) -> None:
        """Add a transition; parallel transitions are summed."""
        if rate < 0:
            raise CTMCError(f"negative rate {rate} for transition {source} -> {target}")
        if rate == 0.0 or source == target:
            return
        self._rows.append(source)
        self._cols.append(target)
        self._rates.append(float(rate))

    def add_label(self, name: str, state: int) -> None:
        self._labels.setdefault(name, []).append(state)

    def build(
        self, initial: Mapping[int, float] | Sequence[float] | np.ndarray
    ) -> CTMC:
        matrix = sparse.coo_matrix(
            (self._rates, (self._rows, self._cols)),
            shape=(self.num_states, self.num_states),
        ).tocsr()
        matrix.sum_duplicates()
        return CTMC(
            matrix,
            initial,
            labels={name: states for name, states in self._labels.items()},
        )
