"""Exact arithmetic on finitely supported probability measures.

Atomic measures carry sorted atoms with positive weights; categorical
measures share a fixed strictly increasing support. Distances, projections
and dominance checks are computed from the piecewise-constant CDF /
quantile representation, with no sampling anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mdp import _frozen_array

ATOM_MERGE_TOL = 1e-12
PROB_SUM_TOL = 1e-12

# The ufuncs that ndarray.all, .any, .sum and .cumsum call, without the
# Python-level wrappers in between: the same reductions, bit for bit.
_all, _any = np.logical_and.reduce, np.logical_or.reduce
_sum, _cumsum = np.add.reduce, np.add.accumulate
_ZERO, _ONE, _TRUE = _frozen_array([0.0]), _frozen_array([1.0]), _frozen_array([True], dtype=bool)


def _merge_runs(values, weights):
    """from_points' merge of sorted arrays: each run of atoms within
    ATOM_MERGE_TOL of its predecessor becomes its first atom with the run's
    weights summed in order. With no run the arrays come back as they are."""
    starts = values[1:] - values[:-1] > ATOM_MERGE_TOL
    if _all(starts):
        return values, weights
    starts = np.concatenate((_TRUE, starts))
    return values[starts], np.bincount(starts.cumsum() - 1, weights=weights)


@dataclass(frozen=True)
class AtomicDistribution:
    """Finitely supported measure: strictly increasing atoms, positive weights."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = _frozen_array(self.atoms)
        weights = _frozen_array(self.weights)
        if atoms.ndim != 1 or atoms.shape != weights.shape or atoms.size == 0:
            raise ValueError("atoms and weights must be equal-length 1-D arrays")
        if not _all(np.isfinite(atoms)):
            raise ValueError("atoms must be finite")
        if _any(atoms[1:] <= atoms[:-1]):
            raise ValueError("atoms must be strictly increasing")
        if _any(weights <= 0.0) or not _all(np.isfinite(weights)):
            raise ValueError("weights must be positive and finite")
        total = float(_sum(weights))
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"weights must sum to 1 (got {total!r})")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def from_points(cls, values, weights) -> "AtomicDistribution":
        """Build from unsorted atoms: sorts, merges locations within 1e-12,
        and drops zero-weight atoms."""
        values = np.asarray(values, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if values.shape != weights.shape or values.ndim != 1:
            raise ValueError("values and weights must be equal-length 1-D arrays")
        if not _all(np.isfinite(values)):
            raise ValueError("atoms must be finite")
        if not _all(np.isfinite(weights)):
            raise ValueError("weights must be positive and finite")
        if _any(weights < 0.0):
            raise ValueError("weights must be nonnegative")
        keep = weights > 0.0
        values, weights = values[keep], weights[keep]
        if values.size == 0:
            raise ValueError("no atoms with positive weight")
        order = values.argsort(kind="stable")
        return cls._trusted(*_merge_runs(values[order], weights[order]))

    @classmethod
    def _trusted(cls, atoms, weights) -> "AtomicDistribution":
        """Wrap arrays just built (by _merge_runs, dirac, as_atomic or the
        operators' row merge), or frozen ones shared: 1-D, equal-length, non-empty,
        sorted, with positive weights. Only finite atoms (an affine image can
        overflow; sorted, both ends suffice) and finite weights summing to 1
        (positive weights are finite if their sum is) are checked. The arrays
        are frozen in place, not copied."""
        if not (-math.inf < atoms[0] and atoms[-1] < math.inf):
            raise ValueError("atoms must be finite")
        total = float(_sum(weights))
        if not abs(total - 1.0) <= PROB_SUM_TOL:
            if not _all(np.isfinite(weights)):
                raise ValueError("weights must be positive and finite")
            raise ValueError(f"weights must sum to 1 (got {total!r})")
        atoms.setflags(write=False)
        weights.setflags(write=False)
        dist = object.__new__(cls)
        object.__setattr__(dist, "atoms", atoms)
        object.__setattr__(dist, "weights", weights)
        return dist

    def mean(self) -> float:
        return float(self.atoms @ self.weights)

    def cdf(self, z) -> np.ndarray:
        """F(z) = P(Z <= z), evaluated at each point of z."""
        cum = np.concatenate((_ZERO, _cumsum(self.weights)))
        return cum[self.atoms.searchsorted(np.asarray(z, dtype=float), side="right")]


def _check_grid(grid: np.ndarray) -> None:
    """Raise ValueError unless grid is 1-D with at least 2 finite, strictly
    increasing points and a finite span z_K - z_1, which keeps every gap,
    and so every projected weight, finite. Strict increase fails at any
    NaN, and between finite ends every point is finite."""
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be 1-D with at least 2 points")
    if not (_all(grid[1:] > grid[:-1]) and math.isfinite(grid[0]) and math.isfinite(grid[-1])):
        raise ValueError("grid must be finite and strictly increasing")
    if not math.isfinite(float(grid[-1]) - float(grid[0])):
        raise ValueError(f"grid span {float(grid[0])!r} .. {float(grid[-1])!r} overflows")


@dataclass(frozen=True)
class CategoricalDistribution:
    """Probability vector over a fixed strictly increasing support grid (K >= 2)."""

    grid: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        grid = _frozen_array(self.grid)
        probs = _frozen_array(self.probs)
        _check_grid(grid)
        if probs.shape != grid.shape:
            raise ValueError("grid and probs must be equal-length 1-D arrays")
        if _any(probs < 0.0) or not _all(np.isfinite(probs)):
            raise ValueError("probs must be nonnegative and finite")
        total = float(_sum(probs))
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probs must sum to 1 (got {total!r})")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def _trusted(cls, grid, probs) -> "CategoricalDistribution":
        """Wrap a frozen grid that the caller has checked and a fresh probs
        vector projected onto it (nonnegative by construction); only the sum
        of probs is checked. probs is frozen in place, not copied."""
        total = float(_sum(probs))
        if not abs(total - 1.0) <= PROB_SUM_TOL:
            raise ValueError(f"probs must sum to 1 (got {total!r})")
        probs.setflags(write=False)
        dist = object.__new__(cls)
        object.__setattr__(dist, "grid", grid)
        object.__setattr__(dist, "probs", probs)
        return dist

    def mean(self) -> float:
        return float(self.grid.dot(self.probs))  # the 1-D dot that categorical_means' vecdot calls per row

    def as_atomic(self) -> AtomicDistribution:
        keep = self.probs > 0.0
        return AtomicDistribution._trusted(self.grid[keep], self.probs[keep])


def _as_atomic(dist) -> AtomicDistribution:
    if isinstance(dist, AtomicDistribution):
        return dist
    if isinstance(dist, CategoricalDistribution):
        return dist.as_atomic()
    raise TypeError(f"not a distribution: {type(dist).__name__}")


def dirac(z: float) -> AtomicDistribution:
    """Point mass at z."""
    if not math.isfinite(z):
        raise ValueError(f"dirac location must be finite, got {z}")
    return AtomicDistribution._trusted(np.array([z], dtype=float), np.ones(1))


def _check_mixture_weights(ws) -> None:
    if any(w < 0.0 for w in ws) or not abs(math.fsum(ws) - 1.0) <= PROB_SUM_TOL:
        raise ValueError(f"mixture weights must be nonnegative and sum to 1 (got {math.fsum(ws)!r})")


def _quantile_segments(nu1: AtomicDistribution, nu2: AtomicDistribution):
    """Common refinement of the two weight partitions of (0, 1].

    Returns (lengths, q1, q2): segment lengths and the constant quantile
    values of each distribution on each segment.
    """
    head1 = _cumsum(nu1.weights)[:-1]
    head2 = _cumsum(nu2.weights)[:-1]
    breaks = np.concatenate((_ZERO, head1, head2, _ONE))
    breaks.sort()
    breaks = breaks[np.concatenate((_TRUE, breaks[1:] != breaks[:-1]))]
    # distinct sorted breaks: every segment length is positive
    lengths = breaks[1:] - breaks[:-1]
    mids = (breaks[:-1] + breaks[1:]) / 2.0
    # the cumulative sums' first index >= a midpoint, at most the last atom's
    # (a midpoint past a sum that rounds below 1.0): one search of all but the last
    return lengths, nu1.atoms[head1.searchsorted(mids)], nu2.atoms[head2.searchsorted(mids)]


def _checked_ps(ps) -> list:
    """The exponents ps as floats; each must be finite and at least 1."""
    ps = [float(p) for p in ps]
    for p in ps:
        if math.isinf(p) or not p >= 1.0:
            raise ValueError("p = inf is not supported" if math.isinf(p) else f"p must be >= 1, got {p}")
    return ps


def _wasserstein_ps(nu1, nu2, ps) -> tuple:
    # wasserstein_ps on exponents _checked_ps has passed
    lengths, q1, q2 = _quantile_segments(_as_atomic(nu1), _as_atomic(nu2))
    diffs = np.abs(q1 - q2)
    return tuple(float(lengths @ diffs) if p == 1.0 else float((lengths @ diffs**p) ** (1.0 / p)) for p in ps)


def wasserstein_ps(nu1, nu2, ps) -> tuple:
    """Exact p-Wasserstein distances between two finitely supported measures,
    one for each p in ps, all from one common refinement.

    Each is the L^p norm of the difference of quantile functions over the
    merged breakpoints of the two CDFs; no sampling or discretization error.
    Requires finite p >= 1.
    """
    return _wasserstein_ps(nu1, nu2, _checked_ps(ps))


def wasserstein(nu1, nu2, p: float = 1.0) -> float:
    """Exact p-Wasserstein distance: wasserstein_ps at one p."""
    return wasserstein_ps(nu1, nu2, (p,))[0]


def sup_wasserstein_ps(mu1, mu2, ps) -> tuple:
    """Max over (state, action) entries of the p-Wasserstein distance, for
    each p in the sequence ps. Each entry pair is refined once for every p;
    each max equals sup_wasserstein(mu1, mu2, p) bit for bit. The exponents
    are checked once for all entries."""
    if (mu1.n_states, mu1.n_actions) != (mu2.n_states, mu2.n_actions):
        raise ValueError(
            f"mismatched index sets: {(mu1.n_states, mu1.n_actions)} vs "
            f"{(mu2.n_states, mu2.n_actions)}"
        )
    ps = _checked_ps(ps)
    per_entry = [_wasserstein_ps(nu1, nu2, ps) for (_, nu1), (_, nu2) in zip(mu1, mu2)]
    return tuple(map(max, zip(*per_entry)))


def sup_wasserstein(mu1, mu2, p: float = 1.0) -> float:
    """Max over (state, action) entries of W_p: sup_wasserstein_ps at one p."""
    return sup_wasserstein_ps(mu1, mu2, (p,))[0]


def project_points(atoms, weights, grid) -> np.ndarray:
    """Categorical projection of the weighted points (atoms, weights) onto a
    strictly increasing grid, returned as a probability vector over the grid.

    Each atom z' is clamped to z_1 below the grid and to z_K above it;
    an interior atom with z_j < z' <= z_{j+1} splits its weight linearly
    between the bracketing grid points, the bracket found by binary search.
    The projection is linear in the weights.
    """
    probs = np.zeros(grid.size)
    idx = grid.searchsorted(atoms)
    below = idx == 0
    above = idx == grid.size
    probs[0] += _sum(weights[below])
    probs[-1] += _sum(weights[above])
    inner = ~(below | above)
    if _any(inner):
        i = idx[inner]
        z = atoms[inner]
        w = weights[inner]
        gap = grid[i] - grid[i - 1]
        np.add.at(probs, i - 1, w * (grid[i] - z) / gap)
        np.add.at(probs, i, w * (z - grid[i - 1]) / gap)
    return probs


def cramer_project(nu, grid) -> CategoricalDistribution:
    """Project a finitely supported measure onto a categorical grid
    (see project_points)."""
    grid = _frozen_array(grid)
    _check_grid(grid)
    nu = _as_atomic(nu)
    return CategoricalDistribution._trusted(grid, project_points(nu.atoms, nu.weights, grid))


def categorical_means(probs, grid) -> np.ndarray:
    """Means of probability vectors on one grid, over the last axis: an
    ndarray of probs.shape[:-1], 0-d for a single row.

    One np.vecdot call takes every mean. Its float64 loop calls, for each
    row, the same 1-D BLAS dot as grid.dot(row) and
    CategoricalDistribution.mean, so every mean rounds alike whatever the
    number of rows. The greedy step compares means with ==, so that is
    required: on random rows a batched probs @ grid, an einsum or
    (probs * grid).sum(-1) each differ from the 1-D dot in the last bit in
    about 20-40% of rows (K = 3, 4, 51). Both inputs are made C-contiguous
    first, because BLAS rounds a row whose cells are not adjacent (a
    [..., ::2] view, a moved axis) differently from the same row copied. A
    Python sum of products does not match either: with FMA the small dot is
    a fused multiply-add chain, which a sum of rounded products matches in
    only about 50-65% of rows at K = 3-5.
    """
    probs = np.ascontiguousarray(probs, dtype=float)
    return np.asarray(np.vecdot(probs, np.ascontiguousarray(grid, dtype=float)))


def categorical_w1(p, q, grid) -> np.ndarray:
    """W1 between probability vectors on one shared grid, over the last axis:
    the area between the two CDFs, |cumsum(p - q)| weighted by the cell widths
    (np.cumsum's and np.diff's arithmetic, without their Python wrappers)."""
    return np.abs(_cumsum(p - q, axis=-1)[..., :-1]) @ (grid[1:] - grid[:-1])


def dominance_excess(hi, lo) -> float:
    """Largest amount by which the CDF of hi exceeds that of lo on the merged
    atoms; at most 0 exactly when hi stochastically dominates lo."""
    hi, lo = _as_atomic(hi), _as_atomic(lo)
    zs = np.concatenate((hi.atoms, lo.atoms))  # unsorted, with repeats: the max is the same
    return float(np.maximum.reduce(hi.cdf(zs) - lo.cdf(zs)))


class DistributionCollection:
    """One distribution per (state, action) pair, indexed as collection[x, a]."""

    __slots__ = ("_entries", "n_states", "n_actions")

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise ValueError("collection must be non-empty")
        n_actions = len(entries[0])
        if any(len(row) != n_actions for row in entries):
            raise ValueError("collection rows must have equal length")
        for row in entries:
            for dist in row:
                if not isinstance(dist, (AtomicDistribution, CategoricalDistribution)):
                    raise TypeError(f"not a distribution: {type(dist).__name__}")
        self._entries = entries
        self.n_states = len(entries)
        self.n_actions = n_actions

    @classmethod
    def constant(cls, n_states: int, n_actions: int, dist) -> "DistributionCollection":
        return cls([[dist] * n_actions for _ in range(n_states)])

    @classmethod
    def build(cls, n_states: int, n_actions: int, fn) -> "DistributionCollection":
        return cls([[fn(x, a) for a in range(n_actions)] for x in range(n_states)])

    def __getitem__(self, key):
        x, a = key
        return self._entries[x][a]

    def __iter__(self):
        for x, row in enumerate(self._entries):
            for a, dist in enumerate(row):
                yield (x, a), dist

    def map(self, fn) -> "DistributionCollection":
        return DistributionCollection([[fn(d) for d in row] for row in self._entries])

    def means(self) -> np.ndarray:
        return np.array([[d.mean() for d in row] for row in self._entries])

    def probs(self) -> np.ndarray:
        """(n_states, n_actions, K) probabilities of categorical entries on one grid."""
        return np.array([[d.probs for d in row] for row in self._entries])

    def _atom_counts(self):
        """Each entry's atoms as as_atomic holds them: a categorical entry's positive cells."""
        return (_as_atomic(d).atoms.size for _, d in self)

    def total_atoms(self) -> int:
        return sum(self._atom_counts())

    def max_atoms_per_entry(self) -> int:
        return max(self._atom_counts())
