"""Bellman-type maps: scalar operators, full distributional operators, and
their one-step variants, plus the categorical-projected compositions.

Q-functions are plain numpy arrays of shape (n_states, n_actions). All
operators are pure functions of their inputs.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .distributions import (
    ATOM_MERGE_TOL,
    AtomicDistribution,
    CategoricalDistribution,
    DistributionCollection,
    _as_atomic,
    _all,
    _any,
    _check_grid,
    _check_mixture_weights,
    _sum,
    categorical_means,
    cramer_project,
)
from .mdp import Policy, TabularMdp, _frozen_array


def _check_q(q: np.ndarray, mdp: TabularMdp) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (mdp.n_states, mdp.n_actions):
        raise ValueError(f"Q shape {q.shape} does not match MDP {(mdp.n_states, mdp.n_actions)}")
    if not _all(np.isfinite(q), axis=None):
        raise ValueError("Q entries must be finite")
    return q


def bellman_eval(q: np.ndarray, mdp: TabularMdp, policy: Policy) -> np.ndarray:
    """One application of the policy-evaluation Bellman operator."""
    q = _check_q(q, mdp)
    v = (policy.probs * q).sum(axis=1)
    return (mdp.kernel * (mdp.reward + mdp.discount * v[None, None, :])).sum(axis=2)


def bellman_opt(q: np.ndarray, mdp: TabularMdp) -> np.ndarray:
    """One application of the Bellman optimality operator."""
    q = _check_q(q, mdp)
    v = q.max(axis=1)
    return (mdp.kernel * (mdp.reward + mdp.discount * v[None, None, :])).sum(axis=2)


def greedy_policy(q: np.ndarray) -> Policy:
    """Greedy policy w.r.t. Q: each row's lowest-index maximizer, the one
    greedy rule of the exact layer, the array operators and the learner."""
    q = np.asarray(q, dtype=float)
    return Policy.deterministic(q.argmax(axis=1), q.shape[1])


def distr_bellman_eval(
    mu: DistributionCollection, mdp: TabularMdp, policy: Policy
) -> DistributionCollection:
    """Full distributional Bellman operator for a fixed policy.

    Entry (x, a) becomes the mixture over successor pairs (x', a') weighted
    by P(x'|x,a) pi(a'|x') of the pushforwards z -> r(x,a,x') + gamma * z of
    mu[x', a']. Atom counts grow by a factor of up to n_states * n_actions.
    Each entry is one row of its components' atoms, each component merged
    within itself (as from_points merges r + gamma * atoms; dirac(r) at
    gamma 0) before its weights are scaled, then sorted and merged as
    from_points: tests/test_distributions.py's reference_full_eval writes
    this out, and the entries equal it bit for bit.
    """
    if not (mu.n_states, mu.n_actions) == policy.probs.shape == (mdp.n_states, mdp.n_actions):
        raise ValueError("mu, policy and mdp must have the same states and actions")
    gamma, n = mdp.discount, mdp.n_states * mdp.n_actions
    mix = (mdp.kernel[..., None] * policy.probs).reshape(n, n)  # P(x'|x,a) pi(a'|x')
    for ws in mix.tolist():
        _check_mixture_weights(ws)
    # entry e's components: the pairs (x', a') = divmod(cols[e, j], n_actions) of weight w[e, j] > 0
    cols, real = _positive_columns(mix)
    entry = np.arange(n)[:, None]
    w, reward = mix[entry, cols] * real, mdp.reward.reshape(n, -1)[entry, cols // mdp.n_actions]
    if gamma == 0.0:  # each pushforward is dirac(r)
        atoms, masses = reward[..., None], np.ones(w.shape + (1,))
    else:
        # mu as (n + 1, M) tables of atoms and weights, padded with NaN atoms
        # of weight 0, so that a padding column reads the all-padding last row
        nus = [_as_atomic(d) for _, d in mu]
        sizes = np.array([nu.atoms.size for nu in nus])
        present = np.arange(sizes.max()) < sizes[:, None]
        table, weights = np.full((n + 1, present.shape[1]), np.nan), np.zeros((n + 1, present.shape[1]))
        table[:n][present] = np.concatenate([nu.atoms for nu in nus])
        weights[:n][present] = np.concatenate([nu.weights for nu in nus])
        src, rows = np.where(real, cols, n), (-1, present.shape[1])
        atoms = reward[..., None] + gamma * table[src]
        if _any(np.isinf(atoms), axis=None):  # every atom but a padding NaN is a component's
            raise ValueError("atoms must be finite")
        masses = _merge_sorted(atoms.reshape(rows), weights[src].reshape(rows)).reshape(atoms.shape)
    return _collection(mdp, *_sort_and_merge(atoms.reshape(n, -1), (w[..., None] * masses).reshape(n, -1)))


def distr_bellman_opt(mu: DistributionCollection, mdp: TabularMdp) -> DistributionCollection:
    """Full distributional optimality operator: greedy policy from the
    entrywise means, then the evaluation operator under that policy."""
    return distr_bellman_eval(mu, mdp, greedy_policy(mu.means()))


def _one_step_collection(mdp: TabularMdp, v: np.ndarray) -> DistributionCollection:
    # Dirac mixture over successors at r(x,a,x') + gamma * v(x'); coincident
    # targets merge, so entries carry at most n_states atoms.
    return _collection(mdp, *_one_step_rows(_successors(mdp), mdp.discount, v))


def _collection(mdp: TabularMdp, values, weights) -> DistributionCollection:
    """The collection whose entry (x, a) holds the present atoms of row
    x * n_actions + a of sorted, merged (E, W) rows (weight 0 = absent)."""
    keep = weights > 0.0
    atoms, weights, ends = values[keep], weights[keep], np.add.accumulate(_sum(keep, axis=1)).tolist()
    entries = [AtomicDistribution._trusted(atoms[i:j], weights[i:j]) for i, j in zip([0, *ends], ends)]
    return DistributionCollection([entries[i : i + mdp.n_actions] for i in range(0, len(entries), mdp.n_actions)])


def os_distr_eval(
    mu: DistributionCollection, mdp: TabularMdp, policy: Policy
) -> DistributionCollection:
    """One-step distributional Bellman operator for a fixed policy."""
    v = (policy.probs * mu.means()).sum(axis=1)
    return _one_step_collection(mdp, v)


def os_distr_opt(mu: DistributionCollection, mdp: TabularMdp) -> DistributionCollection:
    """One-step distributional optimality operator; tie-invariant because it
    only uses the max of the entrywise means."""
    v = mu.means().max(axis=1)
    return _one_step_collection(mdp, v)


def projected(op, grid):
    """Compose an operator mu -> mu' with the entrywise categorical projection."""
    grid = np.asarray(grid, dtype=float)

    def apply(mu: DistributionCollection) -> DistributionCollection:
        return op(mu).map(lambda d: cramer_project(d, grid))

    return apply


def _project_collection(mu: DistributionCollection, grid) -> DistributionCollection:
    """mu.map(lambda d: cramer_project(d, grid)), bit for bit, in one pass of
    the _cells + _project_rows mirror: each entry's atoms (as as_atomic holds
    them) are one row, padded with copies of its last atom at weight 0. For
    callers that project a whole collection; projected(op, grid) keeps
    cramer_project, the object path that the mirror is held to."""
    grid = _frozen_array(grid)
    _check_grid(grid)
    nus = [_as_atomic(d) for _, d in mu]
    sizes = [nu.atoms.size for nu in nus]
    present = np.arange(max(sizes)) < np.array(sizes)[:, None]
    # each slot's index in the concatenated atoms: the count of present
    # slots up to it, so a padding slot repeats its row's last atom
    at = present.cumsum().reshape(present.shape) - 1
    atoms = np.concatenate([nu.atoms for nu in nus])[at]
    weights = np.where(present, np.concatenate([nu.weights for nu in nus])[at], 0.0)
    probs = _project_rows(weights, _cells(atoms, grid, present, _bases(len(atoms), grid.size)))
    entries = [CategoricalDistribution._trusted(grid, row) for row in probs]
    return DistributionCollection([entries[i : i + mu.n_actions] for i in range(0, len(entries), mu.n_actions)])


# ---------------------------------------------------------------------------
# Array forms of the projected operators: an (S, A, K) probability array on
# the grid maps to an (S, A, K) array. Each equals its object-level
# composition bit for bit, because the instability search decides greedy ties
# by exact equality of means. So every float operation of the object path is
# repeated in the same order: AtomicDistribution.from_points (stable sort,
# merging atoms within ATOM_MERGE_TOL, merged weights summed in order) and
# project_points (clamped mass first, then the lower and the upper cell
# shares in atom order). The exact operators build their rows here too.


def _merge_sorted(values, weights):
    """from_points on rows sorted by value, weight 0 marking an absent atom:
    each run of atoms within ATOM_MERGE_TOL of its predecessor gets its
    weights' in-order sum at its first atom, and weight 0 elsewhere. When
    every adjacent gap exceeds ATOM_MERGE_TOL nothing merges; a NaN gap
    between two equal infinite atoms merges, and one before a NaN (absent
    padding) does not."""
    gaps = values[:, 1:] - values[:, :-1]
    if _all((gaps > ATOM_MERGE_TOL) | np.isnan(values[:, 1:]), axis=None):
        return weights
    present = weights > 0.0
    # on sorted rows the running max of present values is the last one
    last = np.maximum.accumulate(np.where(present, values, -np.inf), axis=1)
    prev = np.concatenate((np.full((len(values), 1), -np.inf), last[:, :-1]), axis=1)
    starts = (present & (values - prev > ATOM_MERGE_TOL)).ravel()
    run = np.cumsum(starts) - 1
    keep = present.ravel()
    merged = np.zeros(weights.size)
    merged[starts] = np.bincount(run[keep], weights=weights.ravel()[keep])
    return merged.reshape(weights.shape)


def _sort_and_merge(values, weights):
    """Rows of atoms (weight 0 = absent) sorted by a stable argsort and
    merged by _merge_sorted, as from_points sorts and merges each row."""
    order = np.argsort(values, axis=1, kind="stable") + np.arange(0, values.size, values.shape[1])[:, None]
    values = values.ravel()[order]
    return values, _merge_sorted(values, weights.ravel()[order])


def _one_step_rows(successors, gamma, v):
    """The one-step operator's sorted, merged rows: each entry's Dirac
    targets r(x,a,x') + gamma * v(x') at its successors (_successors)."""
    nxt, p, reward = successors
    targets = reward + gamma * v[nxt]
    if not _all(np.isfinite(targets), axis=None):
        raise ValueError("atoms must be finite")
    return _sort_and_merge(targets, p)


class _Cells(NamedTuple):
    """project_points' weight-free arithmetic for rows of atoms on a grid."""

    index: np.ndarray  # bincount targets: clamped cells, then lower and upper cells
    hi_gap: np.ndarray  # grid[i] - z (0 for a clamped atom)
    lo_gap: np.ndarray  # z - grid[i-1] (0 for a clamped atom)
    gap: np.ndarray  # grid[i] - grid[i-1] (1 for a clamped atom)
    clamped: np.ndarray  # (2, rows, atoms): z <= z_1 (to the first cell), z > z_K (to the last)
    crowded: np.ndarray  # rows of clamped.reshape(2 * rows, -1) with more than two present atoms


def _bases(rows, k):
    """_cells' constants for rows on a grid of k points: each row's first
    cell in the flat (rows, k) output as a column, the bincount targets of
    the clamped masses (first cells, then last cells), and the searchsorted
    cells of a clamped atom, 0 and k, shaped (2, 1, 1)."""
    first = np.arange(rows) * k
    return first[:, None], np.concatenate((first, first + k - 1)), np.array([0, k])[:, None, None]


def _cells(values, grid, present, bases) -> _Cells:
    """The _Cells of (rows, W) sorted atoms on grid; bases is _bases(rows,
    K), which a caller that projects rows of one layout many times builds once."""
    k = grid.size
    first, clamp_index, edges = bases
    cell = grid.searchsorted(values)  # side="left", as project_points searches
    upper = np.minimum(np.maximum(cell, 1), k - 1)
    inner = upper == cell
    hi, lo = grid[upper], grid[upper - 1]
    target = (first + upper).ravel()
    clamped = (cell == edges) & present
    return _Cells(
        np.concatenate((clamp_index, target - 1, target)),
        np.where(inner, hi - values, 0.0),
        np.where(inner, values - lo, 0.0),
        np.where(inner, hi - lo, 1.0),
        clamped,
        (clamped.sum(axis=2).ravel() > 2).nonzero()[0],
    )


def _project_rows(weights, cells: _Cells) -> np.ndarray:
    """project_points of each row of merged atoms (weight 0 = absent), as
    an (rows, K) array. One in-order accumulation gives every cell the
    clamped mass, then the lower shares, then the upper shares, in the order
    project_points adds them."""
    # project_points' weights[clamped].sum() over each row's present atoms
    masked = np.where(cells.clamped, weights, 0.0).reshape(2 * len(weights), -1)
    clamped = masked.cumsum(axis=1)[:, -1]  # exact for up to two terms
    for row in cells.crowded:
        clamped[row] = masked[row][masked[row] > 0.0].sum()  # numpy's own order
    values = np.concatenate(
        (clamped, (weights * cells.hi_gap / cells.gap).ravel(), (weights * cells.lo_gap / cells.gap).ravel())
    )
    return np.bincount(cells.index, weights=values).reshape(len(weights), -1)


def _positive_columns(weights):
    """Each row's columns of positive weight in index order, padded with
    copies of the last one, as a (rows, W) array, and the mask of the
    columns that are not padding. With every weight positive no argsort
    runs: the columns are each row's arange, read off the mask."""
    real = weights > 0.0
    if _all(real, axis=None):
        return real.nonzero()[1].reshape(real.shape), real
    count = _sum(real, axis=1)
    cols = (~real).argsort(axis=1, kind="stable")[:, : count.max()]
    real = np.arange(cols.shape[1]) < count[:, None]
    return np.where(real, cols, cols[np.arange(len(cols)), count - 1][:, None]), real


def _successors(mdp: TabularMdp):
    """Each entry's successors x' with P(x'|x,a) > 0 in index order, padded
    with copies of the last one, as (E, W) arrays: x', P (0 for a padding
    copy, so its atoms are absent) and r(x, a, x')."""
    kernel = mdp.kernel.reshape(-1, mdp.n_states)
    nxt, real = _positive_columns(kernel)
    entry = np.arange(len(kernel))[:, None]
    return nxt, np.where(real, kernel[entry, nxt], 0.0), mdp.reward.reshape(-1, mdp.n_states)[entry, nxt]


def categorical_full_opt_batch(mdps, grid):
    """categorical_full_opt of C MDPs that share kernel and discount: a
    (C, S, A, K) probability array maps to one, slice c under mdps[c].

    Each entry's atoms r(x,a,x') + gamma * z_k, their stable sort order,
    bracketing cells and whether any two can merge are laid out once, a row
    per entry of each MDP; an application gathers the greedy successors'
    weights P(x'|x,a) * p_k and projects them. Rows never mix, so a slice
    keeps its MDP's float operations and their order (_merge_sorted returns
    a row with nothing to merge bit for bit, so it runs if any MDP needs it).
    """
    head = mdps[0]
    if any(not np.array_equal(m.kernel, head.kernel) or m.discount != head.discount for m in mdps):
        raise ValueError("a batch of MDPs must share kernel and discount")
    grid = np.asarray(grid, dtype=float)
    gamma, k = head.discount, grid.size
    nxt, p, _ = _successors(head)
    reward = np.stack([m.reward.reshape(len(p), -1) for m in mdps])[:, np.arange(len(p))[:, None], nxt]
    # component (c, e, j): the pushforward of the greedy action at successor j
    atoms = reward[..., None] + gamma * grid
    merge_components = gamma > 0.0 and bool(np.any(np.diff(atoms, axis=-1) <= ATOM_MERGE_TOL))
    order = np.argsort(atoms.reshape(len(mdps) * len(p), -1), axis=1, kind="stable")
    gather = order + np.arange(len(order))[:, None] * order.shape[1]
    values = atoms.ravel()[gather]
    real = np.tile(np.repeat(p, k, axis=1), (len(mdps), 1)).ravel()[gather] > 0.0
    # a merge is possible when fewer runs than atoms survive with all present
    may_merge = np.count_nonzero(_merge_sorted(values, real * 1.0)) < np.count_nonzero(real)
    cells = _cells(values, grid, real, _bases(len(values), k))
    batch, states = np.arange(len(mdps))[:, None], np.arange(head.n_states)

    def apply(probs: np.ndarray) -> np.ndarray:
        greedy = categorical_means(probs, grid).argmax(axis=-1)  # lowest-index ties
        comp = probs[batch, states, greedy][:, nxt]
        if gamma == 0.0:
            comp = np.zeros_like(comp)  # each pushforward is dirac(r), weight 1
            comp[..., 0] = 1.0
        elif merge_components:
            comp = _merge_sorted(atoms.reshape(-1, k), comp.reshape(-1, k)).reshape(comp.shape)
        weights = (p[:, :, None] * comp).ravel()[gather]
        if may_merge:
            weights = _merge_sorted(values, weights)
        return _project_rows(weights, cells).reshape(probs.shape)

    return apply


def categorical_full_opt(mdp: TabularMdp, grid):
    """Array form of projected(lambda m: distr_bellman_opt(m, mdp), grid): the batch of one."""
    apply = categorical_full_opt_batch([mdp], grid)
    return lambda probs: apply(probs[None])[0]


def _projected_one_step(mdp: TabularMdp, grid, next_value):
    # array form of projected(_one_step_collection(mdp, next_value(means))):
    # the successors' layout and its cell bases are built once, not per application
    grid = np.asarray(grid, dtype=float)
    successors = _successors(mdp)
    bases = _bases(len(successors[0]), grid.size)

    def apply(probs: np.ndarray) -> np.ndarray:
        values, merged = _one_step_rows(successors, mdp.discount, next_value(categorical_means(probs, grid)))
        cells = _cells(values, grid, merged > 0.0, bases)
        return _project_rows(merged, cells).reshape(mdp.n_states, mdp.n_actions, grid.size)

    return apply


def categorical_os_opt(mdp: TabularMdp, grid):
    """Array form of projected(lambda m: os_distr_opt(m, mdp), grid)."""
    return _projected_one_step(mdp, grid, lambda q: q.max(axis=1))


def categorical_os_eval(mdp: TabularMdp, policy: Policy, grid):
    """Array form of projected(lambda m: os_distr_eval(m, mdp, policy), grid)."""
    return _projected_one_step(mdp, grid, lambda q: (policy.probs * q).sum(axis=1))
