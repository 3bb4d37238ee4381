import json
import math

import numpy as np
import pytest

from osdrl import (
    AtomicDistribution,
    CategoricalDistribution,
    DistributionCollection,
    categorical_means,
    categorical_w1,
    cramer_project,
    dirac,
    distr_bellman_eval,
    distr_bellman_opt,
    distribution_from_json,
    dominance_excess,
    greedy_policy,
    mixture,
    project_points,
    pushforward_affine,
    stochastically_dominates,
    sup_wasserstein,
    wasserstein,
)
from osdrl.distributions import sup_wasserstein_ps, wasserstein_ps
from osdrl.mdp import Policy, TabularMdp
from osdrl.operators import random_atomic, random_collection, random_grid


def riemann_w1(nu1, nu2, spacing):
    """Independent oracle: area between CDFs by midpoint Riemann summation.

    Exact (up to float rounding) when every atom lies on a lattice whose
    spacing is a multiple of `spacing`, because then no cell straddles a CDF
    breakpoint.
    """
    lo = min(nu1.atoms[0], nu2.atoms[0]) - spacing
    hi = max(nu1.atoms[-1], nu2.atoms[-1]) + spacing
    mids = np.arange(lo + spacing / 2, hi, spacing)
    return float(np.sum(np.abs(nu1.cdf(mids) - nu2.cdf(mids))) * spacing)


def lattice_atomic(rng, n_atoms, step=1.0 / 64):
    values = rng.integers(-512, 512, size=n_atoms) * step
    return AtomicDistribution.from_points(values, rng.dirichlet(np.ones(n_atoms)))


class TestAtomicDistribution:
    def test_dirac(self):
        d = dirac(0.0)
        assert d.atoms.tolist() == [0.0] and d.weights.tolist() == [1.0]
        assert dirac(2.5).mean() == 2.5

    def test_dirac_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            dirac(math.inf)

    def test_rejects_unsorted_atoms(self):
        with pytest.raises(ValueError, match="increasing"):
            AtomicDistribution(atoms=[1.0, 0.0], weights=[0.5, 0.5])

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            AtomicDistribution(atoms=[0.0, 1.0], weights=[0.5, 0.4])
        with pytest.raises(ValueError):
            AtomicDistribution(atoms=[0.0, 1.0], weights=[1.2, -0.2])

    def test_from_points_merges_and_sorts(self):
        d = AtomicDistribution.from_points([3.0, 0.0, 3.0], [0.25, 0.5, 0.25])
        assert d.atoms.tolist() == [0.0, 3.0]
        assert d.weights.tolist() == [0.5, 0.5]

    def test_from_points_merges_within_tolerance(self):
        d = AtomicDistribution.from_points([0.0, 5e-13], [0.5, 0.5])
        assert d.atoms.size == 1

    @pytest.mark.parametrize(
        "values, weights, message",
        [
            ([0.0, math.nan], [0.5, 0.5], "atoms must be finite"),
            ([math.inf, 0.0], [0.5, 0.5], "atoms must be finite"),
            ([0.0, 1.0], [math.nan, 1.0], "weights must be positive and finite"),
            ([0.0, 1.0], [0.0, math.inf], "weights must be positive and finite"),
        ],
    )
    def test_from_points_rejects_nonfinite(self, values, weights, message):
        # a NaN atom used to merge into its predecessor, a NaN weight to be dropped
        with pytest.raises(ValueError, match=message):
            AtomicDistribution.from_points(values, weights)

    def test_json_round_trip(self):
        d = AtomicDistribution.from_points([0.0, 4.0], [0.5, 0.5])
        back = distribution_from_json(json.loads(json.dumps(d.to_json())))
        assert np.array_equal(back.atoms, d.atoms)
        assert np.array_equal(back.weights, d.weights)


class TestPushforward:
    def test_dirac_case(self):
        out = pushforward_affine(dirac(2.0), 1.0, 0.5)
        assert out.atoms.tolist() == [2.0] and out.weights.tolist() == [1.0]

    def test_gamma_zero_collapses(self):
        nu = AtomicDistribution.from_points([-1.0, 5.0], [0.3, 0.7])
        out = pushforward_affine(nu, 1.5, 0.0)
        assert out.atoms.tolist() == [1.5] and out.weights.tolist() == [1.0]

    def test_mean_is_affine(self):
        nu = mixture([(0.5, dirac(0.0)), (0.5, dirac(4.0))])
        out = pushforward_affine(nu, 1.0, 0.5)
        assert out.atoms.tolist() == [1.0, 3.0]
        assert out.mean() == 1.0 + 0.5 * nu.mean() == 2.0

    def test_rejects_gamma_out_of_range(self):
        with pytest.raises(ValueError):
            pushforward_affine(dirac(0.0), 0.0, 1.0)
        with pytest.raises(ValueError):
            pushforward_affine(dirac(0.0), 0.0, -0.1)


class TestMixture:
    def test_identity(self):
        nu = AtomicDistribution.from_points([0.0, 1.0], [0.25, 0.75])
        out = mixture([(1.0, nu)])
        assert np.array_equal(out.atoms, nu.atoms)
        assert np.array_equal(out.weights, nu.weights)

    def test_merges_equal_atoms(self):
        out = mixture([(0.5, dirac(0.0)), (0.5, dirac(0.0))])
        assert out.atoms.tolist() == [0.0] and out.weights.tolist() == [1.0]

    def test_mean_convexity(self):
        out = mixture([(0.5, dirac(0.0)), (0.5, dirac(2.0))])
        assert out.mean() == 1.0

    def test_drops_zero_weight_components(self):
        out = mixture([(0.0, dirac(99.0)), (1.0, dirac(1.0))])
        assert out.atoms.tolist() == [1.0]

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            mixture([(0.7, dirac(0.0)), (0.7, dirac(1.0))])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite_weight(self, bad):
        with pytest.raises(ValueError, match="sum to 1"):
            mixture([(bad, dirac(0.0)), (1.0, dirac(1.0))])


class TestMean:
    def test_categorical_dot_product(self):
        d = CategoricalDistribution(grid=[0.0, 10.0, 20.0], probs=[0.5, 0.25, 0.25])
        assert d.mean() == 7.5

    def test_projection_preserves_dirac_mean(self):
        d = cramer_project(dirac(1.0), [0.0, 1.9, 2.1, 10.0])
        assert abs(d.mean() - 1.0) <= 1e-12

    @pytest.mark.parametrize("k", [3, 4, 51])
    def test_categorical_means_equal_mean_bit_for_bit(self, k):
        rng = np.random.default_rng(k)
        grid = np.sort(rng.uniform(-5.0, 20.0, size=k))
        probs = rng.dirichlet(np.ones(k), size=(50, 3))
        means = categorical_means(probs, grid)
        assert means.shape == (50, 3)
        for index in np.ndindex(50, 3):
            d = CategoricalDistribution(grid, probs[index])
            assert means[index] == d.mean() == float(grid @ probs[index])


class TestWasserstein:
    def test_point_masses(self):
        for p in (1.0, 2.0, 4.0):
            assert wasserstein(dirac(0.0), dirac(3.0), p) == 3.0
            assert wasserstein(dirac(-1.5), dirac(2.5), p) == 4.0

    def test_half_half_vs_middle(self):
        # quantile functions differ by exactly 1 on each half of (0, 1),
        # so every order p gives 1
        nu = mixture([(0.5, dirac(0.0)), (0.5, dirac(2.0))])
        assert wasserstein(nu, dirac(1.0), 1.0) == 1.0
        assert wasserstein(nu, dirac(1.0), 2.0) == 1.0

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            wasserstein(dirac(0.0), dirac(1.0), 0.5)
        with pytest.raises(ValueError):
            wasserstein(dirac(0.0), dirac(1.0), math.inf)

    def test_symmetry_identity_triangle(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            a = random_atomic(rng, max_atoms=5)
            b = random_atomic(rng, max_atoms=5)
            c = random_atomic(rng, max_atoms=5)
            for p in (1.0, 2.0, 4.0):
                dab = wasserstein(a, b, p)
                assert abs(dab - wasserstein(b, a, p)) <= 1e-12
                assert wasserstein(a, a, p) <= 1e-12
                assert dab <= wasserstein(a, c, p) + wasserstein(c, b, p) + 1e-10

    def test_agrees_with_riemann_area(self):
        # lattice-valued atoms keep the midpoint Riemann sum exact
        rng = np.random.default_rng(11)
        step = 1.0 / 64
        for _ in range(100):
            a = lattice_atomic(rng, int(rng.integers(1, 6)), step)
            b = lattice_atomic(rng, int(rng.integers(1, 6)), step)
            w_exact = wasserstein(a, b, 1.0)
            w_riemann = riemann_w1(a, b, step / 2)
            if w_exact > 0:
                assert abs(w_exact - w_riemann) / w_exact < 1e-6
            else:
                assert w_riemann < 1e-12

    def test_categorical_inputs_accepted(self):
        d1 = CategoricalDistribution(grid=[0.0, 1.0], probs=[1.0, 0.0])
        d2 = CategoricalDistribution(grid=[0.0, 1.0], probs=[0.0, 1.0])
        assert wasserstein(d1, d2, 1.0) == 1.0


class TestSupWasserstein:
    def test_identical_collections(self):
        mu = DistributionCollection.constant(2, 2, dirac(1.0))
        assert sup_wasserstein(mu, mu, 1.0) == 0.0

    def test_single_entry_dominates(self):
        mu1 = DistributionCollection.constant(2, 2, dirac(0.0))
        entries = [[dirac(0.0), dirac(0.0)], [dirac(0.0), dirac(1.0)]]
        mu2 = DistributionCollection(entries)
        assert sup_wasserstein(mu1, mu2, 1.0) == 1.0

    def test_equals_max_of_entries(self):
        rng = np.random.default_rng(3)
        mu1 = DistributionCollection.build(2, 3, lambda x, a: random_atomic(rng))
        mu2 = DistributionCollection.build(2, 3, lambda x, a: random_atomic(rng))
        expected = max(
            wasserstein(mu1[x, a], mu2[x, a], 2.0) for x in range(2) for a in range(3)
        )
        assert sup_wasserstein(mu1, mu2, 2.0) == expected

    def test_rejects_mismatched_shapes(self):
        mu1 = DistributionCollection.constant(2, 2, dirac(0.0))
        mu2 = DistributionCollection.constant(2, 3, dirac(0.0))
        with pytest.raises(ValueError, match="mismatched"):
            sup_wasserstein(mu1, mu2, 1.0)


class TestCramerProjection:
    GRID = [0.0, 1.9, 2.1, 10.0]

    def test_interior_split(self):
        out = cramer_project(dirac(1.0), self.GRID)
        expected = [0.9 / 1.9, 1.0 / 1.9, 0.0, 0.0]
        assert np.allclose(out.probs, expected, atol=1e-15)

    def test_clamp_below(self):
        out = cramer_project(dirac(-5.0), self.GRID)
        assert out.probs.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_clamp_above(self):
        out = cramer_project(dirac(11.0), self.GRID)
        assert out.probs.tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_on_grid_atom_is_fixed(self):
        out = cramer_project(dirac(2.1), self.GRID)
        assert out.probs.tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_mean_preserved_in_range(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            grid = random_grid(rng)
            n = int(rng.integers(1, 6))
            atoms = rng.uniform(grid[0], grid[-1], size=n)
            nu = AtomicDistribution.from_points(atoms, rng.dirichlet(np.ones(n)))
            out = cramer_project(nu, grid)
            assert abs(out.mean() - nu.mean()) <= 1e-12

    def test_projection_is_w1_nonexpansive_on_diracs(self):
        rng = np.random.default_rng(8)
        for _ in range(2000):
            grid = random_grid(rng)
            a, b = rng.uniform(-15.0, 15.0, size=2)
            d = wasserstein(cramer_project(dirac(a), grid), cramer_project(dirac(b), grid), 1.0)
            assert d <= abs(a - b) + 1e-10

    def test_monotone_in_dominance(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            grid = random_grid(rng)
            nu1 = random_atomic(rng, max_atoms=4, low=-5.0, high=5.0)
            shifts = rng.uniform(0.0, 3.0, size=nu1.atoms.size)
            nu2 = AtomicDistribution.from_points(nu1.atoms + shifts, nu1.weights)
            assert stochastically_dominates(nu2, nu1)
            assert stochastically_dominates(
                cramer_project(nu2, grid), cramer_project(nu1, grid)
            )

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            cramer_project(dirac(0.0), [0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            cramer_project(dirac(0.0), [0.0])


class TestCategoricalW1:
    @staticmethod
    def _probs(rng, k):
        p = rng.dirichlet(np.ones(k))
        p[rng.random(k) < 0.3] = 0.0
        if p.sum() == 0.0:
            p[0] = 1.0
        return p / p.sum()

    def test_matches_exact_w1_over_leading_axes(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            grid = random_grid(rng)
            p = np.array([[self._probs(rng, grid.size) for _ in range(2)] for _ in range(3)])
            q = np.array([[self._probs(rng, grid.size) for _ in range(2)] for _ in range(3)])
            w1 = categorical_w1(p, q, grid)
            assert w1.shape == (3, 2)
            for x in range(3):
                for a in range(2):
                    exact = wasserstein(
                        CategoricalDistribution(grid, p[x, a]), CategoricalDistribution(grid, q[x, a])
                    )
                    assert abs(w1[x, a] - exact) <= 1e-12

    def test_identical_vectors_are_zero_apart(self):
        grid = np.array([0.0, 1.9, 2.1, 10.0])
        p = np.array([0.0, 0.25, 0.75, 0.0])
        assert categorical_w1(p, p, grid) == 0.0

    def test_project_points_matches_cramer_project(self):
        grid = np.array([0.0, 1.9, 2.1, 10.0])
        atoms, weights = np.array([-1.0, 2.0, 12.0]), np.array([0.2, 0.5, 0.3])
        probs = project_points(atoms, weights, grid)
        nu = AtomicDistribution.from_points(atoms, weights)
        assert np.array_equal(probs, cramer_project(nu, grid).probs)
        assert np.allclose(probs, [0.2, 0.25, 0.25, 0.3], atol=1e-15)


class TestStochasticDominance:
    def test_dominance_excess(self):
        assert dominance_excess(dirac(2.0), dirac(1.0)) == 0.0
        assert dominance_excess(dirac(1.0), dirac(2.0)) == 1.0
        nu = AtomicDistribution.from_points([0.0, 3.0], [0.5, 0.5])
        assert dominance_excess(nu, dirac(1.0)) == 0.5

    def test_shifted_dirac(self):
        assert stochastically_dominates(dirac(2.0), dirac(1.0))
        assert not stochastically_dominates(dirac(1.0), dirac(2.0))

    def test_reflexivity(self):
        nu = AtomicDistribution.from_points([0.0, 3.0], [0.5, 0.5])
        assert stochastically_dominates(nu, nu)

    def test_crossing_cdfs_incomparable(self):
        nu = AtomicDistribution.from_points([0.0, 3.0], [0.5, 0.5])
        assert not stochastically_dominates(nu, dirac(1.0))
        assert not stochastically_dominates(dirac(1.0), nu)


class TestCategoricalDistribution:
    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            CategoricalDistribution(grid=[0.0], probs=[1.0])

    def test_json_round_trip(self):
        d = CategoricalDistribution(grid=[0.0, 10.0, 20.0], probs=[0.5, 0.25, 0.25])
        back = distribution_from_json(json.loads(json.dumps(d.to_json())))
        assert np.array_equal(back.grid, d.grid)
        assert np.array_equal(back.probs, d.probs)

    def test_as_atomic_drops_zero_probs(self):
        d = CategoricalDistribution(grid=[0.0, 1.0, 2.0], probs=[0.5, 0.0, 0.5])
        atomic = d.as_atomic()
        assert atomic.atoms.tolist() == [0.0, 2.0]


class TestDistributionCollection:
    def test_build_and_index(self):
        mu = DistributionCollection.build(2, 2, lambda x, a: dirac(float(x + a)))
        assert mu[1, 1].atoms.tolist() == [2.0]
        assert mu.n_states == 2 and mu.n_actions == 2

    def test_means(self):
        mu = DistributionCollection.build(2, 2, lambda x, a: dirac(float(x * 10 + a)))
        assert mu.means().tolist() == [[0.0, 1.0], [10.0, 11.0]]

    def test_total_atoms(self):
        mu = DistributionCollection.constant(2, 2, mixture([(0.5, dirac(0.0)), (0.5, dirac(1.0))]))
        assert mu.total_atoms() == 8

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            DistributionCollection([[dirac(0.0)], [dirac(0.0), dirac(1.0)]])


def reference_from_points(values, weights) -> AtomicDistribution:
    """from_points written out through the public, fully checked constructor:
    stable sort, merge of each run within 1e-12 of its predecessor into the
    run's first atom with the run's weights summed in order."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    keep = weights > 0.0
    order = np.argsort(values[keep], kind="stable")
    values, weights = values[keep][order], weights[keep][order]
    group = np.concatenate(([0], np.cumsum(np.diff(values) > 1e-12)))
    first = np.concatenate(([0], np.nonzero(np.diff(group))[0] + 1))
    return AtomicDistribution(atoms=values[first], weights=np.bincount(group, weights=weights))


def spread_inputs(seed=7, n_random=300):
    """(values, weights) pairs covering what from_points merges and drops:
    duplicates, gaps just under, at and just over the merge tolerance, chains
    of near atoms, single atoms and zero weights, then seeded random mixes."""
    yield [0.0], [1.0]
    yield [2.0, 2.0, 2.0], [0.25, 0.5, 0.25]
    yield [0.0, 5e-13], [0.5, 0.5]
    yield [0.0, 1e-12], [0.5, 0.5]  # a gap of exactly 1e-12 merges
    yield [0.0, 2e-12], [0.5, 0.5]
    yield [0.0, 6e-13, 1.2e-12, 1.8e-12, 1.0], [0.2] * 5  # one chained run
    yield [3.0, -1.0, 3.0, 7.0], [0.0, 0.5, 0.5, 0.0]
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        n = int(rng.integers(1, 9))
        base = rng.integers(-3, 4, size=n) * 0.5
        values = base + rng.choice([0.0, 5e-13, 1e-12, 2e-12, 0.3], size=n)
        weights = rng.dirichlet(np.ones(n))
        if n > 1:
            weights[rng.random(n) < 0.2] = 0.0
            if weights.sum() == 0.0:
                weights[0] = 1.0
            weights /= weights.sum()
        yield values, weights


def assert_same(trusted, public):
    assert type(trusted) is type(public)
    for name in public.__dataclass_fields__:
        out, ref = getattr(trusted, name), getattr(public, name)
        assert np.array_equal(out, ref), name
        assert out.dtype == ref.dtype and out.ndim == 1
        assert not out.flags.writeable, f"{name} is writable"
    # every trusted output passes the public constructor unchanged
    rebuilt = type(public)(*(getattr(trusted, f) for f in public.__dataclass_fields__))
    for name in public.__dataclass_fields__:
        assert np.array_equal(getattr(rebuilt, name), getattr(trusted, name)), name


class TestTrustedConstruction:
    """Outputs built without the public constructor's re-checks equal what
    the checked path builds, bit for bit, and are frozen."""

    def test_from_points(self):
        for values, weights in spread_inputs():
            assert_same(
                AtomicDistribution.from_points(values, weights),
                reference_from_points(values, weights),
            )

    def test_output_is_independent_of_the_inputs(self):
        values, weights = np.array([1.0, 0.0]), np.array([0.5, 0.5])
        d = AtomicDistribution.from_points(values, weights)
        values[:] = 9.0
        weights[:] = 9.0
        assert d.atoms.tolist() == [0.0, 1.0] and d.weights.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("gamma", [0.0, 1e-13, 4e-13, 1e-12 / 3, 0.3, 0.9])
    def test_pushforward(self, gamma):
        # at gamma 1e-13 the unit gaps scale under the merge tolerance
        for values, weights in spread_inputs(n_random=100):
            nu = AtomicDistribution.from_points(values, weights)
            for r0 in (0.0, -1.7, 1e-12):
                if gamma == 0.0:
                    ref = AtomicDistribution(atoms=[r0], weights=[1.0])
                else:
                    ref = reference_from_points(r0 + gamma * nu.atoms, nu.weights)
                assert_same(pushforward_affine(nu, r0, gamma), ref)

    def test_mixture(self):
        rng = np.random.default_rng(11)
        inputs = list(spread_inputs(n_random=120))
        for _ in range(100):
            picks = rng.choice(len(inputs), size=int(rng.integers(1, 4)))
            comps = [AtomicDistribution.from_points(*inputs[i]) for i in picks]
            mix = rng.dirichlet(np.ones(len(comps)))
            mix[rng.random(len(comps)) < 0.2] = 0.0
            if mix.sum() == 0.0:
                mix[0] = 1.0
            mix /= mix.sum()
            kept = [(w, c) for w, c in zip(mix, comps) if w != 0.0]
            ref = reference_from_points(
                np.concatenate([c.atoms for _, c in kept]),
                np.concatenate([w * c.weights for w, c in kept]),
            )
            assert_same(mixture(zip(mix.tolist(), comps)), ref)

    def test_dirac(self):
        for z in (0.0, -3.25, 1e300):
            assert_same(dirac(z), AtomicDistribution(atoms=[z], weights=[1.0]))

    def test_cramer_project_and_as_atomic(self):
        rng = np.random.default_rng(5)
        for values, weights in spread_inputs(n_random=100):
            nu = AtomicDistribution.from_points(values, weights)
            grid = np.sort(rng.choice(np.arange(-4.0, 4.5, 0.5), size=int(rng.integers(2, 7)), replace=False))
            out = cramer_project(nu, grid)
            ref = CategoricalDistribution(grid=grid, probs=project_points(nu.atoms, nu.weights, grid))
            assert_same(out, ref)
            keep = ref.probs > 0.0
            assert_same(out.as_atomic(), AtomicDistribution(atoms=grid[keep], weights=ref.probs[keep]))
            grid[0] = -99.0  # the caller's grid changes; the output's must not
            assert np.array_equal(out.grid, ref.grid)

    def test_checks_that_are_kept(self):
        # an affine image can overflow, so finiteness is still checked
        with pytest.raises(ValueError, match="atoms must be finite"), np.errstate(over="ignore"):
            pushforward_affine(AtomicDistribution.from_points([0.0, 1e308], [0.5, 0.5]), 1e308, 0.9)
        with pytest.raises(ValueError, match="sum to 1"):
            AtomicDistribution.from_points([0.0, 1.0], [0.5, 0.4])
        with pytest.raises(ValueError, match="sum to 1"), np.errstate(over="ignore"):
            cramer_project(AtomicDistribution.from_points([0.0], [1.0]), [-1e308, 1e308])


def reference_full_eval(mu, mdp, policy) -> DistributionCollection:
    """distr_bellman_eval written out as first built: one public
    pushforward_affine per successor pair with positive weight, then mixture,
    whose from_points of the concatenation is written out again here
    (reference_from_points) so that the check does not share its sort."""

    def entry(x, a):
        comps = []
        for x_next in range(mdp.n_states):
            p = mdp.kernel[x, a, x_next]
            if p == 0.0:
                continue
            for a_next in range(mdp.n_actions):
                w = p * policy.probs[x_next, a_next]
                if w == 0.0:
                    continue
                nu = mu[x_next, a_next]
                nu = nu.as_atomic() if isinstance(nu, CategoricalDistribution) else nu
                comps.append((w, pushforward_affine(nu, mdp.reward[x, a, x_next], mdp.discount)))
        ref = reference_from_points(
            np.concatenate([c.atoms for _, c in comps]), np.concatenate([w * c.weights for w, c in comps])
        )
        assert_same(mixture(comps), ref)
        return ref

    return DistributionCollection.build(mdp.n_states, mdp.n_actions, entry)


def reference_greedy(mu) -> Policy:
    """The lowest-index greedy policy of distr_bellman_opt, from means written
    out: atoms @ weights, and categorical_means for a categorical entry."""

    def mean(d):
        if isinstance(d, CategoricalDistribution):
            return float(categorical_means(d.probs, d.grid))
        return float(d.atoms @ d.weights)

    return greedy_policy(np.array([[mean(mu[x, a]) for a in range(mu.n_actions)] for x in range(mu.n_states)]), "lowest")


def full_operator_cases(seed=3, n_cases=60):
    """(mdp, policy, mu) triples for the full operators: discounts 0, 1e-13
    (each pushforward merges inside itself) and 0.5 or 0.9; zero kernel
    entries and zero policy weights; rewards shared by every successor and
    atoms on a coarse lattice, so that many components' atoms tie exactly and
    the stable sort and the in-order sums are exercised; categorical entries
    with empty cells in every third case."""
    rng = np.random.default_rng(seed)
    for case in range(n_cases):
        n_states, n_actions = int(rng.integers(2, 6)), int(rng.integers(2, 4))
        kernel = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
        kernel[rng.random(kernel.shape) < 0.25] = 0.0
        kernel[kernel.sum(axis=2) == 0.0, 0] = 1.0
        kernel /= kernel.sum(axis=2, keepdims=True)
        reward = rng.uniform(-1.0, 1.0, size=kernel.shape)
        if case % 2:
            reward = np.round(reward * 2) / 2  # ties across successors
        if case % 5 == 0:
            reward[...] = reward[:, :, :1]  # every successor pays the same
        gamma = (0.0, 1e-13, 0.5, 0.9)[case % 4]
        mdp = TabularMdp(kernel=kernel, reward=reward, discount=gamma)
        probs = rng.dirichlet(np.ones(n_actions), size=n_states)
        probs[rng.random(probs.shape) < 0.3] = 0.0
        probs[probs.sum(axis=1) == 0.0, 0] = 1.0
        policy = Policy(probs / probs.sum(axis=1, keepdims=True))
        grid = np.arange(-2.0, 2.5, 0.5)

        def dist(x, a):
            if case % 3 == 0 and (x + a) % 2:
                p = rng.dirichlet(np.ones(grid.size))
                p[rng.random(grid.size) < 0.4] = 0.0
                p[rng.integers(grid.size)] += 1.0 - p.sum()
                return CategoricalDistribution(grid, p)
            n = int(rng.integers(1, 6))
            return AtomicDistribution.from_points(rng.choice(grid, size=n), rng.dirichlet(np.ones(n)))

        yield mdp, policy, DistributionCollection.build(n_states, n_actions, dist)


def reference_wasserstein(nu1, nu2, p):
    """wasserstein as first written: its own refinement per call and per p."""
    nu1 = nu1.as_atomic() if isinstance(nu1, CategoricalDistribution) else nu1
    nu2 = nu2.as_atomic() if isinstance(nu2, CategoricalDistribution) else nu2
    cum1, cum2 = np.cumsum(nu1.weights), np.cumsum(nu2.weights)
    breaks = np.sort(np.concatenate(([0.0], cum1[:-1], cum2[:-1], [1.0])))
    breaks = breaks[np.concatenate(([True], breaks[1:] != breaks[:-1]))]
    lengths = breaks[1:] - breaks[:-1]
    mids = (breaks[:-1] + breaks[1:]) / 2.0
    q1 = nu1.atoms[np.minimum(np.searchsorted(cum1, mids, side="left"), nu1.atoms.size - 1)]
    q2 = nu2.atoms[np.minimum(np.searchsorted(cum2, mids, side="left"), nu2.atoms.size - 1)]
    diffs = np.abs(q1 - q2)
    if p == 1.0:
        return float(lengths @ diffs)
    return float((lengths @ diffs**p) ** (1.0 / p))


class TestExactOracleKeepsItsBits:
    """The full operators, built from arrays, equal one public
    pushforward_affine per successor pair mixed by mixture, bit for bit; the
    shared-refinement sup-W_p equals one refinement per p."""

    def test_full_eval_and_greedy_opt(self):
        seen = set()
        for mdp, policy, mu in full_operator_cases():
            eval_ref = reference_full_eval(mu, mdp, policy)
            opt_ref = reference_full_eval(mu, mdp, reference_greedy(mu))
            for (x, a), out in distr_bellman_eval(mu, mdp, policy):
                assert_same(out, eval_ref[x, a])
            for (x, a), out in distr_bellman_opt(mu, mdp, "lowest"):
                assert_same(out, opt_ref[x, a])
            seen.add(mdp.discount)
        assert seen == {0.0, 1e-13, 0.5, 0.9}

    def test_cases_cover_ties_zeros_and_categorical_entries(self):
        # merged counts entries with fewer atoms than their components hold
        zero_kernel = zero_policy = categorical = merged = 0
        for mdp, policy, mu in full_operator_cases():
            zero_kernel += bool(np.any(mdp.kernel == 0.0))
            zero_policy += bool(np.any(policy.probs == 0.0))
            categorical += any(isinstance(d, CategoricalDistribution) for _, d in mu)
            n_atoms = lambda d: np.count_nonzero(d.probs) if isinstance(d, CategoricalDistribution) else d.atoms.size
            sizes = np.array([[n_atoms(mu[x, a]) for a in range(mdp.n_actions)] for x in range(mdp.n_states)])
            for (x, a), out in distr_bellman_eval(mu, mdp, policy):
                weights = mdp.kernel[x, a][:, None] * policy.probs
                merged += out.atoms.size < sizes[weights != 0.0].sum()
        assert min(zero_kernel, zero_policy, categorical) > 10 and merged > 100

    def test_overflow_still_fails_as_infinite(self):
        mdp = TabularMdp(kernel=np.full((1, 1, 1), 1.0), reward=np.full((1, 1, 1), 1e308), discount=0.9)
        mu = DistributionCollection.constant(1, 1, AtomicDistribution.from_points([0.0, 1e308], [0.5, 0.5]))
        policy = Policy(np.ones((1, 1)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="atoms must be finite"):
                reference_full_eval(mu, mdp, policy)
            with pytest.raises(ValueError, match="atoms must be finite"):
                distr_bellman_eval(mu, mdp, policy)
            with pytest.raises(ValueError, match="atoms must be finite"):
                distr_bellman_opt(mu, mdp, "lowest")

    def test_shared_refinement_sup_wasserstein(self):
        rng = np.random.default_rng(17)
        ps = (1.0, 2.0, 4.0)
        for _ in range(200):
            n_states, n_actions = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            mu1 = random_collection(rng, n_states, n_actions, max_atoms=4)
            mu2 = random_collection(rng, n_states, n_actions, max_atoms=4)
            shared = sup_wasserstein_ps(mu1, mu2, ps)
            for p, value in zip(ps, shared):
                assert value == sup_wasserstein(mu1, mu2, p)
                assert value == max(reference_wasserstein(mu1[x, a], mu2[x, a], p) for (x, a), _ in mu1)
            for (x, a), nu in mu1:
                assert wasserstein_ps(nu, mu2[x, a], ps) == tuple(reference_wasserstein(nu, mu2[x, a], p) for p in ps)

    def test_symmetry_check_refines_the_swapped_pair(self, monkeypatch):
        # a W_p that is off by 1e-9 when its arguments are swapped: the
        # symmetry property must see it, so (b, a) must be its own refinement
        import osdrl.verify as verify

        def lopsided(nu1, nu2, ps):
            shift = 1e-9 if nu1.atoms[0] > nu2.atoms[0] else 0.0
            return tuple(d + shift for d in wasserstein_ps(nu1, nu2, ps))

        monkeypatch.setattr(verify, "wasserstein_ps", lopsided)
        symmetry, identity, _ = verify.check_wasserstein_axioms(seed=0, n_cases=20)
        assert not symmetry.passed and symmetry.max_violation >= 1e-9
        assert identity.passed
