import math
import warnings

import numpy as np
import pytest

from treesample.baselines import WeightedAtoms
from treesample.exact import solve_exact
from treesample.metrics import (
    EvalReport,
    delta_kl_atoms,
    delta_kl_sampler,
    energy_entropy_deltas,
    evaluate_method,
)
from treesample.model import Factor, FactorGraph
from treesample.prior import HeuristicPrior
from treesample.search import build_tree

from conftest import (all_configs, exact_kl, log_joint, make_random_graph, reference_solve_exact,
                      uniform_graph)


def _target_atoms(graph, sol):
    """P* as atoms, from a conftest.ReferenceSolution."""
    atoms = list(all_configs(graph.num_variables, graph.num_states))
    weights = [math.exp(log_joint(sol, x)) for x in atoms]
    total = sum(weights)
    return WeightedAtoms(atoms=atoms, weights=[w / total for w in weights])


class TestDeltaKlAtoms:
    def test_plug_in_identity(self):
        rng = np.random.default_rng(7)
        g = make_random_graph(rng, 3, 2, num_extra_factors=2)
        sol = reference_solve_exact(g)
        atoms = _target_atoms(g, sol)
        assert delta_kl_atoms(atoms, g) == pytest.approx(-sol.log_z, abs=1e-9)

    def test_single_atom_is_negative_density(self):
        rng = np.random.default_rng(11)
        g = make_random_graph(rng, 3, 2, num_extra_factors=1)
        x = max(all_configs(3, 2), key=g.log_unnormalized_density)
        atoms = WeightedAtoms(atoms=[x], weights=[1.0])
        assert delta_kl_atoms(atoms, g) == pytest.approx(-g.log_unnormalized_density(x), abs=1e-12)

    def test_matches_independent_summation(self):
        rng = np.random.default_rng(13)
        g = make_random_graph(rng, 3, 3, num_extra_factors=2)
        configs = list(all_configs(3, 3))
        picks = rng.choice(len(configs), size=6, replace=False)
        w = rng.random(6)
        w /= w.sum()
        atoms = WeightedAtoms(atoms=[tuple(configs[i]) for i in picks], weights=w.tolist())
        direct = 0.0
        for x, wi in zip(atoms.atoms, atoms.weights):
            direct += wi * math.log(wi) - wi * g.log_unnormalized_density(x)
        assert delta_kl_atoms(atoms, g) == pytest.approx(direct, abs=1e-12)

    def test_zero_mass_atom_gives_inf(self):
        table = np.array([0.0, -np.inf])
        g = FactorGraph(
            num_variables=1, num_states=2,
            factors=(Factor(scope=(1,), table=table),), ordering=(1,),
        )
        atoms = WeightedAtoms(atoms=[(2,)], weights=[1.0])
        assert delta_kl_atoms(atoms, g) == math.inf


def _scalar_atom_scores(atoms, graph):
    """delta_kl_atoms and the atom energy and entropy of energy_entropy_deltas,
    with one scalar log_unnormalized_density call per atom and sum."""
    delta_kl, energy, entropy = 0.0, 0.0, 0.0
    for x, w in zip(atoms.atoms, atoms.weights):
        ld = graph.log_unnormalized_density(x)
        delta_kl = delta_kl + w * (math.log(w) - ld) if ld > -math.inf else math.inf
        energy = energy + w * ld if ld > -math.inf else -math.inf
        entropy -= w * math.log(w)
    return delta_kl, energy, entropy


class TestBatchedAtomScoring:
    """delta_kl_atoms and energy_entropy_deltas score every atom with one
    batched call and give the bits of the per-atom scalar loop."""

    def test_matches_scalar_loop_bitwise(self):
        rng = np.random.default_rng(47)
        inf_seen = False
        for trial in range(30):
            g = make_random_graph(rng, 5, 3, num_extra_factors=4, neg_inf_frac=0.1 * (trial % 3))
            sol = solve_exact(g)
            configs = list(all_configs(5, 3))
            picks = rng.choice(len(configs), size=int(rng.integers(1, 40)), replace=False)
            w = rng.random(len(picks))
            w /= w.sum()
            atoms = WeightedAtoms(atoms=[configs[i] for i in picks], weights=w.tolist())
            ref_kl, ref_energy, ref_entropy = _scalar_atom_scores(atoms, g)
            inf_seen |= ref_kl == math.inf
            assert delta_kl_atoms(atoms, g) == ref_kl
            h_star = sol.entropy
            de, dh = energy_entropy_deltas(atoms, sol, g)
            assert de == (sol.log_z - h_star - ref_energy if ref_energy > -math.inf else math.inf)
            assert dh == ref_entropy - h_star
        assert inf_seen

    def test_empty_atoms(self):
        g = uniform_graph(2, 2)
        sol = solve_exact(g)
        empty = WeightedAtoms(atoms=[], weights=[])
        assert delta_kl_atoms(empty, g) == 0.0
        assert energy_entropy_deltas(empty, sol, g) == (sol.log_z - sol.entropy, -sol.entropy)

    def test_zero_mass_atom_without_warning(self):
        table = np.array([0.0, -np.inf])
        g = FactorGraph(
            num_variables=1, num_states=2,
            factors=(Factor(scope=(1,), table=table),), ordering=(1,),
        )
        atoms = WeightedAtoms(atoms=[(1,), (2,)], weights=[0.5, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert delta_kl_atoms(atoms, g) == math.inf
            assert energy_entropy_deltas(atoms, solve_exact(g), g)[0] == math.inf


class TestDeltaKlSampler:
    def test_full_tree_recovers_log_z(self):
        rng = np.random.default_rng(17)
        g = make_random_graph(rng, 3, 2, num_extra_factors=2)
        sol = solve_exact(g)
        tree = build_tree(g, HeuristicPrior(), budget=2 + 4 + 8)
        est, stderr, *_ = delta_kl_sampler(tree, g, num_samples=4000, seed=3)
        assert abs(est - (-sol.log_z)) < max(3 * stderr, 1e-9)

    def test_constant_integrand_has_zero_stderr(self):
        g = uniform_graph(3, 2)
        tree = build_tree(g, HeuristicPrior(), budget=0)
        est, stderr, *_ = delta_kl_sampler(tree, g, num_samples=100, seed=5)
        assert est == pytest.approx(-3 * math.log(2), abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-13)

    def test_seed_invariance_within_stderr(self):
        rng = np.random.default_rng(19)
        g = make_random_graph(rng, 4, 2, num_extra_factors=2)
        tree = build_tree(g, HeuristicPrior(), budget=12)
        e1, s1, *_ = delta_kl_sampler(tree, g, num_samples=4000, seed=101)
        e2, s2, *_ = delta_kl_sampler(tree, g, num_samples=4000, seed=202)
        assert abs(e1 - e2) < 4 * math.hypot(s1, s2)

    def test_stderr_shrinks_like_sqrt(self):
        rng = np.random.default_rng(23)
        g = make_random_graph(rng, 4, 2, num_extra_factors=3)
        tree = build_tree(g, HeuristicPrior(), budget=10)
        _, s_small, *_ = delta_kl_sampler(tree, g, num_samples=100, seed=7)
        _, s_big, *_ = delta_kl_sampler(tree, g, num_samples=10_000, seed=7)
        ratio = s_small / s_big
        assert 5 < ratio < 20  # ideal is 10


    def test_zero_mass_draw_gives_inf_without_warning(self):
        # the empty tree samples x=(2,) half the time, where the target has no mass
        table = np.array([0.0, -np.inf])
        g = FactorGraph(
            num_variables=1, num_states=2,
            factors=(Factor(scope=(1,), table=table),), ordering=(1,),
        )
        tree = build_tree(g, HeuristicPrior(), budget=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = delta_kl_sampler(tree, g, num_samples=50, seed=1)
            report = evaluate_method("treesample", tree, g, oracle=solve_exact(g),
                                     num_samples=50, seed=1)
        assert (est.delta_kl, est.stderr) == (math.inf, math.inf)
        assert est.energy == -math.inf
        assert (report.kl, report.stderr, report.delta_energy) == (math.inf, math.inf, math.inf)

    def test_estimates_share_one_set_of_draws(self):
        rng = np.random.default_rng(43)
        g = make_random_graph(rng, 4, 2, num_extra_factors=2)
        tree = build_tree(g, HeuristicPrior(), budget=9)
        est = delta_kl_sampler(tree, g, num_samples=500, seed=4)
        xs, log_q = tree.sample_batch(500, np.random.default_rng(4))
        lds = [g.log_unnormalized_density(tuple(x)) for x in xs.tolist()]
        assert est.delta_kl == float(np.mean(log_q - np.array(lds)))
        assert est.energy == float(np.mean(lds))
        assert est.entropy == -float(np.mean(log_q))
        assert est.delta_kl == pytest.approx(-est.entropy - est.energy, abs=1e-9)


class TestEnergyEntropyDeltas:
    def test_exact_target_gives_zero_zero(self):
        rng = np.random.default_rng(29)
        g = make_random_graph(rng, 3, 2, num_extra_factors=2)
        atoms = _target_atoms(g, reference_solve_exact(g))
        de, dh = energy_entropy_deltas(atoms, solve_exact(g), g)
        assert de == pytest.approx(0.0, abs=1e-9)
        assert dh == pytest.approx(0.0, abs=1e-9)

    def test_point_mass_on_uniform_target(self):
        g = uniform_graph(1, 2)
        sol = solve_exact(g)
        atoms = WeightedAtoms(atoms=[(1,)], weights=[1.0])
        de, dh = energy_entropy_deltas(atoms, sol, g)
        assert de == pytest.approx(0.0, abs=1e-12)
        assert dh == pytest.approx(-math.log(2), abs=1e-12)

    def test_kl_reconstruction_identity(self):
        rng = np.random.default_rng(31)
        g = make_random_graph(rng, 3, 2, num_extra_factors=2)
        sol = solve_exact(g)
        configs = list(all_configs(3, 2))
        w = rng.random(len(configs))
        w /= w.sum()
        atoms = WeightedAtoms(atoms=[tuple(x) for x in configs], weights=w.tolist())
        de, dh = energy_entropy_deltas(atoms, sol, g)
        kl = exact_kl(atoms, reference_solve_exact(g))
        assert kl == pytest.approx(de - dh, abs=1e-9)


class TestEvaluateMethod:
    def test_report_fields_with_oracle(self):
        rng = np.random.default_rng(37)
        g = make_random_graph(rng, 3, 2, num_extra_factors=1)
        sol = solve_exact(g)
        tree = build_tree(g, HeuristicPrior(), budget=14)
        report = evaluate_method("treesample", tree, g, oracle=sol, num_samples=500, seed=1, budget=14)
        assert report.kl == pytest.approx(report.delta_kl + sol.log_z, abs=1e-12)
        assert report.budget_spent == 14
        assert report.delta_energy is not None and report.delta_entropy is not None
        data = report.to_json_dict()
        assert data["method"] == "treesample"

    def test_energy_entropy_split_uses_the_kl_draws(self):
        # KL = delta_energy - delta_entropy holds per draw set, so only when the
        # split is computed from the same draws as the ΔKL estimate
        rng = np.random.default_rng(39)
        g = make_random_graph(rng, 4, 2, num_extra_factors=2)
        sol = solve_exact(g)
        tree = build_tree(g, HeuristicPrior(), budget=10)
        report = evaluate_method("treesample", tree, g, oracle=sol, num_samples=300, seed=2)
        assert report.kl == pytest.approx(report.delta_energy - report.delta_entropy, abs=1e-9)

    def test_ranking_preserved(self):
        rng = np.random.default_rng(41)
        g = make_random_graph(rng, 3, 2, num_extra_factors=2)
        sol = reference_solve_exact(g)
        good = _target_atoms(g, sol)
        x = max(all_configs(3, 2), key=g.log_unnormalized_density)
        bad = WeightedAtoms(atoms=[x], weights=[1.0])
        d_good, d_bad = delta_kl_atoms(good, g), delta_kl_atoms(bad, g)
        k_good, k_bad = exact_kl(good, sol), exact_kl(bad, sol)
        assert (d_good < d_bad) == (k_good < k_bad)
        assert k_good == pytest.approx(d_good + sol.log_z, abs=1e-9)

    def test_inf_encoding_in_json(self):
        report = EvalReport(method="sis", delta_kl=math.inf, num_samples=1)
        assert report.to_json_dict()["delta_kl"] == "inf"
