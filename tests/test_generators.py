import json
import math

import numpy as np
import pytest

from treesample.exact import solve_exact
from treesample.generators import (
    GenerationError,
    GeneratorSpec,
    _majority_table,
    _ordering_from_scopes,
    gen_chain,
    gen_fg1,
    gen_fg2,
    gen_permuted_chain,
    generate,
    maximal_cliques,
    torus_distance,
)
from treesample.model import graph_to_json_dict


class TestChains:
    def test_structure(self):
        g = gen_chain(10, 5, seed=1)
        assert g.num_factors == 19
        unary = [f for f in g.factors if len(f.scope) == 1]
        binary = [f for f in g.factors if len(f.scope) == 2]
        assert len(unary) == 10 and len(binary) == 9
        assert sorted(f.scope[0] for f in unary) == list(range(1, 11))
        assert sorted(f.scope for f in binary) == [(v, v + 1) for v in range(1, 10)]
        assert g.ordering == tuple(range(1, 11))

    def test_torus_coupling_values(self):
        g = gen_chain(10, 5, seed=1)
        pair = next(f for f in g.factors if len(f.scope) == 2)
        tbl = pair.table.reshape(5, 5)
        assert torus_distance(1, 5, 5) == 1
        assert tbl[0, 4] == pytest.approx(2.5)
        assert torus_distance(1, 3, 5) == 2
        assert tbl[0, 2] == pytest.approx(5.0)
        assert np.all(np.diag(tbl) == 0.0)

    def test_deterministic(self):
        a = gen_chain(8, 4, seed=42)
        b = gen_chain(8, 4, seed=42)
        for fa, fb in zip(a.factors, b.factors):
            assert np.array_equal(fa.table, fb.table)
        c = gen_chain(8, 4, seed=43)
        assert not all(np.array_equal(x.table, y.table) for x, y in zip(a.factors, c.factors))

    def test_gp_marginal_variance(self):
        # kernel amplitude 0.5 means each unary entry is N(0, 0.5) marginally
        vals = []
        for seed in range(300):
            g = gen_chain(4, 3, seed=seed)
            vals.append(g.factors[0].table[0])
        vals = np.array(vals)
        assert abs(vals.mean()) < 4 * math.sqrt(0.5 / len(vals))
        assert 0.35 < vals.var() < 0.68

    def test_feasibility_bound(self):
        with pytest.raises(ValueError):
            gen_chain(300, 40, seed=0)


class TestPermutedChains:
    def test_structure_is_hidden_path(self):
        g = gen_permuted_chain(6, 3, seed=2)
        assert g.num_factors == 6  # one prior plus five conditionals
        unary = [f for f in g.factors if len(f.scope) == 1]
        assert len(unary) == 1
        deg: dict[int, int] = {}
        for f in g.factors:
            if len(f.scope) == 2:
                for v in f.scope:
                    deg[v] = deg.get(v, 0) + 1
        assert sorted(deg.values()) == [1, 1, 2, 2, 2, 2]  # path over all six variables

    def test_rows_normalize(self):
        g = gen_permuted_chain(5, 4, seed=3)
        prior = next(f for f in g.factors if len(f.scope) == 1)
        assert np.exp(prior.table).sum() == pytest.approx(1.0, abs=1e-12)

    def test_log_z_is_zero(self):
        for seed in range(5):
            g = gen_permuted_chain(6, 3, seed=seed)
            sol = solve_exact(g)
            assert sol.log_z == pytest.approx(0.0, abs=1e-9)

    def test_identity_ordering(self):
        g = gen_permuted_chain(6, 3, seed=11)
        assert g.ordering == tuple(range(1, 7))

    def test_zero_dirichlet_draws_become_neg_inf_without_warning(self):
        # the suite turns a RuntimeWarning into an error; alpha 0.01 draws exact zeros
        g = gen_permuted_chain(5, 3, seed=0, alpha=0.01)
        assert sum(int(np.sum(f.table == -np.inf)) for f in g.factors) == 7


class TestFg1:
    def test_connected_and_clique_bound(self):
        for seed in range(10):
            g = gen_fg1(10, 5, seed=seed)
            assert all(1 <= len(f.scope) <= 4 for f in g.factors)
            # the factor scopes must knit every variable into one component
            adj = {v: set() for v in range(1, 11)}
            for f in g.factors:
                for u in f.scope:
                    adj[u].update(set(f.scope) - {u})
            seen, stack = {1}, [1]
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            assert seen == set(range(1, 11))

    def test_table_sizes(self):
        g = gen_fg1(10, 5, seed=0)
        for f in g.factors:
            assert len(f.table) == 5 ** len(f.scope)

    def test_entries_look_standard_normal(self):
        entries = []
        seed = 0
        while len(entries) < 100_000:
            g = gen_fg1(12, 5, seed=seed)
            for f in g.factors:
                entries.extend(f.table.tolist())
            seed += 1
        entries = np.array(entries[:100_000])
        assert abs(entries.mean()) < 3.0 / math.sqrt(len(entries))
        assert abs(entries.std() - 1.0) < 0.02

    def test_ordering_comes_from_heuristic(self):
        g = gen_fg1(10, 5, seed=4)
        assert g.ordering == _ordering_from_scopes([f.scope for f in g.factors], 10)
        assert sorted(g.ordering) == list(range(1, 11))

    def test_deterministic(self):
        a, b = gen_fg1(10, 5, seed=9), gen_fg1(10, 5, seed=9)
        assert graph_to_json_dict(a) == graph_to_json_dict(b)


class TestFg1Ordering:
    def test_single_factor_covering_all(self):
        assert _ordering_from_scopes([(1, 2, 3)], 3) == (1, 2, 3)

    def test_descending_scope_size(self):
        assert _ordering_from_scopes([(4, 5), (1, 2, 3)], 5) == (1, 2, 3, 4, 5)

    def test_ties_keep_scope_order(self):
        assert _ordering_from_scopes([(3, 4), (1, 2), (4, 5)], 5) == (3, 4, 1, 2, 5)

    def test_uncovered_variable_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            _ordering_from_scopes([(1, 2)], 3)

    def test_always_a_permutation(self):
        for seed in range(5):
            g = gen_fg1(9, 3, seed=seed)
            scopes = [f.scope for f in g.factors]
            assert sorted(_ordering_from_scopes(scopes, 9)) == list(range(1, 10))


class TestFg2:
    def test_not_factor_table(self):
        g = gen_fg2(8, 2, seed=0)
        for f in g.factors[:4]:
            assert f.scope in [(1, 2), (3, 4), (5, 6), (7, 8)]
            assert np.array_equal(f.table, [0.0, 2.0, 2.0, 0.0])

    def test_twenty_variables_has_ten_not_factors(self):
        g = gen_fg2(20, 2, seed=1)
        not_factors = [
            f for f in g.factors if len(f.scope) == 2 and f.scope[1] == f.scope[0] + 1
            and f.scope[0] % 2 == 1 and np.array_equal(f.table, [0.0, 2.0, 2.0, 0.0])
        ]
        assert len(not_factors) == 10

    def test_majority_values(self):
        t = _majority_table(3, 2.0)
        # states (2,2,1): two of three in state 2 -> on; (1,1,2): one of three -> off
        assert t[(1) * 4 + (1) * 2 + 0] == 2.0
        assert t[(0) * 4 + (0) * 2 + 1] == 0.0
        assert set(np.unique(t)) <= {0.0, 2.0}

    def test_majority_scope_one_per_pair(self):
        g = gen_fg2(20, 2, seed=3)
        for f in g.factors[10:]:
            pairs = [(v - 1) // 2 for v in f.scope]
            assert len(set(pairs)) == len(pairs)
            assert 2 <= len(f.scope) <= 4

    def test_even_and_minimum_size(self):
        with pytest.raises(ValueError):
            gen_fg2(7, 2, seed=0)
        with pytest.raises(ValueError):
            gen_fg2(2, 2, seed=0)

    def test_deterministic(self):
        a, b = gen_fg2(12, 2, seed=5), gen_fg2(12, 2, seed=5)
        assert graph_to_json_dict(a) == graph_to_json_dict(b)

    def test_family_rejects_k_other_than_two(self):
        assert generate(GeneratorSpec(family="fg2", n=8, k=2, seed=0)).num_states == 2
        with pytest.raises(ValueError, match="k must be 2"):
            generate(GeneratorSpec(family="fg2", n=8, k=3, seed=0))
        with pytest.raises(ValueError, match="k must be 2"):
            gen_fg2(8, 3, seed=0)


class TestCliqueEnumeration:
    def test_triangle_plus_edge(self):
        adj = {0: {1, 2}, 1: {0, 2}, 2: {0, 1, 3}, 3: {2}}
        assert maximal_cliques(adj) == [(0, 1, 2), (2, 3)]

    def test_matches_bruteforce_on_random_graphs(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = 7
            adj = {u: set() for u in range(n)}
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.45:
                        adj[u].add(v)
                        adj[v].add(u)
            got = set(maximal_cliques(adj))
            # brute force: every subset that is a clique and not extendable
            import itertools

            ref = set()
            for r in range(1, n + 1):
                for sub in itertools.combinations(range(n), r):
                    s = set(sub)
                    if all(v in adj[u] for u, v in itertools.combinations(sub, 2)):
                        if not any(s <= adj[w] for w in set(range(n)) - s):
                            ref.add(tuple(sorted(sub)))
            assert got == ref


class TestGeneratorSpec:
    def test_dispatch(self):
        spec = GeneratorSpec(family="chains", n=6, k=3, seed=7)
        g = generate(spec)
        assert g.num_variables == 6 and g.num_factors == 11

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            GeneratorSpec(family="nope", n=4, k=2, seed=0)

    def test_params_forwarded(self):
        spec = GeneratorSpec(family="chains", n=4, k=3, seed=1, params={"coupling": 1.0})
        g = generate(spec)
        pair = next(f for f in g.factors if len(f.scope) == 2)
        assert pair.table.max() == pytest.approx(1.0)

    def test_bool_param_rejected(self):
        # Python counts True as the int 1, which would build coupling 1
        with pytest.raises(ValueError, match="coupling must be of type float"):
            GeneratorSpec(family="chains", n=4, k=3, seed=1, params={"coupling": True})
        with pytest.raises(ValueError, match="max_clique must be of type int"):
            GeneratorSpec(family="fg1", n=4, k=2, seed=1, params={"max_clique": False})
