from fractions import Fraction
from itertools import combinations

import pytest

from rainbowgraphs.rng import substream
from rainbowgraphs.targets import (
    FAMILIES,
    TargetGraph,
    build_target,
    density_profile,
    make_cycle,
    make_grid,
    make_hypercube,
    make_matching,
    make_path,
    pad_target,
    random_tree,
)


def brute_profile_table(h):
    """Independent oracle: maximum H-edge count over every vertex subset of
    each size, by raw enumeration."""
    edges = set(h.edges)
    table = {}
    for x in range(3, h.n_H + 1):
        table[x] = max(
            sum(1 for e in combinations(sorted(w), 2) if e in edges)
            for w in combinations(range(h.n_H), x)
        )
    return table


class TestConstructions:
    @pytest.mark.parametrize("m,delta", [(2, 2), (3, 4), (4, 4)])
    def test_grid(self, m, delta):
        g = make_grid(m)
        assert g.n_H == m * m
        assert g.e_total == 2 * m * (m - 1)
        assert g.delta == delta

    def test_grid_edge_count_sweep(self):
        for m in range(2, 11):
            assert make_grid(m).e_total == 2 * m * (m - 1)

    def test_hypercube(self):
        q1 = make_hypercube(1)
        assert q1.n_H == 2 and q1.e_total == 1
        q3 = make_hypercube(3)
        assert q3.n_H == 8 and q3.e_total == 12 and q3.delta == 3

    def test_cycle_path_matching(self):
        assert make_cycle(3).delta == 2
        assert make_cycle(3).e_total == 3
        assert make_path(5).e_total == 4
        m4 = make_matching(4)
        assert m4.e_total == 2 and m4.delta == 1
        with pytest.raises(ValueError):
            make_matching(5)

    def test_random_tree(self):
        for t in range(50):
            n = 3 + t % 10
            tree = random_tree(n, substream(1, t))
            assert tree.e_total == n - 1
            # connectivity via union-find
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for u, v in tree.edges:
                parent[find(u)] = find(v)
            assert len({find(v) for v in range(n)}) == 1

    def test_random_tree_deterministic(self):
        a = random_tree(9, substream(2, "t"))
        b = random_tree(9, substream(2, "t"))
        assert a == b


class TestDensityProfile:
    def test_triangle(self):
        p = density_profile(make_cycle(3))
        assert p.table == {3: 3}
        assert p.gamma == 3.0

    def test_c5(self):
        p = density_profile(make_cycle(5), exact=True)
        assert p.table == {3: 2, 4: 3, 5: 5}
        assert p.gamma == 2.0

    def test_grid3_unit_square(self):
        p = density_profile(make_grid(3), exact=True)
        assert p.table[4] == 4
        assert p.gamma == 2.0
        assert p.argmax_x == 3  # e_H(3)=2 ties the unit square's 4/2; smallest x wins

    def test_q3(self):
        p = density_profile(make_hypercube(3), exact=True)
        assert p.table[8] == 12
        assert p.table[8] / (8 - 2) == 2.0
        assert p.gamma == 2.0

    def test_cycle_gammas(self):
        assert density_profile(make_cycle(4)).gamma == 2.0
        for n in range(5, 13):
            assert density_profile(make_cycle(n)).gamma == 2.0

    def test_monotone_tables(self):
        for h in (make_grid(3), make_hypercube(3), make_cycle(9), make_path(8)):
            p = density_profile(h, exact=True)
            vals = [p.table[x] for x in sorted(p.table)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))
            assert vals[-1] == h.e_total

    def test_closed_form_matches_bruteforce(self):
        for h in (
            make_grid(2),
            make_grid(3),
            make_grid(4),
            make_hypercube(2),
            make_hypercube(3),
            make_hypercube(4),
            *[make_cycle(n) for n in range(3, 13)],
        ):
            closed = density_profile(h)
            exact = density_profile(h, exact=True)
            assert closed.table == exact.table, h.name
            assert closed.gamma == exact.gamma

    def test_bruteforce_matches_raw_enumeration(self):
        for h in (make_grid(3), make_hypercube(3), make_cycle(7), make_path(7)):
            p = density_profile(h, exact=True)
            assert p.table == brute_profile_table(h)

    def test_matching_profile(self):
        p = density_profile(make_matching(8))
        assert p.table[3] == 1
        assert p.table[8] == 4

    def test_size_cap(self):
        with pytest.raises(ValueError):
            density_profile(make_path(30))
        # closed forms are fine beyond the cap
        assert density_profile(make_cycle(200)).gamma == 2.0
        assert density_profile(make_grid(6)).table[36] == 60
        assert density_profile(make_hypercube(5)).table[32] == 80


class TestFamilyTag:
    def test_constructors_tag_their_family(self):
        for family in FAMILIES:
            size = 3 if family in ("grid", "hypercube") else 6
            assert build_target(family, size, 0).family == family

    def test_untagged_graph_is_enumerated_whatever_its_name(self):
        # K5 named like a cycle: the cycle closed form would give gamma 2
        k5 = TargetGraph(
            name="Complete5", n_H=5, edges=tuple(combinations(range(5), 2))
        )
        assert k5.family is None
        p = density_profile(k5)
        assert p.table == {3: 3, 4: 6, 5: 10}
        assert p.gamma == float(Fraction(10, 3))

    def test_padded_cycle_has_its_true_profile(self):
        padded = pad_target(make_cycle(5), 8)
        assert padded.family is None and padded.n_H == 8 and padded.e_total == 5
        p = density_profile(padded)
        assert p.table == brute_profile_table(padded)
        assert p.table[8] == 5

    def test_pad_keeps_spanning_target_and_rejects_oversized(self):
        c6 = make_cycle(6)
        assert pad_target(c6, 6) is c6
        with pytest.raises(ValueError):
            pad_target(c6, 5)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            build_target("wheel", 6, 0)
