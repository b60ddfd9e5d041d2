import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptforge import finite_rep as fr
from gptforge.errors import DomainError, ResourceError
from oracles import (
    closed_under_composition,
    conjugacy_classes_oracle,
    fixed_vector_multiplicity,
    frobenius_schur_element_sum,
    gelfand_oracle,
    invariant_bilinear_type,
    irrep_matrices,
)

GROUPS = {
    **{f"S{n}": (lambda n=n: fr.symmetric_group(n)) for n in (3, 4, 5)},
    **{f"D{n}": (lambda n=n: fr.dihedral_group(n)) for n in (5, 6, 7, 8)},
    "Q8": fr.quaternion_group,
    "Z6": lambda: fr.cyclic_group(6),
}


class TestGenerateGroup:
    def test_s3_closure(self, s3):
        assert s3.order == 6
        assert s3.degree == 3

    def test_empty_generators(self):
        g = fr.generate_group([])
        assert g.order == 1

    def test_z4(self):
        g = fr.cyclic_group(4)
        assert g.order == 4

    def test_cap(self):
        with pytest.raises(ResourceError):
            fr.generate_group([(1, 0, 2), (1, 2, 0)], max_order=3)

    def test_mixed_degrees(self):
        with pytest.raises(DomainError):
            fr.generate_group([(1, 0), (1, 2, 0)])


class TestConjugacyClasses:
    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_match_all_pairs_definition(self, name):
        g = GROUPS[name]()
        classes, class_of = fr.conjugacy_classes(g)
        assert classes == conjugacy_classes_oracle(g)
        assert all(class_of[x] == k for k, c in enumerate(classes) for x in c)


class TestCharacterTable:
    def test_s3_dimensions(self, s3_table):
        assert s3_table.dims == (1, 1, 2)

    def test_trivial_group(self):
        t = fr.character_table(fr.generate_group([]))
        assert t.dims == (1,)
        assert t.chars[0, 0] == 1

    def test_z4_roots_of_unity(self):
        t = fr.character_table(fr.cyclic_group(4))
        assert t.dims == (1, 1, 1, 1)
        roots = np.exp(2j * np.pi * np.arange(4) / 4)
        gen_class = t.class_of[t.group.index[(1, 2, 3, 0)]]
        vals = sorted(np.round(t.chars[:, gen_class], 8))
        assert np.allclose(sorted(roots, key=lambda z: (z.real, z.imag)),
                           vals, atol=1e-8)

    @pytest.mark.parametrize("maker", [
        lambda: fr.symmetric_group(3),
        lambda: fr.symmetric_group(4),
        lambda: fr.dihedral_group(4),
        lambda: fr.quaternion_group(),
        lambda: fr.cyclic_group(6),
        lambda: fr.dihedral_group(6),
    ])
    def test_orthogonality_and_dims(self, maker):
        g = maker()
        t = fr.character_table(g)
        sizes = np.array(t.class_sizes, dtype=float)
        gram = (t.chars * sizes) @ t.chars.conj().T / g.order
        assert np.max(np.abs(gram - np.eye(t.n_irreps))) < 1e-8
        assert sum(d * d for d in t.dims) == g.order
        # columns too
        col = t.chars.conj().T @ t.chars
        expect = np.diag(g.order / sizes)
        assert np.max(np.abs(col - expect)) < 1e-7

    def test_q8_has_one_2dim(self, q8):
        t = fr.character_table(q8)
        assert t.dims == (1, 1, 1, 1, 2)


class TestRestrictionMultiplicity:
    def test_s3_standard_on_swap(self, s3, s3_table):
        h = fr.subgroup_from_generators(s3, [(1, 0, 2)])
        assert fr.trivial_restriction_multiplicity(s3_table, 2, h) == 1

    def test_trivial_subgroup_gives_dim(self, s3, s3_table):
        h = fr.trivial_subgroup(s3)
        for i in range(3):
            assert (fr.trivial_restriction_multiplicity(s3_table, i, h)
                    == s3_table.dims[i])

    def test_trivial_character_always_one(self, s3, s3_table):
        for h in [fr.trivial_subgroup(s3),
                  fr.subgroup_from_generators(s3, [(1, 0, 2)]),
                  fr.full_subgroup(s3)]:
            assert fr.trivial_restriction_multiplicity(s3_table, 0, h) == 1

    @pytest.mark.parametrize("gens", [[(1, 0, 2)], [(1, 2, 0)], []])
    def test_permutation_character_sum(self, s3, s3_table, gens):
        h = (fr.subgroup_from_generators(s3, gens) if gens
             else fr.trivial_subgroup(s3))
        total = sum(
            fr.trivial_restriction_multiplicity(s3_table, i, h) * s3_table.dims[i]
            for i in range(3)
        )
        assert total == s3.order // h.order


class TestGelfand:
    def test_s3_swap_is_gelfand(self, s3):
        h = fr.subgroup_from_generators(s3, [(1, 0, 2)])
        assert fr.is_gelfand_pair(s3, h).gelfand

    def test_s3_trivial_not_gelfand(self, s3, s3_table):
        d = fr.is_gelfand_pair(s3, fr.trivial_subgroup(s3))
        assert not d.gelfand
        assert s3_table.dims[d.witness_irrep] == 2
        assert d.witness_multiplicity == 2

    def test_full_subgroup_always_gelfand(self, s3, s4, q8):
        for g in (s3, s4, q8):
            assert fr.is_gelfand_pair(g, fr.full_subgroup(g)).gelfand

    def test_against_fixed_vector_oracle(self, s4):
        t = fr.character_table(s4)
        subs = [
            fr.trivial_subgroup(s4),
            fr.subgroup_from_generators(s4, [(1, 0, 2, 3)]),
            fr.subgroup_from_generators(s4, [(1, 0, 3, 2)]),
            fr.subgroup_from_generators(s4, [(1, 0, 2, 3), (0, 1, 3, 2)]),
            fr.subgroup_from_generators(s4, [(1, 2, 0, 3)]),
            fr.subgroup_from_generators(s4, [(1, 0, 2, 3), (1, 2, 0, 3)]),
        ]
        for h in subs:
            assert fr.is_gelfand_pair(s4, h, table=t).gelfand == \
                gelfand_oracle(s4, t, h)

    def test_multiplicities_match_oracle(self, s3, s3_table):
        h = fr.subgroup_from_generators(s3, [(1, 0, 2)])
        for i in range(3):
            assert fr.trivial_restriction_multiplicity(s3_table, i, h) == \
                fixed_vector_multiplicity(s3, s3_table, i, h)


class TestFrobeniusSchur:
    def test_trivial_character(self, s3_table):
        assert fr.frobenius_schur(s3_table, 0) == 1

    def test_s3_standard_real(self, s3_table):
        assert fr.frobenius_schur(s3_table, 2) == 1

    def test_q8_two_dim_quaternionic(self, q8):
        t = fr.character_table(q8)
        assert fr.frobenius_schur(t, 4) == -1

    @pytest.mark.parametrize("name", ["S5", "D6", "Q8"])
    def test_class_sum_matches_element_sum(self, name):
        t = fr.character_table(GROUPS[name]())
        for i in range(t.n_irreps):
            assert abs(fr.frobenius_schur(t, i)
                       - frobenius_schur_element_sum(t, i)) < 1e-8

    def test_z4_has_complex_pair(self):
        t = fr.character_table(fr.cyclic_group(4))
        inds = sorted(fr.frobenius_schur(t, i) for i in range(4))
        assert inds == [0, 0, 1, 1]

    @pytest.mark.parametrize("maker", [
        lambda: fr.cyclic_group(3),
        lambda: fr.cyclic_group(4),
        lambda: fr.symmetric_group(3),
        lambda: fr.dihedral_group(4),
        lambda: fr.quaternion_group(),
        lambda: fr.generate_group([(1, 0, 2, 3), (0, 1, 3, 2)]),  # Z2 x Z2
    ])
    def test_against_bilinear_form_oracle(self, maker):
        g = maker()
        t = fr.character_table(g)
        rng = np.random.default_rng(11)
        names = {1: "real", 0: "complex", -1: "quaternionic"}
        for i in range(t.n_irreps):
            mats = irrep_matrices(g, t, i, rng)
            assert names[fr.frobenius_schur(t, i)] == \
                invariant_bilinear_type(mats, rng)


class TestStructureEnumeration:
    def test_s3_cap3(self, s3):
        h = fr.subgroup_from_generators(s3, [(1, 0, 2)])
        out = fr.count_probabilistic_structures(s3, h, 3)
        assert out == [(0,), (2,), (0, 2)]

    def test_cap_zero(self, s3):
        h = fr.subgroup_from_generators(s3, [(1, 0, 2)])
        assert fr.count_probabilistic_structures(s3, h, 0) == []

    def test_full_subgroup_only_trivial(self, s4):
        out = fr.count_probabilistic_structures(s4, fr.full_subgroup(s4), 10)
        assert out == [(0,)]

    def test_complex_pairs_merged(self):
        g = fr.cyclic_group(4)
        h = fr.trivial_subgroup(g)
        out = fr.count_probabilistic_structures(g, h, 2)
        # units: trivial (dim 1), the other real character (dim 1),
        # and the conjugate pair (real dim 2)
        flat = set(out)
        assert (0,) in flat
        pair_units = [u for u in flat if len(u) == 2 and u[0] != u[1]]
        assert pair_units, "expected a merged conjugate pair"

    def test_non_gelfand_rejected(self, s3):
        with pytest.raises(DomainError, match="not a Gelfand pair"):
            fr.count_probabilistic_structures(s3, fr.trivial_subgroup(s3), 5)


class TestSubgroups:
    def test_not_closed(self, s3):
        three_cycle = s3.index[(1, 2, 0)]
        with pytest.raises(DomainError):
            fr.Subgroup(s3, (0, three_cycle))

    @pytest.mark.parametrize("members", [(0, 0, "sw", "sw"), (0, "sw", "sw"),
                                         (0, 99)])
    def test_repeated_or_out_of_range_members(self, s3, members):
        sw = s3.index[(1, 0, 2)]
        with pytest.raises(DomainError):
            fr.Subgroup(s3, tuple(sw if m == "sw" else m for m in members))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 23), max_size=2),
           st.sets(st.integers(1, 23), max_size=3))
    def test_raises_exactly_when_not_closed(self, s4, gens, extra):
        # a generated subgroup with a few extra elements: closed or not
        members = tuple(sorted(
            set(fr.subgroup_from_generators(s4, gens).members) | extra))
        if closed_under_composition(s4, members):
            assert fr.Subgroup(s4, members).order == len(members)
        else:
            with pytest.raises(DomainError):
                fr.Subgroup(s4, members)

    def test_foreign_generator(self, s3):
        with pytest.raises(DomainError):
            fr.subgroup_from_generators(s3, [(1, 0, 3, 2)])


class TestResourceCaps:
    def test_character_table_order_cap(self, s4):
        with pytest.raises(ResourceError):
            fr.character_table(s4, order_cap=10)
