import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptforge import finite_rep as fr
from gptforge.errors import DomainError, NumericalConsistencyError, ResourceError
from oracles import (
    closed_under_composition,
    conjugacy_classes_oracle,
    fixed_vector_multiplicity,
    frobenius_schur_element_sum,
    gelfand_oracle,
    invariant_bilinear_type,
    irrep_matrices,
    quaternion_product,
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

    def test_quaternion_generators_from_hamilton_product(self):
        # point letter + 4 * (sign < 0) is the unit sign * (1, i, j, k)[letter]
        units = [tuple(sign * int(k == letter) for k in range(4))
                 for sign in (1, -1) for letter in range(4)]

        def right(y):
            return tuple(units.index(quaternion_product(x, units[y]))
                         for x in units)

        assert (right(1), right(2)) == ((1, 4, 7, 2, 5, 0, 3, 6),
                                        (2, 3, 4, 5, 6, 7, 0, 1))
        q8 = fr.quaternion_group()
        assert q8.order == 8
        assert np.array_equal(q8.perms,
                              fr.generate_group([right(1), right(2)]).perms)

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


# ---------------------------------------------------------------------------
# the array route against the tuple route it replaced: breadth-first closure
# over tuples, classes closed under conjugation by the generators, and
# class-constant matrices counted one composition at a time


def _tuple_closure(seeds, steps):
    queue = list(dict.fromkeys(seeds))
    seen = set(queue)
    yield from queue
    for p in queue:  # the queue grows while it is read
        for step in steps:
            q = step(p)
            if q not in seen:
                seen.add(q)
                queue.append(q)
                yield q


def _tuple_inverse(p):
    inv = [0] * len(p)
    for i, pi in enumerate(p):
        inv[pi] = i
    return tuple(inv)


def _tuple_group(gens, degree, max_order):
    """(elements, index, inverses, generators), or None above ``max_order``."""
    steps = [lambda p, g=g: fr.compose(p, g) for g in gens]
    elems = tuple(itertools.islice(
        _tuple_closure([tuple(range(degree))], steps), max_order + 1))
    if len(elems) > max_order:
        return None
    index = {p: i for i, p in enumerate(elems)}
    inverses = tuple(index[_tuple_inverse(p)] for p in elems)
    return elems, index, inverses, tuple(index[g] for g in gens)


def _tuple_classes(ref):
    elems, index, inverses, generators = ref

    def c(i, j):
        return index[fr.compose(elems[i], elems[j])]

    class_of = np.full(len(elems), -1, dtype=int)
    classes = []
    steps = [lambda x, g=g: c(c(g, x), inverses[g]) for g in generators]
    for i in range(len(elems)):
        if class_of[i] < 0:
            orbit = sorted(_tuple_closure([i], steps))
            class_of[orbit] = len(classes)
            classes.append(tuple(orbit))
    return tuple(classes), class_of


def _tuple_class_constants(ref, classes, class_of):
    elems, index, inverses, _ = ref
    k = len(classes)
    mats = np.zeros((k, k, k))
    for l, z in enumerate(c[0] for c in classes):
        for x in range(len(elems)):
            y = index[fr.compose(elems[inverses[x]], elems[z])]
            mats[class_of[x], class_of[y], l] += 1.0
    return mats


def _assert_same_as_tuple_route(gens, degree, max_order, constants=True):
    ref = _tuple_group(gens, degree, max_order)
    if ref is None:
        with pytest.raises(ResourceError):
            fr.generate_group(gens, degree=degree, max_order=max_order)
        return
    g = fr.generate_group(gens, degree=degree, max_order=max_order)
    elems, index, inverses, generators = ref
    assert g.elements == elems
    assert all(g.index[p] == i for p, i in index.items())
    assert np.array_equal(g.index[g.perms], np.arange(g.order))
    assert tuple(g.inverses.tolist()) == inverses
    assert g.generators == generators
    classes, class_of = fr.conjugacy_classes(g)
    want_classes, want_class_of = _tuple_classes(ref)
    assert classes == want_classes
    assert np.array_equal(class_of, want_class_of)
    if constants:
        assert np.array_equal(
            fr._class_constant_matrices(g, classes, class_of,
                                        range(len(classes))),
            _tuple_class_constants(ref, want_classes, want_class_of))
    # the subgroup of the first generator, closed one composition at a time
    first = elems[generators[0]]
    want = sorted(_tuple_closure(
        [0], [lambda i: index[fr.compose(elems[i], first)]]))
    assert fr.subgroup_from_generators(g, [first]).members == tuple(want)
    # the cap: the order itself passes, one less refuses
    assert fr.generate_group(gens, degree=degree, max_order=g.order).order \
        == g.order
    if g.order > 1:
        with pytest.raises(ResourceError):
            fr.generate_group(gens, degree=degree, max_order=g.order - 1)


@st.composite
def _generator_lists(draw):
    degree = draw(st.integers(1, 8))
    return degree, draw(st.lists(st.permutations(range(degree)),
                                 min_size=1, max_size=3))


class TestArrayRouteMatchesTupleRoute:
    @settings(max_examples=60, deadline=None)
    @given(_generator_lists())
    def test_random_groups(self, case):
        degree, gens = case
        _assert_same_as_tuple_route([tuple(g) for g in gens], degree, 720)

    def test_cyclic_on_30_points(self):
        # 30 points: an int64 positional code of a row would overflow
        _assert_same_as_tuple_route([tuple(range(1, 30)) + (0,)], 30, 100)

    def test_klein_four_on_64_points(self):
        a = tuple(i ^ 1 for i in range(64))
        b = tuple(i ^ 2 for i in range(64))
        _assert_same_as_tuple_route([a, b], 64, 100)

    def test_cyclic_on_300_points(self):
        # rows wider than one byte per point
        _assert_same_as_tuple_route([tuple(range(1, 300)) + (0,)], 300, 300,
                                    constants=False)

    @settings(max_examples=60, deadline=None)
    @given(_generator_lists(), st.data())
    def test_class_subsets_slice_all_classes(self, case, data):
        degree, gens = case
        try:
            g = fr.generate_group([tuple(p) for p in gens], degree=degree,
                                  max_order=720)
        except ResourceError:
            return
        classes, class_of = fr.conjugacy_classes(g)
        which = data.draw(st.lists(st.integers(0, len(classes) - 1),
                                   min_size=1, unique=True))
        full = fr._class_constant_matrices(g, classes, class_of,
                                           range(len(classes)))
        assert np.array_equal(
            fr._class_constant_matrices(g, classes, class_of, which),
            full[which])

    def test_index_refuses_non_elements(self, s3):
        assert (1, 0, 2) in s3.index
        for p in [(1, 0, 3, 2), (0, 1), (0, 1, 3), (0, 1, -1)]:
            assert p not in s3.index
        klein = fr.generate_group([(1, 0, 3, 2), (2, 3, 0, 1)])
        assert (1, 0, 2, 3) not in klein.index
        with pytest.raises(KeyError):
            klein.index[(1, 0, 2, 3)]


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

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_irreps_in_rounded_key_order(self, name):
        # the order a sort of each row's rounded key gives, written inline
        chars = fr.character_table(GROUPS[name]()).chars
        k = chars.shape[0]
        order = sorted(range(k), key=lambda i: (np.round(chars[i, 0].real, 8),)
                       + tuple((-np.round(chars[i, l].real, 8),
                                -np.round(chars[i, l].imag, 8))
                               for l in range(k)))
        assert order == list(range(k))

    @pytest.mark.parametrize("name", ["S3", "S4", "D5"])
    def test_no_retries_on_small_groups(self, name):
        g = {"S3": lambda: fr.symmetric_group(3), **GROUPS}[name]()
        assert fr.character_table(g).retries == 0

    def test_generator_classes_suffice_for_s7(self):
        t = fr.character_table(fr.symmetric_group(7))
        assert t.classes_used == 2
        assert t.n_irreps == 15

    def test_all_classes_when_generator_classes_do_not_separate(self):
        # a 4-cycle, a 3-cycle and a 4-cycle: their two classes give
        # [4,1] and [2,1,1,1] the same central characters
        g = fr.generate_group([(3, 1, 0, 4, 2), (3, 1, 0, 2, 4),
                               (0, 2, 3, 4, 1)])
        t = fr.character_table(g)
        assert t.retries >= 1 and t.classes_used == len(t.classes) == 7
        # the same group, every element a generator: all classes from the
        # first combination on
        every = fr.character_table(
            dataclasses.replace(g, generators=tuple(range(g.order))))
        assert every.retries == 0 and every.classes_used == 7
        assert every.classes == t.classes
        assert every.dims == t.dims
        assert np.max(np.abs(every.chars - t.chars)) < 1e-9

    def test_memory_of_a_large_abelian_table(self):
        # 300 classes: a (k, k, k) count array alone would be 216 MB
        g = fr.cyclic_group(300)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            assert fr.character_table(g).n_irreps == 300
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


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
                  fr.Subgroup(s3, tuple(range(s3.order)))]:
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
    def test_s3_swap_is_gelfand(self, s3, s3_table):
        h = fr.subgroup_from_generators(s3, [(1, 0, 2)])
        assert fr.is_gelfand_pair(s3_table, h).gelfand

    def test_s3_trivial_not_gelfand(self, s3, s3_table):
        d = fr.is_gelfand_pair(s3_table, fr.trivial_subgroup(s3))
        assert not d.gelfand
        assert s3_table.dims[d.witness_irrep] == 2
        assert d.witness_multiplicity == 2

    def test_full_subgroup_always_gelfand(self, s3, s4, q8):
        for g in (s3, s4, q8):
            full = fr.Subgroup(g, tuple(range(g.order)))
            assert fr.is_gelfand_pair(fr.character_table(g), full).gelfand

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
            assert fr.is_gelfand_pair(t, h).gelfand == \
                gelfand_oracle(s4, t, h)

    def test_double_coset_count_by_enumeration(self, s4):
        t = fr.character_table(s4)
        perms = [tuple(p) for p in s4.perms.tolist()]
        for gens in ([], [(1, 0, 2, 3)], [(1, 0, 3, 2), (2, 3, 0, 1)],
                     [(1, 0, 2, 3), (1, 2, 0, 3)], [(1, 2, 3, 0)]):
            h = fr.subgroup_from_generators(s4, gens)
            members = [perms[i] for i in h.members]
            cosets = {frozenset(fr.compose(fr.compose(a, g), b)
                                for a in members for b in members)
                      for g in perms}
            count, index = fr._double_coset_count(t, h)
            assert (count, index) == (len(cosets), 24 // h.order)

    @pytest.mark.parametrize("corrupt", [
        lambda m: m[:1] + (m[1] + 1,) + m[2:],  # sum m_i^2 != |H\G/H|
        lambda m: (m[2], m[1], m[0]),  # sum m_i^2 kept, sum m_i d_i not
    ])
    def test_corrupted_multiplicity_refused(self, s3, s3_table, monkeypatch,
                                            corrupt):
        h = fr.trivial_subgroup(s3)  # multiplicities (1, 1, 2) = dims
        mults = corrupt(tuple(fr.trivial_restriction_multiplicity(s3_table, i, h)
                              for i in range(3)))
        monkeypatch.setattr(fr, "trivial_restriction_multiplicity",
                            lambda table, i, sub: mults[i])
        with pytest.raises(NumericalConsistencyError):
            fr.is_gelfand_pair(s3_table, h)

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
    def test_s3_cap3(self, s3, s3_table):
        h = fr.subgroup_from_generators(s3, [(1, 0, 2)])
        units = fr.spherical_units(s3_table, fr.is_gelfand_pair(s3_table, h))
        out = fr.count_probabilistic_structures(units, 3)
        assert out == [(0,), (2,), (0, 2)]

    def test_cap_zero(self, s3, s3_table):
        h = fr.subgroup_from_generators(s3, [(1, 0, 2)])
        units = fr.spherical_units(s3_table, fr.is_gelfand_pair(s3_table, h))
        assert fr.count_probabilistic_structures(units, 0) == []

    def test_full_subgroup_only_trivial(self, s4):
        t = fr.character_table(s4)
        full = fr.Subgroup(s4, tuple(range(s4.order)))
        units = fr.spherical_units(t, fr.is_gelfand_pair(t, full))
        out = fr.count_probabilistic_structures(units, 10)
        assert out == [(0,)]

    def test_complex_pairs_merged(self):
        g = fr.cyclic_group(4)
        h = fr.trivial_subgroup(g)
        t = fr.character_table(g)
        out = fr.count_probabilistic_structures(
            fr.spherical_units(t, fr.is_gelfand_pair(t, h)), 2)
        # units: trivial (dim 1), the other real character (dim 1),
        # and the conjugate pair (real dim 2)
        flat = set(out)
        assert (0,) in flat
        pair_units = [u for u in flat if len(u) == 2 and u[0] != u[1]]
        assert pair_units, "expected a merged conjugate pair"

    def test_non_gelfand_rejected(self, s3, s3_table):
        with pytest.raises(DomainError, match="not a Gelfand pair"):
            decision = fr.is_gelfand_pair(s3_table, fr.trivial_subgroup(s3))
            fr.count_probabilistic_structures(
                fr.spherical_units(s3_table, decision), 5)


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

    @pytest.mark.parametrize("index", [-1, 6, 99, np.int64(-1)])
    def test_generator_index_out_of_range(self, s3, index):
        with pytest.raises(DomainError, match="outside"):
            fr.subgroup_from_generators(s3, [index])

    def test_numpy_integer_generator(self, s3):
        sw = s3.index[(1, 0, 2)]
        by_int = fr.subgroup_from_generators(s3, [sw])
        by_numpy = fr.subgroup_from_generators(s3, [np.int64(sw)])
        assert by_numpy.members == by_int.members and by_int.order == 2

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

    def test_generated_subgroup_closed_once(self, s4, monkeypatch):
        # the closure that builds the subgroup is its only generate_group call
        calls = []
        generate_group = fr.generate_group

        def counting(*args, **kwargs):
            calls.append(args)
            return generate_group(*args, **kwargs)

        monkeypatch.setattr(fr, "generate_group", counting)
        sub = fr.subgroup_from_generators(s4, [(1, 0, 2, 3), (0, 1, 3, 2)])
        assert len(calls) == 1 and sub.order == 4
        assert closed_under_composition(s4, sub.members)

    def test_foreign_generator(self, s3):
        with pytest.raises(DomainError):
            fr.subgroup_from_generators(s3, [(1, 0, 3, 2)])

