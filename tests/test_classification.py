from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptforge import classification as cl
from gptforge import compact_rep as cr
from gptforge import finite_rep as fr
from gptforge.errors import DomainError, ResourceError
from oracles import gelfand_tsetlin_count


class TestSphericalPartitions:
    def test_rank_one_projective_line(self):
        out = cl.spherical_partitions(1, 1, 1)
        assert out == [(2, 0), (0, 0)]

    def test_qutrit_case(self):
        out = cl.spherical_partitions(1, 2, 1)
        assert out == [(2, 1, 0), (0, 0, 0)]

    def test_two_two_case(self):
        out = cl.spherical_partitions(2, 2, 1)
        assert set(out) == {(0, 0, 0, 0), (2, 1, 1, 0), (2, 2, 0, 0)}

    def test_count_formula(self):
        for m in range(1, 4):
            for n in range(m, 4):
                for b in range(5):
                    assert len(cl.spherical_partitions(m, n, b)) == comb(b + m, m)

    def test_swapped_arguments_rejected(self):
        with pytest.raises(DomainError, match="swap"):
            cl.spherical_partitions(2, 1, 1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 3))
    def test_dynkin_palindromic(self, m, extra, b1_max):
        n = m + extra
        for lam in cl.spherical_partitions(m, n, b1_max):
            j = cl.partition_to_dynkin(lam)
            assert j == tuple(reversed(j))


class TestDynkin:
    def test_adjoint(self):
        assert cl.partition_to_dynkin((2, 1, 0)) == (1, 1)

    def test_zeros(self):
        assert cl.partition_to_dynkin((0, 0, 0, 0)) == (0, 0, 0)

    def test_spin_one(self):
        assert cl.partition_to_dynkin((2, 0)) == (2,)

    def test_invalid_partition(self):
        with pytest.raises(DomainError):
            cl.partition_to_dynkin((1, 2, 0))
        with pytest.raises(DomainError):
            cl.partition_to_dynkin((2, 1))


class TestRealityType:
    def test_su3_adjoint_real(self):
        assert cl.reality_type((1, 1)) == "real"

    def test_su3_fundamental_complex(self):
        assert cl.reality_type((1, 0)) == "complex"

    def test_su2_spin_half_quaternionic(self):
        assert cl.reality_type((1,)) == "quaternionic"

    def test_su2_spin_one_real(self):
        assert cl.reality_type((2,)) == "real"

    def test_d_mod_four_rule(self):
        assert cl.reality_type((1, 0, 1)) == "real"  # d = 4
        assert cl.reality_type((1, 0, 1, 0, 1)) == "quaternionic"  # d = 6, odd centre
        assert cl.reality_type((0, 1, 2, 1, 0)) == "real"  # d = 6, even centre

    def test_against_finite_indicators(self, q8):
        # the 2-dim irrep of the quaternion subgroup of SU(2) is the
        # restricted spin-1/2; its indicator matches the Dynkin rule
        t = fr.character_table(q8)
        assert fr.frobenius_schur(t, 4) == -1
        assert cl.reality_type((1,)) == "quaternionic"
        # spin-1 restricted to the quaternion subgroup splits into sign
        # characters, each with indicator +1, matching its real type
        assert cl.reality_type((2,)) == "real"
        assert all(fr.frobenius_schur(t, i) == 1 for i in range(4))


class TestAudit:
    @pytest.mark.parametrize("mnb", [(1, 2, 3), (2, 2, 2), (1, 1, 0),
                                     (2, 3, 2), (3, 3, 2)])
    def test_all_real(self, mnb):
        audit = cl.spherical_reality_audit(*mnb)
        assert audit.all_real
        assert all(r.type == "real" for r in audit.rows)

    def test_trivial_cap(self):
        audit = cl.spherical_reality_audit(1, 1, 0)
        assert len(audit.rows) == 1
        assert audit.rows[0].partition == (0, 0)


class TestIrrepDimension:
    def test_su3_adjoint(self):
        assert cl.irrep_dimension((2, 1, 0)) == 8

    def test_trivial(self):
        assert cl.irrep_dimension((0, 0, 0, 0, 0)) == 1

    def test_spin_one(self):
        assert cl.irrep_dimension((2, 0)) == 3

    def test_gelfand_tsetlin_oracle(self):
        partitions = [
            (2, 1, 0), (2, 0), (3, 1, 0), (2, 2, 1, 0), (4, 2, 1, 0),
            (3, 3, 0), (2, 1, 1, 0), (4, 0), (3, 2, 1, 0),
        ]
        for lam in partitions:
            assert cl.irrep_dimension(lam) == gelfand_tsetlin_count(lam)

    def test_overflow(self):
        with pytest.raises(ResourceError):
            cl.irrep_dimension((2**64, 0))


class TestCatalog:
    def test_five_entries(self):
        entries = cl.two_point_catalog()
        assert len(entries) == 5
        assert all(e.gelfand for e in entries)

    def test_complex_projective_row(self):
        [e] = [e for e in cl.two_point_catalog() if e.space == "PC^d"]
        assert e.group == "SU(d)"
        assert e.stabilizer == "S(U(d-1) x U(1))"

    def test_sphere_row(self):
        [e] = [e for e in cl.two_point_catalog() if e.coset == "SO(d)/SO(d-1)"]
        assert e.space == "S^(d-1)"

    def test_cayley_plane_row(self):
        [e] = [e for e in cl.two_point_catalog() if e.space == "PO^3"]
        assert e.coset == "F(4)/Spin(9)"
        assert (e.group, e.stabilizer) == ("F(4)", "Spin(9)")

    def test_grassmann_descriptors(self):
        spaces = cl.grassmann_spaces(1, 2)
        assert [s["field"] for s in spaces] == ["C", "R", "H"]
        assert spaces[0]["enumerable"] and not spaces[1]["enumerable"]


class TestQuarticReference:
    def test_k2_matrix(self):
        rho = cl.quartic_reference(2)
        assert np.array_equal(rho, np.diag([1.0, 1.0, 0.0, 0.0]))

    def test_trace_and_idempotence(self):
        for k in (2, 3):
            rho = cl.quartic_reference(k)
            assert np.trace(rho) == k
            assert np.array_equal(rho @ rho, rho)

    def test_stabilizer_invariance(self):
        rho = cl.quartic_reference(2)
        h = cr.subgroup_samples(cr.su_adjoint(4), cr.block_subgroup(2, 2), 6, 3)
        for u in h:
            assert np.max(np.abs(u @ rho @ u.conj().T - rho)) < 1e-10

    def test_k_too_small(self):
        with pytest.raises(DomainError):
            cl.quartic_reference(1)
