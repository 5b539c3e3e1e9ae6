import math
from math import factorial

import numpy as np
import pytest

from nucshift import HalfInteger, clebsch_gordan, make_spin_operators


def racah_cg(j1, j2, j3, m1, m2, m3):
    """Independent Clebsch-Gordan oracle: the closed factorial-sum formula.

    Kept deliberately separate from the ladder-recursion implementation under
    test; both must agree in the Condon-Shortley convention.
    """
    if m3 != m1 + m2:
        return 0.0
    if j3 < abs(j1 - j2) or j3 > j1 + j2:
        return 0.0

    def fact(x):
        n = round(x)
        assert abs(x - n) < 1e-9
        return factorial(n)

    pref = math.sqrt(
        (2.0 * j3 + 1.0)
        * fact(j1 + j2 - j3) * fact(j1 - j2 + j3) * fact(-j1 + j2 + j3)
        / fact(j1 + j2 + j3 + 1)
        * fact(j1 + m1) * fact(j1 - m1)
        * fact(j2 + m2) * fact(j2 - m2)
        * fact(j3 + m3) * fact(j3 - m3)
    )
    kmin = round(max(0.0, j2 - j3 - m1, j1 - j3 + m2))
    kmax = round(min(j1 + j2 - j3, j1 - m1, j2 + m2))
    s = 0.0
    for k in range(kmin, kmax + 1):
        s += (-1.0) ** k / (
            fact(k) * fact(j1 + j2 - j3 - k) * fact(j1 - m1 - k)
            * fact(j2 + m2 - k) * fact(j3 - j2 + m1 + k) * fact(j3 - j1 - m2 + k)
        )
    return pref * s


class TestHalfInteger:
    def test_coerce_exact(self):
        assert HalfInteger.coerce(0.5).twice == 1
        assert HalfInteger.coerce(4.5).twice == 9
        assert HalfInteger.coerce(3).twice == 6
        assert HalfInteger.coerce(HalfInteger(7)).twice == 7

    def test_coerce_rejects_off_grid(self):
        with pytest.raises(ValueError):
            HalfInteger.coerce(0.3)

    def test_arithmetic_is_exact(self):
        a = HalfInteger(9)
        b = HalfInteger(2)
        assert (a + b).twice == 11
        assert (a - b).twice == 7
        assert (-b).twice == -2
        assert a > b
        assert float(a) == 4.5
        assert str(a) == "9/2"
        assert str(HalfInteger(4)) == "2"

    def test_rejects_non_integer_storage(self):
        with pytest.raises(TypeError):
            HalfInteger(1.5)


class TestSpinOperators:
    def test_spin_half_is_half_pauli(self):
        ops = make_spin_operators(HalfInteger(1))
        assert np.allclose(ops.iz, np.diag([-0.5, 0.5]))
        assert np.allclose(ops.ix, 0.5 * np.array([[0, 1], [1, 0]]))
        assert np.allclose(ops.iy, 0.5 * np.array([[0, 1j], [-1j, 0]]).conj().T)

    def test_spin_one_iz(self):
        ops = make_spin_operators(HalfInteger(2))
        assert np.allclose(ops.iz, np.diag([-1.0, 0.0, 1.0]))

    def test_spin_nine_half_casimir(self):
        ops = make_spin_operators(HalfInteger(9))
        assert np.allclose(ops.total_squared(), 24.75 * np.eye(10), atol=1e-13)

    @pytest.mark.parametrize("twice", [1, 9, 21])
    def test_cached_products_are_read_only_and_rebuilt_equal(self, twice):
        ops = make_spin_operators(HalfInteger(twice))
        ix, iy, iz = ops.vector()
        ix_rot, iy_rot = (ix - iy) / math.sqrt(2.0), (ix + iy) / math.sqrt(2.0)
        expected = {
            "total_squared": ix @ ix + iy @ iy + iz @ iz,
            "eye": np.eye(ops.dimension, dtype=complex),
            "iz_sq": iz @ iz,
            "ixy_anticomm": ix @ iy + iy @ ix,
            "ix_rot_sq": ix_rot @ ix_rot,
            "iy_rot_sq": iy_rot @ iy_rot,
            "ix": ix.copy(), "iy": iy.copy(), "iz": iz.copy(),
        }

        def matrix(source, name):
            return source.total_squared() if name == "total_squared" else getattr(source, name)

        again = make_spin_operators(HalfInteger(twice))
        for name, want in expected.items():
            assert np.array_equal(matrix(again, name), want), name
            shared = matrix(ops, name)
            assert np.array_equal(shared, want), name
            with pytest.raises(ValueError, match="read-only"):
                shared[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                shared += 1.0

    def test_equality_and_hash(self):
        ops = make_spin_operators(HalfInteger(3))
        same = make_spin_operators(HalfInteger(3))
        assert (ops == same) is True
        assert (ops != make_spin_operators(HalfInteger(5))) is True
        assert hash(ops) == hash(same)
        assert ops != "ops"
        table = {ops: "3/2"}
        assert table[same] == "3/2"
        assert make_spin_operators(HalfInteger(5)) not in table

    def test_rejects_zero_spin(self):
        with pytest.raises(ValueError):
            make_spin_operators(HalfInteger(0))

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            make_spin_operators(HalfInteger(127), max_dimension=64)
        make_spin_operators(HalfInteger(127), max_dimension=128)

    @pytest.mark.parametrize("twice", range(1, 13))
    def test_commutators_and_casimir(self, twice):
        ops = make_spin_operators(HalfInteger(twice))
        x, y, z = ops.vector()
        assert np.abs(x @ y - y @ x - 1j * z).max() <= 1e-14
        assert np.abs(y @ z - z @ y - 1j * x).max() <= 1e-14
        assert np.abs(z @ x - x @ z - 1j * y).max() <= 1e-14
        i = twice / 2.0
        assert np.abs(ops.total_squared() - i * (i + 1) * np.eye(twice + 1)).max() <= 1e-13

    @pytest.mark.parametrize("twice", [1, 2, 5, 9])
    def test_hermitian(self, twice):
        ops = make_spin_operators(HalfInteger(twice))
        for op in ops.vector():
            assert np.abs(op - op.conj().T).max() == 0.0

    @pytest.mark.parametrize("twice", [1, 3, 9])
    def test_ladder_consistency(self, twice):
        # (ix + i iy)|m> = sqrt(i(i+1) - m(m+1)) |m+1>, exact by construction
        ops = make_spin_operators(HalfInteger(twice))
        raising = ops.ix + 1j * ops.iy
        i = twice / 2.0
        for k, m in enumerate(ops.m_values()[:-1]):
            column = raising[:, k]
            expected = np.zeros(ops.dimension, dtype=complex)
            expected[k + 1] = math.sqrt(i * (i + 1) - m * (m + 1))
            assert np.array_equal(column, expected)


class TestClebschGordan:
    def test_stretched_state(self):
        assert clebsch_gordan(1, 0.5, 1, 0.5, 1.5, 1.5) == 1.0

    def test_selection_rule(self):
        assert clebsch_gordan(1, 0.5, 1, -0.5, 1.5, 1.5) == 0.0

    def test_known_value_against_oracle(self):
        # frozen from the factorial-sum oracle: sqrt(2/3)
        expected = racah_cg(1, 0.5, 1.5, 0, 0.5, 0.5)
        assert expected == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)
        got = clebsch_gordan(1, 0.5, 0, 0.5, 1.5, 0.5)
        assert got == pytest.approx(expected, abs=1e-14)

    def test_triangle_violation_raises(self):
        with pytest.raises(ValueError):
            clebsch_gordan(1, 0.5, 0, 0.5, 3.0, 0.5)
        with pytest.raises(ValueError):
            clebsch_gordan(1, 1, 0, 0, 0.5, 0)

    def test_projection_out_of_range_raises(self):
        with pytest.raises(ValueError):
            clebsch_gordan(1, 0.5, 2, 0.5, 1.5, 1.5)
        with pytest.raises(ValueError):
            clebsch_gordan(1, 0.5, 0.5, 0.5, 1.5, 1.0)

    @pytest.mark.parametrize("tj1,tj2", [(2, 1), (2, 3), (2, 9), (3, 2), (4, 4)])
    def test_matches_factorial_oracle(self, tj1, tj2):
        j1, j2 = tj1 / 2.0, tj2 / 2.0
        for tf in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
            f = tf / 2.0
            for tmf in range(-tf, tf + 1, 2):
                for tm1 in range(-tj1, tj1 + 1, 2):
                    tm2 = tmf - tm1
                    if abs(tm2) > tj2:
                        continue
                    got = clebsch_gordan(j1, j2, tm1 / 2.0, tm2 / 2.0, f, tmf / 2.0)
                    want = racah_cg(j1, j2, f, tm1 / 2.0, tm2 / 2.0, tmf / 2.0)
                    assert got == pytest.approx(want, abs=1e-13)

    def test_condon_shortley_sign(self):
        # highest-m1 coefficient positive for every f
        tj1, tj2 = 2, 9
        for tf in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
            tm1 = min(tj1, tf + tj2)
            tm2 = tf - tm1
            assert clebsch_gordan(1, 4.5, tm1 / 2.0, tm2 / 2.0, tf / 2.0, tf / 2.0) > 0

    @pytest.mark.parametrize("tj1,tj2", [(2, 9), (2, 1), (3, 2)])
    def test_orthogonality(self, tj1, tj2):
        j1, j2 = tj1 / 2.0, tj2 / 2.0
        tfs = list(range(abs(tj1 - tj2), tj1 + tj2 + 1, 2))
        for tf in tfs:
            for tfp in tfs:
                for tmf in range(-tf, tf + 1, 2):
                    if abs(tmf) > tfp:
                        continue
                    total = 0.0
                    for tm1 in range(-tj1, tj1 + 1, 2):
                        tm2 = tmf - tm1
                        if abs(tm2) > tj2:
                            continue
                        total += clebsch_gordan(j1, j2, tm1 / 2, tm2 / 2, tf / 2, tmf / 2) * \
                            clebsch_gordan(j1, j2, tm1 / 2, tm2 / 2, tfp / 2, tmf / 2)
                    expected = 1.0 if tf == tfp else 0.0
                    assert total == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("tj1,tj2", [(2, 9), (2, 3)])
    def test_completeness(self, tj1, tj2):
        j1, j2 = tj1 / 2.0, tj2 / 2.0
        for tm1 in range(-tj1, tj1 + 1, 2):
            for tm1p in range(-tj1, tj1 + 1, 2):
                for tm2 in range(-tj2, tj2 + 1, 2):
                    tm2p = tm1 + tm2 - tm1p
                    if abs(tm2p) > tj2:
                        continue
                    total = 0.0
                    for tf in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                        tmf = tm1 + tm2
                        if abs(tmf) > tf:
                            continue
                        total += clebsch_gordan(j1, j2, tm1 / 2, tm2 / 2, tf / 2, tmf / 2) * \
                            clebsch_gordan(j1, j2, tm1p / 2, tm2p / 2, tf / 2, tmf / 2)
                    expected = 1.0 if (tm1 == tm1p and tm2 == tm2p) else 0.0
                    assert total == pytest.approx(expected, abs=1e-13)
