import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ramseykit import bounds


class TestMainDense:
    def test_anchor_1200(self):
        rep = bounds.bound_main_dense(64, Fraction(1, 16))
        assert rep.log2_bound == pytest.approx(1200.0)
        assert rep.preconditions_met

    def test_flag_fails_at_rho_one(self):
        rep = bounds.bound_main_dense(2, 1)
        assert rep.log2_bound == pytest.approx(30.0)
        assert not rep.preconditions_met

    def test_anchor_1312_5(self):
        rep = bounds.bound_main_dense(100, Fraction(1, 64))
        assert rep.log2_bound == pytest.approx(1312.5)

    def test_rho_zero_rejected(self):
        with pytest.raises(ValueError):
            bounds.bound_main_dense(10, 0)

    @given(st.integers(2, 500), st.fractions(Fraction(1, 1000), 1))
    def test_linear_in_t(self, t, rho):
        a = bounds.bound_main_dense(t, rho).log2_bound
        b = bounds.bound_main_dense(2 * t, rho).log2_bound
        assert b == pytest.approx(2 * a, rel=1e-12)


class TestCliqueMaxDeg:
    def test_anchor_300(self):
        rep = bounds.bound_clique_maxdeg(16, Fraction(1, 16))
        assert rep.log2_bound == pytest.approx(300.0)
        assert rep.preconditions_met

    def test_flagged_value_still_computed(self):
        rep = bounds.bound_clique_maxdeg(1000, Fraction(1, 2))
        assert rep.log2_bound == pytest.approx(24000.0)
        assert not rep.preconditions_met

    @given(st.integers(2, 500))
    def test_linear_in_t(self, t):
        rho = Fraction(1, 16)
        assert bounds.bound_clique_maxdeg(2 * t, rho).log2_bound == pytest.approx(
            2 * bounds.bound_clique_maxdeg(t, rho).log2_bound)


class TestCliqueDense:
    def test_anchor_numeric(self):
        # 15 * sqrt(1/50) * log2(100)^1.5 * 50, frozen from an independent evaluation
        rep = bounds.bound_clique_dense(50, Fraction(1, 50))
        assert rep.log2_bound == pytest.approx(1816.379518710275, rel=1e-12)
        assert rep.preconditions_met

    def test_rho_half_flag_fails(self):
        rep = bounds.bound_clique_dense(10, Fraction(1, 2))
        assert rep.log2_bound == pytest.approx(15 * math.sqrt(0.5) * 2 ** 1.5 * 10)
        assert not rep.preconditions_met

    @given(st.integers(2, 200), st.fractions(Fraction(1, 500), Fraction(1, 16)))
    def test_dominates_main_dense(self, t, rho):
        # log^{3/2} >= log whenever log >= 1, i.e. rho <= 1
        dense = bounds.bound_clique_dense(t, rho).log2_bound
        main = bounds.bound_main_dense(t, rho).log2_bound
        assert dense >= main - 1e-9


class TestEdgesForm:
    def test_full_density_matches_main(self):
        t = 7
        m = t * (t - 1) // 2
        assert bounds.bound_edges_form(m, t).log2_bound == \
            bounds.bound_main_dense(t, 1).log2_bound

    def test_k4(self):
        rep = bounds.bound_edges_form(6, 4)
        assert rep.params["rho"] == Fraction(1)

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            bounds.bound_edges_form(7, 4)
        with pytest.raises(ValueError):
            bounds.bound_edges_form(0, 4)

    @given(st.integers(2, 60), st.data())
    def test_substitution_identity(self, t, data):
        pairs = t * (t - 1) // 2
        m = data.draw(st.integers(1, pairs))
        a = bounds.bound_edges_form(m, t).log2_bound
        b = bounds.bound_main_dense(t, Fraction(m, pairs)).log2_bound
        assert a == pytest.approx(b, rel=1e-12)


class TestRandomGraph:
    def test_large_scale_anchor(self):
        rep = bounds.bound_random_graph(10 ** 6, Fraction(1, 100))
        assert rep.log2_bound == pytest.approx(84082418.08752197, rel=1e-12)

    def test_desk_scale_threshold_always_fails(self):
        # at t = 10^4 the sparsity threshold exceeds 1/100, so no desk-scale
        # rho can satisfy both flags
        rep = bounds.bound_random_graph(10 ** 4, Fraction(1, 100))
        assert not rep.preconditions["rho_ge_threshold"]
        assert rep.notes["threshold"] > 1 / 100

    def test_rho_half_both_flags_fail(self):
        rep = bounds.bound_random_graph(100, Fraction(1, 2))
        assert not rep.preconditions["rho_ge_threshold"]
        assert not rep.preconditions["rho_le_1_100"]
        assert rep.log2_bound > 0


class TestBaseCase:
    def test_2_2(self):
        assert bounds.bound_base_case(2, 2).log2_bound == pytest.approx(math.log2(6))

    def test_s_zero(self):
        assert bounds.bound_base_case(0, 9).log2_bound == 0

    def test_3_3_dominates_exact(self):
        rep = bounds.bound_base_case(3, 3)
        assert rep.log2_bound == pytest.approx(math.log2(20))
        # true r(3,3) = 6 <= C(6,3) = 20; the exact value is pinned in
        # test_oracle via ramsey_number_exact
        assert 2 ** rep.log2_bound >= 6

    def test_chain_note(self):
        rep = bounds.bound_base_case(4, 16, Fraction(1, 4))
        assert rep.notes["chain_log2"] == pytest.approx(2 * 0.25 * 16 * 3)

    @given(st.integers(0, 30), st.integers(0, 30))
    def test_exact_binomial(self, s, t):
        assert bounds.bound_base_case(s, t).log2_bound == pytest.approx(
            math.log2(math.comb(s + t, s)), rel=1e-9)


class TestInductionStep:
    def test_s_equals_t(self):
        t, rho = 64, Fraction(1, 16)
        rep = bounds.bound_induction_step(t, t, rho)
        expect = 12 * (1 / 16) * 5 * t * math.log2(2 * 16)
        assert rep.log2_bound == pytest.approx(expect)

    def test_s_equals_rho_t(self):
        t, rho = 64, Fraction(1, 16)
        s = 4  # rho * t
        rep = bounds.bound_induction_step(s, t, rho)
        assert rep.log2_bound == pytest.approx(12 * (1 / 16) * 5 * t)
        assert rep.preconditions_met

    def test_below_rho_t_flagged(self):
        rep = bounds.bound_induction_step(2, 64, Fraction(1, 16))
        assert not rep.preconditions_met

    @given(st.integers(4, 100))
    def test_monotone_in_s(self, s):
        rho, t = Fraction(1, 16), 64
        a = bounds.bound_induction_step(s, t, rho).log2_bound
        b = bounds.bound_induction_step(s + 1, t, rho).log2_bound
        assert b >= a


class TestLowerBounds:
    def test_anchor(self):
        plant, rand = bounds.lower_bounds(16, Fraction(1, 4))
        assert plant.log2_bound == pytest.approx(2.0)
        assert rand.log2_bound == pytest.approx(0.25 * 0.25 * 16)

    def test_registry_clique_note(self):
        plant, _ = bounds.lower_bounds(100, 1)
        assert plant.log2_bound == pytest.approx(25.0)
        assert plant.notes["registry_clique_lower_log2"] == pytest.approx(50.0)

    @given(st.integers(2, 300), st.fractions(Fraction(1, 1000), 1))
    def test_lower_below_upper(self, t, rho):
        plant, _ = bounds.lower_bounds(t, rho)
        upper = bounds.bound_main_dense(t, rho).log2_bound
        assert plant.log2_bound <= upper + 1e-9


class TestEvaluateDispatch:
    def test_all_ids_covered(self):
        for theorem in bounds.THEOREMS:
            rep = bounds.evaluate(theorem, t=32, rho=Fraction(1, 16), s=8, m=31)
            assert rep is not None

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            bounds.evaluate("nope", t=4, rho=0.5)

    def test_flags_never_alter_value(self):
        in_range = bounds.bound_main_dense(64, Fraction(1, 16)).log2_bound
        formula = 15 * math.sqrt(1 / 16) * math.log2(32) * 64
        assert in_range == pytest.approx(formula)
        out_of_range = bounds.bound_main_dense(64, Fraction(1, 2)).log2_bound
        assert out_of_range == pytest.approx(15 * math.sqrt(0.5) * 2 * 64)


class TestDensityFlags:
    CASES = [
        (bounds.bound_main_dense, "rho_le_1_16", 16),
        (bounds.bound_clique_maxdeg, "rho_le_1_16", 16),
        (bounds.bound_clique_dense, "rho_le_1_50", 50),
        (bounds.bound_random_graph, "rho_le_1_100", 100),
    ]

    @pytest.mark.parametrize("bound, flag, q", CASES, ids=lambda c: getattr(c, "__name__", c))
    def test_flag_holds_at_the_boundary_and_fails_past_it(self, bound, flag, q):
        # exact for a Fraction, in floats for a float
        assert bound(64, Fraction(1, q)).preconditions[flag]
        assert bound(64, 1 / q).preconditions[flag]
        assert not bound(64, Fraction(1, q) + Fraction(1, 10 ** 9)).preconditions[flag]
        assert not bound(64, 1 / q + 1e-12).preconditions[flag]
