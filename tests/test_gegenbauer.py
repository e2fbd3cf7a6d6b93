import numpy as np
import pytest
from scipy.special import eval_legendre, gammaln

from modpoisson import gegenbauer as gg
from modpoisson.errors import DomainError

LAMBDAS = [0.5, 1.0, 1.5, 2.5]
TGRID = np.linspace(-1.0, 1.0, 101)


def closed_form(lam, m, t):
    """Independent oracle: explicit hypergeometric-style sum for C_m^lam."""
    t = np.asarray(t, dtype=float)
    total = np.zeros_like(t)
    for k in range(m // 2 + 1):
        coeff = (-1.0) ** k * np.exp(
            gammaln(lam + m - k) - gammaln(lam) - gammaln(k + 1) - gammaln(m - 2 * k + 1)
        )
        total += coeff * (2.0 * t) ** (m - 2 * k)
    return total


class TestValue:
    def test_degree_zero_is_one(self):
        assert gg.value(0.7, 0, 0.3) == 1.0

    def test_degree_one(self):
        assert gg.value(0.7, 1, 0.3) == pytest.approx(0.42, abs=1e-15)

    def test_legendre_special_case(self):
        # C_m^(1/2) is the Legendre polynomial
        assert gg.value(0.5, 2, 0.5) == pytest.approx(-0.125, abs=1e-15)
        for m in range(9):
            got = gg.value(0.5, m, TGRID)
            np.testing.assert_allclose(got, eval_legendre(m, TGRID), atol=1e-13)

    def test_value_at_argument_one(self):
        assert gg.value(1.0, 3, 1.0) == pytest.approx(4.0, abs=1e-12)

    def test_negative_degree_is_zero(self):
        assert gg.value(1.3, -1, 0.2) == 0.0
        assert gg.value(1.3, -4, 0.2) == 0.0

    def test_rejects_bad_lambda(self):
        with pytest.raises(DomainError):
            gg.value(0.0, 2, 0.1)
        with pytest.raises(DomainError):
            gg.value(-1.0, 2, 0.1)

    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("m", range(13))
    def test_matches_closed_form(self, lam, m):
        np.testing.assert_allclose(
            gg.value(lam, m, TGRID), closed_form(lam, m, TGRID), atol=1e-10, rtol=1e-10
        )

    def test_array_in_array_out(self):
        out = gg.value(1.0, 4, TGRID)
        assert out.shape == TGRID.shape
        assert isinstance(gg.value(1.0, 4, 0.3), float)


class TestValueAtOne:
    def test_examples(self):
        assert gg.value_at_one(1.5, 0) == pytest.approx(1.0)
        assert gg.value_at_one(1.0, 3) == pytest.approx(4.0)
        assert gg.value_at_one(0.5, 4) == pytest.approx(1.0)

    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("m", range(13))
    def test_agrees_with_recurrence_at_one(self, lam, m):
        assert gg.value(lam, m, 1.0) == pytest.approx(gg.value_at_one(lam, m), rel=1e-12)


class TestGeneratingSeries:
    def test_z_zero_keeps_only_constant(self):
        assert gg.weighted_sum(2.0, 5, 0.5, 0.0) == 1.0

    def test_closed_form_at_t_one(self):
        got = gg.weighted_sum(1.5, 200, 1.0, 0.5)
        assert got == pytest.approx(gg.generating_closed_form(1.5, 1.0, 0.5), abs=1e-8)
        assert got == pytest.approx(8.0, abs=1e-8)

    def test_closed_form_generic(self):
        got = gg.weighted_sum(0.5, 200, -0.3, 0.4)
        assert got == pytest.approx(gg.generating_closed_form(0.5, -0.3, 0.4), abs=1e-8)
        assert got == pytest.approx((1 + 0.24 + 0.16) ** -0.5, abs=1e-8)

    def test_divergence_domain(self):
        # outside |z| < 1 the partial sums are finite, as kernel tails need,
        # but they do not approach the closed form
        sums = [float(gg.weighted_sum(1.0, terms, 0.2, 1.5)) for terms in (50, 100)]
        assert all(np.isfinite(sums))
        assert abs(sums[1]) > 1e6 * abs(gg.generating_closed_form(1.0, 0.2, 1.5))

    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("z", [-0.6, -0.25, 0.3, 0.6])
    def test_consistency_on_grid(self, lam, z):
        lhs = gg.weighted_sum(lam, 200, TGRID, z)
        rhs = gg.generating_closed_form(lam, TGRID, z)
        np.testing.assert_allclose(lhs, rhs, atol=1e-8, rtol=1e-8)

    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("terms", [0, 1, 2, 3, 7])
    def test_row_against_column_matches_each_scalar(self, lam, terms):
        # the recurrence runs on the row alone; the sum broadcasts
        t = np.linspace(-1.0, 1.0, 9)[None, :]
        z = np.array([0.1, 0.7, 1.0, 2.5, 13.0])[:, None]
        got = gg.weighted_sum(lam, terms, t, z)
        assert got.shape == (5, 9)
        want = [[gg.weighted_sum(lam, terms, tj, zi) for tj in t[0]] for zi in z[:, 0]]
        np.testing.assert_array_equal(got, want)


class TestRoots:
    def test_single_root_at_origin(self):
        np.testing.assert_allclose(gg.roots(0.7, 1), [0.0], atol=1e-15)

    def test_legendre_roots(self):
        np.testing.assert_allclose(gg.roots(0.5, 2), [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-14)

    def test_chebyshev_second_kind_roots(self):
        # C_3^1(cos(phi)) = sin(4 phi) / sin(phi)
        np.testing.assert_allclose(
            gg.roots(1.0, 3), [-np.sqrt(2) / 2, 0.0, np.sqrt(2) / 2], atol=1e-14
        )

    def test_degree_zero_has_no_roots(self):
        assert len(gg.roots(1.0, 0)) == 0

    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("m", range(1, 13))
    def test_roots_are_simple_paired_and_accurate(self, lam, m):
        r = gg.roots(lam, m)
        assert len(r) == m
        assert np.all(np.diff(r) > 0)
        assert np.all((r > -1) & (r < 1))
        # parity pairing
        np.testing.assert_allclose(r, -r[::-1], atol=1e-13)
        residual = np.abs(gg.value(lam, m, r))
        assert np.max(residual) <= 1e-12


    @pytest.mark.parametrize("lam", [0.25, 0.4, 0.5, 1.0, 1.5, 2.0, 2.5, 3.5])
    def test_roots_sweep_within_rounding_of_the_scale(self, lam):
        for m in range(1, 14):
            r = gg.roots(lam, m)
            assert len(r) == m
            assert np.all(np.diff(r) > 0)
            assert np.all((r > -1) & (r < 1))
            # relative to max |C_m^lam| on [-1, 1], which is C_m^lam(1)
            scale = gg.value_at_one(lam, m)
            assert np.max(np.abs(gg.value(lam, m, r))) <= 1e-14 * scale


class TestPhi:
    def test_zeta_zero(self):
        assert gg.phi_minus(1.0, 1, 0.5, 0.0) == pytest.approx(1.0)

    def test_minus_combination(self):
        assert gg.phi_minus(1.0, 1, 0.5, 2.0) == pytest.approx(-3.0)

    def test_rejects_m_zero(self):
        with pytest.raises(DomainError):
            gg.phi_minus(1.0, 0, 0.5, 1.0)


class TestInvariants:
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_parity(self, lam):
        for m in range(13):
            lhs = gg.value(lam, m, -TGRID)
            rhs = (-1.0) ** m * gg.value(lam, m, TGRID)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_majorisation(self, lam):
        for m in range(13):
            bound = gg.value_at_one(lam, m)
            assert np.max(np.abs(gg.value(lam, m, TGRID))) <= bound * (1 + 1e-12)

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_contiguous_identities(self, lam):
        # m C_m^lam = 2 lam [t C_{m-1}^{lam+1} - C_{m-2}^{lam+1}]
        # (m + 2 lam) C_m^lam = 2 lam [C_m^{lam+1} - t C_{m-1}^{lam+1}]
        for m in range(13):
            lhs1 = m * gg.value(lam, m, TGRID)
            rhs1 = 2 * lam * (
                TGRID * gg.value(lam + 1, m - 1, TGRID) - gg.value(lam + 1, m - 2, TGRID)
            )
            np.testing.assert_allclose(lhs1, rhs1, atol=1e-10)
            lhs2 = (m + 2 * lam) * gg.value(lam, m, TGRID)
            rhs2 = 2 * lam * (
                gg.value(lam + 1, m, TGRID) - TGRID * gg.value(lam + 1, m - 1, TGRID)
            )
            np.testing.assert_allclose(lhs2, rhs2, atol=1e-10)

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_three_term_contiguous_recurrence(self, lam):
        # M C_M^lam = (2 lam + M - 1) t C_{M-1}^lam - 2 lam (1 - t^2) C_{M-2}^{lam+1}
        for m in range(1, 13):
            lhs = m * gg.value(lam, m, TGRID)
            rhs = (2 * lam + m - 1) * TGRID * gg.value(lam, m - 1, TGRID) - 2 * lam * (
                1 - TGRID**2
            ) * gg.value(lam + 1, m - 2, TGRID)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_alternating_sign_at_origin(self, lam):
        for m in range(7):
            assert (-1.0) ** m * gg.value(lam, 2 * m, 0.0) > 0

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
    def test_largest_zero_bracket(self, lam, m):
        # bracket for the largest zero of C_m^min(1, lam)
        beta2 = gg.roots(min(1.0, lam), m)[-1]
        assert np.cos(np.pi / (m + 1)) <= beta2 + 1e-12
        assert beta2 <= np.cos(np.pi / (2 * m)) + 1e-12
