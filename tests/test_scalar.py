import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmcreg import (
    FirmParams,
    ScalarPenaltyParams,
    firm,
    huber,
    scalar_convexity_holds,
    scalar_minimize,
    scaled_huber,
    scaled_mc,
    soft,
)
from gmcreg.scalar import _shrink

from _oracles import (
    grid_argmin_complex_shrink,
    grid_argmin_scalar_cost,
    grid_min_scaled_huber,
    huber_via_min3,
)

GRID = np.linspace(-5.0, 5.0, 10_001)
B_SET = (0.0, 0.5, 1.0, 2.0, 5.0)

finite_x = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


class TestSoft:
    def test_values(self):
        assert soft(3.0, 1.0) == 2.0
        assert soft(0.5, 1.0) == 0.0
        assert soft(-3.0, 1.0) == -2.0

    def test_nan_stays_nan(self):
        assert np.isnan(soft(np.nan, 1.0))
        assert np.isnan(soft(complex(np.nan, 0.0), 1.0))

    def test_complex_modulus_rule(self):
        assert soft(4 + 3j, 5.0) == 0.0
        assert soft(6 + 8j, 5.0) == pytest.approx(3 + 4j)

    def test_complex_against_grid_oracle(self):
        for y, lam in [(2.0 + 1.0j, 0.8), (-1.5 + 2.5j, 1.2), (0.3 - 0.1j, 1.0)]:
            got = soft(y, lam)
            ref = grid_argmin_complex_shrink(y, lam, span=5.0, step=0.005)
            assert abs(got - ref) <= 0.01

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft(1.0, -0.1)

    def test_zero_threshold_is_identity(self):
        y = np.array([-2.0, 0.0, 3.0])
        assert np.array_equal(soft(y, 0.0), y)

    @given(finite_x, st.floats(min_value=0.0, max_value=4.0))
    @settings(max_examples=200, deadline=None)
    def test_shrinks_toward_zero(self, y, lam):
        out = float(soft(y, lam))
        assert abs(out) <= abs(y) + 1e-15
        assert abs(out - y) <= lam + 1e-12


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, np.ascontiguousarray(a).tobytes()


def _unchecked_shrink(y, thr):
    with np.errstate(divide="ignore", invalid="ignore"):
        return _shrink(y, thr)


edge_parts = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 3.0, 4.0])
parts = st.one_of(edge_parts, st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # subnormal |y|
class TestShrink:
    """The solver's unchecked ``_shrink`` agrees with ``soft`` bit for bit."""

    @given(st.data(), st.lists(parts, min_size=1, max_size=10), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_vector_matches_soft(self, data, values, complex_input):
        y = np.array(values)
        if complex_input:
            y = y + 1j * np.array(data.draw(st.lists(parts, min_size=y.size, max_size=y.size)))
        # thresholds include 0 and exact ties |y_n| == thr
        thr = data.draw(
            st.one_of(st.just(0.0), st.sampled_from(np.abs(y).tolist()), st.floats(0.0, 5.0))
        )
        assert _bits(_unchecked_shrink(y, np.asarray(thr))) == _bits(soft(y, thr))

    @given(st.data(), st.integers(1, 6), st.integers(1, 5), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_block_matches_soft_per_column(self, data, n, k, complex_input):
        y = np.array(data.draw(st.lists(parts, min_size=n * k, max_size=n * k))).reshape(n, k)
        if complex_input:
            im = data.draw(st.lists(parts, min_size=n * k, max_size=n * k))
            y = y + 1j * np.array(im).reshape(n, k)
        mags = np.abs(y).ravel().tolist()
        thr = np.array(
            [data.draw(st.one_of(st.just(0.0), st.sampled_from(mags), st.floats(0.0, 5.0))) for _ in range(k)]
        )
        got = _unchecked_shrink(y, thr[None, :])
        for j in range(k):
            assert _bits(got[:, j]) == _bits(soft(y[:, j], thr[j]))


class TestHuber:
    def test_values(self):
        assert huber(0.0) == 0.0
        assert huber(0.5) == 0.125
        assert huber(-2.0) == 1.5

    def test_min3_values(self):
        assert huber_via_min3(0.5) == 0.125
        assert huber_via_min3(2.0) == 1.5
        assert huber_via_min3(-3.0) == 2.5

    def test_min3_identity_exact_on_grid(self):
        assert np.array_equal(huber(GRID), huber_via_min3(GRID))

    @given(finite_x)
    @settings(max_examples=300, deadline=None)
    def test_min3_identity_exact_pointwise(self, x):
        assert huber(x) == huber_via_min3(x)


class TestScaledFamilies:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scaled_huber_values(self):
        assert scaled_huber(0.1, 2.0) == pytest.approx(0.02)
        assert scaled_huber(1.0, 2.0) == pytest.approx(0.875)
        assert scaled_huber(7.0, 0.0) == 0.0
        for b in (1e200, np.inf):  # b**2 overflows: the b -> inf limit |x|
            assert scaled_huber(0.0, b) == 0.0
            assert scaled_huber(-2.0, b) == 2.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scaled_mc_values(self):
        assert scaled_mc(3.0, 0.0) == 3.0
        assert scaled_mc(1.0, 2.0) == pytest.approx(0.125)
        assert scaled_mc(-5.0, 1.0) == 0.5
        for b in (1e200, np.inf):
            assert scaled_mc(0.0, b) == 0.0
            assert scaled_mc(-2.0, b) == 0.0

    def test_sign_of_b_is_irrelevant(self):
        assert np.array_equal(scaled_huber(GRID, 1.5), scaled_huber(GRID, -1.5))

    @pytest.mark.parametrize("b", B_SET)
    def test_bounds(self, b):
        s = scaled_huber(GRID, b)
        assert np.all(s >= 0.0)
        assert np.all(s <= np.abs(GRID))

    @pytest.mark.parametrize("b", B_SET)
    def test_mc_plus_huber_is_abs_exact(self, b):
        assert np.array_equal(scaled_mc(GRID, b) + scaled_huber(GRID, b), np.abs(GRID))

    def test_limit_large_b(self):
        x = GRID[np.abs(GRID) >= 0.1]
        assert np.max(np.abs(scaled_huber(x, 1e3) - np.abs(x))) <= 1e-5

    def test_limit_small_b(self):
        assert np.max(scaled_huber(GRID, 1e-4)) <= 1e-5

    def test_infimal_convolution_identity(self):
        xs = np.linspace(-4.0, 4.0, 41)
        for b in (0.5, 1.0, 2.0):
            for x in xs:
                ref = grid_min_scaled_huber(float(x), b)
                assert scaled_huber(float(x), b) == pytest.approx(ref, abs=1e-5)


class TestFirm:
    def test_values(self):
        p = FirmParams(lam=1.0, mu=2.0)
        assert firm(0.5, p) == 0.0
        assert firm(1.5, p) == pytest.approx(1.0)
        assert firm(3.0, p) == 3.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FirmParams(lam=1.0, mu=1.0)
        with pytest.raises(ValueError):
            FirmParams(lam=0.0, mu=1.0)
        with pytest.raises(ValueError):
            FirmParams(lam=1.0, mu=np.inf)

    def test_continuous_and_nondecreasing(self):
        y = np.linspace(-6.0, 6.0, 4001)
        out = firm(y, FirmParams(lam=1.0, mu=2.5))
        steps = np.diff(out)
        assert np.all(steps >= -1e-12)
        assert np.max(np.abs(steps)) <= 3.0 * (y[1] - y[0]) * 2.5 / 1.5

    def test_limit_to_soft(self):
        y = np.linspace(-10.0, 10.0, 801)
        out = firm(y, FirmParams(lam=1.0, mu=1e6))
        assert np.max(np.abs(out - soft(y, 1.0))) <= 1e-5

    def test_limit_to_hard(self):
        lam = 1.0
        mu = lam * (1 + 1e-9)
        y = np.array([-3.0, -1.5, -0.5, 0.5, 1.5, 3.0])
        hard = np.where(np.abs(y) <= lam, 0.0, y)
        assert np.allclose(firm(y, FirmParams(lam=lam, mu=mu)), hard, atol=1e-8)

    def test_rejects_complex(self):
        with pytest.raises(TypeError):
            firm(1 + 1j, FirmParams(lam=1.0, mu=2.0))


class TestConvexityCondition:
    def test_boundary_and_violation(self):
        assert scalar_convexity_holds(ScalarPenaltyParams(b=1.0, lam=1.0, a=1.0))
        assert not scalar_convexity_holds(ScalarPenaltyParams(b=1.01, lam=1.0, a=1.0))
        assert scalar_convexity_holds(ScalarPenaltyParams(b=1.4, lam=2.0, a=2.0))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ScalarPenaltyParams(b=1.0, lam=0.0, a=1.0)


class TestScalarMinimize:
    def test_dead_zone(self):
        assert scalar_minimize(0.5, ScalarPenaltyParams(b=1.0, lam=1.0, a=1.0)) == 0.0

    def test_identity_region(self):
        assert scalar_minimize(10.0, ScalarPenaltyParams(b=1.0, lam=1.0, a=1.0)) == 10.0

    def test_middle_branch_against_oracle(self):
        p = ScalarPenaltyParams(b=0.9, lam=1.0, a=1.0)
        got = scalar_minimize(1.3, p)
        ref = grid_argmin_scalar_cost(1.3, 1.0, 1.0, 0.9)
        assert got == pytest.approx(ref, abs=2e-5)

    def test_random_convex_instances_against_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            a = rng.uniform(0.5, 2.0)
            lam = rng.uniform(0.3, 2.0)
            b = rng.uniform(0.05, 1.0) * a / np.sqrt(lam)
            y = rng.uniform(-3.0, 3.0) * a
            p = ScalarPenaltyParams(b=b, lam=lam, a=a)
            got = scalar_minimize(y, p)
            ref = grid_argmin_scalar_cost(y, a, lam, b)
            assert got == pytest.approx(ref, abs=2e-5)

    def test_nonconvex_rejected(self):
        with pytest.raises(ValueError):
            scalar_minimize(1.0, ScalarPenaltyParams(b=2.0, lam=1.0, a=1.0))

    def test_b_zero_is_soft(self):
        p = ScalarPenaltyParams(b=0.0, lam=1.0, a=1.0)
        assert scalar_minimize(3.0, p) == pytest.approx(2.0)

    @pytest.mark.parametrize("b", [1e-160, -1e-160, 1e-170])
    def test_b_whose_mu_overflows_is_soft(self, b):
        # 1/b**2 overflows (or b**2 underflows): the b -> 0 limit
        p = ScalarPenaltyParams(b=b, lam=1.0, a=1.0)
        assert scalar_minimize(3.0, p) == 2.0
        assert scalar_minimize(-0.5, p) == 0.0
