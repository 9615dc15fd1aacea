import numpy as np
import pytest

from sparsedl.exceptions import ConfigError, as_finite, as_integer, as_real_number

NOT_NUMBERS = [True, np.True_, "1", None, 1j, np.complex128(1 + 1j)]


class TestAsInteger:
    @pytest.mark.parametrize("value", NOT_NUMBERS + [1.0, np.float64(2.0), np.array([3])])
    def test_rejects_what_is_not_an_integer(self, value):
        with pytest.raises(ConfigError, match="count must be an integer"):
            as_integer(value, "count")

    @pytest.mark.parametrize(
        "value, low, want", [(3, None, 3), (-4, None, -4), (np.int64(2), 2, 2), (0, 0, 0)]
    )
    def test_returns_an_int(self, value, low, want):
        got = as_integer(value, "count", low=low)
        assert got == want and type(got) is int

    @pytest.mark.parametrize("value, low", [(1, 2), (-1, 0), (np.int8(0), 1)])
    def test_rejects_below_the_bound(self, value, low):
        with pytest.raises(ConfigError, match=f"count must be at least {low}"):
            as_integer(value, "count", low=low)


class TestAsRealNumber:
    @pytest.mark.parametrize("value", NOT_NUMBERS + [np.array(2.0)])
    def test_rejects_what_is_not_a_real_number(self, value):
        with pytest.raises(ConfigError, match="weight must be a real number"):
            as_real_number(value, "weight")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, np.float32(np.inf), 10**400])
    def test_rejects_what_is_not_finite(self, value):
        with pytest.raises(ConfigError, match="weight must be finite"):
            as_real_number(value, "weight")

    @pytest.mark.parametrize(
        "value, low, exclusive",
        [
            (0.0, 0.0, False),
            (2, 2.0, False),
            (np.float32(0.5), None, False),
            (1e-300, 0.0, True),
            (np.int64(2), 1.0, True),
        ],
    )
    def test_returns_a_float_at_or_past_the_bound(self, value, low, exclusive):
        got = as_real_number(value, "weight", low=low, exclusive=exclusive)
        assert got == value and type(got) is float

    @pytest.mark.parametrize(
        "value, low, exclusive, words",
        [(-1e-300, 0.0, False, "at least 0.0"), (1.0, 1.0, True, "above 1.0"), (0, 0.0, True, "above 0.0")],
    )
    def test_rejects_past_the_bound(self, value, low, exclusive, words):
        with pytest.raises(ConfigError, match=f"weight must be {words}"):
            as_real_number(value, "weight", low=low, exclusive=exclusive)


class TestAsFinite:
    @pytest.mark.parametrize("value", [0, 2.5, np.float64(-1e308), np.float32(3.0), np.int64(7)])
    def test_returns_a_float(self, value):
        got = as_finite(value, "goal")
        assert got == value and type(got) is float

    def test_returns_the_array_itself(self):
        array = np.array([[1.0, -1e308], [0.0, 5e-324]])
        assert as_finite(array, "norms") is array
        assert as_finite(lambda: array, "norms") is array

    @pytest.mark.parametrize(
        "value",
        [np.inf, -np.inf, np.nan, 10**400, np.array([1.0, np.inf]), np.array([np.nan])],
        ids=["inf", "-inf", "nan", "big-int", "array-inf", "array-nan"],
    )
    def test_rejects_what_is_not_finite(self, value):
        with pytest.raises(ConfigError, match=r"^goal overflows a float$"):
            as_finite(value, "goal")

    @pytest.mark.parametrize(
        "compute",
        [
            lambda: 1e200**2,  # a Python power raises OverflowError
            lambda: 1e200 * 1e200,  # a Python product gives inf
            lambda: np.float64(1e200) * np.float64(1e200),  # NumPy warns of an overflow
            lambda: np.full(3, 1e200) ** 2 - np.full(3, 1e200) ** 2,  # inf - inf warns of an invalid value
            lambda: np.ones(3).dot(np.full(3, 1e308)),
        ],
        ids=["power", "product", "numpy-scalar", "numpy-invalid", "dot"],
    )
    def test_a_computation_that_overflows_raises_without_a_warning(self, compute):
        """The gate runs the computation itself: under the suite's
        warnings-as-errors, any warning would fail this test first."""
        with pytest.raises(ConfigError, match=r"^goal overflows a float$"):
            as_finite(compute, "goal")

    def test_a_computation_keeps_its_bits(self):
        """x**2 rounds differently from x*x at this x; the gate returns the former."""
        x = 13.506677
        assert as_finite(lambda: x**2, "goal") == x**2 != x * x
