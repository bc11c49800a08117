"""Tests for the concordance (Kendall tau) estimate and its merge-sort kernel."""

import numpy as np
import pytest

from taubounds import TieError, kendall_tau
from taubounds.concordance import HAVE_COMPILED_KERNEL

# Rows per chunk in the quadratic oracle are limited so the broadcasted
# comparison matrix stays around ~4e6 cells.
_QUAD_CELLS = 4_000_000


def net_concordance_quadratic(x: np.ndarray, y: np.ndarray) -> int:
    """Reference oracle: net concordant-minus-discordant count over all pairs."""
    n = x.size
    if n < 2:
        return 0
    rows = max(1, _QUAD_CELLS // n)
    net = 0
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        sx = np.sign(x[lo:hi, None] - x[None, :])
        sy = np.sign(y[lo:hi, None] - y[None, :])
        net += int(np.sum(sx * sy, dtype=np.int64))
    # every pair counted twice (i, j) and (j, i); diagonal contributes zero
    return net // 2


class TestExamples:
    def test_all_concordant(self):
        assert kendall_tau([(1, 1), (2, 2), (3, 3)]) == 1.0

    def test_all_discordant(self):
        assert kendall_tau([(1, 3), (2, 2), (3, 1)]) == -1.0

    def test_hand_count(self):
        # pairs: (1,2)-(2,1) discordant, (1,2)-(3,3) and (2,1)-(3,3) concordant
        assert kendall_tau([(1, 2), (2, 1), (3, 3)]) == pytest.approx(1 / 3)

    def test_two_argument_form(self):
        x = np.array([0.3, 0.9, 0.1, 0.5])
        y = np.array([1.0, 2.0, 0.5, 3.0])
        assert kendall_tau(x, y) == kendall_tau(np.column_stack((x, y)))


class TestValidation:
    def test_too_small(self):
        with pytest.raises(ValueError):
            kendall_tau([(1.0, 2.0)])

    def test_x_ties_reported(self):
        with pytest.raises(TieError) as err:
            kendall_tau([(1, 5), (1, 2), (3, 4)])
        assert err.value.coordinate == "x"
        assert err.value.value == 1.0

    def test_y_ties_reported(self):
        with pytest.raises(TieError) as err:
            kendall_tau([(1, 4), (2, 4), (3, 5)])
        assert err.value.coordinate == "y"

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            kendall_tau([(1, 2), (np.nan, 3), (4, 5)])

    def test_shapes_rejected(self):
        with pytest.raises(ValueError, match="sequence of \\(x, y\\) pairs"):
            kendall_tau(np.zeros((4, 3)))
        with pytest.raises(ValueError, match="equal length"):
            kendall_tau([0.1, 0.2, 0.3], [0.1, 0.2])


class TestKernelEquivalence:
    @pytest.mark.parametrize("n", [2, 3, 17, 257, 3000, 10001])
    def test_methods_agree_exactly(self, n):
        # the merge-sort count against the defining quadratic count; integer
        # pair counts make the equality exact
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        y = 0.4 * x + rng.standard_normal(n)
        total = n * (n - 1) // 2
        assert kendall_tau(x, y) == net_concordance_quadratic(x, y) / total


class TestInvariances:
    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(400)
        y = rng.standard_normal(400)
        tau = kendall_tau(x, y)
        perm = rng.permutation(400)
        assert kendall_tau(x[perm], y[perm]) == tau

    def test_monotone_transform_invariant(self):
        rng = np.random.default_rng(9)
        x = rng.random(300)
        y = rng.random(300)
        assert kendall_tau(np.exp(x), y**3) == kendall_tau(x, y)

    def test_sign_flip(self):
        rng = np.random.default_rng(13)
        x = rng.random(300)
        y = rng.random(300)
        assert kendall_tau(x, -y) == -kendall_tau(x, y)


def test_backend_flag_is_boolean():
    assert HAVE_COMPILED_KERNEL is False
