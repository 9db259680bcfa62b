"""Accuracy of the integer-shape kernels in ``noma_perf.numerics``.

Each kernel is measured against mpmath on a fixed grid, with scipy's
implementation of the same function as the second route: the kernel's
worst relative error must be no larger than twice scipy's on the same
grid.  Both numbers are printed (run with ``-s`` to see them).
"""

import math
import time

import make_kernel_tables
import mpmath as mp
import numpy as np
import pytest
from scipy import special

from noma_perf.numerics import (
    _K0_CHEB,
    _K1_CHEB,
    _K_SERIES,
    _STIRLERR,
    bessel_k_scaled,
    binomial_tail,
    gamma_p,
    gamma_p_grid,
)

#: smallest positive normal double; relative errors are measured above it
TINY = 2.2250738585072014e-308


def _worst(values, refs):
    """Largest relative error of ``values`` against ``refs`` where the
    reference is a finite normal double and the value finite."""
    worst = 0.0
    for v, r in zip(values, refs):
        if TINY <= r < math.inf and math.isfinite(v):
            worst = max(worst, abs(v - r) / r)
    return worst


def _report(name, ours, theirs):
    print(f"\n{name}: worst relative error {ours:.3g} (scipy {theirs:.3g})")
    assert ours <= 2.0 * theirs, (ours, theirs)


class TestKernelTables:
    def test_series_tables_are_the_script_output(self):
        assert _K_SERIES == make_kernel_tables.k_series()
        assert _STIRLERR == make_kernel_tables.stirlerr()

    def test_chebyshev_tables_are_the_script_output(self):
        assert _K0_CHEB == make_kernel_tables.k_cheb(0)
        assert _K1_CHEB == make_kernel_tables.k_cheb(1)


class TestGammaP:
    MUS = range(1, 41)
    XS = [0.0, *np.logspace(-300, 4, 77).tolist(), math.inf]

    @staticmethod
    def reference(mu, x):
        if x == math.inf:
            return 1.0
        with mp.workdps(40):
            return float(mp.gammainc(mu, 0, mp.mpf(x), regularized=True))

    def test_matches_mpmath_at_least_as_well_as_scipy(self):
        ours, theirs = [], []
        for mu in self.MUS:
            # the grid plus a band around the shape, where P leaves 0
            xs = self.XS + (mu * np.linspace(0.5, 1.5, 21)).tolist()
            refs = [self.reference(mu, x) for x in xs]
            values = [gamma_p(mu, x) for x in xs]
            grid = gamma_p_grid(mu, np.array(xs)).tolist()
            ours += [_worst(values, refs), _worst(grid, refs)]
            theirs.append(_worst(special.gammainc(mu, xs).tolist(), refs))
            # below the normal range the value is tiny too, never garbage
            for v, g, r in zip(values, grid, refs):
                if r < TINY:
                    assert 0.0 <= v < 1e-300 and 0.0 <= g < 1e-300, (mu, v, g, r)
            end = len(self.XS) - 1
            assert values[0] == grid[0] == 0.0 and values[end] == grid[end] == 1.0
        _report("P(mu, x), mu 1..40", max(ours), max(theirs))

    def test_grid_equals_one_element_calls_bit_for_bit(self):
        xs = np.array([0.0, 1e-300, 1e-20, 0.3, 0.58, 0.59, 1.0, 1.27, 1.28, 3.0, 33.6,
                       33.7, 60.0, 700.0, 1e4, 1e300, math.inf])
        for mu in (*range(1, 8), 20, 40, 41, 100, 1000):
            grid = gamma_p_grid(mu, xs)
            assert grid.tolist() == [gamma_p_grid(mu, xs[i:i + 1])[0] for i in range(xs.size)]
            assert grid.tolist() == gamma_p_grid(mu, xs[::-1]).tolist()[::-1]
            assert gamma_p_grid(mu, xs.reshape(1, -1)).tolist() == [grid.tolist()]

    def test_large_shapes_stay_close(self):
        # shapes past 40 take the log-domain Poisson weight: looser, still tight
        for mu in (41, 100, 1000):
            for x in (mu * 1e-3, 0.5 * mu, mu - math.sqrt(mu), float(mu), 2.0 * mu):
                ref = self.reference(mu, x)
                assert gamma_p(mu, x) == pytest.approx(ref, rel=1e-12, abs=0.0)


class TestBesselKScaled:
    ORDER = 40
    XS = [*np.logspace(-12, 6, 37).tolist(), 1.5, 2.0 - 1e-9, 2.0, 2.0 + 1e-9, 2.5, 9.9]

    @classmethod
    def reference(cls, x):
        """e^x K_n(x), n = 0..ORDER, in 30-digit arithmetic (inf past the double range)."""
        with mp.workdps(30):
            x = mp.mpf(x)
            scale = mp.exp(x)
            ks = [mp.besselk(0, x) * scale, mp.besselk(1, x) * scale]
            for j in range(1, cls.ORDER):
                ks.append(ks[j - 1] + 2 * j / x * ks[j])
            return [float(k) if k < mp.mpf("1.7976931348623157e308") else math.inf for k in ks]

    def test_matches_mpmath_at_least_as_well_as_scipy(self):
        ours = theirs = 0.0
        lost_ours = lost_theirs = 0
        orders = np.arange(self.ORDER + 1.0)
        for x in self.XS:
            refs = self.reference(x)
            values = bessel_k_scaled(self.ORDER, x)
            scipy_values = special.kve(orders, x).tolist()
            assert len(values) == self.ORDER + 1
            ours = max(ours, _worst(values, refs))
            theirs = max(theirs, _worst(scipy_values, refs))
            # orders past the double range are inf; count finite values lost early
            for v, s, r in zip(values, scipy_values, refs):
                assert v > 0.0
                lost_ours += r < math.inf and not math.isfinite(v)
                lost_theirs += r < math.inf and not math.isfinite(s)
                if r == math.inf:
                    assert v == math.inf
        print(f"\nK_n overflowing before the double range: {lost_ours} (scipy {lost_theirs})")
        assert lost_ours <= lost_theirs
        _report("e^x K_n(x), n <= 40", ours, theirs)

    def test_shorter_orders_are_a_prefix(self):
        for x in (1e-3, 0.7, 2.0, 3.0, 50.0):
            full = bessel_k_scaled(6, x)
            for n in range(1, 6):
                assert bessel_k_scaled(n, x) == full[:n + 1]


class TestBinomialTail:
    FS = [*np.logspace(-300, -1, 12).tolist(), 0.3, 0.5, 0.7, 0.9, 1 - 1e-6, 1 - 1e-12]

    @staticmethod
    def reference(rank, total, f):
        """The tail as a 50-digit sum of its positive terms, from whichever
        side of the mode is finite or falls off (1 minus the rank - 1 lower
        terms where rank is below the mode)."""
        with mp.workdps(50):
            f = mp.mpf(f)
            q = 1 - f
            if rank <= total * f:
                lower = mp.fsum(mp.binomial(total, j) * f**j * q ** (total - j)
                                for j in range(rank))
                return float(1 - lower)
            term = mp.binomial(total, rank) * f**rank * q ** (total - rank)
            acc, j = term, rank
            while j < total and term > acc * mp.mpf(10) ** -45:
                term *= mp.mpf(total - j) / (j + 1) * f / q
                acc += term
                j += 1
            return float(acc)

    @staticmethod
    def cases():
        for total in (*range(1, 9), 20, 100, 1000, 10**20):
            ranks = {1, 2, 3, total // 4, total // 2, total - 1, total}
            for rank in sorted(r for r in ranks if 1 <= r <= total and r <= 10**6):
                yield rank, total

    def test_matches_mpmath_at_least_as_well_as_scipy(self):
        ours = theirs = 0.0
        for rank, total in self.cases():
            refs = [self.reference(rank, total, f) for f in self.FS]
            ours = max(ours, _worst([binomial_tail(rank, total, f) for f in self.FS], refs))
            theirs = max(theirs, _worst(special.betainc(rank, total - rank + 1,
                                                        self.FS).tolist(), refs))
            for f, r in zip(self.FS, refs):
                if r < TINY:
                    assert binomial_tail(rank, total, f) == 0.0
        _report("binomial tail, pools 1..1000 and 1e20", ours, theirs)

    @staticmethod
    def reference_from_rank(rank, total, f):
        """The tail as a 40-digit sum of its terms from ``rank`` upwards,
        past the mode and on until they fall below 1e-45 of the sum."""
        with mp.workdps(40):
            f = mp.mpf(f)
            q = 1 - f
            term = mp.exp(mp.loggamma(total + 1) - mp.loggamma(rank + 1)
                          - mp.loggamma(total - rank + 1) + rank * mp.log(f)
                          + (total - rank) * mp.log(q))
            acc, j = term, rank
            while j < total and (j < total * f or term > acc * mp.mpf(10) ** -45):
                term *= mp.mpf(total - j) / (j + 1) * f / q
                acc += term
                j += 1
            return float(acc)

    @staticmethod
    def reference_by_integral(rank, total, f):
        """I_f(rank, total - rank + 1) as a 60-digit integral of the beta
        density from 0 to f, split at its mode (or f) and at a few
        spreads below it."""
        with mp.workdps(60):
            f = mp.mpf(f)
            a, b = rank, total - rank + 1
            log_norm = mp.loggamma(a + b) - mp.loggamma(a) - mp.loggamma(b)
            spread = mp.sqrt(f * (1 - f) / total)
            centre = min(f, mp.mpf(a - 1) / (a + b - 2))
            points = sorted({*(centre + k * spread for k in (-60, -20, -10, -5, -2, 0)), f})
            return float(mp.quad(lambda t: mp.exp(log_norm + (a - 1) * mp.log(t)
                                                  + (b - 1) * mp.log(1 - t)), points))

    def test_mid_pool_ranks_stay_bounded_and_accurate(self):
        # near the mode the terms fall off over the spread sqrt(total f (1 - f)),
        # 500 at a pool of 1e6 and 5e9 at 1e20, where the sum would take
        # about 1e10 terms; both take the beta-density integral instead
        big = 10**20
        cases = [(rank, 10**6, f) for rank, f in ((500000, 0.5), (500000, 0.4995), (500700, 0.5),
                                                  (499000, 0.5), (505000, 0.5), (300000, 0.3))]
        refs = [self.reference_from_rank(*case) for case in cases]
        # a symmetric pool: the tail at rank total / 2 and f = 1/2 is
        # 1/2 + C(total, total / 2) / 2**(total + 1)
        cases.append((big // 2, big, 0.5))
        with mp.workdps(40):
            refs.append(float(0.5 + mp.exp(mp.loggamma(big + 1) - 2 * mp.loggamma(big // 2 + 1)
                                           - big * mp.log(2)) / 2))
        # at f = 0.3 the product (total - 1) f is not a double: the
        # deviation from the mean must come from the exact fraction
        for rank in (3 * 10**19 + 10**10, 3 * 10**19 - 10**10):
            cases.append((rank, big, 0.3))
            refs.append(self.reference_by_integral(rank, big, 0.3))
        start = time.perf_counter()
        values = [binomial_tail(*case) for case in cases]
        # 40 spreads above the mode the tail is below the double range
        assert binomial_tail(big // 2 + 2 * 10**11, big, 0.5) == 0.0
        assert time.perf_counter() - start < 0.5
        theirs = [special.betainc(rank, total - rank + 1, f) for rank, total, f in cases]
        _report("binomial tail, mid-pool ranks of 1e6 and 1e20", _worst(values, refs),
                _worst(theirs, refs))

    def test_huge_pool_costs_what_its_rank_costs(self):
        # the terms summed do not grow with the pool: a pool of 1e20 at
        # rank 40 takes a few dozen, like a pool of 1000
        for f in (1e-19, 4e-19, 1e-18, 0.5):
            ref = self.reference(40, 10**20, f)
            assert binomial_tail(40, 10**20, f) == pytest.approx(ref, rel=1e-12, abs=1e-300)
