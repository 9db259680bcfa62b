"""Constant tables of the integer-shape kernels in ``noma_perf.numerics`` (tests only).

The kernels run in double precision from tables fixed once here in
mpmath at 40 or 50 digits and committed as float literals:

- ``_K0_CHEB``, ``_K1_CHEB``: Chebyshev coefficients a_k of
  sqrt(x) e^x K_nu(x), nu = 0, 1, for x > 2, as sum' a_k T_k(u) in
  u = 4/x - 1 (the Clenshaw argument 8/x - 2 is 2u), from the values
  at the 48 Chebyshev points of the first kind (Mason & Handscomb,
  *Chebyshev Polynomials*, 2003, section 6.3), cut where the tail falls
  below 1e-17 of the function;
- ``_K_SERIES``: the power-series coefficients in q = x**2/4 of I_0,
  sum_k H_k q**k / (k!)**2, I_1 / (x/2) and
  sum_k (H_k + H_{k+1}) q**k / (k! (k+1)!), for x <= 2 (DLMF 10.25.2,
  10.31.1, 10.31.2);
- ``_STIRLERR``: log(k!) - ((k + 1/2) log k - k + log sqrt(2 pi)) for
  k = 0..15, the small-k table of Loader's binomial terms (C. Loader,
  "Fast and accurate computation of binomial probabilities", 2000).

``tests/test_kernels.py`` checks that the committed tables equal what
this script computes.  Print them, to paste into ``numerics.py``, with

    python tests/make_kernel_tables.py
"""

from __future__ import annotations

from mpmath import mp, mpf

#: Chebyshev points of the fit, and the tail bound the expansion is cut at
CHEB_POINTS = 48
CHEB_TAIL = mpf("1e-17")
#: terms of the x <= 2 power series: (13!)**-2 is 2.6e-20
SERIES_TERMS = 14
STIRLERR_MAX = 15


def k_cheb(order: int) -> tuple[float, ...]:
    """Coefficients a_0..a_{N-1} of sqrt(x) e^x K_order(x) in T_k(4/x - 1), x > 2."""
    with mp.workdps(40):
        us = [mp.cos(mp.pi * (j + mpf(1) / 2) / CHEB_POINTS) for j in range(CHEB_POINTS)]
        values = [mp.sqrt(x) * mp.exp(x) * mp.besselk(order, x)
                  for x in (8 / (2 * u + 2) for u in us)]
        # a_k = (2/M) sum_j f(u_j) T_k(u_j), with T_k(u_j) by its recurrence
        coef, prev, cur = [], [mpf(1)] * CHEB_POINTS, us
        coef.append(2 * mp.fsum(values) / CHEB_POINTS)
        for _ in range(1, CHEB_POINTS):
            coef.append(2 * mp.fsum(v * t for v, t in zip(values, cur)) / CHEB_POINTS)
            prev, cur = cur, [2 * u * t - p for u, t, p in zip(us, cur, prev)]
        scale = abs(coef[0]) / 2
        count = CHEB_POINTS
        while mp.fsum(abs(c) for c in coef[count - 1:]) < CHEB_TAIL * scale:
            count -= 1
        return tuple(float(c) for c in coef[:count])


def k_series() -> tuple[tuple[float, float, float, float], ...]:
    """Per power k of q: 1/(k!)^2, H_k/(k!)^2, 1/(k!(k+1)!), (H_k + H_{k+1})/(k!(k+1)!)."""
    with mp.workdps(50):
        rows = []
        for k in range(SERIES_TERMS):
            h_k = mp.harmonic(k)
            h_k1 = mp.harmonic(k + 1)
            sq = mp.factorial(k) ** 2
            pair = mp.factorial(k) * mp.factorial(k + 1)
            rows.append((float(1 / sq), float(h_k / sq), float(1 / pair),
                         float((h_k + h_k1) / pair)))
        return tuple(rows)


def stirlerr() -> tuple[float, ...]:
    """log(k!) - ((k + 1/2) log k - k + log sqrt(2 pi)) for k = 0..15 (0 at k = 0)."""
    with mp.workdps(50):
        out = [0.0]
        for k in range(1, STIRLERR_MAX + 1):
            out.append(float(mp.log(mp.factorial(k)) - (k + mpf(1) / 2) * mp.log(k) + k
                             - mp.log(mp.sqrt(2 * mp.pi))))
        return tuple(out)


def main() -> None:
    for name, table in (("_K0_CHEB", k_cheb(0)), ("_K1_CHEB", k_cheb(1)),
                        ("_K_SERIES", k_series()), ("_STIRLERR", stirlerr())):
        print(f"{name} = (")
        for entry in table:
            print(f"    {entry!r},")
        print(")")


if __name__ == "__main__":
    main()
