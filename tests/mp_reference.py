"""Arbitrary-precision reference for the relay-branch closed form (tests only).

:func:`relay_outage_mp` evaluates the same Bessel sum as
``noma_perf.analytic._relay_outage_f64`` (Gradshteyn-Ryzhik 3.471.9) in
mpmath, doubling the working precision until the result keeps
``guard`` significant digits above the rounding level of the bracket
``1 - sum``, and raises if the precision cap is reached first.

Run as a script to regenerate the frozen reference table the deep-branch
tests read (a few minutes; the mu = 5, 6 points need 160 digits):

    PYTHONPATH=src python tests/mp_reference.py
"""

from __future__ import annotations

import json
from pathlib import Path

from mpmath import mp

#: frozen reference values of the deep branch, written by ``main``
TABLE_PATH = Path(__file__).with_name("data") / "relay_deep_reference.json"

#: the grid of the table: mu x omega_sr x omega_rd x noise_scale x cut
GRID_MU = (1, 2, 3, 4, 5, 6)
GRID_OMEGA_SR = (0.5, 1.0, 3.0)
GRID_OMEGA_RD = (0.5, 1.0, 4.0)
GRID_NOISE = (0.1, 1.0, 10.0)
GRID_CUTS = tuple(10.0 ** (e / 2.0) for e in range(-24, 5))  # 1e-12 .. 1e2

#: the table keeps grid points whose outage is below this (the deep branch)
TABLE_LIMIT = 1e-6


class PrecisionCapError(RuntimeError):
    """The bracket still cancels below the guard digits at the precision cap."""


def _relay_outage_at(cut, mu, omega_sr, omega_rd, noise_scale):
    z = mp.mpf(cut)
    w_sr = mp.mpf(omega_sr)
    w_rd = mp.mpf(omega_rd)
    shape = mp.mpf(mu)
    zc = z * mp.mpf(noise_scale)
    arg = 2 * shape * mp.sqrt(zc / (w_sr * w_rd))
    pref = 2 * shape ** shape * mp.e ** (-shape * z / w_sr) / (w_sr ** shape * mp.gamma(shape))
    total = mp.mpf(0)
    for k in range(mu):
        coef_k = zc ** k / mp.gamma(k + 1) * (shape / w_rd) ** k
        inner = mp.mpf(0)
        for i in range(mu):
            order = i - k + 1
            inner += (
                mp.binomial(mu - 1, i)
                * z ** (mu - 1 - i)
                * (zc * w_sr / w_rd) ** (mp.mpf(order) / 2)
                * mp.besselk(order, arg)
            )
        total += coef_k * inner
    return 1 - pref * total


def relay_outage_mp(cut: float, mu: int, omega_sr: float, omega_rd: float,
                    noise_scale: float, *, guard: int = 20, dps: int = 40,
                    max_dps: int = 320) -> float:
    """Relay-branch outage in arbitrary precision, with ``guard`` digits to spare.

    The bracket's terms are of order one, so at ``dps`` digits its
    absolute error is about 10**-dps; a result above 10**(guard - dps)
    is accurate to about 10**-guard relative.  Otherwise the precision
    doubles, up to ``max_dps``, after which :class:`PrecisionCapError`
    is raised rather than a value with too few correct digits.
    """
    while True:
        with mp.workdps(dps):
            value = _relay_outage_at(cut, mu, omega_sr, omega_rd, noise_scale)
            if value > mp.mpf(10) ** (guard - dps):
                return float(value)
        if dps >= max_dps:
            raise PrecisionCapError(
                f"relay outage at cut={cut!r}, mu={mu} keeps fewer than {guard} "
                f"guard digits at {dps} digits"
            )
        dps = min(2 * dps, max_dps)


def main() -> None:
    # imported here so the module stays importable without the package on the path
    from noma_perf.analytic import relay_outage_closed

    rows = []
    for mu in GRID_MU:
        for omega_sr in GRID_OMEGA_SR:
            for omega_rd in GRID_OMEGA_RD:
                for noise in GRID_NOISE:
                    for cut in GRID_CUTS:
                        kw = dict(mu=mu, omega_sr=omega_sr, omega_rd=omega_rd,
                                  noise_scale=noise)
                        # skip the shallow branch without paying for mpmath there
                        if relay_outage_closed(cut, **kw) >= 2 * TABLE_LIMIT:
                            continue
                        value = relay_outage_mp(cut, mu, omega_sr, omega_rd, noise)
                        if 0.0 < value < TABLE_LIMIT:
                            rows.append([mu, omega_sr, omega_rd, noise, cut, value])
        print(f"mu={mu}: {len(rows)} rows so far", flush=True)
    TABLE_PATH.parent.mkdir(exist_ok=True)
    doc = ("relay-branch outage below 1e-6, mpmath with 20 guard digits; rows are "
           "[mu, omega_sr, omega_rd, noise_scale, cut, outage]; regenerate with "
           "PYTHONPATH=src python tests/mp_reference.py")
    body = ",\n".join(json.dumps(row) for row in rows)
    TABLE_PATH.write_text(f'{{"doc": {json.dumps(doc)},\n"rows": [\n{body}\n]}}\n',
                          encoding="utf-8")
    print(f"wrote {len(rows)} rows to {TABLE_PATH}")


if __name__ == "__main__":
    main()
