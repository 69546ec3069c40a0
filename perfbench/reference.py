"""Reference values from mpmath, computed apart from the program.

* 1/Gamma(s): ``mpmath.rgamma`` at 50 digits.
* E(rho, mu; z) = sum_n z^n / Gamma(mu + n/rho): the series summed in mpmath
  at a working precision of 50 digits plus the decimal exponent of its
  largest term, so cancellation between large terms cannot reach the 50
  digits kept.

``self_check`` tests these functions against closed forms before any point
is judged by them; a failure there means the harness is broken.
"""

from __future__ import annotations

import math

import mpmath

GAMMA_DPS = 50
MIN_DPS = 50
#: Digits that must survive cancellation in a series reference.
KEPT_DIGITS = 40
MAX_TERMS = 20000


class ReferenceFailure(RuntimeError):
    """A reference could not be computed to the digits the checks need."""


def recip_gamma(s: complex) -> complex:
    with mpmath.workdps(GAMMA_DPS):
        return complex(mpmath.rgamma(mpmath.mpc(s.real, s.imag)))


class MLSeries:
    """E(rho, mu; z) for one (rho, mu); the coefficients 1/Gamma(mu + n/rho)
    are computed once per working precision and shared by every z."""

    def __init__(self, rho: float, mu: complex):
        self.rho = float(rho)
        self.mu = complex(mu)
        self._coeffs: dict[int, list] = {}

    def _coeff(self, n: int, dps: int):
        """(1/Gamma(mu + n/rho), log10 of its modulus)."""
        table = self._coeffs.setdefault(dps, [])
        if n >= len(table):
            with mpmath.workdps(dps + 10):
                mu = mpmath.mpc(self.mu.real, self.mu.imag)
                rho = mpmath.mpf(self.rho)
                while len(table) <= n:
                    c = mpmath.rgamma(mu + len(table) / rho)
                    table.append((c, float(mpmath.log10(abs(c))) if c else -math.inf))
        return table[n]

    def _log10_peak_estimate(self, zmod: float) -> float:
        """Largest term from |Gamma(x + iy)| <= Gamma(x); the sum is redone
        if the true peak turns out larger."""
        peak, n = 0.0, 0
        log10_z = math.log10(zmod)
        while n < MAX_TERMS:
            x = self.mu.real + n / self.rho
            if x > 0:
                term = n * log10_z - math.lgamma(x) / math.log(10)
                if term > peak:
                    peak = term
                elif x > 2 and term < peak - 5:
                    break
            n += 1
        return peak

    def __call__(self, zmod: float, zarg: float) -> complex:
        dps = MIN_DPS
        if zmod > 0.0:
            dps += max(0, math.ceil(self._log10_peak_estimate(zmod)))
        while True:
            value, log10_max, log10_sum = self._sum(zmod, zarg, dps)
            needed = MIN_DPS + max(0, math.ceil(log10_max))
            if dps >= needed and dps - (log10_max - log10_sum) >= KEPT_DIGITS:
                return value
            if dps > needed + 200:
                raise ReferenceFailure(
                    f"series reference lost its digits at rho={self.rho}, "
                    f"mu={self.mu}, |z|={zmod}, arg z={zarg}")
            dps = max(needed, dps + 20)

    def _sum(self, zmod: float, zarg: float, dps: int):
        """The series at ``dps`` digits, summed until the terms (sized in
        floats from the coefficient moduli) fall ``dps + 5`` decades below
        the largest; returns (value, log10 largest term, log10 |value|)."""
        log10_z = math.log10(zmod) if zmod else -math.inf
        with mpmath.workdps(dps + 10):
            z = mpmath.mpf(zmod) * mpmath.expj(mpmath.mpf(zarg))
            total = mpmath.mpc(0)
            power = mpmath.mpc(1)
            log10_max, peak_index = -math.inf, 0
            for n in range(MAX_TERMS):
                coeff, log10_coeff = self._coeff(n, dps)
                total += power * coeff
                size = (n * log10_z if n else 0.0) + log10_coeff
                if size > log10_max:
                    log10_max, peak_index = size, n
                elif n > peak_index + 2 and size < log10_max - dps - 5:
                    break
                power *= z
            else:
                raise ReferenceFailure(
                    f"series reference did not converge in {MAX_TERMS} terms at "
                    f"rho={self.rho}, mu={self.mu}, |z|={zmod}, arg z={zarg}")
            if total == 0:
                raise ReferenceFailure("series reference is zero; relative checks undefined")
            return complex(total), log10_max, float(mpmath.log10(abs(total)))


def closed_form(rho: float, mu: complex, zmod: float, zarg: float) -> complex | None:
    """E(1,1;z) = e^z, E(1,2;z) = (e^z - 1)/z, E(1/2,1;z) = cosh(sqrt z)."""
    key = (rho, complex(mu))
    with mpmath.workdps(MIN_DPS):
        z = mpmath.mpf(zmod) * mpmath.expj(mpmath.mpf(zarg))
        if key == (1.0, 1 + 0j):
            return complex(mpmath.exp(z))
        if key == (1.0, 2 + 0j):
            return complex(mpmath.expm1(z) / z) if zmod else 1 + 0j
        if key == (0.5, 1 + 0j):
            return complex(mpmath.cosh(mpmath.sqrt(z)))
    return None


def _agree(a: complex, b: complex) -> bool:
    return abs(a - b) <= 1e-14 * abs(b) + 1e-300


def self_check(groups) -> None:
    """Check the references where the answer is known; raise
    ReferenceFailure on any disagreement."""
    for k in range(7):
        if recip_gamma(complex(-k, 0.0)) != 0:
            raise ReferenceFailure(f"rgamma is not 0 at the pole s = {-k}")
    if recip_gamma(1 + 0j) != 1 or not _agree(recip_gamma(0.5 + 0j), 1 / math.sqrt(math.pi)):
        raise ReferenceFailure("rgamma disagrees with 1/Gamma(1) = 1 or 1/Gamma(1/2)")
    for rho, mu in groups:
        if not _agree(MLSeries(rho, mu)(0.0, 0.0), recip_gamma(complex(mu))):
            raise ReferenceFailure(f"E({rho}, {mu}; 0) differs from 1/Gamma(mu)")
    for rho, mu in ((1.0, 1.0), (1.0, 2.0), (0.5, 1.0)):
        series = MLSeries(rho, mu)
        for zmod in (0.3, 2.2, 5.0):
            for zarg in (0.0, 0.45 * math.pi, math.pi):
                if not _agree(series(zmod, zarg), closed_form(rho, mu, zmod, zarg)):
                    raise ReferenceFailure(
                        f"series reference differs from the closed form at rho={rho}, "
                        f"mu={mu}, |z|={zmod}, arg z={zarg}")
