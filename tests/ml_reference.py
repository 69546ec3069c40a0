"""E(rho, mu; z) from mpmath, for tests that judge the loop routes.

Two references, each computed apart from the program:

* the series sum_n z^n / Gamma(mu + n/rho), at a working precision raised
  by the digits its largest term cancels, so that ``DIGITS`` survive;
* for |z|^rho >= ``ASYMPTOTIC_FROM`` and rho > 1/2, the asymptotic expansion
  -sum_{k>=1} z^-k / Gamma(mu - k/rho), plus rho z^(rho(1-mu)) e^(z^rho)
  (principal powers) where rho |arg z| <= pi (Podlubny 1999, Thms 1.3-1.4).
  Its terms fall until k is near rho |z|^rho, where they reach about
  e^(-|z|^rho); they are summed until three in a row are negligible.  On
  the Stokes line rho |arg z| = pi the exponential term is of that size
  too, below the sum's own error, except where every 1/Gamma(mu - k/rho)
  is 0 (rho = 1 and an integer mu <= 1): there it is all of E, e^z at
  mu = 1, so it is kept.

mpmath is a test extra: without it, a test that asks for a reference skips.
"""

from __future__ import annotations

import cmath
import math

import pytest

DIGITS = 30
ASYMPTOTIC_FROM = 100.0
ASYMPTOTIC_MAX_TERMS = 10 ** 6


def ml_reference(rho: float, mu: complex, z: complex) -> complex:
    z = complex(z)
    if z == 0:
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(DIGITS + 10):
            return complex(mpmath.rgamma(mpmath.mpc(mu.real, mu.imag)))
    # log |z|^rho: |z|^rho itself overflows a double at rho = 25, |z| = 1e15
    if rho > 0.5 and rho * math.log(abs(z)) >= math.log(ASYMPTOTIC_FROM):
        return _asymptotic(rho, complex(mu), z)
    dps = DIGITS + 10
    while True:
        value, cancelled = _series(rho, complex(mu), z, dps)
        if dps - cancelled >= DIGITS + 5:
            return value
        dps = int(DIGITS + cancelled + 15)


def _series(rho: float, mu: complex, z: complex, dps: int) -> tuple[complex, float]:
    """The series at ``dps`` digits, and the digits its largest term cancels.
    It stops after three terms in a row below 10^-dps of the largest; an
    exact zero, from a pole of Gamma, neither counts nor breaks the run."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        zm = mpmath.mpc(z.real, z.imag)
        mum = mpmath.mpc(mu.real, mu.imag)
        rhom = mpmath.mpf(rho)
        total = mpmath.mpc(0)
        power = mpmath.mpc(1)
        largest = mpmath.mpf(0)
        small = 0
        n = 0
        tiny = mpmath.mpf(10) ** -dps
        while small < 3:
            term = power * mpmath.rgamma(mum + n / rhom)
            total += term
            size = abs(term)
            largest = max(largest, size)
            if term != 0:
                small = small + 1 if size <= tiny * largest else 0
            power *= zm
            n += 1
        cancelled = float(mpmath.log10(largest / abs(total))) if total != 0 else math.inf
        return complex(total), max(cancelled, 0.0)


def _asymptotic(rho: float, mu: complex, z: complex) -> complex:
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(DIGITS + 10):
        zm = mpmath.mpc(z.real, z.imag)
        mum = mpmath.mpc(mu.real, mu.imag)
        rhom = mpmath.mpf(rho)
        total = mpmath.mpc(0)
        tiny = mpmath.mpf(10) ** -(DIGITS + 10)
        small = 0
        # the terms fall until k is near rho |z|^rho; the three negligible
        # terms end the sum long before a cap of ASYMPTOTIC_MAX_TERMS binds
        log_last = math.log(rho) + rho * math.log(abs(z))
        for k in range(1, int(math.exp(min(log_last, math.log(ASYMPTOTIC_MAX_TERMS))))):
            term = mpmath.power(zm, -k) * mpmath.rgamma(mum - k / rhom)
            total -= term
            small = small + 1 if abs(term) <= tiny * abs(total) else 0
            if small == 3:
                break
        if rho * abs(cmath.phase(z)) <= math.pi:
            w = mpmath.power(zm, rhom)
            total += rhom * mpmath.power(w, 1 - mum) * mpmath.exp(w)
        return complex(total)
