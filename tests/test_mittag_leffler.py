import cmath
import itertools
import math
import sys
import threading

import numpy as np
import pytest
from ml_reference import ml_reference

from mlcontour import (
    ContourValidityError,
    MLParams,
    MlcError,
    ConvergenceError,
    SeriesDiagnostics,
    PolarComplex,
    PreconditionError,
    QuadratureConfig,
    compare_methods,
    default_ml_deltas,
    evaluate_ml,
    ml_arg_window,
    ml_bateman,
    ml_closed_form,
    ml_contour,
    ml_dzhrbashyan,
    ml_route,
    ml_series,
    recip_gamma_oracle,
)
from mlcontour.mittag_leffler import default_ml_spec
from mlcontour import mittag_leffler
from mlcontour.gamma import is_gamma_pole, log_gamma
from mlcontour.geometry import MLContourSpec, ml_delta_range, validate_ml_contour

PI = math.pi

# frozen reference values, cross-checked against the brute-force partial sums
E_2_1_AT_1 = 5.0089800807622835        # sum_{n} 1/Gamma(1 + n/2), = e*erfc(-1)
E_2_1_AT_MINUS_1 = 0.4275835761558070  # alternating sum, = e*erfc(1)
E_1_2_AT_MINUS_2 = 0.4323323583816936  # (e^{-2} - 1)/(-2)
E_1_MU_AT_MINUS_2 = 0.18561010927548633 + 0.3171484923362945j  # mu = 1 + 0.5i


def brute_force_series(rho, mu, z, terms):
    """Independent oracle: plain partial sums with stdlib gamma via reflection."""
    total = 0j
    for n in range(terms):
        arg = mu + n / rho
        if arg.imag == 0:
            x = arg.real
            if x <= 0 and x == round(x):
                continue
            try:
                g = math.gamma(x)
            except (OverflowError, ValueError):
                continue
            total += z**n / g
        else:
            raise ValueError("real mu only in the brute-force oracle")
    return total


def test_brute_force_oracle_matches_frozen_constants():
    assert brute_force_series(2.0, 1.0 + 0j, 1.0 + 0j, 61) == pytest.approx(E_2_1_AT_1)
    assert brute_force_series(2.0, 1.0 + 0j, -1.0 + 0j, 61) == pytest.approx(E_2_1_AT_MINUS_1)


class TestSeries:
    def test_exponential(self):
        ev = ml_series(MLParams(1.0, 1.0), PolarComplex(1.0, 0.0))
        assert ev.value == pytest.approx(math.e, rel=1e-12)
        assert ev.diagnostics.converged
        assert not ev.diagnostics.unreliable

    def test_z_zero_single_term(self):
        for mu in (0.5, 2.0, 1 + 0.5j):
            ev = ml_series(MLParams(1.7, mu), PolarComplex(0.0, 0.0))
            assert ev.value == complex(recip_gamma_oracle(mu))
            assert ev.diagnostics.terms_used == 1

    def test_second_parameter_shift(self):
        ev = ml_series(MLParams(1.0, 2.0), PolarComplex(1.0, 0.0))
        assert ev.value == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_against_brute_force(self):
        ev = ml_series(MLParams(2.0, 1.0), PolarComplex(1.0, 0.0))
        assert ev.value == pytest.approx(E_2_1_AT_1, rel=1e-10)

    def test_gamma_pole_terms_skipped(self):
        # mu = 0 and rho = 1: the n = 0 term sits on a pole and contributes 0
        ev = ml_series(MLParams(1.0, 0.0), PolarComplex(1.0, 0.0))
        # sum_{n>=1} 1/Gamma(n) = sum_{k>=0} 1/k! = e
        assert ev.value == pytest.approx(math.e, rel=1e-12)

    def test_block_boundary(self):
        # 58 terms: the reciprocal gammas come in more than one block
        ev = ml_series(MLParams(1.0, 1.0), PolarComplex(20.0, 0.0))
        assert ev.diagnostics.terms_used == 58
        assert ev.value == pytest.approx(math.exp(20.0), rel=1e-10)

    def test_poles_at_first_two_terms(self):
        # E(1, -1; z) = z^2 e^z: the n = 0 and n = 1 terms sit on poles
        z = PolarComplex(3.0, 1.0)
        zc = z.to_complex()
        ev = ml_series(MLParams(1.0, -1.0), z)
        assert ev.diagnostics.converged
        assert ev.value == pytest.approx(zc * zc * cmath.exp(zc), rel=1e-12)

    @pytest.mark.parametrize("z", [PolarComplex(1.0, PI), PolarComplex(2.0, 3.0)])
    def test_three_poles_in_a_row_do_not_end_the_sum(self, z):
        # E(1, -5; z) = z^6 e^z: the n = 0..5 terms sit on poles, and their
        # zeros used to end the sum at 0 after three terms
        zc = z.to_complex()
        ev = ml_series(MLParams(1.0, -5.0), z)
        assert ev.diagnostics.converged
        assert ev.value == pytest.approx(zc ** 6 * cmath.exp(zc), rel=1e-13)

    def test_cancellation_flagged(self):
        ev = ml_series(MLParams(2.0, 1.0), PolarComplex(5.0, PI))
        assert ev.diagnostics.cancellation_digits > 9
        assert ev.diagnostics.unreliable

    def test_moderate_cancellation_not_flagged(self):
        ev = ml_series(MLParams(4.0, 1.0), PolarComplex(2.0, PI))
        assert ev.diagnostics.cancellation_digits < 9
        assert not ev.diagnostics.unreliable

    def test_overflow_screening(self):
        ev = ml_series(MLParams(1.0, 1.0), PolarComplex(800.0, 0.0))
        assert not ev.diagnostics.converged
        assert ev.diagnostics.unreliable

    def test_term_budget(self):
        ev = ml_series(MLParams(4.0, 0.5), PolarComplex(5.0, PI), max_terms=50)
        assert not ev.diagnostics.converged

    @pytest.mark.parametrize("z_mod", [0.0, 1.0])
    @pytest.mark.parametrize("max_terms", [0, -5])
    def test_term_budget_below_one_refused(self, z_mod, max_terms):
        with pytest.raises(PreconditionError, match="max_terms"):
            ml_series(MLParams(1.0, 1.0), PolarComplex(z_mod, 0.0), max_terms=max_terms)

    def test_term_budget_ignored_by_other_routes(self):
        ev = evaluate_ml(MLParams(1.0, 1.0), PolarComplex(1.0, PI), "contour", max_terms=0)
        assert ev.value == pytest.approx(math.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("mu,z", [
        (1.0, PolarComplex(10.0, 0.0)),        # the sum passes the largest double
        (0.5, PolarComplex(10.0, 0.75 * PI)),  # |term| passes it, parts do not
    ])
    def test_overflow_is_flagged_not_raised(self, mu, z):
        ev = ml_series(MLParams(4.0, mu), z)
        assert not ev.diagnostics.converged
        assert ev.diagnostics.cancellation_digits == math.inf


_REF_BLOCK = 32
_REF_LN2 = math.log(2.0)


def _reference_series(params, z, max_terms=mittag_leffler.SERIES_MAX_TERMS,
                      cfg=mittag_leffler.DEFAULT_QUADRATURE):
    """The series as it was before its blocks were kept: one oracle call per
    block of 32 terms at every call.  Returns (value, diagnostics)."""
    mu = complex(params.mu)
    if z.modulus == 0.0:
        value = complex(recip_gamma_oracle(mu))
        return value, SeriesDiagnostics(1, abs(value), 0.0, True)
    zc = z.modulus * cmath.exp(1j * z.argument)
    total = comp = 0j
    max_term, max_index, small_streak, terms_used = 0.0, 0, 0, 0
    converged = overflowed = False
    z_pow, scale_exp = 1.0 + 0j, 0
    for n in range(max_terms):
        i = n % _REF_BLOCK
        if i == 0:
            args = mu + np.arange(n, n + _REF_BLOCK) / params.rho
            recips = recip_gamma_oracle(args).tolist() if scale_exp == 0 else None
            logs = None
        if scale_exp == 0:
            term = z_pow * recips[i]
        else:
            if logs is None:
                logs = log_gamma(args).tolist()
            lg = logs[i]
            magnitude = -lg.real + scale_exp * _REF_LN2
            if magnitude > 709.0:
                overflowed = True
                break
            term = z_pow * cmath.exp(complex(magnitude, -lg.imag))
        if not (math.isfinite(term.real) and math.isfinite(term.imag)):
            overflowed = True
            break
        terms_used = n + 1
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        try:
            mod = abs(term)
            total_mod = abs(total)
        except OverflowError:
            total_mod = math.inf
        if not total_mod < math.inf:
            overflowed = True
            break
        if mod > max_term:
            max_term, max_index = mod, n
        if mod < cfg.abs_tol + cfg.rel_tol * total_mod:
            if mod or not is_gamma_pole(mu + n / params.rho):  # not a pole's zero
                small_streak += 1
                if small_streak >= 3 and n > max_index:
                    converged = True
                    break
        else:
            small_streak = 0
        z_pow *= zc
        while abs(z_pow) > 2.0 ** 800:
            z_pow *= 2.0 ** -831
            scale_exp += 831
    if overflowed:
        converged, cancellation = False, math.inf
    elif abs(total) == 0.0:
        cancellation = math.inf if max_term > 0 else 0.0
    elif max_term == 0.0:
        cancellation = 0.0
    else:
        cancellation = math.log10(max_term / abs(total))
    return total, SeriesDiagnostics(terms_used, max_term, cancellation, converged)


class TestSeriesReference:
    """``ml_series`` takes its gamma blocks from a memo of one (rho, mu); over
    call sequences that hit and miss it, its values and diagnostics must
    have the bits of the per-call reference above."""

    @staticmethod
    def assert_same(calls):
        for rho, mu, z_mod, z_arg, *budget in calls:
            params, z = MLParams(rho, mu), PolarComplex(z_mod, z_arg)
            kw = {"max_terms": budget[0]} if budget else {}
            ev = ml_series(params, z, **kw)
            value, diag = _reference_series(params, z, **kw)
            assert (repr(ev.value), repr(ev.diagnostics)) == (repr(value), repr(diag)), \
                (rho, mu, z_mod, z_arg, budget)

    def test_growing_modulus_extends_blocks(self):
        mittag_leffler._series_blocks.cache_clear()
        self.assert_same([(2.0, 1.0, m, a) for m in (0.5, 3.0, 20.0, 80.0, 200.0)
                          for a in (0.0, 1.0, PI)])
        self.assert_same([(0.7, 0.3 + 2j, m, 2.5) for m in (40.0, 1.0, 90.0, 5.0)])

    def test_rescaled_branch_log_blocks(self):
        # rho = 1, |z| >= 600: the running power is rescaled and the terms
        # come from the log Gamma blocks, some of them computed mid-block
        mittag_leffler._series_blocks.cache_clear()
        calls = [(1.0, mu, m, a) for mu in (1.0, 0.5 + 2j, -3.0)
                 for m in (600.0, 650.0, 700.0, 750.0, 800.0) for a in (0.0, 2.0, PI)]
        self.assert_same(calls)
        self.assert_same(calls[::-1])

    @pytest.mark.parametrize("mu", [0.0, -1.0])
    def test_gamma_poles(self, mu):
        mittag_leffler._series_blocks.cache_clear()
        self.assert_same([(1.0, mu, m, a) for m in (0.0, 1.0, 30.0, 700.0) for a in (0.0, PI)])

    def test_term_budgets(self):
        mittag_leffler._series_blocks.cache_clear()
        calls = [(4.0, 0.5, m, PI, budget) for budget in (1, 31, 33, 50)
                 for m in (0.3, 5.0, 40.0)]
        self.assert_same(calls)
        self.assert_same(calls[::-1])

    def test_signed_zero_mu(self):
        mittag_leffler._series_blocks.cache_clear()
        mus = (complex(1.0, 0.0), complex(1.0, -0.0), complex(0.0, 0.0),
               complex(-0.0, -0.0), complex(0.0, -0.0))
        self.assert_same([(1.0, mu, m, a) for m in (0.0, 2.0, 700.0) for a in (0.0, PI)
                          for mu in mus])

    def test_alternating_pairs(self):
        mittag_leffler._series_blocks.cache_clear()
        pairs = [(2.0, 1.0), (0.75, 0.5 - 1j), (2.0, 1.0), (3.0, 2.0), (0.75, 0.5 - 1j)]
        self.assert_same([(rho, mu, m, a) for m in (1.0, 50.0, 8.0) for a in (0.3, PI)
                          for rho, mu in pairs])


class TestSeriesBlockReuse:
    """The memo computes each block once per (rho, mu) and holds one pair."""

    @staticmethod
    def counting(monkeypatch):
        counts = {"recip": 0, "log": 0}

        def counted(name, fn):
            def wrapper(args):
                counts[name] += 1
                return fn(args)
            return wrapper

        monkeypatch.setattr(mittag_leffler, "recip_gamma_oracle",
                            counted("recip", mittag_leffler.recip_gamma_oracle))
        monkeypatch.setattr(mittag_leffler, "log_gamma", counted("log", mittag_leffler.log_gamma))
        mittag_leffler._series_blocks.cache_clear()
        return counts

    def test_one_pair_computes_each_block_once(self, monkeypatch):
        counts = self.counting(monkeypatch)
        params = MLParams(1.0, 1.0)
        terms = [ml_series(params, PolarComplex(m, 0.5)).diagnostics.terms_used
                 for m in (1.0, 20.0, 5.0, 40.0, 10.0)]
        assert counts["recip"] == max(-(-t // 32) for t in terms) > 2
        # a second pair drops the first, whose blocks are computed again
        ml_series(MLParams(2.0, 1.0), PolarComplex(1.0, 0.0))
        before = counts["recip"]
        ml_series(params, PolarComplex(40.0, 0.5))
        assert counts["recip"] - before == max(-(-t // 32) for t in terms)

    def test_log_blocks_computed_once(self, monkeypatch):
        counts = self.counting(monkeypatch)
        # 701 terms, rescaled from n = 85 (700^85 > 2^800): blocks 0-2 take
        # 1/Gamma and blocks 2-21 log Gamma, block 2 both ways
        ml_series(MLParams(1.0, 1.0), PolarComplex(700.0, 0.0))
        first = dict(counts)
        assert first == {"recip": 3, "log": 20}
        for _ in range(2):
            ml_series(MLParams(1.0, 1.0), PolarComplex(700.0, 0.0))
        assert counts == first

    def test_blocks_past_default_budget_not_kept(self, monkeypatch):
        counts = self.counting(monkeypatch)
        # rho = 1e4, |z| = 1: the terms stay near 1 in modulus past the budget
        budget = mittag_leffler.SERIES_MAX_TERMS + 64
        params, z = MLParams(1e4, 1.0), PolarComplex(1.0, 1.0)
        first = ml_series(params, z, max_terms=budget)
        assert first.diagnostics.terms_used == budget
        assert counts["recip"] == -(-budget // 32)
        second = ml_series(params, z, max_terms=budget)
        kept = -(-mittag_leffler.SERIES_MAX_TERMS // 32)
        assert counts["recip"] == -(-budget // 32) * 2 - kept
        assert repr(second) == repr(first)

    def test_threads_share_the_memo(self):
        # more threads than cores, switching often, over pairs that alternate
        calls = [(rho, 1.0, m, a) for rho in (1.0, 2.0, 0.75) for m in (2.0, 60.0, 700.0)
                 for a in (0.0, PI)]
        expected = [tuple(map(repr, _reference_series(MLParams(r, mu), PolarComplex(m, a))))
                    for r, mu, m, a in calls]
        mismatches = []

        def worker(order):
            for k in order:
                r, mu, m, a = calls[k]
                ev = ml_series(MLParams(r, mu), PolarComplex(m, a))
                if (repr(ev.value), repr(ev.diagnostics)) != expected[k]:
                    mismatches.append(calls[k])

        rng = np.random.default_rng(3)
        threads = [threading.Thread(target=worker, args=(rng.permutation(len(calls) * 3) % len(calls),))
                   for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []


class TestContour:
    def test_exp_at_minus_one(self):
        ev = ml_contour(MLParams(1.0, 1.0), PolarComplex(1.0, PI))
        assert ev.method == "contour"
        assert ev.value == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_closed_form_mu_two(self):
        ev = ml_contour(MLParams(1.0, 2.0), PolarComplex(2.0, PI))
        assert ev.value == pytest.approx(E_1_2_AT_MINUS_2, rel=1e-9)

    def test_rho_two_against_series(self):
        ev = ml_contour(MLParams(2.0, 1.0), PolarComplex(1.0, PI))
        assert ev.value == pytest.approx(E_2_1_AT_MINUS_1, rel=1e-8)

    def test_branch_sensitive_case_against_series(self):
        params = MLParams(0.75, 0.5)
        z = PolarComplex(0.8, 2.5)
        contour = ml_contour(params, z).value
        series = ml_series(params, z).value
        assert abs(contour - series) / abs(series) < 1e-8

    def test_complex_mu_against_frozen(self):
        ev = ml_contour(MLParams(1.0, 1 + 0.5j), PolarComplex(2.0, PI))
        assert ev.value == pytest.approx(E_1_MU_AT_MINUS_2, rel=1e-7)

    def test_epsilon_and_delta_invariance(self):
        params = MLParams(1.0, 1.0)
        z = PolarComplex(1.0, PI)
        values = []
        for eps in (0.5, 1.0, 2.0):
            for d in (0.7 * PI, 0.85 * PI, PI):
                values.append(ml_contour(params, z, epsilon_hat=eps, deltas=(d, d)).value)
        spread = max(abs(a - b) for a in values for b in values)
        assert spread / abs(values[0]) < 1e-8

    def test_window_rejection(self):
        with pytest.raises(ContourValidityError):
            ml_contour(MLParams(2.0, 1.0), PolarComplex(1.0, 0.0))

    def test_overflow_guard(self):
        with pytest.raises(PreconditionError, match="too large"):
            ml_contour(MLParams(4.0, 1.0), PolarComplex(5.0, PI),
                       epsilon_hat=1.0, deltas=(PI / 4, PI / 4))

    def test_default_spec_caps_arc_growth(self):
        spec = default_ml_spec(MLParams(4.0, 1.0), PolarComplex(2.0, PI))
        assert (2.0 * (1 + spec.epsilon_hat)) ** 4.0 < 25.0
        # benign case keeps the spacious default
        spec2 = default_ml_spec(MLParams(1.0, 1.0), PolarComplex(1.0, PI))
        assert spec2.epsilon_hat == 1.0

    def test_z_zero_rejected(self):
        with pytest.raises(PreconditionError):
            default_ml_spec(MLParams(1.0, 1.0), PolarComplex(0.0, 0.0))

    def test_z_zero_rejected_with_explicit_epsilon(self):
        with pytest.raises(PreconditionError, match=r"\|z\| > 0"):
            ml_contour(MLParams(1.0, 1.0), PolarComplex(0.0, PI), epsilon_hat=1.0)

    def test_pole_term_excluded(self):
        # the loop keeps the simple pole outside: the small-circle residue
        # value rho * exp(z^rho) * z^{rho(1-mu)} is NOT part of the result
        params = MLParams(1.0, 1.0)
        z = PolarComplex(2.0, PI)
        zc = z.to_complex()
        phis = np.linspace(-PI, PI, 4001)[:-1]
        zeta = 1.0 + 0.2 * np.exp(1j * phis)
        integrand = np.exp(zc * zeta) / (zeta - 1.0) * (0.2j * np.exp(1j * phis))
        residue_value = complex(np.mean(integrand)) * 2 * PI / (2j * PI)
        assert residue_value == pytest.approx(cmath.exp(zc), rel=1e-6)
        contour = ml_contour(params, z).value
        series = ml_series(params, z).value
        assert abs(contour - series) < 1e-8
        assert abs(contour - (series + residue_value)) > 0.1


class TestBateman:
    def test_exp_at_minus_one(self):
        ev = ml_bateman(MLParams(1.0, 1.0), PolarComplex(1.0, PI), 2.0)
        assert ev.method == "bateman"
        assert ev.value == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_mu_two(self):
        ev = ml_bateman(MLParams(1.0, 2.0), PolarComplex(1.0, 0.0), 2.0)
        assert ev.value == pytest.approx(math.e - 1.0, rel=1e-9)

    def test_alpha_half_against_series(self):
        # alpha = 1/rho = 0.5
        ev = ml_bateman(MLParams(2.0, 1.0), PolarComplex(0.5, PI), 1.5)
        series = ml_series(MLParams(2.0, 1.0), PolarComplex(0.5, PI)).value
        assert abs(ev.value - series) / abs(series) < 1e-8

    def test_answers_at_any_mu(self):
        # the loop in s = tau^rho holds for every mu; E(1, 1 + 0.5i; -1) and
        # E(1, -1; z) = z^2 e^z, whose first two terms are 0
        ev = ml_bateman(MLParams(1.0, 1 + 0.5j), PolarComplex(1.0, PI), 2.0)
        assert ev.value == pytest.approx(ml_reference(1.0, 1 + 0.5j, -1.0), rel=1e-12)
        ev = ml_bateman(MLParams(1.0, -1.0), PolarComplex(1.0, PI), 2.0)
        assert ev.value == pytest.approx(math.exp(-1.0), rel=1e-12)

    # rho, mu, |z| and arg z / pi; |z| <= 2, where the default arc's peak
    # e^(1.5|z|^rho + 0.5) is at most e^12.5
    BOX = list(itertools.product((0.6, 1.0, 2.0, 3.0), (1 + 0.5j, -1.5 + 1j, 0.0, -1.0, 0.5 - 2j),
                                 (0.5, 2.0), (-0.5, 0.25, 0.75, 1.0)))

    def test_box_of_complex_and_nonpositive_mu(self):
        # each cell is within 1e-8 of mpmath (1e-9 absolute where |E| <
        # 1e-3), or raises a typed error; all 160 answer but 8 at rho = 3,
        # |z| = 2, which raise ConvergenceError
        answered = 0
        for rho, mu, zmod, zarg in self.BOX:
            z = PolarComplex(zmod, zarg * PI)
            try:
                ev = ml_bateman(MLParams(rho, mu), z)
            except MlcError:
                continue
            ref = ml_reference(rho, mu, z.to_complex())
            tol = 1e-9 if abs(ref) < 1e-3 else 1e-8 * abs(ref)
            assert abs(ev.value - ref) <= tol, (rho, mu, zmod, zarg)
            answered += 1
        assert answered >= 150

    # F14: at rho = 3, |z| = 4 the default arc epsilon = 1.5|z|^rho + 0.5 =
    # 96.5 peaks at |f| of about 8e40; the level difference reads 0 there, and
    # with no rounding floor (F8) a value off by 1e25 is labelled converged.
    # The loop must answer within its estimate (or 1e-8 of |E|), or raise.
    @pytest.mark.xfail(strict=True, reason="F14: no rounding floor on a huge arc peak")
    @pytest.mark.parametrize("mu, zarg", [(0.5, 0.375 * PI), (2.0, 0.5 * PI)])
    def test_huge_arc_peak_is_not_labelled_converged(self, mu, zarg):
        z = PolarComplex(4.0, zarg)
        try:
            ev = ml_bateman(MLParams(3.0, mu), z)
        except ConvergenceError:
            return
        ref = ml_reference(3.0, mu, z.to_complex())
        assert abs(ev.value - ref) <= max(ev.diagnostics.error_estimate, 1e-8 * abs(ref))

    def test_arc_radius_must_clear_pole_factor(self):
        with pytest.raises(PreconditionError, match="exceed"):
            ml_bateman(MLParams(2.0, 1.0), PolarComplex(2.0, PI), 3.0)  # needs eps > |z|^2 = 4


class TestDzhrbashyan:
    def test_exp_at_minus_one(self):
        ev = ml_dzhrbashyan(MLParams(1.0, 1.0), PolarComplex(1.0, PI), 2.0, 3 * PI / 4)
        assert ev.method == "dzhrbashyan"
        assert ev.value == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_imaginary_argument_against_series(self):
        ev = ml_dzhrbashyan(MLParams(2.0, 1.0), PolarComplex(0.5, PI / 2), 1.2, 0.4 * PI)
        series = ml_series(MLParams(2.0, 1.0), PolarComplex(0.5, PI / 2)).value
        assert abs(ev.value - series) / abs(series) < 1e-8

    def test_wide_angle_mu_two(self):
        ev = ml_dzhrbashyan(MLParams(1.0, 2.0), PolarComplex(1.0, 0.0), 2.0, 0.9 * PI)
        assert ev.value == pytest.approx(math.e - 1.0, rel=1e-9)

    def test_theta_window(self):
        lo, hi = ml_delta_range(2.0)
        assert (lo, hi) == pytest.approx((PI / 4, PI / 2))
        lo, hi = ml_delta_range(0.8)
        assert (lo, hi) == pytest.approx((PI / 1.6, PI))

    def test_theta_out_of_window_rejected(self):
        with pytest.raises(PreconditionError, match="theta"):
            ml_dzhrbashyan(MLParams(2.0, 1.0), PolarComplex(0.5, 0.0), 1.5, PI / 2)

    def test_epsilon_must_exceed_z(self):
        # z at or inside the loop's sector |arg tau| <= theta
        for arg in (PI / 2, 3 * PI / 4, -3 * PI / 4):
            with pytest.raises(PreconditionError, match="exceed"):
                ml_dzhrbashyan(MLParams(1.0, 1.0), PolarComplex(3.0, arg), 2.0, 3 * PI / 4)

    @pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.0, 3.0])
    def test_z_left_of_the_loop_allows_any_epsilon(self, epsilon):
        # |arg z| > theta keeps z out of the loop's sector, so epsilon <= |z|
        # adds no residue: E(1, 1; -3) = e^-3
        ev = ml_dzhrbashyan(MLParams(1.0, 1.0), PolarComplex(3.0, PI), epsilon, 3 * PI / 4)
        assert ev.value == pytest.approx(math.exp(-3.0), rel=1e-12)

    @pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.0])
    def test_arc_inside_z_at_rho_two(self, epsilon):
        # F4's point, where the default epsilon = |z| + 1 does not converge
        params, z = MLParams(2.0, 1.0), PolarComplex(4.0, PI)
        ev = ml_dzhrbashyan(params, z, epsilon)
        ref = ml_reference(2.0, 1.0, z.to_complex())
        assert abs(ev.value - ref) <= 1e-14 * abs(ref)

    def test_tiny_arc(self):
        # epsilon^rho underflows to 0, where the ray bound in u = r^rho is
        # singular; it is folded from u = 1 instead
        params, z = MLParams(4.0, 1.0), PolarComplex(1.0, PI)
        ev = ml_dzhrbashyan(params, z, epsilon=1e-90)
        ref = ml_reference(4.0, 1.0, z.to_complex())
        assert abs(ev.value - ref) <= max(ev.diagnostics.error_estimate, 1e-14 * abs(ref))


class TestClosedForm:
    def test_exponential(self):
        got = ml_closed_form(MLParams(1.0, 1.0), 2 + 1j)
        assert got == pytest.approx(cmath.exp(2 + 1j))

    def test_cosh_sqrt(self):
        got = ml_closed_form(MLParams(0.5, 1.0), 1.0)
        assert got == pytest.approx(1.5430806348152437)

    def test_mu_two_limit_at_zero(self):
        assert ml_closed_form(MLParams(1.0, 2.0), 0.0) == pytest.approx(1.0)

    def test_unknown_case_returns_none(self):
        assert ml_closed_form(MLParams(1.5, 1.0), 1.0) is None
        assert ml_closed_form(MLParams(1.0, 1 + 0.5j), 1.0) is None

    def test_one_parameter_consistency(self):
        # mu = 1 recovers the one-parameter function's closed forms
        ev = ml_series(MLParams(0.5, 1.0), PolarComplex(1.0, 0.0))
        assert ev.value == pytest.approx(ml_closed_form(MLParams(0.5, 1.0), 1.0), rel=1e-10)


class TestCompareMethods:
    def test_all_methods_agree_at_minus_one(self):
        report = compare_methods(MLParams(1.0, 1.0), PolarComplex(1.0, PI))
        ok = {o.method for o in report.outcomes if o.status == "ok"}
        assert {"series", "contour", "bateman", "dzhrbashyan", "closed-form"} <= ok
        for pair, dev in report.deviations.items():
            assert dev < 1e-8, pair
        closed = report.outcome("closed-form")
        assert closed.value == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_contour_skipped_outside_window(self):
        report = compare_methods(MLParams(2.0, 1.0), PolarComplex(1.0, PI / 4))
        contour = report.outcome("contour")
        assert contour.status == "skipped"
        assert "window" in contour.reason
        usable = {o.method for o in report.outcomes if o.status == "ok"}
        assert {"series", "bateman", "dzhrbashyan"} <= usable
        for pair, dev in report.deviations.items():
            assert dev < 1e-7, pair

    def test_complex_mu_routes(self):
        # the Bateman loop answers at complex mu too
        report = compare_methods(MLParams(1.0, 1 + 0.5j), PolarComplex(2.0, PI))
        assert report.outcome("bateman").status == "ok"
        for pair in (("series", "contour"), ("series", "bateman"), ("contour", "bateman")):
            assert report.deviations[pair] < 1e-7, pair

    def test_unreliable_series_excluded_from_deviations(self):
        report = compare_methods(MLParams(2.0, 1.0), PolarComplex(5.0, PI))
        series = report.outcome("series")
        assert series.status == "ok" and not series.reliable
        assert not any("series" in pair for pair in report.deviations)

    @pytest.mark.parametrize("point,expected", [
        # two loops fail at their default radii
        ((2.0, 1.0, 4.0, PI), {"series": "ok", "contour": "ok",
                               "bateman": "failed", "dzhrbashyan": "failed"}),
        # complex mu: every route answers
        ((1.0, 1 + 0.5j, 1.0, PI), {"series": "ok", "contour": "ok",
                                    "bateman": "ok", "dzhrbashyan": "ok"}),
        # the series overflows, and every loop refuses
        ((4.0, 1.0, 10.0, 0.0), {"series": "failed", "contour": "skipped",
                                 "bateman": "skipped", "dzhrbashyan": "skipped"}),
        # the series is flagged for cancellation: ok, but not reliable
        ((2.0, 1.0, 5.0, PI), {"series": "ok", "contour": "ok",
                               "bateman": "failed", "dzhrbashyan": "failed"}),
    ])
    def test_reliable_only_for_usable_answers(self, point, expected):
        rho, mu, zmod, zarg = point
        params, z = MLParams(rho, mu), PolarComplex(zmod, zarg)
        report = compare_methods(params, z)
        routes = [o for o in report.outcomes if o.method != "closed-form"]
        assert {o.method: o.status for o in routes} == expected
        series = ml_series(params, z).diagnostics
        for o in routes:
            flagged = o.method == "series" and bool(series.flags)
            assert o.reliable == (o.status == "ok" and not flagged), o.method
            # a failed series keeps its value; a refused or failed loop has none
            assert (o.value is None) == (o.status != "ok" and o.method != "series")
        reliable = {o.method for o in report.outcomes if o.reliable}
        assert {m for pair in report.deviations for m in pair} <= reliable

    def test_series_out_of_terms_is_failed(self):
        report = compare_methods(MLParams(4.0, 1.0), PolarComplex(10.0, 0.0))
        series = report.outcome("series")
        assert series.reason == "series did not converge"
        assert series.value == ml_series(MLParams(4.0, 1.0), PolarComplex(10.0, 0.0)).value

    @pytest.mark.parametrize("rho,mu,zmod,zarg", [
        (0.75, 1.0, 1.5, 0.8 * PI),
        (1.3, 0.5, 2.0, PI),
        (1.9, 1 + 0.5j, 0.4, 0.9 * PI),
        (1.0, 2.0, 1.2, 0.3),  # outside the zeta loop's window
    ])
    def test_values_are_the_direct_route_calls(self, rho, mu, zmod, zarg):
        params, z = MLParams(rho, mu), PolarComplex(zmod, zarg)
        report = compare_methods(params, z)
        routes = {"series": ml_series, "contour": ml_contour,
                  "bateman": ml_bateman, "dzhrbashyan": ml_dzhrbashyan}
        answered = 0
        for method, route in routes.items():
            outcome = report.outcome(method)
            if outcome.status != "ok":
                continue
            answered += 1
            ev = route(params, z)
            assert outcome.value == ev.value, method
            if method != "series":
                assert outcome.error_estimate == ev.diagnostics.error_estimate, method
        assert answered >= 3


class TestWindowMidpointAgreement:
    @pytest.mark.parametrize("rho", [0.6, 0.75, 1.0, 2.0])
    @pytest.mark.parametrize("mu", [0.5, 1.0, 1 + 0.5j])
    def test_contour_matches_series_at_midpoint(self, rho, mu):
        d1, d2 = default_ml_deltas(rho)
        lo, hi = ml_arg_window(rho, d1, d2)
        z = PolarComplex(2.0, 0.5 * (lo + hi))
        params = MLParams(rho, mu)
        series = ml_series(params, z)
        assert not series.diagnostics.unreliable
        contour = ml_contour(params, z)
        assert abs(contour.value - series.value) / abs(series.value) < 1e-6


class TestRouteSelection:
    @pytest.mark.parametrize("rho,z,route", [
        (0.5, PolarComplex(1.0, PI), "series"),
        (1.0, PolarComplex(0.0, PI), "series"),
        (2.0, PolarComplex(3.0, PI), "contour"),
        (1.0, PolarComplex(1.0, PI / 2), "series"),
        (4.0, PolarComplex(5.0, PI), "contour"),
        (4.0, PolarComplex(5.2, PI), "contour"),  # the arc passes inside the pole
        (2.0, PolarComplex(1e200, PI), "series"),
        # (|z|(1 + eps))^rho past OVERFLOW_EXPONENT_LIMIT: both half-angles
        # are pi, so the arc may not pass inside the pole
        (1.0, PolarComplex(700.0, PI), "series"),
    ])
    def test_route_matches_contour_preconditions(self, rho, z, route):
        params = MLParams(rho, 1.0)
        assert ml_route(params, z) == route
        if route == "series":
            with pytest.raises(PreconditionError):
                ml_contour(params, z)
        else:
            ref = ml_reference(rho, 1.0, z.to_complex())
            assert abs(ml_contour(params, z).value - ref) <= 1e-13 * abs(ref)

    def test_auto_runs_the_selected_route(self):
        params = MLParams(1.0, 1.0)
        for z in (PolarComplex(1.0, PI), PolarComplex(1.0, 0.0)):
            auto = evaluate_ml(params, z)
            assert auto.method == ml_route(params, z)
            assert auto.value == evaluate_ml(params, z, auto.method).value

    def test_route_defaults(self):
        params = MLParams(2.0, 1.0)
        z = PolarComplex(1.0, PI)
        lo, hi = ml_delta_range(2.0)
        assert evaluate_ml(params, z, "bateman").value == \
            ml_bateman(params, z, 1.5 * 1.0 ** 2.0 + 0.5).value
        assert evaluate_ml(params, z, "dzhrbashyan").value == \
            ml_dzhrbashyan(params, z, 2.0, 0.5 * (lo + hi)).value

    def test_contour_overrides(self):
        params = MLParams(1.0, 1.0)
        z = PolarComplex(1.0, PI)
        ev = evaluate_ml(params, z, "contour", epsilon_hat=0.5,
                         delta1_rho=0.9 * PI, delta2_rho=0.9 * PI)
        assert ev.value == pytest.approx(math.exp(-1.0), rel=1e-9)
        with pytest.raises(PreconditionError, match="go together"):
            evaluate_ml(params, z, "contour", delta1_rho=0.9 * PI)

    def test_unknown_method(self):
        with pytest.raises(PreconditionError, match="unknown method"):
            evaluate_ml(MLParams(1.0, 1.0), PolarComplex(1.0, PI), "trapezoid")


class TestMLReference:
    def test_poles_do_not_end_the_reference_sum(self):
        # rho = 2, mu = -5.5: every odd term sits on a pole; three of them
        # used to stop the sum after 6 terms, at 78.678
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            direct = sum((-1) ** n * mpmath.rgamma(mpmath.mpf(-5.5) + mpmath.mpf(n) / 2)
                         for n in range(200))
        ref = ml_reference(2.0, -5.5, -1.0)
        assert abs(ref - complex(direct)) <= 1e-15 * abs(direct)
        series = ml_series(MLParams(2.0, -5.5), PolarComplex(1.0, PI)).value
        assert abs(series - ref) <= 1e-11 * abs(ref)

    @pytest.mark.parametrize("z", [-200.0, -150.0])
    def test_stokes_line_keeps_the_exponential(self, z):
        # rho = 1, mu = 1: every 1/Gamma(1 - k) is 0, so E = e^z is the
        # exponential term alone; the sum cancels 2|z|/ln 10 digits
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50 + int(2 * abs(z) / math.log(10))):
            direct = complex(sum(mpmath.mpf(z) ** n * mpmath.rgamma(1 + n)
                                 for n in range(int(5 * abs(z)))))
        assert direct != 0
        assert abs(ml_reference(1.0, 1.0, z) - direct) <= 1e-15 * abs(direct)

    def test_modulus_past_the_double_range_of_z_to_the_rho(self):
        # |z|^rho = 1e375 overflows a double; E is about 1/(|z| Gamma(1 - 1/rho))
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            direct = complex(1 / (mpmath.mpf(1e15) * mpmath.gamma(1 - mpmath.mpf(1) / 25)))
        assert abs(ml_reference(25.0, 1.0, -1e15) - direct) <= 1e-14 * abs(direct)


class TestAutoSeriesThreshold:
    """``ml_route`` takes the series up to |z|^rho = AUTO_SERIES_MODULUS,
    where it is within AUTO_SERIES_ERROR of the reference, and the loop just
    past it; a rel_tol below AUTO_SERIES_ERROR keeps the loop.  The box is
    the edges of the sweep behind the constants (tests/auto_route_sweep.py)."""

    T = mittag_leffler.AUTO_SERIES_MODULUS
    BOUND = mittag_leffler.AUTO_SERIES_ERROR

    @staticmethod
    def modulus_at(rho, z_rho):
        """The largest |z| with |z|^rho <= z_rho."""
        m = z_rho ** (1.0 / rho)
        while m ** rho > z_rho:
            m = math.nextafter(m, 0.0)
        return m

    @pytest.mark.parametrize("rho", [0.51, mittag_leffler.AUTO_SERIES_RHO_MAX])
    @pytest.mark.parametrize("mu", [1 + 0.5j, -3 + 2j])
    @pytest.mark.parametrize("frac", [0.02, "pi", 0.98])
    def test_threshold(self, rho, mu, frac):
        lo, hi = ml_arg_window(rho, *default_ml_deltas(rho))
        arg = PI if frac == "pi" else lo + frac * (hi - lo)
        params = MLParams(rho, mu)
        at = PolarComplex(self.modulus_at(rho, self.T), arg)
        ev = evaluate_ml(params, at)
        ref = ml_reference(rho, mu, at.to_complex())
        assert (ev.method, ev.diagnostics.flags) == ("series", ())
        assert abs(ev.value - ref) <= self.BOUND * abs(ref)
        above = PolarComplex((self.T * (1 + 1e-9)) ** (1.0 / rho), arg)
        assert ml_route(params, above) == "contour"
        tight = QuadratureConfig(rel_tol=0.5 * self.BOUND)
        assert ml_route(params, at, tight) == "contour"

    def test_past_the_rho_bound_the_loop_keeps_small_modulus(self):
        rho = mittag_leffler.AUTO_SERIES_RHO_MAX * (1 + 1e-9)
        assert ml_route(MLParams(rho, 1.0), PolarComplex(1.0, PI)) == "contour"

    def test_grid_rows_follow_the_tolerance(self):
        from mlcontour import cli

        for cfg, route in ((cli.DEFAULT_QUADRATURE, "series"),
                           (QuadratureConfig(rel_tol=1e-12), "contour")):
            assert cli._ml_row(1.0, PI, MLParams(1.0, 1.0), "auto", cfg)["method"] == route


class TestAutoRouteDefects:
    """Points where the auto route picks a loop that fails, though E is
    known.  Each must answer within 1e-8 relative of the reference."""

    @staticmethod
    def assert_auto_answers(rho, mu, z):
        value = evaluate_ml(MLParams(rho, mu), z).value
        ref = ml_reference(rho, mu, z.to_complex())
        assert abs(value - ref) <= 1e-8 * abs(ref)

    # F11: at rho <= 1 past |z| of about 8.5**(1/rho), the default arc falls
    # back to epsilon_hat = 0.01, where the zeta loop mostly does not converge.
    @pytest.mark.xfail(strict=True, raises=ConvergenceError,
                       reason="F11: the fallback arc epsilon_hat = 0.01 does not converge")
    def test_past_the_growth_cap_at_rho_one(self):
        self.assert_auto_answers(1.0, 1.0, PolarComplex(9.0, PI))

    # F12: at tiny |z| the auto route took the loop; E is about 1/Gamma(mu).
    @pytest.mark.parametrize("zmod", [1e-30, 1e-200])
    def test_tiny_modulus(self, zmod):
        self.assert_auto_answers(1.0, 1.0, PolarComplex(zmod, PI))

    # F2: near its window edge the auto route took the loop, which did not converge.
    def test_near_the_window_edge(self):
        self.assert_auto_answers(0.75, 1.0, PolarComplex(0.5, 2.095395102393195))


class TestZetaLoopReuse:
    """_zeta_loop keeps the last loop it built: a point routed to the
    contour by "auto" builds and checks its loop once, and no call is served
    the loop of another point, pair or override."""

    @staticmethod
    def counting(monkeypatch):
        specs = []
        build = mittag_leffler.build_zeta_path

        def counted(spec, z_modulus):
            specs.append(spec)
            return build(spec, z_modulus)

        monkeypatch.setattr(mittag_leffler, "build_zeta_path", counted)
        mittag_leffler._zeta_loop.cache_clear()
        return specs

    def test_auto_builds_the_loop_once(self, monkeypatch):
        specs = self.counting(monkeypatch)
        assert evaluate_ml(MLParams(2.0, 1.0), PolarComplex(3.0, PI)).method == "contour"
        assert len(specs) == 1

    def test_grid_row_builds_the_loop_once(self, monkeypatch):
        from mlcontour import cli

        specs = self.counting(monkeypatch)
        row = cli._ml_row(3.0, PI, MLParams(2.0, 1.0), "auto", cli.DEFAULT_QUADRATURE)
        assert (row["method"], row["status"], len(specs)) == ("contour", "ok", 1)

    def test_a_refused_loop_is_not_kept(self, monkeypatch):
        specs = self.counting(monkeypatch)
        params, z = MLParams(1.0, 1.0), PolarComplex(6.0, PI / 2)  # outside the window
        for _ in range(2):
            assert ml_route(params, z) == "series"
            with pytest.raises(ContourValidityError):
                ml_contour(params, z)
        assert len(specs) == 4

    def test_every_call_has_the_bits_of_a_fresh_loop(self):
        cases = [
            (MLParams(1.0, 1.0), PolarComplex(1.0, PI), {}),
            (MLParams(1.0, 1 - 0j), PolarComplex(1.0, PI), {}),
            (MLParams(1.0, 1 + 0j), PolarComplex(1.0, PI), {}),
            (MLParams(1.0, 1.0), PolarComplex(2.0, PI), {}),
            (MLParams(1.0, 1.0), PolarComplex(1.0, PI), {"epsilon_hat": 0.5}),
            (MLParams(1.0, 1.0), PolarComplex(1.0, PI), {"deltas": [0.9 * PI, 0.9 * PI]}),
            (MLParams(2.0, 1.0), PolarComplex(4.0, PI), {}),  # the arc inside the pole
            (MLParams(1.5, 0.5), PolarComplex(2.0, 2.8), {}),
        ]

        def fresh(params, z, overrides):
            mittag_leffler._zeta_loop.cache_clear()
            return repr(ml_contour(params, z, **overrides))

        expected = [fresh(*case) for case in cases]
        mittag_leffler._zeta_loop.cache_clear()
        for repeat in (1, 2, 1):  # alternating, each call a miss; then each a hit
            got = [repr(ml_contour(params, z, **overrides))
                   for params, z, overrides in cases for _ in range(repeat)]
            assert got == [e for e in expected for _ in range(repeat)]


class TestZetaLoopDecides:
    """_zeta_loop makes every refusal of the zeta loop, its ray bounds
    included, before integrate_path runs, so auto takes the series wherever
    the loop would refuse.  At the point below the ray bounds leave the
    double range: e^(Im mu angle) with Im mu = -300 overflows at the ray
    angle -pi, the first ray bounded, and underflows to 0 at pi."""

    # (params, z, relative error of auto's value to ml_reference); it reads
    # 1.4e-13, where log Gamma(mu + n) is about 1,500 in modulus
    POINTS = [(MLParams(1.0, 0.5 - 300j), PolarComplex(1.0, PI), 2e-13)]

    @pytest.mark.parametrize("params, z, rel", POINTS)
    def test_auto_takes_the_series(self, params, z, rel):
        assert ml_route(params, z) == "series"
        ev = evaluate_ml(params, z, method="auto")
        ref = ml_reference(params.rho, params.mu, z.to_complex())
        assert ev.method == "series"
        assert abs(ev.value - ref) <= rel * abs(ref)

    @pytest.mark.parametrize("params, z", [point[:2] for point in POINTS])
    def test_contour_refuses_before_integrating(self, params, z, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("integrate_path ran")

        monkeypatch.setattr(mittag_leffler, "integrate_path", never)
        mittag_leffler._zeta_loop.cache_clear()
        with pytest.raises(PreconditionError, match="a ray bound overflows a double") as refused:
            ml_contour(params, z)
        assert refused.traceback[-1].name == "with_power_growth"
        assert any(entry.name == "_zeta_loop" for entry in refused.traceback)

    def test_loop_answers_where_the_zeta_plane_bound_underflowed(self, monkeypatch):
        # The zeta-plane bound carried |z|^(rho(1 - mu)) = 20^(-398), which
        # underflowed; in s = (z zeta)^rho the power r^(-mu) starts at the
        # arc radius 1, and the bound no longer refuses: the loop is
        # integrated.  E is about 1/Gamma(200), 0 in doubles.  The loop's
        # value is within its summed estimate of 0, but that estimate, 1.12e-14,
        # is above abs_tol, so the loop answers with ConvergenceError.
        params, z = MLParams(2.0, 200.0), PolarComplex(20.0, PI)
        assert ml_route(params, z) == "contour"
        raws = []
        integrate = mittag_leffler.integrate_path

        def kept(*args, **kwargs):
            raws.append(integrate(*args, **kwargs))
            return raws[-1]

        monkeypatch.setattr(mittag_leffler, "integrate_path", kept)
        with pytest.raises(ConvergenceError, match=r"error estimate 1\.12e-14"):
            ml_contour(params, z)
        assert ml_reference(2.0, 200.0, -20.0) == 0
        raw, = raws
        assert abs(raw.value) <= raw.error_estimate < 2e-14


class TestInnerArc:
    """The zeta loop's arc at tau-plane radius 1, inside the pole zeta = 1:
    the default once (|z|(1.01))^rho would pass e^8.5, with both ray
    half-angles below pi."""

    @staticmethod
    def _points():
        """(rho, mu, |z|, arg z) over rho in (1, 4], four mu, |z| from just
        past where the inner arc starts to 1e15, arg z across the window."""
        mus = (0.5, 1.0, 1 + 0.5j, -1.5 + 1j)
        for i, rho in enumerate((1.02, 1.5, 2.0, 3.0, 4.0)):
            lo, hi = ml_arg_window(rho, *default_ml_deltas(rho))
            start = 8.5 ** (1.0 / rho) / 1.01
            for j, z_mod in enumerate((1.2 * start, 30.0, 1e3, 1e5, 1e10, 1e15)):
                for f, frac in enumerate((0.05, 0.5, 0.95)):
                    yield rho, mus[(9 * i + 3 * j + f) % len(mus)], z_mod, lo + frac * (hi - lo)

    def test_against_mpmath(self):
        for rho, mu, z_mod, arg in self._points():
            params, z = MLParams(rho, mu), PolarComplex(z_mod, arg)
            assert default_ml_spec(params, z).epsilon_hat == 1.0 / z_mod - 1.0
            ev = ml_contour(params, z)
            ref = ml_reference(rho, mu, z.to_complex())
            # within the error estimate, or a rounding floor under it
            bound = ev.diagnostics.error_estimate + 1e-13 * abs(ref)
            assert abs(ev.value - ref) <= bound, (rho, mu, z_mod, arg)

    @pytest.mark.xfail(strict=True, reason="the estimate has no rounding-floor term")
    def test_rounding_floor_above_estimate(self):
        # mu = -3 + 2j lifts the ray integrand far above |E|; the rounding of
        # its sum, 1.6e-10 |E|, passes the estimate, 4.1e-11 |E|, plus 1e-13 |E|
        params, z = MLParams(1.02, -3 + 2j), PolarComplex(30.0, 4.527589412526467)
        ev = ml_contour(params, z)
        ref = ml_reference(1.02, -3 + 2j, z.to_complex())
        assert abs(ev.value - ref) <= ev.diagnostics.error_estimate + 1e-13 * abs(ref)

    @pytest.mark.parametrize("rho", [1.5, 2.0, 3.0])
    def test_value_independent_of_epsilon_across_the_pole(self, rho):
        # the paper's invariance in the arc radius, now on both sides of the
        # pole: (|z|(1 + eps))^rho stays below 8.5 at eps = 1
        params, z = MLParams(rho, 1 + 0.5j), PolarComplex(1.0, PI + 0.1)
        values = [ml_contour(params, z, epsilon_hat=eps).value for eps in (-0.5, 0.5, 1.0)]
        ref = ml_reference(rho, 1 + 0.5j, z.to_complex())
        for value in values:
            assert abs(value - ref) <= 1e-13 * abs(ref)

    def test_default_spec(self):
        params = MLParams(2.0, 1.0)
        # below where the cap would clamp, the arc stays outside the pole
        assert default_ml_spec(params, PolarComplex(2.0, PI)).epsilon_hat == \
            8.5 ** 0.5 / 2.0 - 1.0
        assert default_ml_spec(params, PolarComplex(4.0, PI)).epsilon_hat == -0.75
        # a ray half-angle at pi runs through the pole: the clamp stays
        assert default_ml_spec(MLParams(1.0, 1.0), PolarComplex(20.0, PI)).epsilon_hat == 0.01
        assert default_ml_spec(params, PolarComplex(4.0, PI), deltas=(PI / 2, PI)) \
            .epsilon_hat == 0.01
        # the inner arc reaches as far as 1/|z| - 1 stays above -1; past
        # about 9e15 it rounds to -1 and the clamp stays
        assert default_ml_spec(params, PolarComplex(1.5e3, PI)).epsilon_hat == 1.0 / 1.5e3 - 1.0
        assert default_ml_spec(params, PolarComplex(2e16, PI)).epsilon_hat == 0.01
        assert ml_route(params, PolarComplex(2e16, PI)) == "series"

    @pytest.mark.parametrize("rho", [1.1, 2.0, 4.0])
    @pytest.mark.parametrize("z_mod", [1.5e3, 1e5, 3e6, 1e10, 1e15])
    def test_large_modulus_loop_answers(self, rho, z_mod):
        # each ray is graded from its own start radius 1/|z|, so the loop
        # needs no bound on |z|
        ev = evaluate_ml(MLParams(rho, 1.0), PolarComplex(z_mod, PI))
        assert ev.method == "contour"
        ref = ml_reference(rho, 1.0, -z_mod)
        assert abs(ev.value - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("rho", [1.1, 2.0, 4.0])
    @pytest.mark.parametrize("z_mod", [30.0, 1e3, 1e16])
    def test_panels_do_not_grow_with_modulus(self, rho, z_mod):
        # in s = (z zeta)^rho the inner arc has radius about 1 at every |z|,
        # so the rays' truncation floor 1.5 r0 + 1 no longer grows with |z|
        ev = ml_contour(MLParams(rho, 1.0), PolarComplex(z_mod, PI))
        assert ev.diagnostics.panels_used == 48

    @pytest.mark.parametrize("rho, mu, z_mod", [
        (25.0, 1.0, 1e15), (50.0, 1.0, 1e8), (50.0, 2 + 0.5j, 1e8)])
    def test_answers_where_z_to_the_rho_overflows(self, rho, mu, z_mod):
        # |z|^rho passes the double range here, which the zeta-plane rays'
        # decay rate |z|^rho used to refuse; at rho = 25, E is about
        # 1/(|z| Gamma(0.96)), 9.77e-16
        params, z = MLParams(rho, mu), PolarComplex(z_mod, PI)
        assert ml_route(params, z) == "contour"
        ev = ml_contour(params, z)
        ref = ml_reference(rho, mu, z.to_complex())
        assert abs(ev.value - ref) <= ev.diagnostics.error_estimate
        assert abs(ev.value - ref) <= 1e-15 * abs(ref)

    def test_refused_specs(self):
        params, z = MLParams(2.0, 1.0), PolarComplex(4.0, PI)
        for eps in (-1.0, -2.0):
            with pytest.raises(ContourValidityError, match="exceed -1"):
                ml_contour(params, z, epsilon_hat=eps)
        with pytest.raises(ContourValidityError, match="half-angle is pi"):
            ml_contour(MLParams(1.0, 1.0), z, epsilon_hat=-0.5)

    def test_former_non_convergence_answers(self):
        # (rho, mu, |z|) = (2, 1, 5) and (2, 0.5, 4) at arg z = pi raised
        # ConvergenceError with the arc clamped outside the pole
        for mu, z_mod in ((1.0, 5.0), (0.5, 4.0), (0.5, 5.0)):
            ev = ml_contour(MLParams(2.0, mu), PolarComplex(z_mod, PI))
            ref = ml_reference(2.0, mu, -z_mod)
            assert abs(ev.value - ref) <= 1e-14 * abs(ref)
            assert ev.diagnostics.panels_used == 48
