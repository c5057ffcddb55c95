import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mirnoise.geometry import FUSED_SILICA, solve_geometry
from mirnoise.modes import acoustic_waist_sq
from mirnoise.overlap import BeamSpec, ShellTraceTable, check_beam_on_mirror
from mirnoise.validation import (
    ModeIndex,
    QuadratureConvergenceError,
    effective_mass,
    mode_data,
    overlap_centered,
    beam_profile,
    hermite_product_tables,
    normalized_hermite_beam_sequence,
    overlap_offaxis,
    overlap_quadrature_oracle,
    shell_overlap_sq_over_mass,
)


@pytest.fixture(scope="module")
def geo():
    return solve_geometry(20.0, 0.07, FUSED_SILICA)


def test_beam_spec_validation(geo):
    with pytest.raises(ValueError):
        BeamSpec(waist=0.0)
    with pytest.raises(ValueError):
        BeamSpec(waist=0.02, offset=-0.01)
    with pytest.raises(ValueError):
        check_beam_on_mirror(BeamSpec(waist=0.02, offset=0.28), geo)
    check_beam_on_mirror(BeamSpec(waist=0.02, offset=0.12), geo)


def test_beam_profile_peak_and_normalization():
    beam = BeamSpec(waist=0.02)
    assert beam_profile(beam, 0.0, 0.0) == pytest.approx(2 / (math.pi * 0.02**2), rel=1e-14, abs=0.0)
    shifted = BeamSpec(waist=0.02, offset=0.05)
    assert beam_profile(shifted, 0.05, 0.0) == pytest.approx(2 / (math.pi * 0.02**2), rel=1e-14, abs=0.0)
    # integrates to 1 over the plane
    nodes, weights = np.polynomial.legendre.leggauss(400)
    half = 8 * 0.02
    x = 0.05 + half * nodes
    y = half * nodes
    wq = half * weights
    xx, yy = np.meshgrid(x, y, indexing="ij")
    total = float((beam_profile(shifted, xx, yy) * np.outer(wq, wq)).sum())
    assert total == pytest.approx(1.0, abs=1e-10)


def test_overlap_centered_examples(geo):
    # narrow-beam limit samples the on-axis peak
    narrow = overlap_centered(mode_data(geo, ModeIndex(n=1)), BeamSpec(waist=1e-6))
    assert narrow.value == pytest.approx(1.0, abs=1e-8)
    # w0^2 = 2 w_n^2 kills every p >= 1 mode
    w_match = math.sqrt(2 * acoustic_waist_sq(geo, 1))
    assert overlap_centered(
        mode_data(geo, ModeIndex(n=1, p=3)), BeamSpec(waist=w_match)
    ).value == pytest.approx(0.0, abs=1e-15)
    # reference value for the standard configuration
    got = overlap_centered(mode_data(geo, ModeIndex(n=1)), BeamSpec(waist=0.02))
    wn2 = acoustic_waist_sq(geo, 1)
    assert got.value == pytest.approx(2 * wn2 / (2 * wn2 + 4e-4), rel=1e-14, abs=0.0)
    assert got.value == pytest.approx(0.9788, rel=1e-4, abs=0.0)


def test_overlap_centered_preconditions(geo):
    with pytest.raises(ValueError):
        overlap_centered(mode_data(geo, ModeIndex(n=1)), BeamSpec(waist=0.02, offset=0.01))
    with pytest.raises(ValueError):
        overlap_centered(mode_data(geo, ModeIndex(n=1, l=1)), BeamSpec(waist=0.02))


def test_hermite_tables_reproduce_polynomials():
    # evaluate sum c H_m(X) H_k(Y) / den against the direct polynomial
    rng_pts = [(0.7, -0.3), (1.4, 0.9), (-0.2, 2.1)]
    for p, l, part in ((0, 1, "cos"), (2, 3, "sin"), (4, 2, "cos"), (3, 0, "cos")):
        re_tab, im_tab, den = hermite_product_tables(p, l)
        tab = re_tab if part == "cos" else im_tab
        for X, Y in rng_pts:
            mmax = len(tab) - 1
            kmax = len(tab[0]) - 1
            hx = [1.0, 2 * X]
            for m in range(1, mmax + 1):
                hx.append(2 * X * hx[m] - 2 * m * hx[m - 1])
            hy = [1.0, 2 * Y]
            for k in range(1, kmax + 1):
                hy.append(2 * Y * hy[k] - 2 * k * hy[k - 1])
            got = sum(
                tab[m][k] * hx[m] * hy[k]
                for m in range(mmax + 1)
                for k in range(kmax + 1)
                if tab[m][k]
            ) / den
            z = complex(X, Y) ** l
            t = X * X + Y * Y
            lm1, cur = 0.0, 1.0
            for k in range(p):
                lm1, cur = cur, ((2 * k + l + 1 - t) * cur - (k + l) * lm1) / (k + 1)
            ref = (z.real if part == "cos" else z.imag) * cur
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_offaxis_reduces_to_centered(geo):
    beam = BeamSpec(waist=0.02)
    for n, p in ((1, 0), (1, 4), (2, 2), (3, 7)):
        mode = mode_data(geo, ModeIndex(n=n, p=p))
        fast = overlap_offaxis(mode, beam)
        closed = overlap_centered(mode, beam)
        assert fast.value == pytest.approx(closed.value, rel=1e-12, abs=0.0)


def test_offaxis_angular_orthogonality(geo):
    beam = BeamSpec(waist=0.02)
    for l in (1, 2, 5):
        mode = mode_data(geo, ModeIndex(n=1, p=1, l=l))
        assert overlap_offaxis(mode, beam).value == 0.0


def test_offaxis_sine_parity_zero(geo):
    mode = mode_data(geo, ModeIndex(n=1, p=1, l=2, parity="sin"))
    assert overlap_offaxis(mode, BeamSpec(waist=0.02, offset=0.05)).value == 0.0


def test_offaxis_displaced_gaussian_closed_form(geo):
    # p = l = 0: two displaced Gaussians, complete the square
    wn2 = acoustic_waist_sq(geo, 1)
    w0, d = 0.02, 0.08
    mode = mode_data(geo, ModeIndex(n=1))
    expected = (
        2 * wn2 / (2 * wn2 + w0**2) * math.exp(-2 * d * d / (2 * wn2 + w0**2))
    )
    got = overlap_offaxis(mode, BeamSpec(waist=w0, offset=d))
    assert got.value == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_offaxis_matches_oracle_spec_case(geo):
    mode = mode_data(geo, ModeIndex(n=1, p=2, l=1))
    beam = BeamSpec(waist=0.02, offset=0.03)
    fast = overlap_offaxis(mode, beam)
    quad = overlap_quadrature_oracle(mode, beam)
    assert fast.value == pytest.approx(quad.value, rel=1e-8, abs=0.0)


def test_offaxis_quadratic_approach_to_center(geo):
    # for l = 0 the offset dependence is even, so the deviation from the
    # centered value scales as d^2
    mode = mode_data(geo, ModeIndex(n=1, p=2))
    v0 = overlap_centered(mode, BeamSpec(waist=0.02)).value
    d1 = 1e-3
    dev1 = overlap_offaxis(mode, BeamSpec(waist=0.02, offset=d1)).value - v0
    dev2 = overlap_offaxis(mode, BeamSpec(waist=0.02, offset=2 * d1)).value - v0
    assert dev2 == pytest.approx(4 * dev1, rel=1e-3, abs=0.0)


def test_offaxis_parity_in_offset(geo):
    # cosine modes with odd l are odd functions of the offset (leading term
    # linear in d), even l even (leading term quadratic): check the scaling
    # of the small-offset leading power
    eps = 1e-4
    mode_odd = mode_data(geo, ModeIndex(n=1, p=1, l=1))
    v1 = overlap_offaxis(mode_odd, BeamSpec(waist=0.02, offset=eps)).value
    v2 = overlap_offaxis(mode_odd, BeamSpec(waist=0.02, offset=2 * eps)).value
    assert v2 == pytest.approx(2 * v1, rel=1e-4, abs=0.0)
    mode_even = mode_data(geo, ModeIndex(n=1, p=1, l=2))
    w1 = overlap_offaxis(mode_even, BeamSpec(waist=0.02, offset=eps)).value
    w2 = overlap_offaxis(mode_even, BeamSpec(waist=0.02, offset=2 * eps)).value
    assert w2 == pytest.approx(4 * w1, rel=1e-4, abs=0.0)


def test_overlap_decays_with_order(geo):
    # mass-normalized weights oscillate with the displaced-beam zeros but
    # trend to zero as the transverse order grows
    beam = BeamSpec(waist=0.02, offset=0.03)
    mags = []
    for shell in (2, 8, 80):
        mode = mode_data(geo, ModeIndex(n=1, p=shell // 2, l=shell % 2))
        weight = overlap_offaxis(mode, beam)
        mass = effective_mass(geo, mode.index)
        mags.append(weight.value**2 / mass)
    assert mags[0] > mags[1] > mags[2]
    assert mags[2] < 1e-3 * mags[0]


def test_oracle_centered_match_and_l2_zero(geo):
    mode = mode_data(geo, ModeIndex(n=1))
    beam = BeamSpec(waist=0.02)
    quad = overlap_quadrature_oracle(mode, beam)
    assert quad.value == pytest.approx(0.9788088, rel=1e-6, abs=0.0)
    mode_l2 = mode_data(geo, ModeIndex(n=1, p=0, l=2))
    z = overlap_quadrature_oracle(mode_l2, beam)
    assert abs(z.value) < 1e-10


def test_oracle_unreachable_tolerance_raises(geo):
    # 1e-22 relative sits below what even the longdouble stage can certify
    mode = mode_data(geo, ModeIndex(n=1, p=2, l=1))
    beam = BeamSpec(waist=0.02, offset=0.03)
    with pytest.raises(QuadratureConvergenceError):
        overlap_quadrature_oracle(mode, beam, rel_tol=1e-22)


def test_shell_traces_match_per_mode_sums(geo):
    beam = BeamSpec(waist=0.02, offset=0.05)
    for n, shell in ((1, 4), (2, 5), (3, 0)):
        trace = shell_overlap_sq_over_mass(geo, beam, n, shell)[shell]
        total = 0.0
        for p in range(shell // 2 + 1):
            l = shell - 2 * p
            idx = ModeIndex(n=n, p=p, l=l)
            v = overlap_offaxis(mode_data(geo, idx), beam).value
            total += v * v / effective_mass(geo, idx)
        assert trace == pytest.approx(total, rel=1e-12, abs=0.0)


def test_shell_traces_centered_match_closed_form(geo):
    beam = BeamSpec(waist=0.02)
    wn2 = acoustic_waist_sq(geo, 2)
    c = 2 * wn2 / (2 * wn2 + 4e-4)
    q = (2 * wn2 - 4e-4) / (2 * wn2 + 4e-4)
    traces = shell_overlap_sq_over_mass(geo, beam, 2, 9)
    for p in range(5):
        expected = (c * q**p) ** 2 / effective_mass(geo, ModeIndex(n=2, p=p))
        assert traces[2 * p] == pytest.approx(expected, rel=1e-12, abs=0.0)
        if 2 * p + 1 <= 9:
            assert traces[2 * p + 1] == pytest.approx(0.0, abs=1e-30)


@given(st.integers(min_value=0, max_value=60))
@settings(max_examples=30)
def test_normalized_sequence_bounded(m):
    # unit-norm Hermite-Gauss overlaps with a Gaussian window stay bounded
    seq = normalized_hermite_beam_sequence(0.05, 0.02, 0.04, 60)
    assert abs(seq[m]) < 2.0


def _scalar_hermite_oracle(wn, w0, d, mmax):
    """The one-family scalar recurrence, kept as the reference for the table."""
    g = wn * wn / (w0 * w0)
    a = 0.5 + g
    delta = math.sqrt(2.0) * d / wn
    mu = g * delta / a
    beta = 1.0 - 1.0 / a
    pref = math.exp(g * delta * delta * (g / a - 1.0)) * math.sqrt(math.pi / a)
    ih = np.zeros(mmax + 1)
    ih[0] = pref / math.pi**0.25
    if mmax >= 1:
        ih[1] = mu * math.sqrt(2.0) * ih[0]
    for m in range(1, mmax):
        ih[m + 1] = mu * math.sqrt(2.0 / (m + 1)) * ih[m] - beta * math.sqrt(m / (m + 1.0)) * ih[m - 1]
    return ih


def _scalar_shell_traces_oracle(geometry, beam, n, max_shell):
    """Shell traces from the scalar recurrence, with the same convolution steps."""
    wn2 = acoustic_waist_sq(geometry, n)
    wn = math.sqrt(wn2)
    ih2 = _scalar_hermite_oracle(wn, beam.waist, beam.offset, max_shell) ** 2
    jh2 = _scalar_hermite_oracle(wn, beam.waist, 0.0, max_shell) ** 2
    jmax = jh2.max()
    if jmax > 0.0:
        live = np.nonzero(jh2 > jmax * 1e-40)[0]
        jh2 = jh2[: live[-1] + 1]
    conv = np.convolve(ih2, jh2)[: max_shell + 1]
    rho = geometry.material.density
    return (4.0 * wn2 / (math.pi**2 * beam.waist**4 * rho * geometry.thickness)) * conv


def _beam_factor_start(wn, w0, d):
    """(mu, beta, ih[0]) of normalized_hermite_beam_sequence."""
    g = wn * wn / (w0 * w0)
    a = 0.5 + g
    delta = math.sqrt(2.0) * d / wn
    mu = g * delta / a
    beta = 1.0 - 1.0 / a
    pref = math.exp(g * delta * delta * (g / a - 1.0)) * math.sqrt(math.pi / a)
    return mu, beta, pref / math.pi**0.25


def _continue_hermite(rows, mu, beta, start):
    """Fill rows[start:] (start >= 1), order m in row m and one family per column,
    with the scalar recurrence applied elementwise: each column equals a one-family run."""
    if start == 1 and len(rows) > 1:
        rows[1] = mu * math.sqrt(2.0) * rows[0]
        start = 2
    for m in range(start - 1, len(rows) - 1):
        rows[m + 1] = mu * math.sqrt(2.0 / (m + 1)) * rows[m] - beta * math.sqrt(m / (m + 1.0)) * rows[m - 1]


class _ConvolutionTraceTable:
    """The Hermite-factor convolution table that the recurrence replaced, kept
    verbatim as the reference."""

    def __init__(self, geometry, beam, families):
        self.geometry = geometry
        self.beam = beam
        self._first = families.start  # family of column 0
        mu, beta, ih0 = zip(*(
            _beam_factor_start(math.sqrt(acoustic_waist_sq(geometry, n)), beam.waist, beam.offset)
            for n in families
        ))
        self._mu, self._beta, self._rows = np.array(mu), np.array(beta), np.array([ih0])
        self._family, self._traces = None, {}  # traces of one family, by max_shell
        self._roots = np.empty(0)  # sqrt(m/(m+1)) at odd m, shared by all families

    def beam_factor(self, n, mmax):
        """normalized_hermite_beam_sequence(w_n, w0, d, mmax) of family n."""
        col = n - self._first
        if col < 0:
            raise ValueError(f"family {n} was already dropped (table starts at {self._first})")
        if mmax >= len(self._rows):
            rows = np.empty((mmax + 1, self._rows.shape[1] - col))
            rows[: len(self._rows)] = self._rows[:, col:]
            self._mu, self._beta = self._mu[col:], self._beta[col:]
            _continue_hermite(rows, self._mu, self._beta, len(self._rows))
            self._rows, self._first, col = rows, n, 0
        return self._rows[: mmax + 1, col]

    def _centered_factor_sq(self, max_shell):
        """Squared centered (y) factor of the family in hand for orders
        0..max_shell, without its numerically dead tail."""
        if self._jh2_end is None and self._jh2_size < max_shell:
            # the next order, odd, and one past the last even order up to max_shell
            start, end = self._jh2_size, max_shell + 1 - max_shell % 2
            if len(self._roots) < max_shell // 2:
                m = np.arange(1, max_shell, 2, dtype=float)
                self._roots = np.sqrt(m / (m + 1.0))
            if len(self._jh2) < end:
                jh2 = np.zeros(2 * end)  # odd orders stay 0
                jh2[:start] = self._jh2[:start]
                self._jh2 = jh2
            steps = -(self._jh_beta * self._roots[start // 2 : max_shell // 2])
            steps[0] *= self._jh_last
            grown = np.cumprod(steps)
            self._jh_last = grown[-1]
            new = self._jh2[start + 1 : end : 2]
            np.square(grown, out=new)
            self._jh2_size = end
            if new[-1] <= self._jh2_live:
                self._jh2_end = start + 2 * np.count_nonzero(new > self._jh2_live)
        end = max_shell + 1 - max_shell % 2
        return self._jh2[: end if self._jh2_end is None else min(end, self._jh2_end)]

    def traces(self, n, max_shell):
        """Shell traces of family n for s = 0..max_shell (kg^-1), read-only."""
        if n != self._family:
            wn2 = acoustic_waist_sq(self.geometry, n)
            _, self._jh_beta, jh0 = _beam_factor_start(math.sqrt(wn2), self.beam.waist, 0.0)
            self._family, self._traces = n, {}
            self._jh2, self._jh_last = np.array([jh0 * jh0]), jh0
            self._jh2_size, self._jh2_end, self._jh2_live = 1, None, jh0 * jh0 * 1e-40
            rho = self.geometry.material.density
            self._scale = 4.0 * wn2 / (math.pi**2 * self.beam.waist**4 * rho * self.geometry.thickness)
        if max_shell not in self._traces:
            conv = np.convolve(self.beam_factor(n, max_shell) ** 2, self._centered_factor_sq(max_shell))
            out = self._scale * conv[: max_shell + 1]
            out.flags.writeable = False
            self._traces[max_shell] = out
        return self._traces[max_shell]


def assert_traces_close(got, ref):
    """The recurrence against the convolution: the family sum within 1e-12
    relative, and every term above 1e-12 of the family's peak within 1e-11."""
    assert not got.flags.writeable
    assert got.shape == ref.shape
    assert abs(got.sum() - ref.sum()) <= 1e-12 * ref.sum()
    live = ref > 1e-12 * ref.max()
    np.testing.assert_allclose(got[live], ref[live], rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("waist, offset", [(0.02, 0.11), (0.055, 0.185), (0.02, 0.0)])
def test_shell_trace_table_equals_scalar_oracle(geo, waist, offset):
    beam = BeamSpec(waist=waist, offset=offset)
    table = ShellTraceTable(geo, beam, range(1, 201))
    ref = _ConvolutionTraceTable(geo, beam, range(1, 201))
    # ascending families; growth at (1, 2048) and (200, 2100) drops the lower ones
    for n, smax in ((1, 64), (1, 2048), (7, 2048), (50, 300), (50, 2048), (200, 2048), (200, 2100)):
        wn = math.sqrt(acoustic_waist_sq(geo, n))
        # the reference is still the scalar recurrence and its convolution, bit for bit
        assert np.array_equal(ref.beam_factor(n, smax), _scalar_hermite_oracle(wn, waist, offset, smax))
        assert np.array_equal(ref.traces(n, smax), _scalar_shell_traces_oracle(geo, beam, n, smax))
        assert_traces_close(table.traces(n, smax), ref.traces(n, smax))
    with pytest.raises(ValueError):
        table.traces(7, 10)


def test_shell_trace_table_grows_centered_factor_past_its_support(geo):
    # w_n^2 < w0^2 / 2, so beta_n < 0 and the centered factor alternates in
    # sign; its live support ends at order 362, so the later requests ask for
    # more shells than it has, and the odd ones end on a vanishing order
    beam = BeamSpec(waist=0.055, offset=0.03)
    n = 50
    assert acoustic_waist_sq(geo, n) < beam.waist**2 / 2
    table = ShellTraceTable(geo, beam, range(1, 201))
    for smax in (64, 128, 129, 300, 361, 1000, 2001, 200):
        assert_traces_close(table.traces(n, smax), _scalar_shell_traces_oracle(geo, beam, n, smax))
    for smax in (64, 129, 4000):  # the next family, after its predecessor grew the table
        assert_traces_close(table.traces(51, smax), _scalar_shell_traces_oracle(geo, beam, 51, smax))


@pytest.mark.parametrize("waist, offset", [(0.001, 0.01), (0.02, 0.11), (0.055, 0.0)])
def test_shell_trace_table_growth_keeps_earlier_values(geo, waist, offset):
    beam = BeamSpec(waist=waist, offset=offset)
    table = ShellTraceTable(geo, beam, range(1, 201))
    asked = {}
    for n, smax in ((1, 64), (1, 65), (1, 1000), (3, 64), (3, 4000), (120, 10), (120, 4001), (200, 0)):
        asked[n, smax] = table.traces(n, smax).copy()
        for (m, short), values in asked.items():
            if m >= n:  # the lower families were dropped
                assert np.array_equal(table.traces(m, short), values)
    # a fresh table that grows in one go holds the same values
    fresh = ShellTraceTable(geo, beam, range(1, 201)).block(1, 4001)
    for (n, smax), values in asked.items():
        assert np.array_equal(fresh[: smax + 1, n - 1], values)


def _mehler_generating_function(geometry, beam, n, t):
    """sum_s T_s t^s in closed form, from the (0, 0) mode's overlap and mass
    (independent of the table) and Mehler's formula, in 30-digit arithmetic."""
    with mp.workdps(30):
        wn2 = mp.mpf(acoustic_waist_sq(geometry, n))
        w02 = mp.mpf(beam.waist) ** 2
        d = mp.mpf(beam.offset)
        g = wn2 / w02
        a = mp.mpf(0.5) + g
        mu = g * mp.sqrt(2 / wn2) * d / a
        beta = 1 - 1 / a
        overlap = 2 * wn2 / (2 * wn2 + w02) * mp.exp(-2 * d * d / (2 * wn2 + w02))
        t0 = overlap**2 / effective_mass(geometry, ModeIndex(n=n))
        t = mp.mpf(t)
        return float(t0 * mp.exp(2 * mu * mu * t / (1 + beta * t)) / (1 - beta * beta * t * t))


@pytest.mark.parametrize("waist", [0.001, 0.005, 0.02, 0.055])
def test_shell_traces_match_mehler_generating_function(geo, waist):
    for offset in (0.0, 0.01, 0.035):
        beam = BeamSpec(waist=waist, offset=offset)
        table = ShellTraceTable(geo, beam, range(1, 201))
        for n in (1, 7, 50, 200):
            traces = table.traces(n, 4096)
            for t in (0.3, 0.9):
                got = float(np.sum(traces * t ** np.arange(4097.0)))
                assert got == pytest.approx(_mehler_generating_function(geo, beam, n, t), rel=1e-13, abs=0.0)


def test_shell_traces_match_mehler_near_beta_minus_one(geo):
    # w0 = 10 w_200, so beta_200 = -0.96, and the offset gives mu = 2.04:
    # (1 + beta t) is small at t = 0.9 and the traces peak past shell 5000.
    # The beam lies off the mirror face; the table does not need it on it.
    beam = BeamSpec(waist=0.068, offset=0.5)
    n = 200
    mu, beta, _ = _beam_factor_start(math.sqrt(acoustic_waist_sq(geo, n)), beam.waist, beam.offset)
    assert beta < -0.96 and mu > 2.0
    traces = ShellTraceTable(geo, beam, range(n, n + 1)).traces(n, 16384)
    assert np.isfinite(traces).all() and traces.min() >= 0.0
    assert traces[-1] < 1e-40 * traces.max()
    for t in (0.3, 0.9):
        got = float(np.sum(traces * t ** np.arange(16385.0)))
        assert got == pytest.approx(_mehler_generating_function(geo, beam, n, t), rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "waist, offset, families",
    [
        (0.001, 0.185, (150, 170, 190, 197, 200)),  # scaled columns: C underflows from family 141 on
        (0.001, 0.185, tuple(range(1, 13))),  # as many columns as the convergence study takes to 60,000 shells
        (0.055, 0.035, (50, 51)),  # beta < 0
        (0.02, 0.0, (1, 7)),  # mu = 0: the odd shells are exactly 0
    ],
)
def test_shell_trace_table_narrow_growth_equals_numpy_step(geo, waist, offset, families, monkeypatch):
    # a growth of up to _SCALAR_COLUMNS columns runs in Python floats, with
    # the numpy step's operations in its order: the traces are ==
    assert len(families) <= ShellTraceTable._SCALAR_COLUMNS
    beam = BeamSpec(waist=waist, offset=offset)
    scalar_growths = []
    grow_scalar = ShellTraceTable._grow_scalar
    monkeypatch.setattr(ShellTraceTable, "_grow_scalar",
                        lambda self, *a: scalar_growths.append(len(self._families)) or grow_scalar(self, *a))
    for width in range(1, len(families) + 1):
        kept = families[-width:]
        scalar, numpy_step = ShellTraceTable(geo, beam, range(1, 201)), ShellTraceTable(geo, beam, range(1, 201))
        numpy_step._SCALAR_COLUMNS = 0  # every growth by numpy steps
        assert np.array_equal(scalar.block(1, 64), numpy_step.block(1, 64))  # all 200: numpy on both
        for smax in (65, 1000, 4097):
            assert np.array_equal(scalar.block(kept, smax), numpy_step.block(kept, smax))
    assert scalar_growths == [w for w in range(1, len(families) + 1) for _ in range(3)]
    if offset == 0.185 and families[0] > 141:
        assert scalar._unscale is not None and (scalar._unscale < 1.0).all()


def test_shell_traces_far_off_axis_stay_finite(geo):
    # at w0 1 mm and d 18.5 cm, T_0 = C of the highest families underflows
    # (x = 4 d^2 / (w0^2 + 2 w_n^2) passes 700) while their traces peak near 100
    beam = BeamSpec(waist=0.001, offset=0.185)
    table = ShellTraceTable(geo, beam, range(100, 191))
    ref = _ConvolutionTraceTable(geo, beam, range(100, 191))
    for n in (100, 150, 190):
        got = table.traces(n, 2048)
        assert np.isfinite(got).all()
        assert abs(got.sum() - ref.traces(n, 2048).sum()) <= 1e-10 * ref.traces(n, 2048).sum()


@pytest.mark.parametrize("mmax", [0, 1, 2, 60, 2048])
def test_normalized_sequence_equals_scalar_oracle(mmax):
    for d in (0.0, 0.04):
        seq = normalized_hermite_beam_sequence(0.05, 0.02, d, mmax)
        assert np.array_equal(seq, _scalar_hermite_oracle(0.05, 0.02, d, mmax))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_beam_spec_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        BeamSpec(waist=bad)
    with pytest.raises(ValueError):
        BeamSpec(waist=0.02, offset=bad)
