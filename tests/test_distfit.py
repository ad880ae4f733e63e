"""Tests for distribution primitives, fitting, and seeded sampling."""

from __future__ import annotations

import hashlib
import importlib.util
import math
import sys
from unittest import mock

import pytest

from returndist import distfit
from returndist.distfit import (
    LaplaceParams,
    NormalParams,
    Xoshiro256PlusPlus,
    _CHARPOLY,
    _MASK64,
    _jump_poly,
    _jumped,
    _laplace_quantiles,
    _slot_mask,
    fit_laplace,
    fit_normal,
    median,
    sample_laplace,
    sample_normal,
)
from returndist.errors import DegenerateFitError, DomainError, InsufficientDataError

from conftest import laplace_cdf, laplace_quantile, normal_cdf, normal_quantile, uniform, word

STD_NORMAL = NormalParams(mean=0.0, sigma=1.0)
STD_LAPLACE = LaplaceParams(mu=0.0, scale=1.0)

# Frozen from tests/regen_oracle_values.py (mpmath at 400 digits).
QUANTILE_REFERENCE = [
    (1e-300, -37.0470962993612),
    (1e-100, -21.273453560965326),
    (1e-30, -11.464024688443615),
    (1e-16, -8.222082216130435),
    (1e-10, -6.361340902404057),
    (1e-06, -4.753424308822899),
    (0.001, -3.0902323061678136),
    (0.02425, -1.972961051311885),
    (0.1, -1.2815515655446004),
    (0.25, -0.6744897501960817),
    (0.5, 0.0),
    (0.75, 0.6744897501960817),
    (0.8413447460685429, 0.9999999999999999),
    (0.975, 1.9599639845400538),
    (0.999, 3.090232306167813),
    (0.999999, 4.753424308817087),
    (0.9999999999, 6.361340889697422),
    (0.9999999999999998, 8.125890664701906),
]


class TestParams:
    def test_laplace_rejects_bad_scale(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                LaplaceParams(mu=0.0, scale=bad)

    def test_normal_rejects_bad_sigma(self):
        for bad in (0.0, -0.5, math.inf, math.nan):
            with pytest.raises(DomainError):
                NormalParams(mean=0.0, sigma=bad)

    def test_rejects_non_finite_location(self):
        with pytest.raises(DomainError):
            LaplaceParams(mu=math.inf, scale=1.0)
        with pytest.raises(DomainError):
            NormalParams(mean=math.nan, sigma=1.0)


class TestMedian:
    def test_odd(self):
        assert median([3.0, 1.0, 2.0]) == 2.0

    def test_even(self):
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_singleton(self):
        assert median([7.0]) == 7.0

    def test_does_not_mutate(self):
        data = [3.0, 1.0, 2.0]
        median(data)
        assert data == [3.0, 1.0, 2.0]

    def test_empty(self):
        with pytest.raises(InsufficientDataError):
            median([])


class TestFitting:
    def test_laplace_symmetric_triple(self):
        fit = fit_laplace([-1.0, 0.0, 1.0])
        assert fit.mu == 0.0
        assert fit.scale == 2.0 / 3.0

    def test_laplace_skewed_triple(self):
        fit = fit_laplace([0.0, 0.0, 3.0])
        assert fit.mu == 0.0
        assert fit.scale == 1.0

    def test_laplace_degenerate(self):
        with pytest.raises(DegenerateFitError):
            fit_laplace([5.0, 5.0, 5.0])

    def test_laplace_too_small(self):
        with pytest.raises(InsufficientDataError):
            fit_laplace([1.0])

    def test_normal_symmetric_pair(self):
        fit = fit_normal([-1.0, 1.0])
        assert fit.mean == 0.0
        assert fit.sigma == 1.0

    def test_normal_population_sigma(self):
        fit = fit_normal([0.0, 0.0, 3.0])
        assert fit.mean == pytest.approx(1.0)
        assert fit.sigma == pytest.approx(math.sqrt(2.0))

    def test_normal_degenerate(self):
        with pytest.raises(DegenerateFitError):
            fit_normal([4.2, 4.2])

    def test_median_minimizes_absolute_deviation(self):
        # objective sum |x - c| over a dense grid never beats the median
        rng = Xoshiro256PlusPlus(2024)
        for _ in range(1000):
            n = 2 + word(rng) % 14
            data = [4.0 * u - 2.0 for u in rng._floats(n)]
            center = median(data)
            best = math.fsum(abs(x - center) for x in data)
            lo, hi = min(data), max(data)
            grid = [lo + (hi - lo) * k / 100.0 for k in range(101)] + data
            for c in grid:
                assert math.fsum(abs(x - c) for x in data) >= best - 1e-9


class TestLaplaceFunctions:
    def test_cdf_center_and_quartiles(self):
        p = LaplaceParams(mu=1.5, scale=0.7)
        assert laplace_cdf(1.5, p) == 0.5
        assert laplace_cdf(1.5 + 0.7 * math.log(2.0), p) == pytest.approx(0.75)
        assert laplace_cdf(1.5 - 0.7 * math.log(2.0), p) == pytest.approx(0.25)

    def test_cdf_limits_and_monotone(self):
        xs = [-40.0 + 0.25 * k for k in range(321)]
        values = [laplace_cdf(x, STD_LAPLACE) for x in xs]
        assert values == sorted(values)
        assert values[0] < 1e-15
        assert values[-1] > 1.0 - 1e-15

    def test_cdf_pdf_derivative_consistency(self):
        # central difference away from the kink at mu, against the density
        # exp(-|x - mu| / b) / (2b)
        p = LaplaceParams(mu=0.25, scale=1.3)
        h = 1e-5
        for x in [-6.0 + 0.1 * k for k in range(121)]:
            if abs(x - p.mu) <= 2.0 * h:
                continue
            numeric = (laplace_cdf(x + h, p) - laplace_cdf(x - h, p)) / (2.0 * h)
            density = math.exp(-abs(x - p.mu) / p.scale) / (2.0 * p.scale)
            assert abs(numeric - density) < 1e-6

    def test_quantile_round_trip(self):
        p = LaplaceParams(mu=-0.3, scale=2.1)
        for q in (0.001, 0.25, 0.5, 0.75, 0.9, 0.999):
            assert laplace_cdf(laplace_quantile(q, p), p) == pytest.approx(q, abs=1e-12)

    def test_quantile_closed_forms(self):
        assert laplace_quantile(0.5, STD_LAPLACE) == 0.0
        assert laplace_quantile(0.75, STD_LAPLACE) == pytest.approx(math.log(2.0))

    @pytest.mark.parametrize("mu", [0.0, -0.0, 1.5, -2.25e-300])
    def test_median_is_mu(self, mu):
        # the sampler's uniform for the word with w >> 11 == 2**52 is exactly 0.5
        assert ((1 << 52) + 0.5) * 2.0**-53 == 0.5
        value = laplace_quantile(0.5, LaplaceParams(mu=mu, scale=2.1))
        assert value == mu and math.copysign(1.0, value) == math.copysign(1.0, mu)

    def test_quantile_domain(self):
        # the kernel gives no number outside (0, 1): log of a level <= 0 raises
        for q in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError, match="^math domain error$"):
                laplace_quantile(q, STD_LAPLACE)


class TestNormalFunctions:
    def test_cdf_center(self):
        assert normal_cdf(3.0, NormalParams(mean=3.0, sigma=2.0)) == 0.5

    def test_cdf_one_sigma(self):
        assert normal_cdf(1.0, STD_NORMAL) == pytest.approx(0.8413447460685429, abs=1e-12)

    def test_cdf_far_tail(self):
        assert normal_cdf(-40.0, STD_NORMAL) == 0.0
        assert normal_cdf(40.0, STD_NORMAL) == 1.0

    def test_quantile_against_mpmath_reference(self):
        for q, expected in QUANTILE_REFERENCE:
            assert normal_quantile(q) == pytest.approx(expected, abs=1e-9)

    def test_quantile_antisymmetry(self):
        # below ~1e-6 the float representation of 1-q itself shifts the
        # quantile by more than 1e-9, so the property is tested above that
        for q in (1e-6, 0.001, 0.1, 0.3, 0.49):
            assert abs(normal_quantile(q) + normal_quantile(1.0 - q)) < 1e-9

    def test_quantile_cdf_identity(self):
        for k in range(-600, 601):
            x = k / 100.0
            assert abs(normal_quantile(normal_cdf(x, STD_NORMAL)) - x) < 1e-7

    def test_quantile_accuracy_deep_tail(self):
        # |cdf(quantile(q)) - q| / pdf bounds the quantile's own error
        probes = [10.0**-e for e in range(1, 300, 6)]
        probes += [k / 997.0 for k in range(1, 499)]
        for q in probes:
            x = normal_quantile(q)
            density = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
            residual = abs(normal_cdf(x, STD_NORMAL) - q)
            assert residual <= 1e-9 * density, q


def _python_inv_cdf():
    """statistics.py's own pure-Python AS 241, loaded with the C module hidden."""
    spec = importlib.util.find_spec("statistics")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {"_statistics": None}):
        spec.loader.exec_module(module)
    return module._normal_dist_inv_cdf


class TestQuantileKernel:
    """The C quantile the Shapiro-Wilk weights import is the AS 241 that
    statistics.py spells out in Python (bit for bit on x86-64, 3.10-3.13)."""

    @staticmethod
    def _assert_near_oracle(qs):
        from _statistics import _normal_dist_inv_cdf as kernel

        oracle = _python_inv_cdf()
        assert oracle is not kernel
        for q in qs:
            x, expected = kernel(q, 0.0, 1.0), oracle(q, 0.0, 1.0)
            assert abs(x - expected) <= 2e-15 * max(1.0, abs(expected)), (q, x, expected)

    def test_blom_scores_near_stdlib_oracle(self):
        n = 199_979
        self._assert_near_oracle([(i - 0.375) / (n + 0.25) for i in range(1, n // 2 + 1)])

    def test_normal_quantile_near_stdlib_oracle(self):
        lower = [5e-324, 1e-320] + [10.0 ** (e / 10.0) for e in range(-3000, -3)] + [0.5]
        upper = [1.0 - q for q in lower if 1.0 - q < 1.0]
        self._assert_near_oracle(lower + upper)


class TestRng:
    def test_stream_is_seed_deterministic(self):
        a = Xoshiro256PlusPlus(987654321)
        b = Xoshiro256PlusPlus(987654321)
        assert a._words(64) == b._words(64)

    def test_first_words_pinned(self):
        # sentinel against accidental algorithm changes; any edit to the
        # generator invalidates every frozen sampler-derived value
        rng = Xoshiro256PlusPlus(42)
        assert rng._words(3) == [
            15021278609987233951,
            5881210131331364753,
            18149643915985481100,
        ]

    def test_words_pinned_at_workload_size(self):
        # the same sentinel over 200 000 words, as little-endian bytes, drawn
        # at once: 16 lanes, each started by four jumps
        words = Xoshiro256PlusPlus(42)._words(200_000)
        digest = hashlib.sha256(b"".join(w.to_bytes(8, "little") for w in words)).hexdigest()
        assert digest == "4b84592cbb151cf7e4e19b46788e2cbf4a208ace91805885a1fe831940a9dffc"

    def test_distinct_seeds_diverge(self):
        a = Xoshiro256PlusPlus(1)
        b = Xoshiro256PlusPlus(2)
        assert a._words(8) != b._words(8)

    def test_floats_open_interval_and_uniform(self):
        rng = Xoshiro256PlusPlus(7)
        values = rng._floats(50000)
        assert all(0.0 < v < 1.0 for v in values)
        mean = math.fsum(values) / len(values)
        var = math.fsum((v - mean) ** 2 for v in values) / len(values)
        assert abs(mean - 0.5) < 0.005
        assert abs(var - 1.0 / 12.0) < 0.002

    def test_top_word_maps_below_one(self):
        # (2**53 - 1) + 0.5 rounds (ties to even) to 2**53, a uniform of 1.0
        words = [2**64 - 1, 0, 2**63, 2**64 - 2**12]

        class FixedWords(Xoshiro256PlusPlus):
            __slots__ = ()

            def _words(self, count):
                return words[:count]

        top, *rest = FixedWords(0)._floats(4)
        assert top < 1.0
        assert math.isfinite(_laplace_quantiles([top], STD_LAPLACE)[0])
        assert rest == [((w >> 11) + 0.5) * 2.0**-53 for w in words[1:]]

    def test_seed_masked_to_64_bits(self):
        a = Xoshiro256PlusPlus(3)
        b = Xoshiro256PlusPlus(3 + (1 << 64))
        assert word(a) == word(b)


class TestSamplers:
    def test_laplace_repeatable(self):
        p = LaplaceParams(mu=0.0, scale=1.0)
        assert sample_laplace(5, p, 7) == sample_laplace(5, p, 7)

    def test_laplace_single_value_repeatable(self):
        p = LaplaceParams(mu=0.0, scale=1.0)
        assert sample_laplace(1, p, 7) == sample_laplace(1, p, 7)

    def test_normal_repeatable(self):
        assert sample_normal(5, STD_NORMAL, 11) == sample_normal(5, STD_NORMAL, 11)
        assert sample_normal(1, STD_NORMAL, 3) == sample_normal(1, STD_NORMAL, 3)

    def test_sample_size_validation(self):
        with pytest.raises(DomainError):
            sample_laplace(0, STD_LAPLACE, 1)
        with pytest.raises(DomainError):
            sample_normal(-5, STD_NORMAL, 1)

    def test_laplace_fit_recovery(self):
        p = LaplaceParams(mu=3.0, scale=2.0)
        fit = fit_laplace(sample_laplace(100000, p, 999))
        assert abs(fit.mu - p.mu) / p.mu < 0.02
        assert abs(fit.scale - p.scale) / p.scale < 0.02

    def test_normal_sample_mean(self):
        values = sample_normal(100000, STD_NORMAL, 12345)
        assert abs(math.fsum(values) / len(values)) < 0.02

    def test_normal_prefix_property(self):
        # a shorter run is a prefix of a longer one with the same seed
        assert sample_normal(100, STD_NORMAL, 5) == sample_normal(200, STD_NORMAL, 5)[:100]

    def test_laplace_quantile_matches_sampler_median(self):
        p = LaplaceParams(mu=-2.0, scale=0.5)
        values = sample_laplace(100001, p, 31337)
        assert abs(median(values) - p.mu) < 0.02

    def test_reproducible_across_threads(self):
        from concurrent.futures import ThreadPoolExecutor

        expected = sample_normal(500, STD_NORMAL, 31)
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _: sample_normal(500, STD_NORMAL, 31), range(8)))
        assert all(r == expected for r in results)


class _ReferenceXoshiro:
    """The generator as it was written one step per call before the list
    kernel, started from the same seeded state."""

    def __init__(self, seed: int) -> None:
        rng = Xoshiro256PlusPlus(seed)
        self.s = [rng._s0, rng._s1, rng._s2, rng._s3]

    def next_uint64(self) -> int:
        s0, s1, s2, s3 = self.s
        t = (s0 + s3) & _MASK64
        result = (((t << 23) | (t >> 41)) + s0) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self.s = [s0, s1, s2, s3]
        return result

    def next_float(self) -> float:
        return ((self.next_uint64() >> 11) + 0.5) * 2.0**-53


def _reference_laplace_quantile(q: float, p: LaplaceParams) -> float:
    if q < 0.5:
        return p.mu + p.scale * math.log(2.0 * q)
    if q > 0.5:
        return p.mu - p.scale * math.log(2.0 * (1.0 - q))
    return p.mu


def _reference_sample_laplace(n: int, p: LaplaceParams, seed: int) -> list[float]:
    rng = _ReferenceXoshiro(seed)
    return [_reference_laplace_quantile(rng.next_float(), p) for _ in range(n)]


def _reference_sample_normal(n: int, p: NormalParams, seed: int) -> list[float]:
    """Marsaglia's polar method, one uniform per call, stopping at n."""
    rng = _ReferenceXoshiro(seed)
    out: list[float] = []
    while len(out) < n:
        u = 2.0 * rng.next_float() - 1.0
        v = 2.0 * rng.next_float() - 1.0
        s = u * u + v * v
        if s >= 1.0 or s == 0.0:
            continue
        factor = math.sqrt(-2.0 * math.log(s) / s)
        out.append(p.mean + p.sigma * u * factor)
        if len(out) < n:
            out.append(p.mean + p.sigma * v * factor)
    return out


class TestListKernels:
    """The list kernels against the per-call code they replaced."""

    SEEDS = (0, 1, 42, 2**64 - 1)
    SIZES = (1, 2, 3, 4, 5, 999, 5000, 5001)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_words_and_floats_equal_per_step_calls(self, seed):
        rng, ref = Xoshiro256PlusPlus(seed), _ReferenceXoshiro(seed)
        for k in (0, 1, 2, 7, 1000):
            assert rng._words(k) == [ref.next_uint64() for _ in range(k)]
            assert word(rng) == ref.next_uint64()
            assert rng._floats(k) == [ref.next_float() for _ in range(k)]
            assert uniform(rng) == ref.next_float()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_samplers_equal_per_draw_reference(self, seed):
        normal, laplace = NormalParams(mean=0.5, sigma=2.0), LaplaceParams(mu=-1.0, scale=0.25)
        for n in self.SIZES:
            assert sample_normal(n, normal, seed) == _reference_sample_normal(n, normal, seed)
            assert sample_laplace(n, laplace, seed) == _reference_sample_laplace(n, laplace, seed)

    # the kernel doubles its lanes at these counts, up to 16 from 4096 words
    LANE_CHANGES = (512, 1024, 2048, 4096)

    @staticmethod
    def _assert_words_and_state_equal(rng, ref, counts):
        for count in counts:
            assert rng._words(count) == [ref.next_uint64() for _ in range(count)], count
            assert [rng._s0, rng._s1, rng._s2, rng._s3] == ref.s, count

    @staticmethod
    def _jumps(count):
        calls = []
        jumped = distfit._jumped

        def spy(state, poly, mask):
            calls.append(poly)
            return jumped(state, poly, mask)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(distfit, "_jumped", spy)
            Xoshiro256PlusPlus(0)._words(count)
        return len(calls)

    def test_lane_changes_where_listed(self):
        # one more jump, so twice the lanes, at each listed count: 1 lane
        # and no jump below the first, 16 lanes and four jumps from the last
        counts = [0, 1, 2, 100, *(c + d for c in self.LANE_CHANGES for d in (-1, 0, 1)),
                  8192, 16_384, 65_536, 200_000]
        for count in counts:
            assert self._jumps(count) == sum(c <= count for c in self.LANE_CHANGES), count

    @pytest.mark.parametrize("seed", SEEDS)
    def test_words_equal_reference_across_lane_changes(self, seed):
        counts = [c + d for c in self.LANE_CHANGES for d in (-1, 0, 1)]
        for count in counts:
            self._assert_words_and_state_equal(
                Xoshiro256PlusPlus(seed), _ReferenceXoshiro(seed), [count]
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_words_equal_reference_at_every_remainder(self, seed):
        # lanes of ceil(count / L) steps, the last one short by count's
        # remainder modulo L: every remainder for L = 2, 4, 8 and 16
        for lanes, base in ((2, 600), (4, 1100), (8, 2100), (16, 5000)):
            for r in range(lanes):
                self._assert_words_and_state_equal(
                    Xoshiro256PlusPlus(seed), _ReferenceXoshiro(seed), [base + r]
                )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_state_carries_over_mixed_calls(self, seed):
        counts = [1, 513, 0, 4096, 7, 2049, 5001, 3, 1024, 511, 16_385, 2]
        self._assert_words_and_state_equal(
            Xoshiro256PlusPlus(seed), _ReferenceXoshiro(seed), counts
        )

    @pytest.mark.parametrize("seed", (0, 2**64 - 1))
    def test_samplers_equal_per_draw_reference_at_50k(self, seed):
        normal, laplace = NormalParams(mean=0.5, sigma=2.0), LaplaceParams(mu=-1.0, scale=0.25)
        n = 50_000
        assert sample_normal(n, normal, seed) == _reference_sample_normal(n, normal, seed)
        assert sample_laplace(n, laplace, seed) == _reference_sample_laplace(n, laplace, seed)

    def test_normal_refill_loop(self, monkeypatch):
        # batches short enough to need many refills, which a normal run
        # almost never reaches; every request is even, so pairs stay aligned
        floats, requested = Xoshiro256PlusPlus._floats, []

        def short_floats(self, count):
            requested.append(count)
            return floats(self, min(count, 6))

        monkeypatch.setattr(Xoshiro256PlusPlus, "_floats", short_floats)
        for seed in self.SEEDS:
            for n in self.SIZES:
                assert sample_normal(n, STD_NORMAL, seed) == _reference_sample_normal(
                    n, STD_NORMAL, seed
                )
        assert requested and all(count % 2 == 0 for count in requested)

    def test_laplace_quantile_is_the_kernel_at_one_point(self):
        p = LaplaceParams(mu=0.25, scale=3.0)
        levels = [1e-300, 0.1, math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0), 0.9,
                  math.nextafter(1.0, 0.0)]
        per_point = [laplace_quantile(q, p) for q in levels]
        assert per_point == _laplace_quantiles(levels, p)
        assert per_point == [_reference_laplace_quantile(q, p) for q in levels]
        assert per_point[3] == p.mu
        assert per_point[2] < p.mu < per_point[4]


def _berlekamp_massey(bits: list[int]) -> int:
    """The connection polynomial of the shortest LFSR that makes bits, as an
    int whose bit i is c_i: bits[n] = sum of c_i bits[n - i] over GF(2)."""
    c, b, length, shift = 1, 1, 0, 1
    for n, bit in enumerate(bits):
        for i in range(1, length + 1):
            bit ^= (c >> i) & bits[n - i]
        if not bit:
            shift += 1
        elif 2 * length <= n:
            c, b, length, shift = c ^ (b << shift), c, n + 1 - length, 1
        else:
            c ^= b << shift
            shift += 1
    return c


class TestJumpAhead:
    """The characteristic polynomial and the jumps, against the reference."""

    def test_charpoly_from_the_bit_stream(self):
        # bit 0 of s0 is a linear function of the state, so its minimal
        # polynomial divides the characteristic one, and is it at degree 256;
        # that is the reciprocal of Berlekamp-Massey's connection polynomial
        ref = _ReferenceXoshiro(42)
        bits = []
        for _ in range(600):
            bits.append(ref.s[0] & 1)
            ref.next_uint64()
        connection = _berlekamp_massey(bits)
        assert connection.bit_length() == 257
        assert int(format(connection, "b")[::-1], 2) == _CHARPOLY

    @pytest.mark.parametrize("seed", (0, 7, 2**64 - 1))
    @pytest.mark.parametrize("steps", (1, 255, 256, 257, 4999))
    def test_jump_equals_steps(self, seed, steps):
        rng, ref = Xoshiro256PlusPlus(seed), _ReferenceXoshiro(seed)
        jumped = _jumped((rng._s0, rng._s1, rng._s2, rng._s3), _jump_poly(steps), _slot_mask(1))
        for _ in range(steps):
            ref.next_uint64()
        assert list(jumped) == ref.s
