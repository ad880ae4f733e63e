"""Normal and Laplace distribution primitives.

CDF and quantile evaluation, parameter fitting, and seeded
sampling. Everything here is self-contained: uniforms come from a
xoshiro256++ generator seeded through splitmix64 and stepped in lanes
started by jump-ahead (Blackman & Vigna, ACM TOMS 2021; Haramoto et
al., INFORMS J. Computing 2008), normals from the Marsaglia polar
method, and Laplace variates from the inverse transform. The
standard-normal quantile is not here: the Shapiro-Wilk weights take
Wichura's AS 241 from CPython's C ``_statistics`` (see ``normality``).
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

from ._record import Record
from .errors import DegenerateFitError, DegenerateSampleError, DomainError, InsufficientDataError
from .moments import _centred

_SQRT2 = math.sqrt(2.0)


class _LocationScale(Record):
    """A location-scale pair: the location finite, the scale finite and > 0."""

    def __init__(self, *args, **kwargs) -> None:
        Record.__init__(self, *args, **kwargs)
        location, scale = self._values()
        if not math.isfinite(location):
            raise DomainError(f"{self._name(0)} must be finite, got {location}")
        if not (math.isfinite(scale) and scale > 0.0):
            raise DomainError(f"{self._name(1)} must be finite and > 0, got {scale}")

    def _name(self, i: int) -> str:
        """The family and field i, as in "normal mean"."""
        return f"{type(self).__name__.removesuffix('Params').lower()} {self._fields[i]}"


class LaplaceParams(_LocationScale):
    """Location/scale pair for the double-exponential family."""

    mu: float
    scale: float


class NormalParams(_LocationScale):
    """Mean/standard-deviation pair for the normal family."""

    mean: float
    sigma: float


def _middle(ordered: Sequence[float]) -> float:
    """The median of an ascending sample."""
    if not ordered:
        raise InsufficientDataError("median needs a non-empty sample")
    mid, odd = divmod(len(ordered), 2)
    return float(ordered[mid]) if odd else (ordered[mid - 1] + ordered[mid]) / 2


def median(sample: Sequence[float]) -> float:
    """Middle order statistic; mean of the two middle ones for even n."""
    return _middle(sorted(sample))


def _unscaled(params: NormalParams | LaplaceParams, exponent: int) -> NormalParams | LaplaceParams:
    """Params fitted to values times 2^-exponent, on the values' own scale."""
    location, scale = (math.ldexp(v, exponent) for v in params._values())
    if scale == 0.0:
        raise DegenerateSampleError(f"the fitted {params._name(1)} underflows to zero in float64")
    return type(params)(location, scale)


def _fit_laplace(ordered: Sequence[float]) -> tuple[LaplaceParams, float]:
    """The ML fit to an ascending sample of n >= 2, and its sum of |x - mu| for the LL."""
    mu = _middle(ordered)
    abs_dev = math.fsum(abs(x - mu) for x in ordered)
    scale = abs_dev / len(ordered)
    if scale == 0.0:
        raise DegenerateFitError("all sample values identical; laplace scale is zero")
    return LaplaceParams(mu=mu, scale=scale), abs_dev


def fit_laplace(sample: Sequence[float]) -> LaplaceParams:
    """ML fit: mu = sample median, scale = mean |deviation| from it."""
    centred = _centred(sorted(sample), 2, "laplace fit")
    return _unscaled(_fit_laplace(centred.values)[0], centred.exponent)


def _fit_normal(centred: _Centred) -> NormalParams:
    if centred.sum_squares == 0.0:
        raise DegenerateFitError("all sample values identical; normal sigma is zero")
    return NormalParams(mean=centred.mean, sigma=math.sqrt(centred.sum_squares / centred.n))


def fit_normal(sample: Sequence[float]) -> NormalParams:
    """ML fit: sample mean and population (biased) standard deviation."""
    centred = _centred(sample, 2, "normal fit")
    return _unscaled(_fit_normal(centred), centred.exponent)


def _laplace_cdfs(xs: Iterable[float], p: LaplaceParams) -> list[float]:
    """The Laplace CDF at each x."""
    mu, scale = p.mu, p.scale
    return [
        0.5 * math.exp(z) if (z := (x - mu) / scale) < 0.0 else 1.0 - 0.5 * math.exp(-z)
        for x in xs
    ]


def _laplace_quantiles(qs: Iterable[float], p: LaplaceParams) -> list[float]:
    """The Laplace quantile at each q in (0, 1):
    mu - scale * sgn(q - 1/2) * ln(1 - 2|q - 1/2|)."""
    mu, scale = p.mu, p.scale
    log = math.log
    return [
        mu + scale * log(2.0 * q) if q < 0.5
        else mu - scale * log(2.0 * (1.0 - q))
        for q in qs
    ]


def _normal_cdfs(xs: Iterable[float], p: NormalParams) -> list[float]:
    """The Normal CDF at each x."""
    mean, sigma = p.mean, p.sigma
    return [0.5 * math.erfc(-((x - mean) / sigma) / _SQRT2) for x in xs]


_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)), state


# xoshiro256's characteristic polynomial over GF(2), bit i the coefficient
# of x^i: with T the one-step map, P(T) = 0, so m steps are (x^m mod P)(T)
_CHARPOLY = 0x1_0003c03c_3f3ecb19_04b4edcf_26259f85_0280002b_cefd1a5e_9d116f2b_b0f0f001


@lru_cache(maxsize=256)
def _jump_poly(steps: int) -> int:
    """x^steps mod P, by square-and-multiply from the top bit of steps. Over
    GF(2) squaring spreads the bits, since (sum a_i x^i)^2 = sum a_i x^(2i)."""
    poly = 1
    for bit in format(steps, "b"):
        poly = int("0".join(format(poly, "b")), 2) << int(bit)
        while (n := poly.bit_length()) > 256:
            poly ^= _CHARPOLY << (n - 257)
    return poly


def _slot_mask(lanes: int) -> int:
    """The low 64 bits of each of lanes 128-bit slots."""
    return int.from_bytes((b"\xff" * 8 + bytes(8)) * lanes, "little")


def _jumped(state: tuple[int, ...], poly: int, mask: int) -> tuple[int, ...]:
    """poly(T) on packed lanes: XOR in the state where poly's bit is set,
    then step. The step is _words's without the output, so no addition."""
    s0, s1, s2, s3 = state
    j0 = j1 = j2 = j3 = 0
    for bit in reversed(format(poly, "0256b")):
        if bit == "1":
            j0 ^= s0
            j1 ^= s1
            j2 ^= s2
            j3 ^= s3
        t = (s1 << 17) & mask
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & mask
    return j0, j1, j2, j3


class Xoshiro256PlusPlus:
    """xoshiro256++ (Blackman & Vigna, "Scrambled linear pseudorandom number
    generators", ACM TOMS 2021), state expanded from the seed with
    splitmix64. Same seed, same stream, across runs and threads, however
    many words are drawn at once; not cryptographic.

    The state map is linear over GF(2), so a batch of words is drawn as
    lanes: consecutive stretches of the stream whose start states are found
    by jump-ahead (Haramoto et al., "Efficient jump ahead for F2-linear
    random number generators", INFORMS J. Computing 2008) and which are
    then stepped together, packed into one int per state word."""

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int) -> None:
        state = seed & _MASK64
        words = []
        for _ in range(4):
            word, state = _splitmix64(state)
            words.append(word)
        self._s0, self._s1, self._s2, self._s3 = words

    def _words(self, count: int) -> list[int]:
        """The next count 64-bit outputs; every draw goes through this loop.

        The count words are cut into L lanes of m = ceil(count / L) steps,
        lane j the stream from j*m steps on and the last lane shorter. L is
        1 below 512 words and doubles with count up to 16, where a packed
        int is still small enough for CPython's small-object allocator, so
        the words made next reuse its memory. Each state word holds lane j
        in bits 128j to 128j+63 of one int; the 64 bits above take a shift
        or a carry and are masked off, so no lane spills into the next and
        one pass of the loop steps every lane. The lane starts come from
        jumps by m, 2m, 4m, ..., each doubling the lanes."""
        lanes = min(16, 1 << (count >> 9).bit_length())
        steps = -(-count // lanes)
        last = count - (lanes - 1) * steps  # in [1, steps] as (lanes - 1)^2 < count
        state = (self._s0, self._s1, self._s2, self._s3)
        width = 1
        while width < lanes:
            jumped = _jumped(state, _jump_poly(width * steps), _slot_mask(width))
            state = tuple(s | j << 128 * width for s, j in zip(state, jumped))
            width *= 2
        s0, s1, s2, s3 = state
        mask = _slot_mask(lanes)
        top = 128 * (lanes - 1)
        packed, ends = [], []
        append = packed.append
        for run in (last, steps - last):
            for _ in range(run):
                t = (s0 + s3) & mask
                append((((t << 23) | (t >> 41)) & mask) + s0)
                t = (s1 << 17) & mask
                s2 ^= s0
                s3 ^= s1
                s1 ^= s2
                s0 ^= s3
                s2 ^= t
                s3 = ((s3 << 45) | (s3 >> 19)) & mask
            ends.append((s0 >> top, s1 >> top, s2 >> top, s3 >> top))
        # count steps on is where the last lane stood after its share
        self._s0, self._s1, self._s2, self._s3 = ends[0]
        # in native order each slot is its word then the spill half (reversed
        # when big-endian), so one slice with stride 2L reads one lane
        order = sys.byteorder
        view = memoryview(b"".join([w.to_bytes(16 * lanes, order) for w in packed])).cast("Q")
        packed.clear()  # append still holds the list: free the ints before the words
        out: list[int] = []
        for start in range(2 * lanes)[:: 2 if order == "little" else -2]:
            out += view[start :: 2 * lanes].tolist()
        del out[count:]
        return out

    def _floats(self, count: int) -> list[float]:
        """The next count uniforms on the open interval (0, 1), 53-bit resolution."""
        out = [((w >> 11) + 0.5) * 2.0**-53 for w in self._words(count)]
        while 1.0 in out:  # the top word: 2**53 - 0.5 rounds (ties to even) to 2**53
            out[out.index(1.0)] = 1.0 - 2.0**-53
        return out


def sample_laplace(n: int, p: LaplaceParams, seed: int) -> list[float]:
    """n inverse-transform Laplace variates, deterministic per seed."""
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    return _laplace_quantiles(Xoshiro256PlusPlus(seed)._floats(n), p)


def sample_normal(n: int, p: NormalParams, seed: int) -> list[float]:
    """n Marsaglia-polar normal variates, deterministic per seed."""
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    rng = Xoshiro256PlusPlus(seed)
    mean, sigma = p.mean, p.sigma
    sqrt, log = math.sqrt, math.log
    out: list[float] = []
    append = out.append
    while (missing := n - len(out)) > 0:
        # a pair is accepted with probability pi/4 and yields two normals, so
        # about 2/pi pairs per missing normal, plus a little slack; a short
        # batch is topped up by the next round, and an even count of uniforms
        # keeps the pairs aligned with the stream
        it = iter(rng._floats(2 * (math.ceil(2 * missing / math.pi) + 8)))
        for a, b in zip(it, it):
            u = 2.0 * a - 1.0
            v = 2.0 * b - 1.0
            s = u * u + v * v
            if s >= 1.0 or s == 0.0:
                continue
            factor = sqrt(-2.0 * log(s) / s)
            append(mean + sigma * u * factor)
            append(mean + sigma * v * factor)
    del out[n:]
    return out
