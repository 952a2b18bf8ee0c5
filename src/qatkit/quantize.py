"""Quantizers behind one contract: Q(x) plus the exact error e = x - Q(x).

Schemes
-------
int-hadamard : symmetric integer grid in the Hadamard domain, one RMS-derived
               scale per vector and the MSE-optimal Gaussian clip factor k_b
int-plain    : same grid without the transform
mxfp4        : 4-bit E2M1 elements with a shared power-of-two scale per
               32-element block
floor-toy    : elementwise floor onto a fixed grid (default cell 1.0)
none         : the identity, Q(x) = x and e = 0: full-precision training

Every scheme returns a ``QuantResult`` of Q(x), the error computed as
``x - quantized`` in the original domain (so ``quantized + error`` equals the
input bitwise wherever that difference is representable) and, for the int
schemes, the keep-mask of unclipped transform-domain channels, one per entry
of each vector padded to the transform length.  Every scheme raises
``FloatingPointError`` on an input with a NaN or inf entry.  On finite input
the int schemes and mxfp4 give a finite Q(x) and e: an int code whose grid
point passes the float max is clamped, and an mxfp4 entry saturates at
+-3 * 2**1022.  floor-toy gives a finite Q(x) and e or raises
``FloatingPointError`` where x / grid or its grid point would pass the float
max (a grid of 1e-300 at |x| = 1e10).

``quantize`` takes one vector ``(d,)`` or a batch ``(..., d)``; each row of a
batch is quantized exactly as that vector would be on its own.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from .transform import hadamard_forward, hadamard_inverse, hadamard_plan

__all__ = [
    "INT_SCHEMES",
    "SCHEMES",
    "QuantSpec",
    "QuantResult",
    "quantize",
    "calibrate_clip",
    "gaussian_clip_mse",
    "default_clip_factor",
    "write_clip_table",
    "read_clip_table",
]

INT_SCHEMES = ("int-hadamard", "int-plain")
SCHEMES = INT_SCHEMES + ("mxfp4", "floor-toy", "none")

# degenerate-row scale floor: an all-zero row quantizes to zeros with this scale
SIGMA_FLOOR = 1e-12
# below this magnitude no transform entry or sum of squares can overflow (for
# vectors shorter than 2**100), nor can any mxfp4 grid point
_SAFE_MAGNITUDE = 2.0**400
_FLOAT_MAX = float(np.finfo(np.float64).max)

# E2M1 magnitudes; the mantissa bit is 0 at the even indices
_E2M1_GRID = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0])
# rounding boundaries: the midpoints between grid neighbours.  A value on a
# midpoint goes to the even-mantissa neighbour, index 2j, so the midpoints
# above the odd indices sit one ulp low and searchsorted(side="left") sends
# their ties up.
_E2M1_MID = (_E2M1_GRID[1:] + _E2M1_GRID[:-1]) / 2.0
_E2M1_BOUNDS = np.where(np.arange(_E2M1_MID.size) % 2 == 1, np.nextafter(_E2M1_MID, 0.0), _E2M1_MID)


@dataclass(frozen=True)
class QuantSpec:
    """Quantizer configuration: what a ``--quant`` string says.

    ``bits`` is the int schemes' grid width, and their clip factor k_b is the
    packaged table's (``default_clip_factor``).  ``grid`` is the cell size of
    the floor-toy scheme and is ignored by the others.  An mxfp4 block holds
    ``block_size`` entries.
    """

    scheme: str
    bits: int = 4
    grid: float = 1.0
    block_size: ClassVar[int] = 32
    # read by bench/tracing.py; ROADMAP item 10 removes that read and this line
    row_length: ClassVar[None] = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if self.scheme in INT_SCHEMES:
            default_clip_factor(self.bits)  # a bit-width the table lacks (< 2 or > 8) raises
        if self.scheme == "floor-toy" and self.grid <= 0:
            raise ValueError(f"grid must be positive, got {self.grid}")

    @property
    def clip_factor(self) -> float:
        return default_clip_factor(self.bits)

    @property
    def q_max(self) -> int:
        return 2 ** (self.bits - 1) - 1

    @property
    def q_min(self) -> int:
        return -(2 ** (self.bits - 1))


@dataclass(frozen=True)
class QuantResult:
    """Q(x), the exact residual x - Q(x), and the int schemes' keep-mask.

    ``keep`` (int schemes only, else None) is True where the transform-domain
    value was not clipped: |z_i| <= clip_factor * sigma.  Each vector is
    padded to the transform length, so a batch ``(..., d)`` gives ``keep``
    the shape ``(..., padded_dim)`` (``padded_dim`` is d for int-plain).
    """

    quantized: np.ndarray
    error: np.ndarray
    keep: np.ndarray | None = None


def _reject_nonfinite(stat: np.ndarray, x: np.ndarray) -> None:
    """FloatingPointError if ``x`` has a NaN or inf entry.  ``stat`` (max |x|
    or x - x) and so its sum are non-finite whenever ``x`` is, so ``x`` is
    scanned only when that sum is off."""
    if not math.isfinite(np.add.reduce(stat, axis=None)) and not np.isfinite(x).all():
        raise FloatingPointError("quantizer input has a NaN or inf entry")


def _quantize_int(spec: QuantSpec, x: np.ndarray, limit: np.ndarray | None = None) -> QuantResult:
    """Single pass over every vector of ``x``: one transform, one sigma per
    vector, and from them the reconstruction and the keep-mask.  z = Hx (x
    for int-plain), sigma = rms(z) over the padded vector, scale =
    clip_factor * sigma / q_max, codes = round-half-even(z / scale) clipped
    to [q_min, q_max].  ``limit`` (one bound per vector, from
    ``_quantize_int_large`` only) also clamps each |code| to
    floor(limit / (scale * reach)), so that no entry of Q(x) exceeds it:
    reach is 1 for int-plain and sqrt(padded_dim) for int-hadamard, whose
    inverse transform adds up all of a vector's codes."""
    # NaN or inf for a NaN or inf entry, checked before the transform, which
    # would warn on one
    amax = np.maximum.reduce(np.abs(x), axis=None)
    if not amax < _SAFE_MAGNITUDE:
        _reject_nonfinite(amax, x)
        return _quantize_int_large(spec, x)
    plan = hadamard_plan(x.shape[-1]) if spec.scheme == "int-hadamard" else None
    z = x if plan is None else hadamard_forward(plan, x)
    # np.add.reduce / n: np.mean's value at half its dispatch cost
    sigma = np.sqrt(np.add.reduce(z * z, axis=-1, keepdims=True) / z.shape[-1])
    bound = spec.clip_factor * sigma
    scale = np.where(sigma == 0.0, SIGMA_FLOOR, bound / spec.q_max)
    # np.minimum/np.maximum: np.clip's values at a fraction of its dispatch cost
    codes = np.minimum(np.maximum(np.rint(z / scale), spec.q_min), spec.q_max)
    if limit is not None:
        # 2**-20 of room for the rounding of the inverse transform's sums
        reach = (1.0 if plan is None else math.sqrt(plan.padded_dim)) / (1.0 - 2.0**-20)
        with np.errstate(over="ignore"):  # an inf cap clamps nothing
            cap = np.floor(limit / (scale * reach))
        codes = np.minimum(np.maximum(codes, -cap), cap)
    z_hat = scale * codes
    quantized = z_hat if plan is None else hadamard_inverse(plan, z_hat)
    return QuantResult(
        quantized=quantized,
        error=x - quantized,
        # a vector whose sigma underflowed to 0 has all codes 0: nothing clipped
        keep=(np.abs(z) <= bound) | (sigma == 0.0),
    )


def _quantize_int_large(spec: QuantSpec, x: np.ndarray) -> QuantResult:
    """``_quantize_int`` for a finite batch holding a vector with max |x| >=
    ``_SAFE_MAGNITUDE``.  Each such vector is quantized as 2**e Q(2**-e x),
    2**e its leading power of two, so neither its transform nor its sum of
    squares overflows.  Where that grid point scaled back would not be a
    float, the vector's codes are clamped (see ``_quantize_int``'s
    ``limit``), so Q(x) is always finite; ``error`` is still
    ``x - quantized``.  Every other vector is quantized as it is alone,
    bitwise."""
    row_amax = np.maximum.reduce(np.abs(x), axis=-1, keepdims=True)
    _, e = np.frexp(row_amax)
    e = np.where(row_amax < _SAFE_MAGNITUDE, 0, e)
    scaled_x = np.ldexp(x, -e)
    # the largest |Q| entry whose ldexp by e is a float
    largest = np.ldexp(_FLOAT_MAX, -e)
    scaled = _quantize_int(spec, scaled_x)
    over = np.maximum.reduce(np.abs(scaled.quantized), axis=-1, keepdims=True) > largest
    if over.any():
        scaled = _quantize_int(spec, scaled_x, limit=np.where(over, largest, np.inf))
    quantized = np.ldexp(scaled.quantized, e)
    return QuantResult(quantized=quantized, error=x - quantized, keep=scaled.keep)


def _e2m1_round(u: np.ndarray) -> np.ndarray:
    """Indices into the E2M1 magnitude grid, nearest with ties to even mantissa."""
    return _E2M1_BOUNDS.searchsorted(u, side="left")


def _quantize_mxfp4(spec: QuantSpec, x: np.ndarray) -> QuantResult:
    """Block floating-point quantization: E2M1 elements, shared scale per block.

    Each block of ``block_size`` shares the power-of-two scale
    2**ceil(log2(max|x| / 6)), exact and at least 2**-1074; elements round
    to the nearest point of scale * {0, +-0.5, +-1, +-1.5, +-2, +-3, +-4,
    +-6} with ties to the even mantissa.  An all-zero block gives zeros.
    Each vector of a batch ``(S, d)`` is cut into blocks on its own: viewed
    as whole blocks when d is a multiple of ``block_size``, else zero-padded
    to them.

    The scheme saturates: an entry with |x| >= 1.75 * 2**1023 (~1.57e308)
    sits in a block of scale 2**1022 and would round to 4 * 2**1022, past the
    float max, so it takes the largest grid point that is a float,
    +-3 * 2**1022.  Q(x) and e are finite for every finite x, and no other
    entry moves.
    """
    n = x.shape[-1]
    bs = QuantSpec.block_size
    whole = n % bs == 0
    if whole:
        blocks = x.reshape(-1, bs)
    else:
        padded = np.zeros(x.shape[:-1] + (-(-n // bs) * bs,))
        padded[..., :n] = x
        blocks = padded.reshape(-1, bs)

    u = np.abs(blocks)
    amax = np.maximum.reduce(u, axis=1)
    # NaN or inf for a NaN or inf entry; a max, unlike a sum, cannot overflow
    top = np.maximum.reduce(amax, axis=None, initial=0.0)
    large = not top < _SAFE_MAGNITUDE
    if large:
        _reject_nonfinite(top, x)
    # smallest power of two s with amax <= 6 s, read off amax = m 2**e
    # (m in [0.5, 1)) exactly, as 6 = 0.75 2**3: 2**(e - 3), or 2**(e - 2)
    # where m > 0.75, floored at 2**-1074 (amax / 6 would round or underflow
    # among the subnormals); an all-zero block gets 2**-3 and zeros
    m, e = np.frexp(amax)
    scales = np.ldexp(1.0, np.maximum(e - 3 + (m > 0.75), -1074))[:, None]
    u /= scales
    idx = _e2m1_round(u)
    if large:
        # the largest grid index whose point times the scale is a float; a
        # scale below 1 admits every index, and is read as 1 so that the
        # quotient cannot overflow
        top_idx = np.searchsorted(_E2M1_GRID, _FLOAT_MAX / np.maximum(scales, 1.0), side="right") - 1
        idx = np.minimum(idx, top_idx)
    q = _E2M1_GRID.take(idx)
    q *= scales
    np.copysign(q, blocks, out=q)
    quantized = q.reshape(x.shape) if whole else q.reshape(padded.shape)[..., :n]
    return QuantResult(quantized=quantized, error=x - quantized)


def _quantize_floor(spec: QuantSpec, x: np.ndarray) -> QuantResult:
    """Elementwise floor onto the fixed grid ``spec.grid``,
    Q(x) = floor(x / grid) grid.  A finite x whose x / grid or grid point
    would pass the float max raises ``FloatingPointError``; this needs
    max |x| >= min(grid, 1) 2**1022, below which nothing is checked."""
    amax = np.maximum.reduce(np.abs(x), axis=None, initial=0.0)
    if amax < min(spec.grid, 1.0) * 2.0**1022:
        quantized = np.floor(x / spec.grid) * spec.grid
    else:
        _reject_nonfinite(amax, x)
        with np.errstate(over="ignore"):  # an overflow is the error raised next
            quantized = np.floor(x / spec.grid) * spec.grid
        if not np.isfinite(quantized).all():
            raise FloatingPointError(
                f"floor-toy grid point past the float max: max |x| = {float(amax)!r} on grid {spec.grid!r}"
            )
    return QuantResult(quantized=quantized, error=x - quantized)


def quantize(spec: QuantSpec, x: np.ndarray) -> QuantResult:
    """Quantize a vector ``(d,)``, or each vector of a batch ``(..., d)``,
    under ``spec``, all vectors at once.  ``none`` returns a copy of x and
    the error x - x, +0.0 wherever x is finite."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:
        raise ValueError("expected a vector or a batch of vectors, got a scalar")
    if spec.scheme == "none":
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, rejected next
            error = x - x
        _reject_nonfinite(error, x)
        return QuantResult(quantized=x.copy(), error=error)
    if spec.scheme == "floor-toy":
        return _quantize_floor(spec, x)
    if spec.scheme == "mxfp4":
        return _quantize_mxfp4(spec, x)
    if x.shape[-1] == 0:
        raise ValueError("cannot quantize an empty vector with an int scheme")
    return _quantize_int(spec, x)


# ---------------------------------------------------------------------------
# clip-factor calibration
# ---------------------------------------------------------------------------

_SQRT_HALF = math.sqrt(0.5)


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x) = 0.5 erfc(-x / sqrt 2), the standard normal CDF, entrywise
    through ``math.erfc``."""
    return 0.5 * np.fromiter(map(math.erfc, (x * -_SQRT_HALF).tolist()), float, x.size)


@functools.lru_cache(maxsize=64)
def _cell_layout(bits: tuple[int, ...]):
    """The rounding cells of the widths ``bits``, every width's cells laid
    end to end: width w holds the cells ``bounds[w]`` .. ``bounds[w + 1] - 1``.
    Returns ``(q_max, bounds, w, j)``: each width's q_max, and each cell's
    width and level index j = -q_max - 1 .. q_max."""
    q_max = 2 ** (np.array(bits) - 1) - 1
    n = 2 * q_max + 2
    bounds = np.concatenate(([0], np.cumsum(n)))
    w = np.repeat(np.arange(n.size), n)
    layout = (q_max, bounds, w, np.arange(bounds[-1]) - (bounds[:-1] + q_max + 1)[w])
    for v in layout:
        v.flags.writeable = False  # cached, so shared by every caller
    return layout


def _clip_cells(layout, k: np.ndarray):
    """The cells of ``layout`` under clip factors ``k``, one per width: level
    c_j = j k / q_max takes the cell [a_j, b_j], b_j = a_{j+1} halfway to the
    next level.  Returns ``(c, a, b, mass, pdf_a, pdf_b)``: each cell's mass
    Phi(b_j) - Phi(a_j) and phi at its edges.  The outer cells of a width are
    open to -inf / +inf, where Phi is 0 / 1 and phi vanishes; their a / b
    there are finite stand-ins."""
    q_max, bounds, w, j = layout
    s = (k / q_max)[w]
    c = s * j
    b = c + s / 2.0
    top, bottom = bounds[1:] - 1, bounds[:-1]
    cdf_b = _normal_cdf(b)
    cdf_b[top] = 1.0
    pdf_b = np.exp(-0.5 * b * b) / math.sqrt(2.0 * math.pi)
    pdf_b[top] = 0.0
    a, cdf_a, pdf_a = (np.concatenate(([0.0], v[:-1])) for v in (b, cdf_b, pdf_b))
    cdf_a[bottom] = 0.0
    pdf_a[bottom] = 0.0
    return c, a, b, cdf_b - cdf_a, pdf_a, pdf_b


def gaussian_clip_mse(bits: int, k: float) -> float:
    """E_{z~N(0,1)}[(z - dequant(quant(z; k)))^2], exact.

    Each cell [a, b] of level c adds
    (1 + c^2)(Phi(b) - Phi(a)) + (a - 2c) phi(a) - (b - 2c) phi(b).
    """
    c, a, b, mass, pdf_a, pdf_b = _clip_cells(_cell_layout((bits,)), np.array([k], dtype=float))
    return float(((1.0 + c * c) * mass + (a - 2.0 * c) * pdf_a - (b - 2.0 * c) * pdf_b).sum())


def _clip_mse_slopes(bits: tuple[int, ...], k: np.ndarray) -> np.ndarray:
    """dMSE/dk of each width ``bits[w]`` at its ``k[w]``:
    (2 / q_max) sum_j j [c_j (Phi(b_j) - Phi(a_j)) - (phi(a_j) - phi(b_j))].

    Only the levels' motion counts: the terms from the moving edges cancel,
    because the error is continuous across each edge.  Each width's sum
    reduces its own slice of the cells, so its slope is bitwise the one it
    has alone.
    """
    layout = _cell_layout(bits)
    q_max, bounds, _, j = layout
    c, _, _, mass, pdf_a, pdf_b = _clip_cells(layout, k)
    terms = j * (c * mass + (pdf_b - pdf_a))
    bounds = bounds.tolist()
    return 2.0 / q_max * np.array([np.add.reduce(terms[lo:hi]) for lo, hi in zip(bounds, bounds[1:])])


def calibrate_clip(bits) -> list[float]:
    """MSE-optimal Gaussian clip factor for each of the ``bits``-wide
    symmetric grids, in the order given: the root of the MSE's slope on
    [0.5, 6], where it is negative at 0.5 and positive at 6 for every
    supported bit-width.  The widths bisect as one batch: each round
    evaluates the slopes of every live width at once, and a width stops
    when its midpoint is an endpoint (~55 rounds).  Each k_b is bitwise the
    one its width gets alone.  Near its minimum the MSE is too flat to rank
    points ~1e-7 apart; its slope's sign is not.
    """
    bits = np.array([operator.index(b) for b in bits], dtype=np.int64)
    if bits.size == 0:
        raise ValueError("no bit-widths to calibrate")
    for b in bits.tolist():
        if not 2 <= b <= 8:
            raise ValueError(f"bits out of supported range [2, 8]: {b}")
    k = np.empty(bits.size)
    live = np.arange(bits.size)
    lo, hi = np.full(bits.size, 0.5), np.full(bits.size, 6.0)
    while True:
        mid = 0.5 * (lo + hi)
        done = (mid == lo) | (mid == hi)
        k[live[done]] = mid[done]
        live, lo, hi, mid = live[~done], lo[~done], hi[~done], mid[~done]
        if not live.size:
            return k.tolist()
        below = _clip_mse_slopes(tuple(bits[live].tolist()), mid) < 0.0
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)


_CLIP_CACHE: dict[int, float] = {}
_CLIP_TABLE_VERSION = 1
_PACKAGED_TABLE = Path(__file__).parent / "data" / "clip_factors.tsv"


def default_clip_factor(bits: int) -> float:
    """Calibrated clip factor from the packaged table, which holds every
    bit-width ``calibrate_clip`` supports; a missing or unreadable table, or a
    bit-width it lacks, raises ValueError."""
    if not _CLIP_CACHE:
        try:
            table = read_clip_table(_PACKAGED_TABLE)
        except (OSError, ValueError) as err:
            raise ValueError(f"unreadable clip-factor table {_PACKAGED_TABLE}: {err}") from err
        _CLIP_CACHE.update({b: k for b, (k, _) in table.items()})
    if bits not in _CLIP_CACHE:
        raise ValueError(f"no clip factor for {bits} bits in {_PACKAGED_TABLE}")
    return _CLIP_CACHE[bits]


def write_clip_table(path, rows: list[tuple[int, float, float]]) -> None:
    """Write (bits, k_b, mse) rows as a versioned TSV."""
    path = Path(path)
    lines = [f"# clip-factors v{_CLIP_TABLE_VERSION}", "bits\tk\tmse"]
    for bits, k, mse in rows:
        lines.append(f"{bits}\t{k!r}\t{mse!r}")
    path.write_text("\n".join(lines) + "\n")


def read_clip_table(path) -> dict[int, tuple[float, float]]:
    """Read a clip table back as {bits: (k_b, mse)}."""
    out: dict[int, tuple[float, float]] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("bits"):
            continue
        b, k, mse = line.split("\t")
        out[int(b)] = (float(k), float(mse))
    return out
