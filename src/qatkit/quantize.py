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
``FloatingPointError`` on an input with a NaN or inf entry.

``quantize`` takes one vector ``(d,)`` or a batch ``(..., d)``; each row of a
batch is quantized exactly as that vector would be on its own.
"""

from __future__ import annotations

import math
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
# vectors shorter than 2**100)
_SAFE_MAGNITUDE = 2.0**400

# E2M1 magnitudes; the mantissa bit is 0 at the even indices
_E2M1_GRID = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0])
_E2M1_MAX = 6.0
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
    # read by bench/tracing.py; ROADMAP item 1 removes that read and this line
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
    """FloatingPointError if ``x`` has a NaN or inf entry.  ``stat`` (max |x|,
    block amax, floor codes, x - x) and so its sum are non-finite
    whenever ``x`` is, so ``x`` is scanned only when that sum is off (or merely
    overflowed)."""
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
    largest = np.ldexp(np.finfo(float).max, -e)
    scaled = _quantize_int(spec, scaled_x)
    over = np.maximum.reduce(np.abs(scaled.quantized), axis=-1, keepdims=True) > largest
    if over.any():
        scaled = _quantize_int(spec, scaled_x, limit=np.where(over, largest, np.inf))
    quantized = np.ldexp(scaled.quantized, e)
    return QuantResult(quantized=quantized, error=x - quantized, keep=scaled.keep)


def _e2m1_round(u: np.ndarray) -> np.ndarray:
    """Indices into the E2M1 magnitude grid, nearest with ties to even mantissa."""
    return np.searchsorted(_E2M1_BOUNDS, u, side="left")


def _quantize_mxfp4(spec: QuantSpec, x: np.ndarray) -> QuantResult:
    """Block floating-point quantization: E2M1 elements, shared scale per block.

    Each block of ``block_size`` shares the power-of-two scale
    2**ceil(log2(max|x| / 6)); elements round to the nearest point of
    scale * {0, +-0.5, +-1, +-1.5, +-2, +-3, +-4, +-6} with ties to the even
    mantissa.  An all-zero block gets scale 1 and zeros.  Each vector of a
    batch ``(S, d)`` is zero-padded to whole blocks on its own.
    """
    n = x.shape[-1]
    bs = QuantSpec.block_size
    n_blocks = max(1, -(-n // bs))
    padded = np.zeros(x.shape[:-1] + (n_blocks * bs,))
    padded[..., :n] = x
    blocks = padded.reshape(-1, bs)

    absb = np.abs(blocks)
    amax = absb.max(axis=1)
    _reject_nonfinite(amax, x)
    # smallest power of two s with amax <= 6 s; frexp(0) gives s = 1
    m, e = np.frexp(amax / _E2M1_MAX)
    scales = np.ldexp(1.0, np.where(m == 0.5, e - 1, e))
    idx = _e2m1_round(absb / scales[:, None])
    mags = _E2M1_GRID[idx] * scales[:, None]
    quantized = np.copysign(mags, blocks).reshape(padded.shape)[..., :n]
    return QuantResult(quantized=quantized, error=x - quantized)


def _quantize_floor(spec: QuantSpec, x: np.ndarray) -> QuantResult:
    """Elementwise floor onto the fixed grid ``spec.grid``."""
    codes = np.floor(x / spec.grid)
    _reject_nonfinite(codes, x)
    quantized = codes * spec.grid
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


def _clip_cells(bits: int, k: float):
    """The rounding cells of a ``bits``-wide grid with clip factor k: level
    c_j = j k / q_max (j = -q_max - 1 .. q_max) takes the cell [a_j, b_j].
    Returns ``(j, c, edges, mass, pdf)``: the interior edges b_j = a_{j+1},
    each cell's mass Phi(b_j) - Phi(a_j), and phi at the edges.  The two outer
    cells are open to -inf / +inf, where phi vanishes."""
    q_max = 2 ** (bits - 1) - 1
    s = k / q_max
    j = np.arange(-q_max - 1, q_max + 1)
    c = s * j
    edges = c[:-1] + s / 2.0
    pdf = np.exp(-0.5 * edges * edges) / math.sqrt(2.0 * math.pi)
    mass = np.diff(np.concatenate(([0.0], _normal_cdf(edges), [1.0])))
    return j, c, edges, mass, pdf


def gaussian_clip_mse(bits: int, k: float) -> float:
    """E_{z~N(0,1)}[(z - dequant(quant(z; k)))^2], exact.

    Each cell [a, b] of level c adds
    (1 + c^2)(Phi(b) - Phi(a)) + (a - 2c) phi(a) - (b - 2c) phi(b).
    """
    _, c, edges, mass, pdf = _clip_cells(bits, k)
    lower = np.concatenate(([0.0], (edges - 2.0 * c[1:]) * pdf))
    upper = np.concatenate(((edges - 2.0 * c[:-1]) * pdf, [0.0]))
    return float(((1.0 + c * c) * mass + lower - upper).sum())


def _clip_mse_slope(bits: int, k: float) -> float:
    """dMSE/dk = (2 / q_max) sum_j j [c_j (Phi(b_j) - Phi(a_j)) - (phi(a_j) - phi(b_j))].

    Only the levels' motion counts: the terms from the moving edges cancel,
    because the error is continuous across each edge.
    """
    j, c, _, mass, pdf = _clip_cells(bits, k)
    pdf_rise = np.diff(np.concatenate(([0.0], pdf, [0.0])))  # phi(b_j) - phi(a_j)
    return float(2.0 / j[-1] * (j * (c * mass + pdf_rise)).sum())


def calibrate_clip(bits: int) -> float:
    """MSE-optimal Gaussian clip factor for a ``bits``-wide symmetric grid:
    the root of the MSE's slope on [0.5, 6], where it is negative at 0.5 and
    positive at 6 for every supported bit-width, bisected until the midpoint
    is an endpoint (~55 slope evaluations).  Near its minimum the MSE is too
    flat to rank points ~1e-7 apart; its slope's sign is not.
    """
    if not 2 <= bits <= 8:
        raise ValueError(f"bits out of supported range [2, 8]: {bits}")
    lo, hi = 0.5, 6.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if _clip_mse_slope(bits, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return mid


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
