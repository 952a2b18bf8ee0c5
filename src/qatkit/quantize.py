"""Quantizers behind one contract: Q(x) plus the exact error e = x - Q(x).

Schemes
-------
int-hadamard : row-wise symmetric integer grid in the Hadamard domain with an
               RMS-derived scale and an MSE-optimal Gaussian clip factor
int-plain    : same grid without the transform
mxfp4        : 4-bit E2M1 elements with a shared power-of-two scale per
               32-element block
floor-toy    : elementwise floor onto a fixed grid (default cell 1.0)
none         : the identity, Q(x) = x and e = 0: full-precision training

Every scheme returns a ``QuantResult`` of Q(x), the error computed as
``x - quantized`` in the original domain (so ``quantized + error`` equals the
input bitwise wherever that difference is representable) and, for the int
schemes, the keep-mask of unclipped transform-domain channels, laid out over
each vector's padded rows.  Every scheme raises ``FloatingPointError`` on an
input with a NaN or inf entry.

``quantize`` takes one vector ``(d,)`` or a batch ``(..., d)``; each row of a
batch is quantized exactly as that vector would be on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .transform import hadamard_forward, hadamard_inverse, hadamard_plan

__all__ = [
    "INT_SCHEMES",
    "SCHEMES",
    "QuantSpec",
    "QuantResult",
    "int_spec",
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
    """Quantizer configuration.

    ``row_length`` of ``None`` treats the whole input vector as a single row;
    otherwise the input length must be a multiple of ``row_length`` and rows
    are quantized independently.  ``grid`` is the cell size of the floor-toy
    scheme and is ignored by the others.
    """

    scheme: str
    bits: int = 4
    clip_factor: float | None = None
    block_size: int = 32
    row_length: int | None = None
    grid: float = 1.0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if self.scheme in INT_SCHEMES:
            if self.bits < 2:
                raise ValueError(f"int schemes need bits >= 2, got {self.bits}")
            if self.clip_factor is None or self.clip_factor <= 0:
                raise ValueError("int schemes need a positive clip_factor")
        if self.scheme == "mxfp4" and self.block_size < 1:
            raise ValueError(f"block_size must be positive, got {self.block_size}")
        if self.scheme == "floor-toy" and self.grid <= 0:
            raise ValueError(f"grid must be positive, got {self.grid}")
        if self.row_length is not None and self.row_length < 1:
            raise ValueError(f"row_length must be positive, got {self.row_length}")

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
    value was not clipped: |z_i| <= clip_factor * sigma.  A vector's rows are
    padded to the transform length and laid end to end, so a batch
    ``(..., d)`` gives ``keep`` the shape ``(..., rows * padded_row)``.
    """

    quantized: np.ndarray
    error: np.ndarray
    keep: np.ndarray | None = None


def int_spec(scheme: str, bits: int, row_length: int | None = None) -> QuantSpec:
    """Integer-grid spec with the clip factor from the packaged table (``default_clip_factor``)."""
    return QuantSpec(scheme=scheme, bits=bits, clip_factor=default_clip_factor(bits), row_length=row_length)


def _reject_nonfinite(stat: np.ndarray, x: np.ndarray) -> None:
    """FloatingPointError if ``x`` has a NaN or inf entry.  ``stat`` (``x``
    itself, block amax, floor codes, x - x) and so its sum are non-finite
    whenever ``x`` is, so ``x`` is scanned only when that sum is off (or merely
    overflowed)."""
    if not math.isfinite(np.add.reduce(stat, axis=None)) and not np.isfinite(x).all():
        raise FloatingPointError("quantizer input has a NaN or inf entry")


def _quantize_int(spec: QuantSpec, x: np.ndarray, row_length: int) -> QuantResult:
    """Single pass over ``x`` viewed as (rows, row_length), the rows of every
    vector of a batch stacked: one transform, one sigma per row, and from
    them the reconstruction and the keep-mask.  z = Hx (x for
    int-plain), sigma = rms(z) over the padded row, scale = clip_factor *
    sigma / q_max, codes = round-half-even(z / scale) clipped to [q_min, q_max]."""
    # checked before the transform, which would warn on a NaN or inf
    _reject_nonfinite(x, x)
    rows = x.reshape(-1, row_length)
    plan = hadamard_plan(row_length) if spec.scheme == "int-hadamard" else None
    z = rows if plan is None else hadamard_forward(plan, rows)
    # np.add.reduce / n: np.mean's value at half its dispatch cost
    sigma = np.sqrt(np.add.reduce(z * z, axis=-1, keepdims=True) / z.shape[-1])
    bound = spec.clip_factor * sigma
    scale = np.where(sigma == 0.0, SIGMA_FLOOR, bound / spec.q_max)
    # np.minimum/np.maximum: np.clip's values at a fraction of its dispatch cost
    codes = np.minimum(np.maximum(np.rint(z / scale), spec.q_min), spec.q_max)
    z_hat = scale * codes
    quantized = (z_hat if plan is None else hadamard_inverse(plan, z_hat)).reshape(x.shape)
    return QuantResult(
        quantized=quantized,
        error=x - quantized,
        # a row whose sigma underflowed to 0 has all codes 0: nothing clipped
        keep=((np.abs(z) <= bound) | (sigma == 0.0)).reshape(x.shape[:-1] + (-1,)),
    )


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
    bs = spec.block_size
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
    """Quantize a vector ``(d,)``, or each row of a batch ``(..., d)``, under
    ``spec``; int schemes treat each vector as rows of ``spec.row_length``
    (one row when unset) and quantize all rows at once.  ``none`` returns a
    copy of x and the error x - x, +0.0 wherever x is finite."""
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
    rl = spec.row_length or x.shape[-1]
    if x.shape[-1] % rl:
        raise ValueError(f"input dim {x.shape[-1]} is not a multiple of row_length {rl}")
    return _quantize_int(spec, x, rl)


# ---------------------------------------------------------------------------
# clip-factor calibration
# ---------------------------------------------------------------------------

def gaussian_clip_mse(bits: int, k: float) -> float:
    """E_{z~N(0,1)}[(z - dequant(quant(z; k)))^2], exact.

    Level c = j * k / q_max takes the rounding cell [a, b]; each cell adds
    (1 + c^2)(Phi(b) - Phi(a)) + (a - 2c) phi(a) - (b - 2c) phi(b), and the two
    outer cells are open to -inf / +inf, where phi vanishes.
    """
    from scipy.special import ndtr  # scipy loads only when calibrating

    q_max = 2 ** (bits - 1) - 1
    s = k / q_max
    c = s * np.arange(-q_max - 1, q_max + 1)
    edges = c[:-1] + s / 2.0
    pdf = np.exp(-0.5 * edges * edges) / math.sqrt(2.0 * math.pi)
    cdf = np.concatenate(([0.0], ndtr(edges), [1.0]))
    lower = np.concatenate(([0.0], (edges - 2.0 * c[1:]) * pdf))
    upper = np.concatenate(((edges - 2.0 * c[:-1]) * pdf, [0.0]))
    return float(((1.0 + c * c) * np.diff(cdf) + lower - upper).sum())


# coarse scan of the clip factor; the bracket around its minimum is refined
_CLIP_SCAN = np.linspace(0.5, 6.0, 96)


def calibrate_clip(bits: int) -> float:
    """MSE-optimal Gaussian clip factor for a ``bits``-wide symmetric grid.

    Scans k in [0.5, 6] on a 96-point grid, then refines the bracketing
    interval with a bounded Brent search to 1e-6.  Deterministic.
    """
    if not 2 <= bits <= 8:
        raise ValueError(f"bits out of supported range [2, 8]: {bits}")
    from scipy.optimize import minimize_scalar  # scipy loads only when calibrating

    i = int(np.argmin([gaussian_clip_mse(bits, float(k)) for k in _CLIP_SCAN]))
    bracket = (float(_CLIP_SCAN[max(i - 1, 0)]), float(_CLIP_SCAN[min(i + 1, _CLIP_SCAN.size - 1)]))
    res = minimize_scalar(
        lambda k: gaussian_clip_mse(bits, k), bounds=bracket, method="bounded", options={"xatol": 1e-6}
    )
    return float(res.x)


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
