"""A tour of the quantizers: rotation, integer grid, clip factors, MXFP4.

The row quantizer rotates each row with a fast Walsh-Hadamard transform,
spreads outliers across the row, and rounds on a symmetric integer grid whose
scale comes from the row RMS times a pre-computed clip factor.  The clip
factor per bit-width minimizes the expected squared error for a standard
normal input; the MXFP4 format instead shares a power-of-two scale across
32-element blocks of E2M1 values.
"""

import numpy as np

from qatkit.numerics import make_rng
from qatkit.quantize import (
    QuantSpec,
    calibrate_clip,
    gaussian_clip_mse,
    quantize,
)
from qatkit.transform import hadamard_forward, hadamard_plan

rng = make_rng(7)

# --- the rotation spreads a spike across the row -------------------------
x = np.zeros(16)
x[3] = 4.0
plan = hadamard_plan(16)
z = hadamard_forward(plan, x)
print("spike -> flat spectrum under the Hadamard rotation:")
print("  x:", np.array2string(x, precision=2))
print("  z:", np.array2string(z, precision=2))

# --- MSE-optimal clip factors ---------------------------------------------
print("\nclip factor k_b per bit-width (argmin of Gaussian rounding+clipping MSE):")
for bits in (2, 3, 4, 5):
    k = calibrate_clip(bits)
    print(f"  b={bits}: k={k:.4f}  mse={gaussian_clip_mse(bits, k):.6f}")

print("\nthe b=4 MSE curve is a clean valley around the optimum:")
k4 = calibrate_clip(4)
for k in (k4 - 0.4, k4 - 0.2, k4, k4 + 0.2, k4 + 0.4):
    bar = "#" * int(3000 * gaussian_clip_mse(4, k))
    print(f"  k={k:.3f} {bar}")

# --- 4-bit row quantization round trip -------------------------------------
spec = QuantSpec(scheme="int-hadamard", bits=4)
row = rng.standard_normal(64)
res = quantize(spec, row)
print("\nint-hadamard b=4 on a Gaussian row of 64:")
print(f"  clipped share of transform-domain channels = {1.0 - res.keep.mean():.4f}")
print(f"  rms error = {np.sqrt(np.mean(res.error**2)):.4f} (vs rms input {np.sqrt(np.mean(row**2)):.4f})")
print(f"  decomposition is the exact fp residual: {np.array_equal(res.error, row - res.quantized)}")

# --- MXFP4 block format -----------------------------------------------------
mx = QuantSpec(scheme="mxfp4")
block = np.array([0.07, -0.9, 2.4, -6.0, 0.0, 1.1] + [0.3] * 26)
res = quantize(mx, block)
print("\nmxfp4 block (shared power-of-two scale, E2M1 element grid):")
amax = np.abs(block).max()
print(f"  block max {amax:.2f} -> scale 2^ceil(log2({amax:.2f} / 6)) = {2.0 ** np.ceil(np.log2(amax / 6.0))}")
print("  in :", np.array2string(block[:6], precision=2))
print("  out:", np.array2string(res.quantized[:6], precision=2))
