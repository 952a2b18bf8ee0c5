import dataclasses
import math
import warnings

import numpy as np
import pytest

import qatkit.quantize as qz
from oracles import (
    E2M1_GRID,
    gaussian_clip_mse_ndtr,
    gaussian_clip_mse_trapezoid,
    int_reference,
    int_transform_rows,
    mxfp4_entry_scales,
    quantize_mxfp4_padded,
)
from qatkit.numerics import make_rng
from qatkit.quantize import (
    QuantSpec,
    calibrate_clip,
    gaussian_clip_mse,
    quantize,
    read_clip_table,
    write_clip_table,
)

ALL_SPECS = [
    QuantSpec(scheme="floor-toy"),
    QuantSpec(scheme="floor-toy", grid=0.25),
    QuantSpec(scheme="mxfp4"),
    QuantSpec(scheme="int-plain", bits=4),
    QuantSpec(scheme="int-hadamard", bits=4),
    QuantSpec(scheme="int-hadamard", bits=3),
    QuantSpec(scheme="none"),
]


def test_result_is_q_error_and_keep():
    # a result carries Q(x), e = x - Q(x) and the int schemes' keep-mask, nothing more
    assert [f.name for f in dataclasses.fields(qz.QuantResult)] == ["quantized", "error", "keep"]


class TestIntRow:
    def test_zero_row(self):
        spec = QuantSpec(scheme="int-plain", bits=4)
        res = quantize(spec, np.zeros(8))
        assert np.array_equal(res.quantized, np.zeros(8))
        assert np.array_equal(res.error, np.zeros(8))
        # sigma 0 takes the floor scale: exact zeros, nothing counted as clipped
        assert res.keep.shape == (8,) and res.keep.all()

    def test_grid_bounds_b4(self):
        spec = QuantSpec(scheme="int-plain", bits=4)
        assert spec.q_max == 7
        assert spec.q_min == -8

    def test_plain_alternating_row(self):
        # z = x = (1,-1,1,-1): sigma = 1, scale = k4/7, codes = clip(round(+-7/k4))
        spec = QuantSpec(scheme="int-plain", bits=4)
        x = np.array([1.0, -1.0, 1.0, -1.0])
        res = quantize(spec, x)
        k4 = spec.clip_factor
        s = k4 / 7.0
        expected_code = int(np.clip(np.rint(7.0 / k4), -8, 7))
        assert np.allclose(res.quantized, s * expected_code * np.sign(x), rtol=1e-12, atol=0)
        # nothing clipped here, so each transform-domain residual is within s/2
        assert res.keep.all()
        assert np.abs(x - res.quantized).max() <= s / 2 + 1e-15

    def test_hadamard_row_matches_manual_pipeline(self):
        from qatkit.transform import hadamard_forward, hadamard_inverse, hadamard_plan

        spec = QuantSpec(scheme="int-hadamard", bits=4)
        x = make_rng(0).standard_normal(16)
        res = quantize(spec, x)
        plan = hadamard_plan(16)
        z = hadamard_forward(plan, x)
        sigma = np.sqrt(np.mean(z * z))
        s = spec.clip_factor * sigma / spec.q_max
        codes = np.clip(np.rint(z / s), spec.q_min, spec.q_max)
        assert np.allclose(res.quantized, hadamard_inverse(plan, s * codes), atol=0)
        assert np.array_equal(res.keep, np.abs(z) <= spec.clip_factor * sigma)

    def test_round_half_to_even(self, monkeypatch):
        # k_4 set through the table cache to 7 / sigma, so the scale is 1
        # exactly and |z / s| lands on .5 ties
        x = np.array([0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 1.0, -1.0])
        sigma = float(np.sqrt(np.mean(x * x)))
        monkeypatch.setattr(qz, "_CLIP_CACHE", {4: 7.0 / sigma})
        spec = QuantSpec(scheme="int-plain", bits=4)
        assert spec.clip_factor * sigma / spec.q_max == 1.0
        res = quantize(spec, x)
        # scale is exactly 1, so Q(x) is the codes: ties 0.5->0, 1.5->2, 2.5->2 (to even)
        assert list(res.quantized) == [0, 2, 2, 0, -2, -2, 1, -1]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            quantize(QuantSpec(scheme="int-plain", bits=4), np.zeros(0))

    def test_chunked_rows_match_per_row(self):
        # the rows of a batch (3, 8) in one call, each as it quantizes alone
        spec = QuantSpec(scheme="int-hadamard", bits=4)
        rng = make_rng(1)
        x = rng.standard_normal((3, 8))
        res = quantize(spec, x)
        per_row = [quantize(spec, row) for row in x]
        for field in ("quantized", "error", "keep"):
            assert np.array_equal(getattr(res, field), np.stack([getattr(r, field) for r in per_row]))
        # each row has its own scale: the test's per-row s puts every row on its grid
        _, _, s, codes = int_reference(spec, x)
        assert s.shape == (3, 1) and len(set(s.ravel())) == 3
        assert np.abs(int_transform_rows(spec, res.quantized, 3) / s - codes).max() <= 1e-9


class TestCalibration:
    def test_monotone_in_bits(self):
        ks = calibrate_clip(range(2, 9))
        assert all(a < b for a, b in zip(ks, ks[1:])), ks

    def test_local_optimality_b4(self):
        (k4,) = calibrate_clip([4])
        m0 = gaussian_clip_mse(4, k4)
        assert m0 <= gaussian_clip_mse(4, k4 - 0.1)
        assert m0 <= gaussian_clip_mse(4, k4 + 0.1)

    def test_monte_carlo_crosscheck(self):
        (k4,) = calibrate_clip([4])
        m_quad = gaussian_clip_mse(4, k4)
        z = make_rng(42).standard_normal(1_000_000)
        s = k4 / 7.0
        deq = s * np.clip(np.rint(z / s), -8, 7)
        m_mc = float(np.mean((z - deq) ** 2))
        assert abs(m_mc - m_quad) <= 0.02 * m_quad

    @pytest.mark.parametrize("bits", range(2, 9))
    def test_closed_form_matches_quadrature(self, bits):
        for k in (1.0, 2.5, 4.0):
            exact = gaussian_clip_mse(bits, k)
            assert abs(exact - gaussian_clip_mse_trapezoid(bits, k)) <= 1e-6 * exact, (bits, k)

    @pytest.mark.parametrize("bits", range(2, 9))
    def test_clip_is_the_mse_slope_root(self, bits):
        # the slope against central differences of scipy's ndtr-based MSE, its
        # sign across [0.5, 6], and k_b against scipy's bounded minimizer of
        # that MSE within the xatol it is given
        optimize = pytest.importorskip("scipy.optimize")

        def mse(k):
            return gaussian_clip_mse_ndtr(bits, k)

        h = 1e-4
        ks = (1.0, 2.5, 4.0)
        for k, slope in zip(ks, qz._clip_mse_slopes((bits,) * len(ks), np.array(ks))):
            assert abs((mse(k + h) - mse(k - h)) / (2.0 * h) - slope) <= 1e-6 * abs(slope), (bits, k)
        at_lo, at_hi = qz._clip_mse_slopes((bits, bits), np.array([0.5, 6.0]))
        assert at_lo < 0.0 < at_hi
        res = optimize.minimize_scalar(mse, bounds=(0.5, 6.0), method="bounded", options={"xatol": 1e-6})
        (k_b,) = calibrate_clip([bits])
        assert abs(res.x - k_b) <= 1e-6 * k_b

    def test_normal_cdf_matches_ndtr(self):
        special = pytest.importorskip("scipy.special")
        x = np.linspace(-8.0, 8.0, 20001)
        assert np.max(np.abs(qz._normal_cdf(x) / special.ndtr(x) - 1.0)) <= 1e-14

    def test_bits_out_of_range(self, monkeypatch):
        # the input contract: no widths, or a width outside [2, 8], is
        # rejected, naming the width, before any slope is evaluated; equal
        # widths get bitwise-equal factors
        def no_evaluation(bits, k):
            raise AssertionError(f"slopes of {bits} evaluated")

        with monkeypatch.context() as patched:
            patched.setattr(qz, "_clip_mse_slopes", no_evaluation)
            with pytest.raises(ValueError, match="no bit-widths"):
                calibrate_clip([])
            for bits, bad in (([1], 1), ([9], 9), ([4, 9], 9), ([3, 2, 0, 8], 0), ([8, 8, 12], 12)):
                with pytest.raises(ValueError, match=rf"range \[2, 8\]: {bad}$"):
                    calibrate_clip(bits)
        ks = calibrate_clip([4, 3, 4, 4])
        assert ks[0] == ks[2] == ks[3] != ks[1]


class TestMxfp4:
    def test_fixed_point_inputs(self):
        spec = QuantSpec(scheme="mxfp4")
        grid = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0])
        x = np.concatenate([grid, -grid, np.zeros(16)]) * 0.25  # scale 2^-2
        res = quantize(spec, x)
        assert np.array_equal(res.quantized, x)
        assert np.array_equal(res.error, np.zeros_like(x))

    def test_block_max_six_exact(self):
        spec = QuantSpec(scheme="mxfp4")
        x = np.zeros(32)
        x[0] = 6.0
        x[1] = 0.5  # the smallest nonzero level at scale 1; scale 2 would round it to 0
        res = quantize(spec, x)
        assert res.quantized[0] == 6.0
        assert np.array_equal(res.error, np.zeros(32))

    def test_nearest_rounding_2p4(self):
        spec = QuantSpec(scheme="mxfp4")
        x = np.zeros(32)
        x[0] = 2.4
        x[1] = 6.0  # pins the block scale at 1
        res = quantize(spec, x)
        assert res.quantized[0] == 2.0  # distance 0.4 vs 0.6 to 3.0

    def test_all_zero_block(self):
        res = quantize(QuantSpec(scheme="mxfp4"), np.zeros(32))
        assert np.array_equal(res.quantized, np.zeros(32))
        assert np.array_equal(res.error, np.zeros(32))
        assert res.keep is None

    def test_ties_to_even_mantissa(self):
        spec = QuantSpec(scheme="mxfp4")
        x = np.zeros(32)
        x[:7] = [0.25, 0.75, 1.25, 1.75, 2.5, 3.5, 5.0]
        x[7] = 6.0
        res = quantize(spec, x)
        assert list(res.quantized[:7]) == [0.0, 1.0, 1.0, 2.0, 2.0, 4.0, 4.0]

    def test_nonmultiple_padding(self):
        spec = QuantSpec(scheme="mxfp4")
        x = make_rng(2).standard_normal(40)
        res = quantize(spec, x)
        assert res.quantized.shape == (40,)
        # two blocks, the second zero-padded: each quantizes as it would alone
        assert np.array_equal(res.quantized[:32], quantize(spec, x[:32]).quantized)
        assert np.array_equal(res.quantized[32:], quantize(spec, x[32:]).quantized)
        assert np.isin(np.abs(res.quantized) / mxfp4_entry_scales(x), E2M1_GRID).all()

    def test_reconstruction_bounded_property(self):
        rng = make_rng(3)
        spec = QuantSpec(scheme="mxfp4")
        for _ in range(100):
            x = rng.standard_normal(32) * 10 ** rng.uniform(-3, 3)
            res = quantize(spec, x)
            s = mxfp4_entry_scales(x)
            assert np.isin(np.abs(res.quantized) / s, E2M1_GRID).all()
            assert np.abs(res.quantized).max() <= 6.0 * s[0] + 1e-300

    def test_idempotent_property(self):
        rng = make_rng(4)
        spec = QuantSpec(scheme="mxfp4")
        for _ in range(100):
            x = rng.standard_normal(64) * 10 ** rng.uniform(-2, 2)
            once = quantize(spec, x).quantized
            twice = quantize(spec, once).quantized
            assert np.array_equal(once, twice)


class TestFloor:
    def test_paper_point_nine(self):
        res = quantize(QuantSpec(scheme="floor-toy"), np.array([0.9]))
        assert res.quantized[0] == 0.0
        assert res.error[0] == 0.9

    def test_negative(self):
        res = quantize(QuantSpec(scheme="floor-toy"), np.array([-0.25]))
        assert res.quantized[0] == -1.0
        assert res.error[0] == 0.75

    def test_exact_integer(self):
        res = quantize(QuantSpec(scheme="floor-toy"), np.array([3.0]))
        assert res.quantized[0] == 3.0
        assert res.error[0] == 0.0

    def test_quarter_grid(self):
        res = quantize(QuantSpec(scheme="floor-toy", grid=0.25), np.array([0.6]))
        assert res.quantized[0] == 0.5
        assert res.error[0] == pytest.approx(0.1, abs=1e-15)

    def test_idempotent_property(self):
        rng = make_rng(5)
        spec = QuantSpec(scheme="floor-toy", grid=0.25)
        for _ in range(100):
            x = rng.standard_normal(16) * 5
            once = quantize(spec, x).quantized
            twice = quantize(spec, once).quantized
            assert np.array_equal(once, twice)


class TestQuantError:
    def test_fixed_point_zero_error(self):
        spec = QuantSpec(scheme="floor-toy")
        assert np.array_equal(quantize(spec, np.array([2.0, -3.0])).error, np.zeros(2))
        # every point is a fixed point of the identity: Q(x) is a copy of x, bit
        # for bit, and the error is +0.0 everywhere, -0.0 inputs included
        x = np.array([[0.9, -0.0, -3.5], [1e-310, 0.0, -1e300]])
        res = quantize(QuantSpec(scheme="none"), x)
        assert res.quantized is not x and res.quantized.tobytes() == x.tobytes()
        assert res.error.tobytes() == np.zeros_like(x).tobytes()
        assert res.keep is None

    def test_point_nine(self):
        assert quantize(QuantSpec(scheme="floor-toy"), np.array([0.9])).error[0] == 0.9

    def test_int_plain_unclipped_error_bound(self):
        spec = QuantSpec(scheme="int-plain", bits=4)
        rng = make_rng(6)
        x = rng.standard_normal(64)
        res = quantize(spec, x)
        bound = spec.clip_factor * float(np.sqrt(np.mean(x * x)))
        s = bound / spec.q_max
        # within the clip bound k sigma = q_max s the rounding error is at most s / 2
        assert np.array_equal(res.keep, np.abs(x) <= bound)
        assert np.abs(res.error[res.keep]).max() <= s / 2 + 1e-15


class TestDecompositionInvariants:
    def test_error_is_exact_fp_residual(self):
        # the achievable exact identity: error == x - quantized bitwise; the
        # summed round trip can be off by 1 ulp when x and Q(x) straddle
        # binades (no representable error exists there at all)
        rng = make_rng(7)
        for spec in ALL_SPECS:
            for _ in range(100):
                x = rng.standard_normal(32)
                res = quantize(spec, x)
                assert np.array_equal(res.error, x - res.quantized)
                assert np.abs((res.quantized + res.error) - x).max() <= 1e-15

    def test_int_codes_within_bounds_property(self):
        rng = make_rng(8)
        for scheme in ("int-plain", "int-hadamard"):
            for bits in (2, 3, 4):
                spec = QuantSpec(scheme=scheme, bits=bits)
                for _ in range(40):
                    x = rng.standard_normal(16) * 10 ** rng.uniform(-2, 2)
                    # H Q(x) / s, with the test's own s = k rms(Hx) / q_max, is an integer code
                    s = int_reference(spec, x)[2]
                    c = int_transform_rows(spec, quantize(spec, x).quantized, 1) / s
                    assert np.abs(c - np.rint(c)).max() <= 1e-9
                    assert np.rint(c).min() >= spec.q_min
                    assert np.rint(c).max() <= spec.q_max

    def test_transform_domain_grid_membership_property(self):
        rng = make_rng(9)
        spec = QuantSpec(scheme="int-hadamard", bits=4)
        for _ in range(100):
            x = rng.standard_normal(16)
            _, _, s, codes = int_reference(spec, x)
            z_hat = int_transform_rows(spec, quantize(spec, x).quantized, 1)
            # reconstruction lies on the grid {s q}, at q = clip(round(z / s))
            assert np.abs(z_hat - s * codes).max() <= 1e-12

    def test_inrange_transform_error_bound_property(self):
        rng = make_rng(10)
        spec = QuantSpec(scheme="int-hadamard", bits=4)
        for _ in range(100):
            x = rng.standard_normal(16)
            res = quantize(spec, x)
            _, z, s, _ = int_reference(spec, x)
            resid = np.abs(z - int_transform_rows(spec, res.quantized, 1))[0]
            # the unclipped channels (|z| <= q_max s) round to within s / 2
            assert np.array_equal(res.keep, np.abs(z[0]) <= spec.q_max * s[0, 0])
            assert resid[res.keep].max() <= s[0, 0] / 2 + 1e-12


class TestNonFinite:
    # one policy for every scheme: a NaN or inf entry raises FloatingPointError,
    # before any arithmetic on it can warn
    BAD = (np.array([1.0, np.nan, 2.0, 0.5]), np.array([1.0, 0.5, 2.0, np.inf]), np.array([-np.inf, 0.0, 1.0, 2.0]))

    def _check(self, spec):
        for x in self.BAD:
            with warnings.catch_warnings(), pytest.raises(FloatingPointError):
                warnings.simplefilter("error")
                quantize(spec, x)

    def test_int_hadamard(self):
        self._check(QuantSpec(scheme="int-hadamard", bits=4))

    def test_int_plain(self):
        self._check(QuantSpec(scheme="int-plain", bits=4))

    def test_mxfp4(self):
        self._check(QuantSpec(scheme="mxfp4"))

    def test_floor_toy(self):
        self._check(QuantSpec(scheme="floor-toy"))
        self._check(QuantSpec(scheme="floor-toy", grid=0.25))

    def test_none(self):
        self._check(QuantSpec(scheme="none"))

    @staticmethod
    def _check_large(spec, x, k):
        # nothing warns, Q(x) is finite and is 2**k Q(2**-k x), and the large
        # vector leaves a normal row of its batch as that row is alone
        ok = np.array([0.5, -1.5, 2.0, 0.25])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = quantize(spec, x)
            batch = quantize(spec, np.stack([ok, x]))
            scaled = quantize(spec, x * 2.0**-k)
        assert np.isfinite(res.quantized).all()
        assert np.array_equal(res.error, x - res.quantized)
        assert np.array_equal(res.quantized, scaled.quantized * 2.0**k)
        assert np.array_equal(batch.quantized[1], res.quantized)
        assert np.array_equal(batch.quantized[0], quantize(spec, ok).quantized)

    def test_finite_overflow_is_not_rejected(self):
        # the input is finite though its sum of squares overflows
        x = np.array([1e300, -1e300, 1.0, 0.0])
        for scheme in ("int-plain", "int-hadamard"):
            self._check_large(QuantSpec(scheme=scheme, bits=4), x, 600)
        # the floor codes 1e308 of x / 1e-8 sum past the float max, but each
        # code and grid point is finite: no warning, and a finite Q(x)
        res = quantize(QuantSpec(scheme="floor-toy", grid=1e-8), np.array([1e300, 1e300, 1.0, 0.0]))
        assert np.isfinite(res.quantized).all()

    @pytest.mark.parametrize(
        "scheme, x",
        [("int-hadamard", [1e308, 1e308, 0.0, 0.0]), ("int-plain", [1e308] * 4)],
        ids=["hadamard-sum", "plain-reconstruction"],
    )
    def test_near_float_max_is_finite(self, scheme, x):
        # the transform of the first and scale * codes of the second overflow
        # unless the vector is scaled down first
        self._check_large(QuantSpec(scheme=scheme, bits=4), np.array(x), 1000)


    @pytest.mark.parametrize("bits", [2, 4, 8])
    @pytest.mark.parametrize("scheme", ["int-plain", "int-hadamard"])
    def test_grid_point_past_float_max_is_clamped(self, scheme, bits):
        # 1.79e308 rounds to a grid point above the float max (int-plain:4
        # puts it on code 3, 1.0157 * 1.79e308): the codes are clamped, so
        # Q(x) is finite with no overflow warning, error is still x - Q(x),
        # and an ordinary row of the same batch is bitwise its lone result
        spec = QuantSpec(scheme=scheme, bits=bits)
        ok = np.array([0.5, -1.5, 2.0, 0.25])
        big = 1.79e308
        for x in ([big, 0.0, 0.0, 0.0], [big, -big, big, big], [-big, 1e300, 0.0, 1.0]):
            x = np.array(x)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = quantize(spec, x)
                batch = quantize(spec, np.stack([ok, x]))
                lone = quantize(spec, np.array([big]))
            assert np.isfinite(res.quantized).all() and np.isfinite(lone.quantized).all()
            assert np.array_equal(res.error, x - res.quantized)
            assert np.array_equal(batch.quantized[1], res.quantized)
            assert batch.quantized[0].tobytes() == quantize(spec, ok).quantized.tobytes()

    def test_mxfp4_near_float_max_saturates(self):
        # an entry >= 1.75 * 2**1023 sits in a block of scale 2**1022 and would
        # round to 4 * 2**1022 = 2**1024, past the float max: it saturates to
        # 3 * 2**1022, the largest grid point that is a float.  Nothing warns,
        # e = x - Q(x), each row of a mixed-magnitude batch is bitwise its lone
        # result, and every entry that does not saturate is the padded
        # oracle's, bitwise
        spec = QuantSpec(scheme="mxfp4")
        top = 3.0 * 2.0**1022
        big = 1.79e308
        rows = np.zeros((4, 40))
        rows[0, 0], rows[0, 33] = big, -1.6e308  # one in each block
        rows[1] = np.linspace(-7.0, 7.0, 40)
        rows[2, :2] = 1.5e308, 1e300  # scale 2**1022, but 1.5e308 rounds to 3 * 2**1022
        rows[3] = np.where(np.arange(40) % 3 == 0, np.finfo(float).max, -1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lone = quantize(spec, np.array([big]))
            batch = quantize(spec, rows)
            each = [quantize(spec, row) for row in rows]
        assert lone.quantized[0] == top and lone.error[0] == big - top
        assert np.isfinite(batch.quantized).all() and np.isfinite(batch.error).all()
        assert np.array_equal(batch.error, rows - batch.quantized)
        for i, one in enumerate(each):
            assert batch.quantized[i].tobytes() == one.quantized.tobytes()
            assert batch.error[i].tobytes() == one.error.tobytes()
        saturated = np.abs(rows) >= 1.75 * 2.0**1023
        assert np.array_equal(batch.quantized[saturated], np.copysign(top, rows[saturated]))
        with np.errstate(over="ignore"):
            oracle, _ = quantize_mxfp4_padded(rows)
        assert np.array_equal(np.isinf(oracle), saturated)
        assert batch.quantized[~saturated].tobytes() == oracle[~saturated].tobytes()


    def test_floor_toy_large_rows_are_exact_and_each_its_lone_result(self):
        # the finite check reads max |x|, which cannot overflow where the old
        # sum of codes did ([1e308, 1e308]); each row of a mixed-magnitude
        # batch is the elementwise floor(x / grid) grid and its lone result,
        # bitwise, and nothing warns
        fmax = np.finfo(float).max
        cases = {
            1.0: np.array([[1e308, 1e308], [0.3, -2.7], [-1.7e308, 5e-324], [fmax, -fmax]]),
            0.25: np.array([[4e307, -4e307], [0.3, -2.7], [1e-300, -5e-324], [1e10, 2.5]]),
        }
        for grid, rows in cases.items():
            spec = QuantSpec(scheme="floor-toy", grid=grid)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                batch = quantize(spec, rows)
                each = [quantize(spec, row) for row in rows]
            expect = np.array([[math.floor(v / grid) * grid for v in row] for row in rows.tolist()])
            assert batch.quantized.tobytes() == expect.tobytes()
            assert np.isfinite(batch.error).all()
            assert np.array_equal(batch.error, rows - batch.quantized)
            for i, one in enumerate(each):
                assert batch.quantized[i].tobytes() == one.quantized.tobytes()
                assert batch.error[i].tobytes() == one.error.tobytes()

    def test_floor_toy_overflow_raises_a_named_error(self):
        # where x / grid or its grid point would pass the float max, the
        # scheme raises instead of returning Q = inf, before anything warns;
        # below min(grid, 1) 2**1022 the same grid quantizes as ever
        cases = (
            (1e-300, np.array([1e10])),
            (1e-300, np.array([[0.5, -1e-10], [1e10, 0.0]])),  # one bad row fails the batch
            (1e308, np.array([-1.7e308])),  # floor(-1.7) 1e308 = -2e308
            (3.0, np.array([-np.finfo(float).max])),  # the product rounds past the max
        )
        for grid, x in cases:
            with warnings.catch_warnings(), pytest.raises(FloatingPointError, match="floor-toy grid point"):
                warnings.simplefilter("error")
                quantize(QuantSpec(scheme="floor-toy", grid=grid), x)
        x = np.array([0.5, -1e-10, 4e7, -3.3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = quantize(QuantSpec(scheme="floor-toy", grid=1e-300), x)
        assert res.quantized.tobytes() == (np.floor(x / 1e-300) * 1e-300).tobytes()


class TestClipTable:
    def test_corrupt_packaged_table_raises(self, tmp_path, monkeypatch):
        bad = tmp_path / "clip_factors.tsv"
        bad.write_text("# clip-factors v1\nbits\tk\tmse\n4\tnot-a-number\t0.01\n")
        monkeypatch.setattr(qz, "_PACKAGED_TABLE", bad)
        monkeypatch.setattr(qz, "_CLIP_CACHE", {})
        with pytest.raises(ValueError, match="clip_factors.tsv"):
            qz.default_clip_factor(4)

    def test_missing_packaged_table_raises(self, tmp_path, monkeypatch):
        monkeypatch.setattr(qz, "_PACKAGED_TABLE", tmp_path / "absent.tsv")
        monkeypatch.setattr(qz, "_CLIP_CACHE", {})
        with pytest.raises(ValueError, match="absent.tsv"):
            qz.default_clip_factor(4)

    def test_bit_width_missing_from_table_raises(self, monkeypatch):
        # the table is the only source: a bit-width it lacks is never calibrated
        def no_calibration(bits):
            raise AssertionError(f"calibrate_clip({bits}) called")

        monkeypatch.setattr(qz, "calibrate_clip", no_calibration)
        monkeypatch.setattr(qz, "_CLIP_CACHE", {})
        with pytest.raises(ValueError, match="clip_factors.tsv"):
            QuantSpec(scheme="int-plain", bits=9)

    def test_roundtrip(self, tmp_path):
        rows = [(2, 1.0482, 0.1494), (3, 1.8054, 0.0406)]
        path = tmp_path / "clip.tsv"
        write_clip_table(path, rows)
        back = read_clip_table(path)
        assert back == {2: (1.0482, 0.1494), 3: (1.8054, 0.0406)}

    def test_rewrite_identical_bytes(self, tmp_path):
        (k4,) = calibrate_clip([4])
        rows = [(4, k4, gaussian_clip_mse(4, k4))]
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_clip_table(p1, rows)
        write_clip_table(p2, rows)
        assert p1.read_bytes() == p2.read_bytes()


def test_bad_specs_rejected():
    with pytest.raises(ValueError):
        QuantSpec(scheme="nope")
    with pytest.raises(ValueError):
        QuantSpec(scheme="int-plain", bits=1)
    with pytest.raises(ValueError):
        QuantSpec(scheme="floor-toy", grid=0.0)
