import warnings

import numpy as np
import pytest

import qatkit.quantize as qz
from oracles import gaussian_clip_mse_trapezoid
from qatkit.numerics import make_rng
from qatkit.quantize import (
    QuantSpec,
    SIGMA_FLOOR,
    calibrate_clip,
    gaussian_clip_mse,
    int_spec,
    quantize,
    read_clip_table,
    write_clip_table,
)

ALL_SPECS = [
    QuantSpec(scheme="floor-toy"),
    QuantSpec(scheme="floor-toy", grid=0.25),
    QuantSpec(scheme="mxfp4"),
    int_spec("int-plain", 4),
    int_spec("int-hadamard", 4),
    int_spec("int-hadamard", 3),
    QuantSpec(scheme="none"),
]


class TestIntRow:
    def test_zero_row(self):
        spec = int_spec("int-plain", 4)
        res = quantize(spec, np.zeros(8))
        assert np.array_equal(res.quantized, np.zeros(8))
        assert np.array_equal(res.error, np.zeros(8))
        assert res.scale == SIGMA_FLOOR

    def test_grid_bounds_b4(self):
        spec = int_spec("int-plain", 4)
        assert spec.q_max == 7
        assert spec.q_min == -8

    def test_plain_alternating_row(self):
        # z = x = (1,-1,1,-1): sigma = 1, scale = k4/7, codes = clip(round(+-7/k4))
        spec = int_spec("int-plain", 4)
        x = np.array([1.0, -1.0, 1.0, -1.0])
        res = quantize(spec, x)
        k4 = spec.clip_factor
        s = k4 / 7.0
        assert res.scale == pytest.approx(s, rel=1e-12)
        expected_code = int(np.clip(np.rint(7.0 / k4), -8, 7))
        assert np.array_equal(res.codes, [expected_code, -expected_code, expected_code, -expected_code])
        # nothing clipped here, so each transform-domain residual is within s/2
        assert np.abs(x - res.quantized).max() <= s / 2 + 1e-15

    def test_hadamard_row_matches_manual_pipeline(self):
        from qatkit.transform import hadamard_forward, hadamard_inverse, hadamard_plan

        spec = int_spec("int-hadamard", 4)
        x = make_rng(0).standard_normal(16)
        res = quantize(spec, x)
        plan = hadamard_plan(16)
        z = hadamard_forward(plan, x)
        sigma = np.sqrt(np.mean(z * z))
        s = spec.clip_factor * sigma / spec.q_max
        codes = np.clip(np.rint(z / s), spec.q_min, spec.q_max)
        assert np.array_equal(res.codes, codes.astype(np.int64))
        assert np.allclose(res.quantized, hadamard_inverse(plan, s * codes), atol=0)

    def test_round_half_to_even(self):
        spec = QuantSpec(scheme="int-plain", bits=4, clip_factor=7.0)
        # sigma of (3,-1,-1,-1,...) chosen so scale = 1 exactly: rms = 1 when
        # mean of squares is 1; use x with |z/s| landing on .5 ties
        x = np.array([0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 1.0, -1.0])
        sigma = float(np.sqrt(np.mean(x * x)))
        spec = QuantSpec(scheme="int-plain", bits=4, clip_factor=7.0 / sigma)
        res = quantize(spec, x)
        # scale is exactly 1: ties 0.5->0, 1.5->2, 2.5->2 (to even)
        assert res.scale == pytest.approx(1.0, rel=1e-12)
        assert list(res.codes) == [0, 2, 2, 0, -2, -2, 1, -1]

    def test_row_length_validation(self):
        spec = int_spec("int-plain", 4, row_length=4)
        with pytest.raises(ValueError):
            quantize(spec, np.ones(6))

    def test_unpartitioned_and_empty_input_rejected(self):
        with pytest.raises(ValueError):
            quantize(int_spec("int-plain", 4, row_length=4), np.ones(6))
        with pytest.raises(ValueError):
            quantize(int_spec("int-plain", 4), np.zeros(0))

    def test_chunked_rows_match_per_row(self):
        spec = int_spec("int-hadamard", 4, row_length=8)
        rng = make_rng(1)
        x = rng.standard_normal(24)
        res = quantize(spec, x)
        per_row = [quantize(spec, row) for row in x.reshape(3, 8)]
        assert np.array_equal(res.quantized, np.concatenate([r.quantized for r in per_row]))
        assert np.array_equal(np.asarray(res.scale), [r.scale for r in per_row])


class TestCalibration:
    def test_monotone_in_bits(self):
        k2 = calibrate_clip(2)
        k3 = calibrate_clip(3)
        k4 = calibrate_clip(4)
        assert k2 < k3 < k4

    def test_local_optimality_b4(self):
        k4 = calibrate_clip(4)
        m0 = gaussian_clip_mse(4, k4)
        assert m0 <= gaussian_clip_mse(4, k4 - 0.1)
        assert m0 <= gaussian_clip_mse(4, k4 + 0.1)

    def test_monte_carlo_crosscheck(self):
        k4 = calibrate_clip(4)
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

    def test_bits_out_of_range(self):
        with pytest.raises(ValueError):
            calibrate_clip(1)
        with pytest.raises(ValueError):
            calibrate_clip(9)


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
        res = quantize(spec, x)
        assert res.scale[0] == 1.0
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
        assert res.scale[0] == 1.0
        assert np.array_equal(res.codes, np.zeros(32, dtype=np.int64))

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
        assert res.scale.shape == (2,)

    def test_reconstruction_bounded_property(self):
        rng = make_rng(3)
        spec = QuantSpec(scheme="mxfp4")
        for _ in range(100):
            x = rng.standard_normal(32) * 10 ** rng.uniform(-3, 3)
            res = quantize(spec, x)
            assert np.abs(res.quantized).max() <= 6.0 * res.scale[0] + 1e-300

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
        assert res.codes is None and res.scale is None and res.keep is None

    def test_point_nine(self):
        assert quantize(QuantSpec(scheme="floor-toy"), np.array([0.9])).error[0] == 0.9

    def test_int_plain_unclipped_error_bound(self):
        spec = int_spec("int-plain", 4)
        rng = make_rng(6)
        x = rng.standard_normal(64)
        res = quantize(spec, x)
        unclipped = (res.codes > spec.q_min) & (res.codes < spec.q_max)
        assert np.abs(res.error[unclipped]).max() <= float(np.asarray(res.scale)) / 2 + 1e-15


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
                spec = int_spec(scheme, bits)
                for _ in range(40):
                    x = rng.standard_normal(16) * 10 ** rng.uniform(-2, 2)
                    res = quantize(spec, x)
                    assert res.codes.min() >= spec.q_min
                    assert res.codes.max() <= spec.q_max

    def test_transform_domain_grid_membership_property(self):
        from qatkit.transform import hadamard_forward, hadamard_plan

        rng = make_rng(9)
        spec = int_spec("int-hadamard", 4)
        plan = hadamard_plan(16)
        for _ in range(100):
            x = rng.standard_normal(16)
            res = quantize(spec, x)
            z_hat = hadamard_forward(plan, res.quantized)
            # reconstruction lies on the grid {scale * q} in the transform domain
            assert np.abs(z_hat - res.scale * res.codes).max() <= 1e-12

    def test_inrange_transform_error_bound_property(self):
        from qatkit.transform import hadamard_forward, hadamard_plan

        rng = make_rng(10)
        spec = int_spec("int-hadamard", 4)
        plan = hadamard_plan(16)
        for _ in range(100):
            x = rng.standard_normal(16)
            res = quantize(spec, x)
            z = hadamard_forward(plan, x)
            unclipped = (res.codes > spec.q_min) & (res.codes < spec.q_max)
            resid = np.abs(z - res.scale * res.codes)
            assert resid[unclipped].max() <= res.scale / 2 + 1e-15


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
        self._check(int_spec("int-hadamard", 4))
        self._check(int_spec("int-hadamard", 4, row_length=2))

    def test_int_plain(self):
        self._check(int_spec("int-plain", 4))
        self._check(int_spec("int-plain", 4, row_length=2))

    def test_mxfp4(self):
        self._check(QuantSpec(scheme="mxfp4"))
        self._check(QuantSpec(scheme="mxfp4", block_size=2))

    def test_floor_toy(self):
        self._check(QuantSpec(scheme="floor-toy"))
        self._check(QuantSpec(scheme="floor-toy", grid=0.25))

    def test_none(self):
        self._check(QuantSpec(scheme="none"))

    def test_finite_overflow_is_not_rejected(self):
        # |x| near the float max overflows the row and block statistics, but
        # the input itself is finite
        x = np.array([1e300, -1e300, 1.0, 0.0])
        for spec in (int_spec("int-plain", 4), QuantSpec(scheme="floor-toy", grid=1e-10)):
            with np.errstate(all="ignore"):
                quantize(spec, x)


class TestClipTable:
    def test_corrupt_packaged_table_raises(self, tmp_path, monkeypatch):
        bad = tmp_path / "clip_factors.tsv"
        bad.write_text("# clip-factors v1\nbits\tk\tmse\n4\tnot-a-number\t0.01\n")
        monkeypatch.setattr(qz, "_PACKAGED_TABLE", bad)
        monkeypatch.setattr(qz, "_CLIP_CACHE", {})
        with pytest.raises(ValueError, match="clip_factors.tsv"):
            qz.default_clip_factor(4)

    def test_missing_packaged_table_calibrates(self, tmp_path, monkeypatch):
        monkeypatch.setattr(qz, "_PACKAGED_TABLE", tmp_path / "absent.tsv")
        monkeypatch.setattr(qz, "_CLIP_CACHE", {})
        monkeypatch.setattr(qz, "calibrate_clip", lambda bits: 1.0 + bits)
        assert qz.default_clip_factor(4) == 5.0

    def test_roundtrip(self, tmp_path):
        rows = [(2, 1.0482, 0.1494), (3, 1.8054, 0.0406)]
        path = tmp_path / "clip.tsv"
        write_clip_table(path, rows)
        back = read_clip_table(path)
        assert back == {2: (1.0482, 0.1494), 3: (1.8054, 0.0406)}

    def test_rewrite_identical_bytes(self, tmp_path):
        rows = [(4, calibrate_clip(4), gaussian_clip_mse(4, calibrate_clip(4)))]
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_clip_table(p1, rows)
        write_clip_table(p2, rows)
        assert p1.read_bytes() == p2.read_bytes()


def test_bad_specs_rejected():
    with pytest.raises(ValueError):
        QuantSpec(scheme="nope")
    with pytest.raises(ValueError):
        QuantSpec(scheme="int-plain", bits=1, clip_factor=1.0)
    with pytest.raises(ValueError):
        QuantSpec(scheme="int-plain", bits=4)  # missing clip factor
    with pytest.raises(ValueError):
        QuantSpec(scheme="floor-toy", grid=0.0)
