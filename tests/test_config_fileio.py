"""Config parsing and file-format tests."""

import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from mdcl.cli import main
from mdcl.config import (ConfigError, PipelineConfig, config_digest,
                         parse_config, serialize_config)
from mdcl import fileio
from mdcl.fileio import (MatrixFormatError, read_matrix, write_csv,
                         write_matrix, write_pgm)
from mdcl.preprocess import denoise_rows


# the command-line flags that set a config key, by command
SETTING_FLAGS = {("run", "seed"): [("run", "--seed"), ("sweep-noise", "--seed")],
                 ("run", "activities"): [("run", "--activity")]}


class TestConfig:
    def test_defaults_match_uniform_parameters(self):
        cfg = PipelineConfig()
        cfg.validate()
        assert cfg.radar.carrier_hz == 1.5e9
        assert cfg.radar.bandwidth_hz == 2.0e9
        assert cfg.radar.slow_samples == cfg.radar.fast_samples == 1024
        assert cfg.radar.window_s == 4.0
        assert cfg.scene.wall_thickness == 0.12
        assert cfg.scene.radar_height == 1.5
        assert 1.0 <= cfg.scene.x1 <= 4.0
        assert len(cfg.activity_list()) == 12

    def test_round_trip_identity(self):
        cfg = PipelineConfig()
        cfg.scene.x1 = 2.5
        cfg.noise.target_snr_db = -14.25
        cfg.run.activities = "S2,S8"
        text = serialize_config(cfg)
        again = parse_config(text)
        assert serialize_config(again) == text
        assert config_digest(again) == config_digest(cfg)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("[radar]\nbogus_knob = 3\n")

    @pytest.mark.parametrize("section, key, value", [
        pytest.param("preprocessing", "stft_window", "512", id="stft_window"),
        pytest.param("preprocessing", "stft_hop", "512", id="stft_hop"),
        pytest.param("preprocessing", "stft_size", "512", id="stft_size"),
        pytest.param("preprocessing", "dtm_sum_mode", "complex", id="dtm_sum_mode"),
        pytest.param("preprocessing", "emd_max_imfs", "-2", id="emd_max_imfs--2"),
        pytest.param("preprocessing", "emd_max_imfs", "0", id="emd_max_imfs-0"),
        pytest.param("detector", "corners", "20", id="corners"),
        pytest.param("scene", "undulation_amplitude", "0.05", id="undulation_amplitude"),
        pytest.param("scene", "arm_max_angle", "0.5", id="arm_max_angle"),
        pytest.param("scene", "leg_max_angle", "0.2", id="leg_max_angle"),
        pytest.param("scene", "in_situ_height_drop", "0.4", id="in_situ_height_drop"),
        pytest.param("run", "stage_dump", "true", id="stage_dump"),
        pytest.param("run", "out_dir", "x", id="out_dir"),
        pytest.param("scene", "through_wall", "false", id="through_wall"),
        pytest.param("scene", "height_scale", "0.95", id="height_scale"),
        pytest.param("radar", "tx_amplitude", "2.0", id="tx_amplitude")])
    def test_removed_stft_keys_rejected(self, tmp_path, section, key, value):
        """Keys that were once accepted (with a value they accepted, or
        one that never denoised, or that no output depended on, or that
        only gave ``--out`` its default, or whose every value wrote the
        files of other keys' values) are unknown keys now."""
        text = f"[{section}]\n{key} = {value}\n"
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(text)
        path = tmp_path / "config.txt"
        path.write_text(text)
        for command in ("simulate", "run"):
            assert main([command, "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("emd_max_sifts", "0"), ("emd_sd_stop", "-1"),
        ("emd_sd_stop", "nan"), ("emd_sd_stop", "inf")])
    def test_emd_settings_that_never_denoise_rejected(self, tmp_path, key, value):
        """With 0 sifts the whole residue is the first mode; with a stop no
        sift can reach or always reaches, nothing is denoised."""
        text = f"[preprocessing]\n{key} = {value}\n"
        with pytest.raises(ConfigError, match=f"preprocessing.{key}"):
            parse_config(text)
        path = tmp_path / "config.txt"
        path.write_text(text)
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        params = dict(zip(("sd_stop", "max_sifts"),
                          PipelineConfig().preprocessing.emd_params()))
        params[key.removeprefix("emd_")] = float(value)
        with pytest.raises(ValueError, match=key):
            denoise_rows((np.arange(16.0) % 3)[None, :], **params)

    @pytest.mark.parametrize("section, key, value", [
        ("detector", "orientations", "0"), ("detector", "orientations", "-2"),
        ("detector", "sigma_px", "0"), ("detector", "sigma_px", "-3"),
        ("detector", "anisotropy", "0"), ("detector", "nms_radius_px", "-1"),
        ("preprocessing", "predecimate_rows", "0"),
        ("preprocessing", "predecimate_rows", "1"),
        ("radar", "max_range_m", "-1"),
        ("radar", "wall_range_m", "-3"), ("radar", "wall_range_m", "1e7"),
        ("scene", "wall_thickness", "-0.1"), ("scene", "wall_rel_permittivity", "0.5"),
        ("radar", "slow_samples", "4"), ("radar", "slow_samples", "16"),
        ("detector", "render_rows", "28"),
        ("evaluation", "sweep_seeds", "0"),
        ("scene", "x1", "nan"), ("scene", "gait_frequency", "inf"),
        ("radar", "carrier_hz", "nan"), ("noise", "target_snr_db", "nan"),
        ("evaluation", "snr_drops_db", "nan"), ("evaluation", "snr_drops_db", "inf"),
        ("evaluation", "snr_drops_db", "4,x"),
        ("run", "activities", "S8,S8"), ("run", "activities", ""),
        ("run", "activities", ","), ("run", "seed", "-1")])
    def test_settings_that_cannot_run_rejected(self, tmp_path, section, key, value):
        """Values the detector, the squaring or the sweep cannot use,
        numbers that are not finite, a repeated activity (two jobs writing
        one directory), an empty activity list (a run of nothing) and a
        negative seed (no noise stream takes it) fail validation before any
        stage runs, also when a flag sets them, to "" included."""
        text = f"[{section}]\n{key} = {value}\n"
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            parse_config(text)
        path = tmp_path / "config.txt"
        path.write_text(text)
        argvs = [[command, "--config", str(path)]
                 for command in ("run", "simulate", "sweep-noise")]
        argvs += [[command, flag, value]
                  for command, flag in SETTING_FLAGS.get((section, key), ())]
        for argv in argvs:
            assert main([*argv, "--out", str(tmp_path / "out")]) == 2, argv
        assert not (tmp_path / "out").exists()

    def test_settings_at_their_floors_run(self, tmp_path):
        """Each floor is the least value its stage runs with: a wall of zero
        thickness and unit permittivity, two Doppler rows to square, a zero
        range crop, and slow time and rendered rows as wide as the 29-pixel
        filter support."""
        path = tmp_path / "config.txt"
        path.write_text("[scene]\nwall_thickness = 0\nwall_rel_permittivity = 1\n"
                        "[radar]\nslow_samples = 29\nfast_samples = 64\n"
                        "max_range_m = 0\n[preprocessing]\npredecimate_rows = 2\n"
                        "[detector]\nrender_rows = 29\n[run]\nactivities = S5,S8\n")
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0

    def test_wall_invariants(self):
        """The wall is one extra one-way path, d * (sqrt(eps) - 1): zero
        for a zero thickness or a unit permittivity, and never negative
        (``test_settings_that_cannot_run_rejected`` covers the keys' floors)."""
        for thickness, permittivity in ((0.0, 6.0), (0.12, 1.0)):
            cfg = PipelineConfig()
            cfg.scene.wall_thickness = thickness
            cfg.scene.wall_rel_permittivity = permittivity
            assert cfg.scene_params().wall_path == 0.0
        assert PipelineConfig().scene_params().wall_path == 0.12 * (math.sqrt(6.0) - 1.0)
        with pytest.raises(ValueError, match="wall_path"):
            replace(PipelineConfig().scene_params(), wall_path=-0.1)

    @pytest.mark.parametrize("text, lines", [
        pytest.param("[radar]\ncarrier_hz = 1e9\ncarrier_hz = 2e9\n", "2 and 3",
                     id="one_section"),
        pytest.param("[radar]\ncarrier_hz = 1e9\n[scene]\nx1 = 2.0\n"
                     "[radar]\ncarrier_hz = 2e9\n", "2 and 6", id="repeated_header")])
    def test_repeated_key_rejected(self, tmp_path, text, lines):
        with pytest.raises(ConfigError,
                           match=f"^lines {lines}: radar.carrier_hz given twice"):
            parse_config(text)
        path = tmp_path / "config.txt"
        path.write_text(text)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[plasma]\nx = 1\n")

    def test_every_non_finite_float_rejected(self):
        """A nan or an infinity in any float field of any section fails
        validation, also in a config built in code."""
        defaults = PipelineConfig()
        keys = [(s.name, f.name) for s in fields(defaults)
                for f in fields(getattr(defaults, s.name))
                if isinstance(getattr(getattr(defaults, s.name), f.name), float)]
        for section, key in keys:
            for value in (float("nan"), float("inf"), -float("inf")):
                cfg = PipelineConfig()
                setattr(getattr(cfg, section), key, value)
                with pytest.raises(ConfigError, match=f"{section}.{key} must be finite"):
                    cfg.validate()

    @pytest.mark.parametrize("key, value, expected", [
        ("carrier_hz", "abc", "a number"), ("slow_samples", "1.5", "an integer")])
    def test_type_errors_name_line_and_key(self, key, value, expected):
        with pytest.raises(ConfigError,
                           match=f"^line 3: radar.{key}: expected {expected}"):
            parse_config(f"# radar\n[radar]\n{key} = {value}\n")

    def test_nonpositive_bandwidth_names_field(self):
        with pytest.raises(ConfigError, match="radar.bandwidth_hz"):
            parse_config("[radar]\nbandwidth_hz = -2e9\n")

    def test_unknown_activity_rejected(self):
        with pytest.raises(ConfigError, match="unknown labels"):
            parse_config("[run]\nactivities = S1,S99\n")

    def test_comments_and_blanks(self):
        cfg = parse_config(
            "# top comment\n\n[scene]\nx1 = 2.0  # trailing\n\n[run]\nseed = 7\n")
        assert cfg.scene.x1 == 2.0
        assert cfg.run.seed == 7

    def test_bool_parsing(self):
        cfg = parse_config("[noise]\nenabled = false\n")
        assert cfg.noise.enabled is False
        with pytest.raises(ConfigError):
            parse_config("[noise]\nenabled = maybe\n")


class TestMatrixFormat:
    def test_real_round_trip(self, tmp_path):
        a = np.random.default_rng(0).random((17, 9)).astype(np.float32)
        path = tmp_path / "m.mdcm"
        write_matrix(path, a)
        back = read_matrix(path)
        assert back.shape == (17, 9)
        assert back.dtype == np.float32
        assert np.array_equal(back, a)

    def test_complex_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        a = (rng.random((8, 8)) + 1j * rng.random((8, 8))).astype(np.complex64)
        path = tmp_path / "m.mdcm"
        write_matrix(path, a)
        back = read_matrix(path)
        assert back.dtype == np.complex64
        assert np.array_equal(back, a)

    def test_header_contents(self, tmp_path):
        path = tmp_path / "m.mdcm"
        write_matrix(path, np.zeros((2, 3), dtype=np.complex64))
        raw = path.read_bytes()
        assert raw[:4] == b"MDCM"
        assert raw[4] == 1          # version
        assert raw[5] == 1          # complex flag
        assert len(raw) == 14 + 2 * 3 * 2 * 4

    @pytest.mark.parametrize("case", ["complex", "real", "complex strided",
                                      "real transposed"])
    def test_payload_is_cast_bytes(self, tmp_path, case):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((40, 60))
        if case.startswith("complex"):
            a = a + 1j * rng.standard_normal(a.shape)
        if case.endswith("strided"):
            a = a[::3, ::-2]
        if case.endswith("transposed"):
            a = a.T
        path = tmp_path / "m.mdcm"
        write_matrix(path, a)
        dtype = "<c8" if np.iscomplexobj(a) else "<f4"
        assert path.read_bytes()[fileio._HEADER.size:] == a.astype(dtype).tobytes()

    def test_writer_peak_is_one_payload(self, tmp_path):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
        payload = a.size * np.dtype("<c8").itemsize
        tracemalloc.start()
        try:
            write_matrix(tmp_path / "m.mdcm", a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= payload + 2 ** 20

    @pytest.mark.parametrize("dtype", [np.complex64, np.float32])
    def test_reader_peak_is_one_payload(self, tmp_path, dtype):
        # the payload is read straight into the result, at the file's dtype
        a = np.ones((1024, 1024), dtype=dtype)
        path = tmp_path / "m.mdcm"
        write_matrix(path, a)
        tracemalloc.start()
        try:
            back = read_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.dtype == dtype
        assert np.array_equal(back, a)
        assert peak <= a.nbytes + 2 ** 20

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "m.mdcm"
        write_matrix(path, np.zeros((4, 4)))
        path.write_bytes(path.read_bytes() + bytes(4))
        with pytest.raises(MatrixFormatError):
            read_matrix(path)

    @pytest.mark.parametrize("header", [b"MDCM", b"MDCM\x02\x00" + bytes(8)])
    def test_bad_header(self, tmp_path, header):
        # a truncated header, then an unsupported version
        path = tmp_path / "m.mdcm"
        path.write_bytes(header)
        with pytest.raises(MatrixFormatError):
            read_matrix(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.mdcm"
        path.write_bytes(b"NOPE" + bytes(10))
        with pytest.raises(MatrixFormatError):
            read_matrix(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.mdcm"
        write_matrix(path, np.zeros((4, 4)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(MatrixFormatError):
            read_matrix(path)


class TestPgm:
    def test_frozen_quantization(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, np.array([[0.0, 1.0], [0.5, 0.25]]))
        raw = path.read_bytes()
        header, payload = raw.split(b"255\n", 1)
        assert header == b"P5\n2 2\n"
        assert list(payload) == [0, 255, 128, 64]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bytes_equal_clip_scale_round(self, tmp_path, dtype):
        """The in-place quantization writes the bytes of
        ``np.round(np.clip(img, 0, 1) * 255)`` at each level and one ulp
        either side of it, half way between levels and outside [0, 1], and
        leaves the map as it was."""
        levels = (np.arange(256) / 255.0).astype(dtype)
        values = np.concatenate([
            levels, np.nextafter(levels, dtype(-np.inf)),
            np.nextafter(levels, dtype(np.inf)),
            ((np.arange(255) + 0.5) / 255.0).astype(dtype),
            np.array([-2.0, -1e-30, -0.0, 1.0 + 1e-6, 3.0, 1e30], dtype=dtype)])
        img = np.flipud(values.reshape(21, 49))
        before = img.copy()
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        want = np.round(np.clip(np.asarray(img, dtype=float), 0.0, 1.0) * 255.0)
        assert path.read_bytes().split(b"255\n", 1)[1] == want.astype(np.uint8).tobytes()
        assert img.tobytes() == before.tobytes()

    def test_corner_overlay_clipped(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, np.zeros((4, 4)), corners=[(0, 0)])
        payload = path.read_bytes().split(b"255\n", 1)[1]
        img = np.frombuffer(payload, dtype=np.uint8).reshape(4, 4)
        assert img[0, 0] == 255 and img[0, 1] == 255 and img[1, 0] == 255
        assert img[3, 3] == 0

    def test_constant_map_uniform(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, np.zeros((3, 3)))
        payload = path.read_bytes().split(b"255\n", 1)[1]
        assert set(payload) == {0}


class TestCsv:
    def test_deterministic_float_format(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 0.1], [2, 1.0 / 3.0]])
        text = path.read_text()
        assert text == "a,b\n1,0.1\n2,0.3333333333333333\n"
