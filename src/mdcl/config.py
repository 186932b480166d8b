"""Pipeline configuration: line-oriented sections of key = value pairs.

The file format is deliberately plain: ``[section]`` headers, one
``key = value`` per line, ``#`` comments, UTF-8.  Unknown sections or keys
are rejected; parse -> serialize -> parse is the identity.

Each section is one dataclass whose field defaults are the only defaults:
``[radar]`` is ``echo.RadarConfig`` and ``[detector]`` is
``corners.DetectorConfig``, which the stages take as they are; the other
sections are defined here.  A runtime object that resolves values from
more than one section is built from them and has no defaults of its own:
``SceneParams`` (the wall's extra path and the radar window) and
``NoiseConfig`` (the per-label noise seed).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from mdcl.activities import activity, activity_labels
from mdcl.corners import DetectorConfig, filter_support
from mdcl.echo import (C_LIGHT, NoiseConfig, RadarConfig, RadarConfigError,
                       check_delays, echo_delays)
from mdcl.preprocess import EMD_MIN_LENGTH, check_emd_params
from mdcl.scene import SceneParams


class ConfigError(ValueError):
    pass


def drop_seed_keys(drops: list[float]) -> list[int]:
    """Each SNR drop's noise-seed key: the drop in tenths of a dB.

    Drops off the 0.1 dB grid, or two drops with one key, would share a
    noise draw, so they are rejected, as are negative and non-finite drops.
    """
    bad = [d for d in drops if not 0 <= d < math.inf]
    if bad:
        raise ConfigError(f"SNR drops must be finite and non-negative, got {bad}")
    keys = [round(d * 10) for d in drops]
    off_grid = [d for d, key in zip(drops, keys) if abs(d * 10 - key) > 1e-6]
    if off_grid:
        raise ConfigError(f"SNR drops must lie on the 0.1 dB grid, got {off_grid}")
    if len(set(keys)) != len(keys):
        raise ConfigError(f"SNR drops repeat: {list(drops)}")
    return keys


@dataclass
class SceneSection:
    """Defaults: a 1.8 m tester walking indoors, radar antenna at 1.5 m."""

    x1: float = 3.0
    y1: float = 0.0
    v1x: float = -0.6
    v1y: float = 1.0
    radar_height: float = 1.5
    torso_upper: float = 1.5
    torso_lower: float = 0.95
    arm_length: float = 0.65
    leg_length: float = 0.9
    gait_frequency: float = 2.0 * math.pi
    in_situ_quarter_time: float = 1.0
    wall_thickness: float = 0.12
    wall_rel_permittivity: float = 6.0   # 1 or wall_thickness = 0: free space


@dataclass
class NoiseSection:
    enabled: bool = True
    target_snr_db: float = -16.0


@dataclass
class PreprocessingSection:
    predecimate_rows: int = 128
    emd_sd_stop: float = 0.3
    emd_max_sifts: int = 10

    def emd_params(self) -> tuple[float, int]:
        return (self.emd_sd_stop, self.emd_max_sifts)


@dataclass
class EvaluationSection:
    snr_drops_db: str = "4,8,12"
    sweep_seeds: int = 10


@dataclass
class RunSection:
    seed: int = 42
    activities: str = ",".join(activity_labels())


@dataclass
class PipelineConfig:
    scene: SceneSection = field(default_factory=SceneSection)
    radar: RadarConfig = field(default_factory=RadarConfig)
    noise: NoiseSection = field(default_factory=NoiseSection)
    preprocessing: PreprocessingSection = field(default_factory=PreprocessingSection)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    evaluation: EvaluationSection = field(default_factory=EvaluationSection)
    run: RunSection = field(default_factory=RunSection)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        for name in [f.name for f in fields(self)]:
            section = getattr(self, name)
            for f in fields(section):
                value = getattr(section, f.name)
                if isinstance(value, float) and not math.isfinite(value):
                    raise ConfigError(f"{name}.{f.name} must be finite, got {value}")
        r, d, pre = self.radar, self.detector, self.preprocessing
        # a positive window over >= 2 slow samples is a positive PRI
        for name, value in (("radar.carrier_hz", r.carrier_hz),
                            ("radar.bandwidth_hz", r.bandwidth_hz),
                            ("radar.window_s", r.window_s),
                            ("detector.sigma_px", d.sigma_px),
                            ("detector.anisotropy", d.anisotropy)):
            if not value > 0:
                raise ConfigError(f"{name} must be > 0, got {value}")
        for name, value, floor in (
                ("radar.slow_samples", r.slow_samples, 2),
                ("radar.fast_samples", r.fast_samples, 2),
                ("radar.max_range_m", r.max_range_m, 0),
                ("radar.wall_range_m", r.wall_range_m, 0),
                ("scene.wall_thickness", self.scene.wall_thickness, 0),
                ("scene.wall_rel_permittivity", self.scene.wall_rel_permittivity, 1),
                ("detector.orientations", d.orientations, 1),
                ("detector.nms_radius_px", d.nms_radius_px, 0),
                # squaring splits a Doppler map at zero: one row per half at least
                ("preprocessing.predecimate_rows", pre.predecimate_rows, 2),
                ("evaluation.sweep_seeds", self.evaluation.sweep_seeds, 1),
                # noise seeds are SeedSequence entropy
                ("run.seed", self.run.seed, 0)):
            if value < floor:
                raise ConfigError(f"{name} must be >= {floor}, got {value}")
        try:
            check_delays(r, 2.0 * r.wall_range_m / C_LIGHT)
        except RadarConfigError as exc:
            raise ConfigError(f"radar.wall_range_m = {r.wall_range_m}: {exc}") from exc
        try:
            check_emd_params(*pre.emd_params())
        except ValueError as exc:
            raise ConfigError(f"preprocessing.{exc}") from exc
        support = filter_support(d)
        # slow time is every map's row length (EMD) and column count (detector)
        min_slow = max(EMD_MIN_LENGTH, support)
        if r.slow_samples < min_slow:
            raise ConfigError(
                f"radar.slow_samples must be >= {min_slow} (EMD needs "
                f"{EMD_MIN_LENGTH}, the filter support is {support}), "
                f"got {r.slow_samples}")
        if d.render_rows < support:
            raise ConfigError(f"detector.render_rows must be >= the {support}-pixel "
                              f"filter support, got {d.render_rows}")
        labels = self.activity_list()
        known = set(activity_labels())
        bad = [a for a in labels if a not in known]
        if bad:
            raise ConfigError(f"run.activities contains unknown labels {bad}")
        if len(set(labels)) != len(labels):
            raise ConfigError(f"run.activities repeats a label: {labels}")
        drops = self.snr_drops()
        try:
            drop_seed_keys(drops)
        except ConfigError as exc:
            raise ConfigError(f"evaluation.snr_drops_db: {exc}") from exc
        try:
            self.scene_params()
        except ValueError as exc:
            raise ConfigError(f"scene: {exc}") from exc

    def check_echo_range(self, labels: list[str]) -> None:
        """Reject a scene in which a node that echoes in one of ``labels``
        reaches the unambiguous range.  ``validate`` leaves this to the
        commands that synthesize: it takes about 0.7 ms per activity."""
        scene = self.scene_params()
        for label in labels:
            try:
                for _, tau in echo_delays(scene, activity(label), self.radar):
                    check_delays(self.radar, tau)
            except RadarConfigError as exc:
                raise ConfigError(f"scene: {label}: {exc}") from exc

    def activity_list(self) -> list[str]:
        return [a.strip() for a in self.run.activities.split(",") if a.strip()]

    def snr_drops(self) -> list[float]:
        text = self.evaluation.snr_drops_db
        try:
            return [float(v) for v in text.split(",") if v.strip()]
        except ValueError:
            raise ConfigError("evaluation.snr_drops_db must be comma-separated "
                              f"numbers, got {text!r}") from None

    # ------------------------------------------------------------------
    def scene_params(self) -> SceneParams:
        s = self.scene
        return SceneParams(
            radar_height=s.radar_height,
            initial_position=(s.x1, s.y1),
            torso_upper=s.torso_upper,
            torso_lower=s.torso_lower,
            arm_length=s.arm_length,
            leg_length=s.leg_length,
            initial_velocity=(s.v1x, s.v1y),
            gait_frequency=s.gait_frequency,
            in_situ_quarter_time=s.in_situ_quarter_time,
            window=self.radar.window_s,
            wall_path=s.wall_thickness * (math.sqrt(s.wall_rel_permittivity) - 1.0),
        )

    def noise_config(self, label: str) -> NoiseConfig | None:
        """Echo noise of one activity, or ``None`` when noise is off.

        The seed is keyed by ``run.seed`` and the label's place in the
        S1..S12 catalog, so an activity's noise does not depend on which
        other activities run or in what order.
        """
        if not self.noise.enabled:
            return None
        return NoiseConfig(target_snr=self.noise.target_snr_db,
                           seed=self.run.seed * 1000 + activity_labels().index(label))


# ---------------------------------------------------------------------------
# parsing / serialization
# ---------------------------------------------------------------------------

def _parse_value(text: str, target_type: type):
    text = text.strip()
    if target_type is bool:
        low = text.lower()
        if low in ("true", "yes", "1", "on"):
            return True
        if low in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"expected a boolean, got {text!r}")
    if target_type is int:
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"expected an integer, got {text!r}") from None
    if target_type is float:
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"expected a number, got {text!r}") from None
    return text


def parse_config(text: str) -> PipelineConfig:
    cfg = PipelineConfig()
    section_name = None
    section_obj = None
    seen: dict[str, int] = {}   # "section.key" -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section_name = line[1:-1].strip()
            if section_name not in {f.name for f in fields(cfg)}:
                raise ConfigError(f"line {lineno}: unknown section [{section_name}]")
            section_obj = getattr(cfg, section_name)
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        if section_obj is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in {f.name for f in fields(section_obj)}:
            raise ConfigError(
                f"line {lineno}: unknown key {section_name}.{key}")
        if (first := seen.setdefault(f"{section_name}.{key}", lineno)) != lineno:
            raise ConfigError(f"lines {first} and {lineno}: {section_name}.{key} given twice")
        try:
            parsed = _parse_value(value, type(getattr(section_obj, key)))
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {section_name}.{key}: {exc}") from None
        setattr(section_obj, key, parsed)
    cfg.validate()
    return cfg


def serialize_config(cfg: PipelineConfig) -> str:
    lines: list[str] = []
    for name in [f.name for f in fields(cfg)]:
        obj = getattr(cfg, name)
        lines.append(f"[{name}]")
        for f in fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, float):
                text = repr(value)
            else:
                text = str(value)
            lines.append(f"{f.name} = {text}")
        lines.append("")
    return "\n".join(lines)


def load_config(path: str | Path | None) -> PipelineConfig:
    if path is None:
        cfg = PipelineConfig()
        cfg.validate()
        return cfg
    return parse_config(Path(path).read_text(encoding="utf-8"))


def config_digest(cfg: PipelineConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()
