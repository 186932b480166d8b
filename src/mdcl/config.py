"""Pipeline configuration: line-oriented sections of key = value pairs.

The file format is deliberately plain: ``[section]`` headers, one
``key = value`` per line, ``#`` comments, UTF-8.  Unknown sections or keys
are rejected; parse -> serialize -> parse is the identity.

The section dataclasses hold every default; the runtime parameter objects
built from them (``SceneParams``, ``RadarConfig``, ``DetectorConfig``,
``NoiseConfig``) have none.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from mdcl.activities import activity_labels
from mdcl.corners import DetectorConfig, filter_support
from mdcl.echo import NoiseConfig, RadarConfig
from mdcl.preprocess import EMD_MIN_LENGTH, check_emd_params
from mdcl.scene import NodeId, SceneParams, WallParams


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
    wall_rel_permittivity: float = 6.0
    through_wall: bool = True
    height_scale: float = 1.0     # alternate-tester scaling of all lengths


@dataclass
class RadarSection:
    """Defaults: the uniform system table."""

    carrier_hz: float = 1.5e9
    bandwidth_hz: float = 2.0e9
    slow_samples: int = 1024
    fast_samples: int = 1024
    window_s: float = 4.0
    tx_amplitude: float = 1.0
    reflectivity_head: float = 0.6
    reflectivity_torso: float = 1.0
    reflectivity_hand: float = 0.3
    reflectivity_foot: float = 0.3
    wall_reflectivity: float = 10.0
    wall_range_m: float = 0.5
    max_range_m: float = 5.0


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
class DetectorSection:
    orientations: int = 8
    sigma_px: float = 3.0
    anisotropy: float = 1.5
    nms_radius_px: int = 7
    render_rows: int = 1024


@dataclass
class EvaluationSection:
    snr_drops_db: str = "4,8,12"
    sweep_seeds: int = 10


@dataclass
class RunSection:
    out_dir: str = "out"
    seed: int = 42
    activities: str = ",".join(activity_labels())


_SECTION_TYPES = {
    "scene": SceneSection,
    "radar": RadarSection,
    "noise": NoiseSection,
    "preprocessing": PreprocessingSection,
    "detector": DetectorSection,
    "evaluation": EvaluationSection,
    "run": RunSection,
}


@dataclass
class PipelineConfig:
    scene: SceneSection = field(default_factory=SceneSection)
    radar: RadarSection = field(default_factory=RadarSection)
    noise: NoiseSection = field(default_factory=NoiseSection)
    preprocessing: PreprocessingSection = field(default_factory=PreprocessingSection)
    detector: DetectorSection = field(default_factory=DetectorSection)
    evaluation: EvaluationSection = field(default_factory=EvaluationSection)
    run: RunSection = field(default_factory=RunSection)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        for name in _SECTION_TYPES:
            section = getattr(self, name)
            for f in fields(section):
                value = getattr(section, f.name)
                if isinstance(value, float) and not math.isfinite(value):
                    raise ConfigError(f"{name}.{f.name} must be finite, got {value}")
        r = self.radar
        # a positive window over >= 2 slow samples is a positive PRI
        for name, value in (("radar.carrier_hz", r.carrier_hz),
                            ("radar.bandwidth_hz", r.bandwidth_hz),
                            ("radar.window_s", r.window_s),
                            ("radar.tx_amplitude", r.tx_amplitude)):
            if not value > 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        for name, value in (("radar.slow_samples", r.slow_samples),
                            ("radar.fast_samples", r.fast_samples)):
            if value < 2:
                raise ConfigError(f"{name} must be >= 2, got {value}")
        if r.max_range_m < 0:
            raise ConfigError(f"radar.max_range_m must be >= 0, got {r.max_range_m}")
        try:
            check_emd_params(*self.preprocessing.emd_params())
        except ValueError as exc:
            raise ConfigError(f"preprocessing.{exc}") from exc
        # squaring splits a Doppler map at zero: one row per half at least
        if self.preprocessing.predecimate_rows < 2:
            raise ConfigError("preprocessing.predecimate_rows must be >= 2, "
                              f"got {self.preprocessing.predecimate_rows}")
        try:
            support = filter_support(self.detector_config())
        except ValueError as exc:
            raise ConfigError(f"detector.{exc}") from exc
        # slow time is every map's row length (EMD) and column count (detector)
        min_slow = max(EMD_MIN_LENGTH, support)
        if r.slow_samples < min_slow:
            raise ConfigError(
                f"radar.slow_samples must be >= {min_slow} (EMD needs "
                f"{EMD_MIN_LENGTH}, the filter support is {support}), "
                f"got {r.slow_samples}")
        if self.detector.render_rows < support:
            raise ConfigError(f"detector.render_rows must be >= the {support}-pixel "
                              f"filter support, got {self.detector.render_rows}")
        labels = self.activity_list()
        known = set(activity_labels())
        bad = [a for a in labels if a not in known]
        if bad:
            raise ConfigError(f"run.activities contains unknown labels {bad}")
        drops = self.snr_drops()
        try:
            drop_seed_keys(drops)
        except ConfigError as exc:
            raise ConfigError(f"evaluation.snr_drops_db: {exc}") from exc
        if self.evaluation.sweep_seeds < 1:
            raise ConfigError("evaluation.sweep_seeds must be >= 1, "
                              f"got {self.evaluation.sweep_seeds}")
        try:
            self.scene_params()
        except ValueError as exc:
            raise ConfigError(f"scene: {exc}") from exc

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
        k = s.height_scale
        return SceneParams(
            radar_height=s.radar_height,
            initial_position=(s.x1, s.y1),
            torso_upper=s.torso_upper * k,
            torso_lower=s.torso_lower * k,
            arm_length=s.arm_length * k,
            leg_length=s.leg_length * k,
            initial_velocity=(s.v1x, s.v1y),
            gait_frequency=s.gait_frequency,
            in_situ_quarter_time=s.in_situ_quarter_time,
            window=self.radar.window_s,
            wall=WallParams(s.wall_thickness, s.wall_rel_permittivity),
            through_wall=s.through_wall,
        )

    def detector_config(self) -> DetectorConfig:
        d = self.detector
        return DetectorConfig(orientations=d.orientations, sigma_px=d.sigma_px,
                              anisotropy=d.anisotropy, nms_radius_px=d.nms_radius_px)

    def radar_config(self) -> RadarConfig:
        r = self.radar
        return RadarConfig(
            carrier=r.carrier_hz,
            bandwidth=r.bandwidth_hz,
            pri=r.window_s / r.slow_samples,
            slow_samples=r.slow_samples,
            fast_samples=r.fast_samples,
            tx_amplitude=r.tx_amplitude,
            reflectivity={
                NodeId.HEAD: r.reflectivity_head,
                NodeId.TORSO: r.reflectivity_torso,
                NodeId.HAND_L: r.reflectivity_hand,
                NodeId.HAND_R: r.reflectivity_hand,
                NodeId.FOOT_L: r.reflectivity_foot,
                NodeId.FOOT_R: r.reflectivity_foot,
            },
            wall_reflectivity=r.wall_reflectivity,
            wall_range=r.wall_range_m,
            max_range=r.max_range_m,
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section_name = line[1:-1].strip()
            if section_name not in _SECTION_TYPES:
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
        try:
            parsed = _parse_value(value, type(getattr(section_obj, key)))
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {section_name}.{key}: {exc}") from None
        setattr(section_obj, key, parsed)
    cfg.validate()
    return cfg


def serialize_config(cfg: PipelineConfig) -> str:
    lines: list[str] = []
    for name in _SECTION_TYPES:
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
