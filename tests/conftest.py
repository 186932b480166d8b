"""Shared fixtures: a fast reduced-size config and cached full-size runs."""

from dataclasses import replace

import numpy as np
import pytest

from mdcl.config import PipelineConfig, serialize_config
from mdcl.echo import RadarConfig


def default_scene(**overrides):
    """The default config's ``SceneParams`` with ``overrides`` replaced."""
    return replace(PipelineConfig().scene_params(), **overrides)


def head_radar(eta=1.0, **overrides) -> RadarConfig:
    """The default radar with only the head reflecting, at ``eta``, and no
    wall; ``overrides`` replace further fields."""
    return replace(RadarConfig(reflectivity_head=eta, reflectivity_torso=0.0,
                               reflectivity_hand=0.0, reflectivity_foot=0.0,
                               wall_reflectivity=0.0), **overrides)


def small_config() -> PipelineConfig:
    """Reduced-size config for fast unit tests (256 x 256 frame)."""
    cfg = PipelineConfig()
    cfg.radar.slow_samples = 256
    cfg.radar.fast_samples = 256
    cfg.detector.render_rows = 256
    cfg.noise.enabled = False
    cfg.validate()
    return cfg


def row_value(axis, row):
    """Physical value at the lower edge of a map row (or array of rows)."""
    return axis.lo + (np.asarray(row, dtype=float) / axis.n) * (axis.hi - axis.lo)


@pytest.fixture
def cfg_small() -> PipelineConfig:
    return small_config()


@pytest.fixture(scope="session")
def clean_full_config() -> PipelineConfig:
    """Full-size clean-pipeline config (no raw-data noise)."""
    cfg = PipelineConfig()
    cfg.noise.enabled = False
    cfg.validate()
    return cfg


@pytest.fixture(scope="session")
def clean_results(clean_full_config):
    """Full-size clean pipeline results for S2..S12, computed once."""
    from mdcl.pipeline import run_activity

    labels = [f"S{i}" for i in range(2, 13)]
    return {label: run_activity(clean_full_config, label) for label in labels}


@pytest.fixture(scope="session")
def full_run(tmp_path_factory):
    """The full-size default config at seed 42 for S5, S8 and S12 (one
    in-situ, walking and combination activity each), its file, and the
    directory ``mdcl run`` wrote for it."""
    from mdcl.cli import main

    cfg = PipelineConfig()
    cfg.run.seed = 42
    cfg.run.activities = "S5,S8,S12"
    cfg.validate()
    root = tmp_path_factory.mktemp("full_run")
    cfg_path = root / "config.txt"
    cfg_path.write_text(serialize_config(cfg), encoding="utf-8")
    assert main(["run", "--config", str(cfg_path), "--out", str(root / "run")]) == 0
    return cfg, cfg_path, root / "run"
