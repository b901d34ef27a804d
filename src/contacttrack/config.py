"""Pipeline configuration types and the JSON config file parser."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .errors import ConfigError


@dataclass
class TrackerConfig:
    tau_joint: float = 0.3        # detection confidence gate
    tau_mpjpe: float = 60.0       # px, association gate
    tau_epi: float = 5.0          # px, epipolar consistency gate
    v_min: int = 2                # minimum views for triangulation
    eps_tri: float = 8.0          # px, triangulation acceptance
    eps_init: float = 5.0         # px, birth joint acceptance
    patch_w: int = 5              # px, depth patch side
    sigma_max_sq: float = 0.0025  # m^2, depth patch variance gate (0.05 m)^2
    bone_alpha: float = 0.7
    bone_beta: float = 1.3
    decay_lambda: float = 0.92    # idle existence decay
    e_init: float = 0.3
    e_up: float = 0.2             # existence increment on update
    e_on: float = 0.6
    e_off: float = 0.1
    r_reuse: float = 0.5          # m, ID-reuse radius
    max_inactive_frames: int = 90
    min_birth_joints: int = 6     # valid joints required to spawn a track

    def validate(self):
        if not 0 < self.tau_joint <= 1:
            raise ConfigError("tau_joint must be in (0, 1]")
        if not self.bone_alpha < 1 < self.bone_beta:
            raise ConfigError("bone ratios must satisfy alpha < 1 < beta")
        if not 0 < self.e_off < self.e_on <= 1:
            raise ConfigError("existence thresholds must satisfy 0 < e_off < e_on <= 1")
        if not 0 < self.decay_lambda < 1:
            raise ConfigError("decay_lambda must be in (0, 1)")
        if self.v_min < 2:
            raise ConfigError("v_min must be >= 2")
        if self.patch_w < 1 or self.patch_w % 2 == 0:
            raise ConfigError("patch_w must be a positive odd size")


@dataclass
class FusionConfig:
    dbscan_eps: float = 0.08      # m, palm-center clustering radius
    dbscan_min_pts: int = 2       # core-point density (noise kept as singletons)
    v_max: float = 3.0            # m/s, maximum expected hand speed
    slack_delta: float = 0.05     # m, motion gate slack
    tau_assoc: float = 0.35       # m, hand-person association gate
    fps: float = 30.0
    hand_gap_frames: int = 90     # hand track survives gaps up to this length
    stitch_min_votes: int = 3

    def validate(self):
        if self.dbscan_eps <= 0 or self.tau_assoc <= 0 or self.v_max <= 0:
            raise ConfigError("fusion distances must be positive")
        if self.fps <= 0:
            raise ConfigError("fps must be positive")


@dataclass
class ContactConfig:
    tau_on: float = 0.12          # m, contact activation threshold
    tau_off: float = 0.15         # m, release threshold (> tau_on)
    ema_alpha: float = 0.5
    min_episode_frames: int = 3
    max_gap_frames: int = 2

    def validate(self):
        if not self.tau_off > self.tau_on > 0:
            raise ConfigError("thresholds must satisfy tau_off > tau_on > 0")
        if not 0 < self.ema_alpha <= 1:
            raise ConfigError("ema_alpha must be in (0, 1]")
        if self.min_episode_frames < 1 or self.max_gap_frames < 0:
            raise ConfigError("episode filters out of range")


@dataclass
class PipelineConfig:
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    contact: ContactConfig = field(default_factory=ContactConfig)
    voxel_size: float = 0.010     # m, semantic fusion resolution
    stride: int = 4               # px, semantic back-projection lattice
    static_map: bool = False      # reuse the frame-0 semantic map
    seed: int = 0

    def validate(self):
        self.tracker.validate()
        self.fusion.validate()
        self.contact.validate()
        if self.voxel_size <= 0:
            raise ConfigError("voxel_size must be positive")
        if self.stride < 1:
            raise ConfigError("stride must be >= 1")
        return self

    def to_json(self):
        return dataclasses.asdict(self)


def _fill(cls, data, path):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(f"{path}: unknown parameter(s) {sorted(unknown)}")
    return cls(**data)


def load_pipeline_config(path=None, overrides=None):
    """Load a PipelineConfig from a JSON file; missing fields take defaults."""
    data = {}
    if path is not None:
        try:
            with open(path) as f:
                data = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {path} is not valid JSON: {e}")
    if overrides:
        data.update(overrides)
    try:
        tracker = _fill(TrackerConfig, data.pop("tracker", {}), path)
        fusion = _fill(FusionConfig, data.pop("fusion", {}), path)
        contact = _fill(ContactConfig, data.pop("contact", {}), path)
        cfg = _fill(PipelineConfig, data, path)
    except TypeError as e:
        raise ConfigError(f"config {path}: {e}")
    cfg.tracker, cfg.fusion, cfg.contact = tracker, fusion, contact
    return cfg.validate()
