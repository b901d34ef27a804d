"""Pipeline configuration types and the JSON config file parser."""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass, field

from .errors import ConfigError

# Widest depth patch: over twelve times the default 5 px. At fx 600 and
# 2 m it spans 0.21 m, more than the surface around any one joint, and
# each patch request holds MAX_PATCH_W**2 depths (31 KiB).
MAX_PATCH_W = 63


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

    def validate(self, prefix=""):
        """Raise ConfigError on a value out of range; prefix goes before
        every field the message names, "tracker." in a pipeline config."""
        if not 0 < self.tau_joint <= 1:
            raise ConfigError(f"{prefix}tau_joint must be in (0, 1]")
        if not self.bone_alpha < 1 < self.bone_beta:
            raise ConfigError(f"{prefix}bone_alpha < 1 < {prefix}bone_beta must hold")
        if not 0 < self.e_off < self.e_on <= 1:
            raise ConfigError(f"0 < {prefix}e_off < {prefix}e_on <= 1 must hold")
        if not 0 < self.decay_lambda < 1:
            raise ConfigError(f"{prefix}decay_lambda must be in (0, 1)")
        if self.v_min < 2:
            raise ConfigError(f"{prefix}v_min must be >= 2")
        if not 1 <= self.patch_w <= MAX_PATCH_W or self.patch_w % 2 == 0:
            raise ConfigError(f"{prefix}patch_w must be a positive odd size <= {MAX_PATCH_W}")
        if self.max_inactive_frames < 0:
            raise ConfigError(f"{prefix}max_inactive_frames must be >= 0")
        if self.min_birth_joints < 1:
            raise ConfigError(f"{prefix}min_birth_joints must be >= 1")


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

    def validate(self, prefix=""):
        for name in ("dbscan_eps", "tau_assoc", "v_max", "fps"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{prefix}{name} must be positive")
        if self.hand_gap_frames < 0:
            raise ConfigError(f"{prefix}hand_gap_frames must be >= 0")


@dataclass
class ContactConfig:
    tau_on: float = 0.12          # m, contact activation threshold
    tau_off: float = 0.15         # m, release threshold (> tau_on)
    ema_alpha: float = 0.5
    min_episode_frames: int = 3
    max_gap_frames: int = 2

    def validate(self, prefix=""):
        if not self.tau_off > self.tau_on > 0:
            raise ConfigError(f"{prefix}tau_off > {prefix}tau_on > 0 must hold")
        if not 0 < self.ema_alpha <= 1:
            raise ConfigError(f"{prefix}ema_alpha must be in (0, 1]")
        if self.min_episode_frames < 1:
            raise ConfigError(f"{prefix}min_episode_frames must be >= 1")
        if self.max_gap_frames < 0:
            raise ConfigError(f"{prefix}max_gap_frames must be >= 0")


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
        self.tracker.validate("tracker.")
        self.fusion.validate("fusion.")
        self.contact.validate("contact.")
        if self.voxel_size <= 0:
            raise ConfigError("voxel_size must be positive")
        if self.stride < 1:
            raise ConfigError("stride must be >= 1")
        return self

    def to_json(self):
        return dataclasses.asdict(self)


def _object(data, what):
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must hold a JSON object, got {type(data).__name__}")
    return data


# JSON value types each field type accepts; bools are checked apart,
# since a JSON true is a Python int, and NaN and Infinity are refused.
_JSON_TYPES = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
               float: ((int, float), "a finite number")}


def _fill(cls, data, section=""):
    """cls built from a JSON object whose values match the field defaults'
    types; values are not coerced, so run_meta.json echoes them as given.
    Numbers must fit the float64 and int64 that numpy takes them as. A
    field whose default is a config section is filled from its own
    object, and every message names a field with its section's prefix."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"unknown parameter(s) {sorted(section + k for k in unknown)}")
    values = dict(data)
    for key, value in data.items():
        factory = fields[key].default_factory
        if dataclasses.is_dataclass(factory):  # a config section
            values[key] = _fill(factory, _object(value, repr(section + key)), f"{section}{key}.")
            continue
        want = type(fields[key].default)
        types, what = _JSON_TYPES[want]
        if (isinstance(value, bool) != (want is bool) or not isinstance(value, types)
                or want is float and not abs(value) <= sys.float_info.max):  # NaN fails too
            raise ConfigError(f"{section}{key} must be {what}, got {json.dumps(value)}")
        if want is int and not -2**63 <= value < 2**63:
            raise ConfigError(f"{section}{key} must be an int64 integer, got {value}")
    return cls(**values)


def load_pipeline_config(path=None):
    """Load a PipelineConfig from a JSON file; missing fields take defaults.
    Every error names the file."""
    data = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as f:
                data = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}")
        except (ValueError, RecursionError) as e:  # not UTF-8 JSON, or nested too deep
            raise ConfigError(f"config {path} is not valid UTF-8 JSON: {e}")
    try:
        return _fill(PipelineConfig, _object(data, "the file")).validate()
    except ConfigError as e:
        raise ConfigError(f"config {path}: {e}") from None
