"""Scene geometry: radar placement, body dimensions, gait and wall parameters."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class NodeId(Enum):
    """The six limb nodes of the kinematic model.

    N4/N6 are the half-cycle (pi-shifted) counterparts of N3/N5.
    """

    HEAD = "N1"
    TORSO = "N2"
    HAND_L = "N3"
    HAND_R = "N4"
    FOOT_L = "N5"
    FOOT_R = "N6"


ALL_NODES = tuple(NodeId)


@dataclass(frozen=True)
class WallParams:
    """Homogeneous wall between radar and target.

    The wall adds ``thickness * (sqrt(rel_permittivity) - 1)`` to every
    one-way propagation distance.
    """

    thickness: float
    rel_permittivity: float

    def __post_init__(self):
        if self.thickness < 0:
            raise ValueError(f"wall thickness must be >= 0, got {self.thickness}")
        if self.rel_permittivity < 1:
            raise ValueError(
                f"wall rel_permittivity must be >= 1, got {self.rel_permittivity}"
            )

    @property
    def extra_path(self) -> float:
        """Extra one-way path in meters; 0 for a zero-thickness wall."""
        return self.thickness * (math.sqrt(self.rel_permittivity) - 1.0)


@dataclass(frozen=True)
class SceneParams:
    """Anthropometric, gait and geometry parameters of the observed scene.

    ``config.SceneSection`` holds the defaults.  Head and torso move at the
    constant body velocity (the simplified model drops their vertical
    micro-undulation); limb swing angles and in-place height drops are set
    per activity in the catalog.
    """

    radar_height: float                  # h0, meters above ground
    initial_position: tuple[float, float]   # (x1, y1) meters
    torso_upper: float                   # h1
    torso_lower: float                   # h2
    arm_length: float                    # l1
    leg_length: float                    # l2
    initial_velocity: tuple[float, float]   # (v1x, v1y) m/s
    gait_frequency: float                # phi, rad/s
    in_situ_quarter_time: float          # t0; full in-place cycle lasts 4*t0
    window: float                        # T, observation window seconds
    wall: WallParams
    through_wall: bool

    def __post_init__(self):
        if not (self.torso_upper > self.torso_lower > 0):
            raise ValueError("need torso_upper > torso_lower > 0")
        if self.arm_length <= 0 or self.leg_length <= 0:
            raise ValueError("limb lengths must be positive")
        if self.in_situ_quarter_time <= 0:
            raise ValueError("in_situ_quarter_time must be positive")
        if self.window * self.gait_frequency / math.pi < 2.0:
            raise ValueError(
                "gait habit constraint violated: window * gait_frequency / pi "
                f"= {self.window * self.gait_frequency / math.pi:.3f} < 2"
            )

    def node_rest_height(self, node: NodeId) -> float:
        """Resting height above ground of a node in the neutral pose."""
        if node is NodeId.HEAD:
            return self.torso_upper + 0.15
        if node is NodeId.TORSO:
            return 0.5 * (self.torso_upper + self.torso_lower)
        if node in (NodeId.HAND_L, NodeId.HAND_R):
            return self.torso_upper - self.arm_length
        return self.torso_lower - self.leg_length
