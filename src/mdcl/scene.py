"""Scene geometry: radar placement, body dimensions, gait and the wall's path."""

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
class SceneParams:
    """Anthropometric, gait and geometry parameters of the observed scene.

    ``config.SceneSection`` holds the defaults.  Head and torso move at the
    constant body velocity (the simplified model drops their vertical
    micro-undulation); limb swing angles and in-place height drops are set
    per activity in the catalog.  Another tester is another set of the four
    lengths.  A homogeneous wall of thickness d and relative permittivity
    eps adds ``wall_path`` = d * (sqrt(eps) - 1) to every one-way distance;
    it is 0 in free space.
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
    wall_path: float                     # extra one-way path through the wall, m

    def __post_init__(self):
        if self.wall_path < 0:
            raise ValueError(f"wall_path must be >= 0, got {self.wall_path}")
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
