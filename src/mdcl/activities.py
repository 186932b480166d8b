"""Activity catalog: per-node motion-state assignments for S1..S12.

Each activity assigns one of four motion states to every limb node:
acceleration-free translation, sinusoidal pendulum swing, sudden
(in-place) vertical acceleration, or inactive.  The per-node parameter
tables below are the shipped configuration that turns the two canonical
motion classes (natural walking / in-situ acceleration) plus their
combinations into the twelve concrete activities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from mdcl.scene import ALL_NODES, NodeId


class MotionState(Enum):
    ACCEL_FREE = "acceleration-free"
    PENDULUM = "sinusoidal-pendulum"
    SUDDEN_ACCEL = "sudden-acceleration"
    INACTIVE = "inactive"


class ActivityClass(Enum):
    EMPTY = "empty"
    WALKING = "natural-walking"      # Mot. 1
    IN_SITU = "in-situ-acceleration"  # Mot. 2
    COMBINATION = "combination"


@dataclass(frozen=True)
class NodeMotion:
    """Motion state of a single node plus its parameter overrides.

    Pendulum params: ``swing_angle`` (max deviation from vertical, rad) and
    ``phase`` (0 or pi inside the pendulum sine/cosine); limbs swing along
    the body motion direction.

    Sudden-acceleration params: ``drop`` (peak-to-peak height change, m),
    ``rise_first`` (True: starts low and rises; False: starts high) and
    ``span`` = (start, stop) fraction of the activity window the vertical
    episode occupies; outside it the node translates with the body.
    """

    state: MotionState
    swing_angle: float | None = None
    phase: float = 0.0
    drop: float | None = None
    rise_first: bool = False
    span: tuple[float, float] = (0.0, 1.0)


@dataclass(frozen=True)
class ActivitySpec:
    """One of the twelve catalog activities."""

    label: str
    name: str
    activity_class: ActivityClass
    nodes: dict[NodeId, NodeMotion] = field(default_factory=dict)
    velocity: tuple[float, float] | None = None  # overrides scene velocity
    # (start, stop) window fraction in which the body translates; used by
    # the combination activities, where walking covers only half the window.
    walk_span: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        missing = [n for n in ALL_NODES if n not in self.nodes]
        if missing:
            raise ValueError(f"{self.label}: missing node assignments {missing}")
        if self.activity_class is ActivityClass.EMPTY:
            if any(m.state is not MotionState.INACTIVE for m in self.nodes.values()):
                raise ValueError("empty scene must assign all nodes inactive")

    def node(self, node: NodeId) -> NodeMotion:
        return self.nodes[node]

    @property
    def is_empty(self) -> bool:
        return self.activity_class is ActivityClass.EMPTY


_PI = 3.141592653589793


def _walking_nodes(swing_arms: float, swing_legs: float) -> dict[NodeId, NodeMotion]:
    # Arm swings pair with the opposite-side leg, as in a natural gait.
    return {
        NodeId.HEAD: NodeMotion(MotionState.ACCEL_FREE),
        NodeId.TORSO: NodeMotion(MotionState.ACCEL_FREE),
        NodeId.HAND_L: NodeMotion(MotionState.PENDULUM, swing_angle=swing_arms, phase=0.0),
        NodeId.HAND_R: NodeMotion(MotionState.PENDULUM, swing_angle=swing_arms, phase=_PI),
        NodeId.FOOT_L: NodeMotion(MotionState.PENDULUM, swing_angle=swing_legs, phase=_PI),
        NodeId.FOOT_R: NodeMotion(MotionState.PENDULUM, swing_angle=swing_legs, phase=0.0),
    }


def _in_situ_nodes(drops: dict[NodeId, float], rise_first: bool) -> dict[NodeId, NodeMotion]:
    return {
        n: NodeMotion(MotionState.SUDDEN_ACCEL, drop=drops[n], rise_first=rise_first)
        for n in ALL_NODES
    }


# Height change of each node during the vertical episodes, meters.  Feet
# barely move when sitting or grabbing; hands travel furthest when reaching.
_SIT_DROPS = {
    NodeId.HEAD: 0.45, NodeId.TORSO: 0.45,
    NodeId.HAND_L: 0.45, NodeId.HAND_R: 0.45,
    NodeId.FOOT_L: 0.05, NodeId.FOOT_R: 0.05,
}
_GRAB_DROPS = {
    NodeId.HEAD: 0.3, NodeId.TORSO: 0.3,
    NodeId.HAND_L: 0.6, NodeId.HAND_R: 0.6,
    NodeId.FOOT_L: 0.05, NodeId.FOOT_R: 0.05,
}
_FALL_DROPS = {
    NodeId.HEAD: 1.1, NodeId.TORSO: 0.9,
    NodeId.HAND_L: 0.7, NodeId.HAND_R: 0.7,
    NodeId.FOOT_L: 0.1, NodeId.FOOT_R: 0.1,
}


def _combo(label: str, name: str, walk_half: int, drops: dict[NodeId, float],
           rise_first: bool, episode_frac: float = 0.25) -> ActivitySpec:
    """Combination activity: one half walks, the other holds a brief
    vertical episode (the body stays put before/after it).

    ``walk_half`` 0 means walking occupies [0, T/2], 1 means [T/2, T];
    ``episode_frac`` is the episode duration as a window fraction.
    """
    if walk_half == 0:
        walk_span = (0.0, 0.5)
        vert_span = (0.5, 0.5 + episode_frac)
    else:
        walk_span = (0.5, 1.0)
        vert_span = (0.5 - episode_frac, 0.5)
    nodes = {}
    for node, walk_motion in _walking_nodes(_PI / 6, _PI / 4).items():
        nodes[node] = NodeMotion(
            MotionState.SUDDEN_ACCEL,
            swing_angle=walk_motion.swing_angle,
            phase=walk_motion.phase,
            drop=drops[node],
            rise_first=rise_first,
            span=vert_span,
        )
    return ActivitySpec(label, name, ActivityClass.COMBINATION,
                        nodes=nodes, walk_span=walk_span)


_ACTIVITIES: dict[str, ActivitySpec] = {
    "S1": ActivitySpec(
        "S1", "empty", ActivityClass.EMPTY,
        nodes={n: NodeMotion(MotionState.INACTIVE) for n in ALL_NODES},
        velocity=(0.0, 0.0),
    ),
    "S2": ActivitySpec(
        "S2", "punching", ActivityClass.WALKING,
        nodes={
            NodeId.HEAD: NodeMotion(MotionState.ACCEL_FREE),
            NodeId.TORSO: NodeMotion(MotionState.ACCEL_FREE),
            NodeId.HAND_L: NodeMotion(MotionState.PENDULUM, swing_angle=_PI / 3, phase=0.0),
            NodeId.HAND_R: NodeMotion(MotionState.PENDULUM, swing_angle=_PI / 3, phase=_PI),
            NodeId.FOOT_L: NodeMotion(MotionState.ACCEL_FREE),
            NodeId.FOOT_R: NodeMotion(MotionState.ACCEL_FREE),
        },
        velocity=(0.0, 0.0),
    ),
    "S3": ActivitySpec(
        "S3", "kicking", ActivityClass.WALKING,
        nodes={
            NodeId.HEAD: NodeMotion(MotionState.ACCEL_FREE),
            NodeId.TORSO: NodeMotion(MotionState.ACCEL_FREE),
            NodeId.HAND_L: NodeMotion(MotionState.PENDULUM, swing_angle=_PI / 12, phase=0.0),
            NodeId.HAND_R: NodeMotion(MotionState.PENDULUM, swing_angle=_PI / 12, phase=_PI),
            NodeId.FOOT_L: NodeMotion(MotionState.PENDULUM, swing_angle=_PI / 3, phase=0.0),
            NodeId.FOOT_R: NodeMotion(MotionState.PENDULUM, swing_angle=_PI / 3, phase=_PI),
        },
        velocity=(0.0, 0.0),
    ),
    "S4": ActivitySpec(
        "S4", "grabbing", ActivityClass.IN_SITU,
        nodes=_in_situ_nodes(_GRAB_DROPS, rise_first=False),
        velocity=(0.0, 0.0),
    ),
    "S5": ActivitySpec(
        "S5", "sitting-down", ActivityClass.IN_SITU,
        nodes=_in_situ_nodes(_SIT_DROPS, rise_first=False),
        velocity=(0.0, 0.0),
    ),
    "S6": ActivitySpec(
        "S6", "standing-up", ActivityClass.IN_SITU,
        nodes=_in_situ_nodes(_SIT_DROPS, rise_first=True),
        velocity=(0.0, 0.0),
    ),
    "S7": ActivitySpec(
        "S7", "rotating", ActivityClass.WALKING,
        nodes=_walking_nodes(_PI / 4, _PI / 8),
        velocity=(0.0, 0.0),
    ),
    "S8": ActivitySpec(
        "S8", "walking", ActivityClass.WALKING,
        nodes=_walking_nodes(_PI / 6, _PI / 4),
    ),
    "S9": _combo("S9", "sitting-to-walking", walk_half=1, drops=_SIT_DROPS,
                 rise_first=True, episode_frac=0.25),
    "S10": _combo("S10", "walking-to-sitting", walk_half=0, drops=_SIT_DROPS,
                  rise_first=False, episode_frac=0.25),
    "S11": _combo("S11", "falling-to-walking", walk_half=1, drops=_FALL_DROPS,
                  rise_first=True, episode_frac=0.2),
    "S12": _combo("S12", "walking-to-falling", walk_half=0, drops=_FALL_DROPS,
                  rise_first=False, episode_frac=0.2),
}


def activity(label: str) -> ActivitySpec:
    """Look up one of S1..S12 by label."""
    try:
        return _ACTIVITIES[label]
    except KeyError:
        raise KeyError(f"unknown activity {label!r}; expected one of S1..S12") from None


def activity_labels() -> list[str]:
    return list(_ACTIVITIES)
