"""Activity catalog: per-node motion-state assignments for S1..S12.

Each activity assigns one of three motion states to every limb node:
acceleration-free translation, sinusoidal pendulum swing, or sudden
(in-place) vertical acceleration.  The per-node parameter tables below
are the shipped configuration that turns the two canonical motion
classes (natural walking / in-situ acceleration) plus their combinations
into the twelve concrete activities.  The empty scene S1 is a class of
its own: its nodes translate with a body that stands still, and nothing
echoes from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from mdcl.scene import ALL_NODES, NodeId


class MotionState(Enum):
    ACCEL_FREE = "acceleration-free"
    PENDULUM = "sinusoidal-pendulum"
    SUDDEN_ACCEL = "sudden-acceleration"


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

    def node(self, node: NodeId) -> NodeMotion:
        return self.nodes[node]

    @property
    def is_empty(self) -> bool:
        return self.activity_class is ActivityClass.EMPTY


_PI = 3.141592653589793


def _nodes(arms: float | None = None, legs: float | None = None,
           leg_phases: tuple[float, float] = (_PI, 0.0),
           drops: dict[NodeId, float] | None = None, rise_first: bool = False,
           span: tuple[float, float] = (0.0, 1.0)) -> dict[NodeId, NodeMotion]:
    """The six node motions of one activity.

    The hands swing at ``arms`` with phases 0 and pi, the feet at ``legs``
    with ``leg_phases``: (pi, 0) pairs each arm with the opposite-side leg,
    as in a natural gait.  The head, the torso and a limb without an angle
    translate, at phase 0.  With ``drops`` every node is a sudden
    acceleration through its drop (``rise_first``, ``span``) and keeps its
    swing.
    """
    swings = {NodeId.HAND_L: (arms, 0.0), NodeId.HAND_R: (arms, _PI),
              NodeId.FOOT_L: (legs, leg_phases[0]), NodeId.FOOT_R: (legs, leg_phases[1])}
    nodes = {}
    for node in ALL_NODES:
        angle, phase = swings.get(node, (None, 0.0))
        phase = 0.0 if angle is None else phase
        if drops is not None:
            nodes[node] = NodeMotion(MotionState.SUDDEN_ACCEL, angle, phase,
                                     drops[node], rise_first, span)
        else:
            state = MotionState.ACCEL_FREE if angle is None else MotionState.PENDULUM
            nodes[node] = NodeMotion(state, angle, phase)
    return nodes


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
           rise_first: bool, episode_frac: float) -> ActivitySpec:
    """Combination activity: one half walks with S8's swings, the other
    holds a brief vertical episode (the body stays put before/after it).

    ``walk_half`` 0 means walking occupies [0, T/2], 1 means [T/2, T];
    ``episode_frac`` is the episode duration as a window fraction.
    """
    if walk_half == 0:
        walk_span = (0.0, 0.5)
        vert_span = (0.5, 0.5 + episode_frac)
    else:
        walk_span = (0.5, 1.0)
        vert_span = (0.5 - episode_frac, 0.5)
    nodes = _nodes(_PI / 6, _PI / 4, drops=drops, rise_first=rise_first, span=vert_span)
    return ActivitySpec(label, name, ActivityClass.COMBINATION,
                        nodes=nodes, walk_span=walk_span)


_STILL = (0.0, 0.0)
_ACTIVITIES: dict[str, ActivitySpec] = {a.label: a for a in (
    ActivitySpec("S1", "empty", ActivityClass.EMPTY, _nodes(), _STILL),
    ActivitySpec("S2", "punching", ActivityClass.WALKING, _nodes(_PI / 3), _STILL),
    ActivitySpec("S3", "kicking", ActivityClass.WALKING,
                 _nodes(_PI / 12, _PI / 3, leg_phases=(0.0, _PI)), _STILL),
    ActivitySpec("S4", "grabbing", ActivityClass.IN_SITU,
                 _nodes(drops=_GRAB_DROPS), _STILL),
    ActivitySpec("S5", "sitting-down", ActivityClass.IN_SITU,
                 _nodes(drops=_SIT_DROPS), _STILL),
    ActivitySpec("S6", "standing-up", ActivityClass.IN_SITU,
                 _nodes(drops=_SIT_DROPS, rise_first=True), _STILL),
    ActivitySpec("S7", "rotating", ActivityClass.WALKING, _nodes(_PI / 4, _PI / 8), _STILL),
    ActivitySpec("S8", "walking", ActivityClass.WALKING, _nodes(_PI / 6, _PI / 4)),
    _combo("S9", "sitting-to-walking", 1, _SIT_DROPS, rise_first=True, episode_frac=0.25),
    _combo("S10", "walking-to-sitting", 0, _SIT_DROPS, rise_first=False, episode_frac=0.25),
    _combo("S11", "falling-to-walking", 1, _FALL_DROPS, rise_first=True, episode_frac=0.2),
    _combo("S12", "walking-to-falling", 0, _FALL_DROPS, rise_first=False, episode_frac=0.2),
)}


def activity(label: str) -> ActivitySpec:
    """Look up one of S1..S12 by label."""
    try:
        return _ACTIVITIES[label]
    except KeyError:
        raise KeyError(f"unknown activity {label!r}; expected one of S1..S12") from None


def activity_labels() -> list[str]:
    return list(_ACTIVITIES)
