"""Activity catalog: the six node motions of each of S1..S12.

A node's parameters decide its motion: a ``swing_angle`` makes it a
pendulum limb swinging while the body translates, a ``drop`` gives it an
in-place vertical episode, and a node with neither translates with the
body.  The combination activities (S9..S12) chain the two; when the
episode runs and which way it goes belong to the activity.  The tables
below turn the two canonical motion classes (natural walking / in-situ
acceleration) plus their combinations into the twelve activities.  The
empty scene S1 is a class of its own: its nodes translate with a body
that stands still, and nothing echoes from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from mdcl.scene import ALL_NODES, NodeId


class ActivityClass(Enum):
    EMPTY = "empty"
    WALKING = "natural-walking"      # Mot. 1
    IN_SITU = "in-situ-acceleration"  # Mot. 2
    COMBINATION = "combination"


# whether every node of a class has a vertical episode (a ``drop``) or none has
_DROPS = {ActivityClass.EMPTY: False, ActivityClass.WALKING: False,
          ActivityClass.IN_SITU: True, ActivityClass.COMBINATION: True}


@dataclass(frozen=True)
class NodeMotion:
    """One node's ``swing_angle`` (max deviation from vertical, rad) and
    ``phase`` (0 or pi inside the pendulum sine/cosine), and the
    peak-to-peak height change ``drop`` (m) of its vertical episode."""

    swing_angle: float | None = None
    phase: float = 0.0
    drop: float | None = None


@dataclass(frozen=True)
class ActivitySpec:
    """One of the twelve catalog activities.

    The body translates in the ``walk_span`` and the vertical episode fills
    the ``episode_span``, each a (start, stop) window fraction; a
    ``rise_first`` episode starts low and rises, otherwise it sinks.  Every
    node of an in-situ or combination activity has a ``drop``, and no node
    of an empty or walking one.
    """

    label: str
    name: str
    activity_class: ActivityClass
    nodes: dict[NodeId, NodeMotion]
    velocity: tuple[float, float] | None = None  # overrides scene velocity
    walk_span: tuple[float, float] = (0.0, 1.0)
    episode_span: tuple[float, float] = (0.0, 1.0)
    rise_first: bool = False

    def __post_init__(self):
        missing = [n for n in ALL_NODES if n not in self.nodes]
        if missing:
            raise ValueError(f"{self.label}: missing node assignments {missing}")
        if any(self.nodes[n].swing_angle is not None for n in (NodeId.HEAD, NodeId.TORSO)):
            raise ValueError(f"{self.label}: only hands and feet can swing")
        drops = _DROPS[self.activity_class]
        if any((self.nodes[n].drop is not None) != drops for n in ALL_NODES):
            rule = "every node needs a drop" if drops else "no node may drop"
            raise ValueError(f"{self.label}: in a {self.activity_class.value} "
                             f"activity {rule}")
        for name in ("walk_span", "episode_span"):
            start, stop = getattr(self, name)
            if not 0.0 <= start < stop <= 1.0:
                raise ValueError(f"{self.label}: {name} {(start, stop)} is not "
                                 "0 <= start < stop <= 1")

    @property
    def is_empty(self) -> bool:
        return self.activity_class is ActivityClass.EMPTY


def _nodes(arms: float | None = None, legs: float | None = None,
           leg_phases: tuple[float, float] = (math.pi, 0.0),
           drops: tuple[float, float, float, float] | None = None
           ) -> dict[NodeId, NodeMotion]:
    """The six node motions of one activity.

    The hands swing at ``arms`` with phases 0 and pi, the feet at ``legs``
    with ``leg_phases``: (pi, 0) pairs each arm with the opposite-side leg,
    as in a natural gait.  The head, the torso and a limb without an angle
    translate, at phase 0.  ``drops`` gives the (head, torso, hands, feet)
    drops.
    """
    head, torso, hands, feet = drops or (None,) * 4
    motions = {NodeId.HEAD: (None, 0.0, head), NodeId.TORSO: (None, 0.0, torso),
               NodeId.HAND_L: (arms, 0.0, hands), NodeId.HAND_R: (arms, math.pi, hands),
               NodeId.FOOT_L: (legs, leg_phases[0], feet),
               NodeId.FOOT_R: (legs, leg_phases[1], feet)}
    return {node: NodeMotion(angle, 0.0 if angle is None else phase, drop)
            for node, (angle, phase, drop) in motions.items()}


# Height change (head, torso, hands, feet) during the vertical episodes,
# meters.  Feet barely move when sitting or grabbing; hands travel furthest
# when reaching.
_SIT_DROPS = (0.45, 0.45, 0.45, 0.05)
_GRAB_DROPS = (0.3, 0.3, 0.6, 0.05)
_FALL_DROPS = (1.1, 0.9, 0.7, 0.1)


def _combo(label: str, name: str, walk_half: int, drops: tuple[float, ...],
           rise_first: bool, episode_frac: float) -> ActivitySpec:
    """Combination activity: one half walks with S8's swings, the other
    holds a brief vertical episode (the body stays put before/after it).

    ``walk_half`` 0 means walking occupies [0, T/2], 1 means [T/2, T];
    ``episode_frac`` is the episode duration as a window fraction.
    """
    if walk_half == 0:
        walk_span = (0.0, 0.5)
        episode_span = (0.5, 0.5 + episode_frac)
    else:
        walk_span = (0.5, 1.0)
        episode_span = (0.5 - episode_frac, 0.5)
    return ActivitySpec(label, name, ActivityClass.COMBINATION,
                        _nodes(math.pi / 6, math.pi / 4, drops=drops),
                        walk_span=walk_span, episode_span=episode_span,
                        rise_first=rise_first)


_STILL = (0.0, 0.0)
_ACTIVITIES: dict[str, ActivitySpec] = {a.label: a for a in (
    ActivitySpec("S1", "empty", ActivityClass.EMPTY, _nodes(), _STILL),
    ActivitySpec("S2", "punching", ActivityClass.WALKING, _nodes(math.pi / 3), _STILL),
    ActivitySpec("S3", "kicking", ActivityClass.WALKING,
                 _nodes(math.pi / 12, math.pi / 3, leg_phases=(0.0, math.pi)), _STILL),
    ActivitySpec("S4", "grabbing", ActivityClass.IN_SITU, _nodes(drops=_GRAB_DROPS), _STILL),
    ActivitySpec("S5", "sitting-down", ActivityClass.IN_SITU, _nodes(drops=_SIT_DROPS), _STILL),
    ActivitySpec("S6", "standing-up", ActivityClass.IN_SITU,
                 _nodes(drops=_SIT_DROPS), _STILL, rise_first=True),
    ActivitySpec("S7", "rotating", ActivityClass.WALKING,
                 _nodes(math.pi / 4, math.pi / 8), _STILL),
    ActivitySpec("S8", "walking", ActivityClass.WALKING, _nodes(math.pi / 6, math.pi / 4)),
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
