"""Through-wall radar micro-Doppler toolkit.

Simulates limb-node echoes of indoor human activities, turns them into
range-time and Doppler-time maps, stretches the value axes to squared
coordinates, extracts 30-corner point clouds, and scores them against
analytic ground truth.
"""

__version__ = "0.1.0"

from mdcl.scene import NodeId, SceneParams
from mdcl.activities import ActivitySpec, activity, activity_labels

__all__ = [
    "ActivitySpec",
    "NodeId",
    "SceneParams",
    "activity",
    "activity_labels",
    "__version__",
]
