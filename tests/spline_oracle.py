"""Reference numpy waypoint-spline sampling for the tests.

``sample`` is the numpy version ``WaypointSpline.sample`` had before it ran
on Python floats (``np.searchsorted`` for the segment, the Hermite and
linear expressions on numpy rows).  The float version must return the same
bytes.
"""

from __future__ import annotations

import numpy as np

from issf_wbc.scenario import WaypointSpline


def sample(spline: WaypointSpline, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Value and velocity at t (held with zero velocity outside the knots)."""
    times, values = spline.times, spline.values
    if len(times) == 1 or t <= times[0]:
        return values[0].copy(), np.zeros(values.shape[1])
    if t >= times[-1]:
        return values[-1].copy(), np.zeros(values.shape[1])
    i = int(np.searchsorted(times, t, side="right") - 1)
    t0, t1 = times[i], times[i + 1]
    dt = t1 - t0
    s = (t - t0) / dt
    if spline.kind == "linear":
        vel = (values[i + 1] - values[i]) / dt
        return values[i] + s * dt * vel, vel
    # Cubic Hermite basis.
    h00 = 2 * s**3 - 3 * s**2 + 1
    h10 = s**3 - 2 * s**2 + s
    h01 = -2 * s**3 + 3 * s**2
    h11 = s**3 - s**2
    p = (h00 * values[i] + h10 * dt * spline.tangents[i]
         + h01 * values[i + 1] + h11 * dt * spline.tangents[i + 1])
    d00 = (6 * s**2 - 6 * s) / dt
    d10 = 3 * s**2 - 4 * s + 1
    d01 = (-6 * s**2 + 6 * s) / dt
    d11 = 3 * s**2 - 2 * s
    v = (d00 * values[i] + d10 * spline.tangents[i]
         + d01 * values[i + 1] + d11 * spline.tangents[i + 1])
    return p, v
