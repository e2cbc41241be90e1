"""Reference 6-state numpy Kalman filter for the tests.

``KalmanOracle`` is the constant-velocity filter the package ran before it
shared one 2-state covariance between the three axes: state [p; v] in R^6,
F = [[I, dt I], [0, I]], Q = q [[dt^3/3 I, dt^2/2 I], [dt^2/2 I, dt I]],
R = r I, and the gain from a 3x3 solve.  ``issf_wbc.sim.ConstantVelocityKalman``
must agree with it to 1e-12 relative.
"""

from __future__ import annotations

import numpy as np


class KalmanOracle:
    def __init__(self, meas_std: float, process_noise: float = 1e-2):
        self.r = max(meas_std, 1e-6) ** 2
        self.q = process_noise
        self.x: np.ndarray | None = None
        self.P = np.zeros((6, 6))

    def update(self, measurement, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(position, velocity, 6x6 covariance) after ``measurement`` taken ``dt`` later."""
        z = np.asarray(measurement, dtype=float)
        eye3 = np.eye(3)
        if self.x is None:
            self.x = np.concatenate([z, np.zeros(3)])
            self.P = np.block([
                [self.r * eye3, np.zeros((3, 3))],
                [np.zeros((3, 3)), 1.0 * eye3],
            ])
        else:
            F = np.block([[eye3, dt * eye3], [np.zeros((3, 3)), eye3]])
            Q = self.q * np.block([
                [dt ** 3 / 3.0 * eye3, dt ** 2 / 2.0 * eye3],
                [dt ** 2 / 2.0 * eye3, dt * eye3],
            ])
            self.x = F @ self.x
            self.P = F @ self.P @ F.T + Q
            S = self.P[:3, :3] + self.r * eye3
            K = np.linalg.solve(S.T, self.P[:, :3].T).T
            self.x = self.x + K @ (z - self.x[:3])
            self.P = self.P - K @ self.P[:3, :]
        return self.x[:3].copy(), self.x[3:].copy(), self.P.copy()
