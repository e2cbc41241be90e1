"""Set-up time in a fresh interpreter: import, load_scenario, scale_link_masses.

Usage: python3 perfbench/setup_time.py <scenario file>   (src/ on PYTHONPATH)
Prints the seconds from before ``import issf_wbc`` to the plant model, then
the median seconds of KERNELS calibration kernels (calibrate.py) timed after
it, which read the host's speed at that moment.
"""

import sys
import time

start = time.perf_counter()
import issf_wbc  # noqa: E402

scenario = issf_wbc.load_scenario(sys.argv[1])
issf_wbc.scale_link_masses(scenario.robot, scenario.sim.mass_scale)
setup_s = time.perf_counter() - start

import calibrate  # noqa: E402

KERNELS = 8
print(repr(setup_s), repr(calibrate.host_seconds([calibrate.kernel() for _ in range(KERNELS)])))
