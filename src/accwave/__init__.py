"""Traffic-wave simulation and analysis for pure ACC platoons.

Microscopic platoon simulation, closed-form characteristic waves,
shock/engagement-front tracking, a finite-volume solver for the
congested-regime balance law, the vehicle-pair speed-deviation metric,
and Fourier tools for leader oscillation decomposition.  Each lives
in its own module (`accwave.microsim`, `accwave.tracker`, ...), which is
where callers import it from.
"""

__version__ = "0.1.0"
