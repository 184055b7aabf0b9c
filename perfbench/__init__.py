"""Same-host performance benchmark for the DisQ planner and serving tier.

Run it from the repository root::

    python3 perfbench/run.py --workload serve_scan --seed 1 --seconds 25 --trace 0

``run.py`` is the entry point; ``workloads`` holds the four seeded
traffic shapes, ``harness`` the timed passes and correctness checks,
``spans`` the traced run's span recorder and self-time arithmetic, and
``stats`` the percentile and error arithmetic.  ``WORKLOADS.md`` records
why each workload exists and which layer each should stress.
"""
