"""Scale-up performance harness: scenarios, sweeps, and throughput scoring.

The ROADMAP's north star is a server that runs "as fast as the hardware
allows" under heavy traffic.  This package is the measurement side of
that claim: :mod:`repro.perf.scenarios` builds synthetic §3.4 service
workloads at chosen scale points (streams × blocks per stream × drive
configuration), and :mod:`repro.perf.sweep` fans grids of those
scenarios across worker processes with :mod:`concurrent.futures`.

The package is simulation-throughput oriented — it times how fast the
*simulator* chews through service rounds (blocks/sec of wall clock), not
the simulated continuity outcome, which the scenario result carries
alongside for sanity checking.
"""

from repro.perf.cluster_scenarios import (
    ClusterScaleResult,
    run_cluster_scale_bench,
)
from repro.perf.scenarios import (
    DRIVE_CONFIGS,
    ObsOverheadResult,
    ScaleResult,
    ScaleScenario,
    run_obs_overhead_scenario,
    run_scale_scenario,
)
from repro.perf.server_scenarios import (
    ServerCompareResult,
    run_server_compare_scenario,
)
from repro.perf.sweep import SweepReport, run_sweep, scale_grid

__all__ = [
    "DRIVE_CONFIGS",
    "ClusterScaleResult",
    "ObsOverheadResult",
    "ScaleScenario",
    "ScaleResult",
    "ServerCompareResult",
    "run_cluster_scale_bench",
    "run_obs_overhead_scenario",
    "run_scale_scenario",
    "run_server_compare_scenario",
    "SweepReport",
    "run_sweep",
    "scale_grid",
]
