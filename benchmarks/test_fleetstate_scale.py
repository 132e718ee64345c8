"""Structure-of-arrays fleet-core scale sweep.

Documents the headline claim of the :mod:`repro.datacenter.fleetstate`
refactor: end-to-end co-simulation (load arbitration + thermal
integration + telemetry + sensor sampling) over the contiguous
fleet-state arrays beats the per-server object path by ≥4× at 512+
servers, and a 1024-server headline scenario completes inside a stated
walltime budget. The sweep writes both a human-readable table and the
machine-readable ``BENCH_fleetstate.json`` (under ``.benchmarks/``, or the
committed ``benchmark_results/`` with ``--regenerate-results``) consumed
by CI trend tracking.

``FLEETSTATE_BENCH_SMOKE=1`` shrinks the sweep for tier-1 runners
(small sizes, shorter horizon, relaxed floor); the nightly
``fleetstate-scale`` job runs the full 128→1024 sweep.
"""

import os
import time

from benchmarks.conftest import record_json, record_table
from repro.experiments.scenarios import (
    build_fleet_simulation,
    diurnal_fleet_scenario,
)

SMOKE = bool(os.environ.get("FLEETSTATE_BENCH_SMOKE"))
SIZES = (16, 32) if SMOKE else (128, 256, 512, 1024)
DURATION_S = 120.0 if SMOKE else 300.0
#: Sizes that must clear the acceptance speedup floor.
GATED_SIZES = () if SMOKE else (512, 1024)
SPEEDUP_FLOOR = 4.0
#: Walltime budget for the largest (headline) SoA run.
BUDGET_S = 20.0 if SMOKE else 60.0


def _timed_run(scenario, use_fleet: bool) -> float:
    sim = build_fleet_simulation(scenario, use_fleet_engine=use_fleet)
    start = time.perf_counter()
    sim.run(DURATION_S)
    return time.perf_counter() - start


def test_fleetstate_scale_sweep():
    """Acceptance: ≥4× end-to-end speedup at 512+ servers; the
    1024-server headline scenario lands inside the walltime budget."""
    rows = []
    for n_servers in SIZES:
        scenario = diurnal_fleet_scenario(
            n_servers=n_servers, duration_s=DURATION_S
        )
        object_s = _timed_run(scenario, use_fleet=False)
        soa_s = _timed_run(scenario, use_fleet=True)
        rows.append(
            {
                "n_servers": n_servers,
                "soa_walltime_s": round(soa_s, 4),
                "object_walltime_s": round(object_s, 4),
                "speedup": round(object_s / soa_s, 2),
            }
        )

    lines = [f"{'servers':>8} {'object s':>10} {'soa s':>8} {'speedup':>8}"]
    for row in rows:
        lines.append(
            f"{row['n_servers']:>8} {row['object_walltime_s']:>10.2f} "
            f"{row['soa_walltime_s']:>8.2f} {row['speedup']:>7.1f}x"
        )
    headline = rows[-1]
    lines.append(
        f"headline: {headline['n_servers']} servers, "
        f"{DURATION_S:.0f}s sim in {headline['soa_walltime_s']:.2f}s "
        f"(budget {BUDGET_S:.0f}s{', smoke scale' if SMOKE else ''})"
    )
    record_table("fleetstate scale sweep (soa vs object path)", "\n".join(lines))
    record_json(
        "BENCH_fleetstate.json",
        {
            "benchmark": "fleetstate-scale",
            "smoke": SMOKE,
            "sim_duration_s": DURATION_S,
            "speedup_floor": SPEEDUP_FLOOR,
            "gated_sizes": list(GATED_SIZES),
            "walltime_budget_s": BUDGET_S,
            "sizes": rows,
            "headline": headline,
        },
    )

    for row in rows:
        if row["n_servers"] in GATED_SIZES:
            assert row["speedup"] >= SPEEDUP_FLOOR, row
    assert headline["soa_walltime_s"] <= BUDGET_S, headline
