"""E1 — PUE and energy: data furnace vs air-cooled datacenter (§II-A).

"CloudandHeat claims a PUE value of 1.026 in some of their datacenters.  This
is better than the one obtained by Google."  We run the identical DCC batch on
(a) a winter DF3 fleet, where every joule lands in rooms that asked for heat,
and (b) a classical air-cooled datacenter, and compare PUE, energy per unit of
work, and the useful-heat dividend.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, mid_month_start, small_city
from repro.hardware.datacenter import Datacenter
from repro.metrics.energy import EnergyReport
from repro.metrics.report import Table
from repro.obs import get_obs
from repro.sim.calendar import DAY
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.workloads.cloud import CloudJobConfig, CloudJobGenerator

__all__ = ["run"]

#: the paper's cited CloudandHeat figure, for the report
CLOUDANDHEAT_CLAIMED_PUE = 1.026


def _batch(seed: int, t0: float, duration: float):
    gen = CloudJobGenerator(
        RngRegistry(seed).stream("e1-batch"),
        CloudJobConfig(rate_per_hour=40.0, mean_core_seconds=900.0, max_cores=4),
    )
    return gen.generate(t0, t0 + duration)


def run(duration_days: float = 1.0, seed: int = 11) -> ExperimentResult:
    """Run the same batch on both substrates; return the PUE/energy table."""
    t0 = mid_month_start(1)  # January: rooms want all the heat we can make
    duration = duration_days * DAY

    # --- (a) DF3 fleet ------------------------------------------------- #
    mw = small_city(seed=seed, start_time=t0, enable_filler=False, dc_nodes=0)
    mw.inject(_batch(seed, t0, duration))
    mw.run_until(t0 + duration + 0.25 * DAY)
    df_report = EnergyReport.from_df_fleet(mw.all_servers, mw.ledger.useful_heat_j)

    # --- (b) air-cooled datacenter ------------------------------------- #
    eng = Engine(start=t0, **get_obs().engine_hooks())
    dc = Datacenter("dc", n_nodes=8, engine=eng, cooling_overhead=0.35,
                    fixed_overhead_w=20.0)
    from repro.hardware.server import Task

    done = []
    for req in _batch(seed, t0, duration):
        eng.schedule_at(
            req.time,
            lambda r=req: dc.submit(
                Task(r.request_id, r.cycles, r.cores,
                     on_complete=lambda t, now: done.append(t.task_id))
            ),
        )
    eng.run_until(t0 + duration + 0.25 * DAY)
    dc_report = EnergyReport.from_datacenter(dc)

    table = Table(
        ["substrate", "pue", "kwh_total", "kwh_per_gigacycle", "useful_heat_fraction"],
        title="E1 — identical DCC batch: data furnace vs air-cooled datacenter",
    )
    table.add_row("df3-fleet (winter)", round(df_report.pue, 3),
                  round(df_report.total_energy_kwh, 2),
                  df_report.kwh_per_gigacycle(),
                  round(df_report.useful_heat_fraction, 3))
    table.add_row("air-cooled dc", round(dc_report.pue, 3),
                  round(dc_report.total_energy_kwh, 2),
                  dc_report.kwh_per_gigacycle(),
                  round(dc_report.useful_heat_fraction, 3))
    text = table.render() + (
        f"\n(reference: CloudandHeat claimed PUE = {CLOUDANDHEAT_CLAIMED_PUE};"
        " DF heat replaces resistive heating joule-for-joule)"
    )
    return ExperimentResult(
        experiment_id="E1",
        title="PUE: data furnace vs air-cooled datacenter (§II-A)",
        text=text,
        data={
            "df_pue": df_report.pue,
            "dc_pue": dc_report.pue,
            "df_useful_heat_fraction": df_report.useful_heat_fraction,
            "dc_useful_heat_fraction": dc_report.useful_heat_fraction,
            "df_completed": len(mw.completed_cloud()),
            "dc_completed": len(done),
        },
    )
