"""The four workloads, by name."""

from benchmarks.e2e.workloads.adhoc_cold import AdhocCold
from benchmarks.e2e.workloads.base import Workload
from benchmarks.e2e.workloads.dashboard_routed import DashboardRouted
from benchmarks.e2e.workloads.stream_ingest import StreamIngest
from benchmarks.e2e.workloads.write_recover import WriteRecover

WORKLOADS = {w.name: w for w in (AdhocCold, DashboardRouted, StreamIngest,
                                 WriteRecover)}


def get(name: str) -> Workload:
    return WORKLOADS[name]()
