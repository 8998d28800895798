"""Open-loop multi-tenant load engine (thousand-client scale-out)."""

from repro.loadgen.arrivals import ArrivalCurve
from repro.loadgen.engine import LoadReport, LoadSpec, TenantResult, run_load
from repro.loadgen.tenants import TenantSpec

__all__ = [
    "ArrivalCurve",
    "LoadReport",
    "LoadSpec",
    "TenantResult",
    "TenantSpec",
    "run_load",
]
