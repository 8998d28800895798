#!/usr/bin/env python3
"""Latency anatomy: where every nanosecond of each scheme goes.

Reconstructs the paper's §3 argument from the calibrated cost models —
no simulation, just the arithmetic the simulator executes — and then
validates the totals against measured single-client latencies.

Run:  python examples/latency_anatomy.py
"""

from repro.analysis.stats import fmt_ns
from repro.analysis.tables import Table, banner
from repro.baselines.base import BaseServer
from repro.crc.cost import CrcCostModel
from repro.harness.runner import RunSpec, run_experiment
from repro.nvm.device import NVMTiming
from repro.rdma.latency import FabricTiming
from repro.workloads.ycsb import update_only, ycsb_c

SIZE = 4096


def analytic() -> None:
    t = FabricTiming()
    n = NVMTiming()
    crc = CrcCostModel()

    one_sided_small = t.one_sided_rtt_ns(64)
    one_sided_data = t.one_sided_rtt_ns(SIZE)
    rpc_rtt = (
        2 * (t.nic_tx_ns + t.one_way_ns(64) + t.nic_rx_ns)
        + t.two_sided_rx_cost(64)
        + t.two_sided_rx_ns
    )

    print(banner(f"Cost-model anatomy at {SIZE} B values"))
    table = Table(["component", "cost"])
    table.add("one-sided verb (small)", fmt_ns(one_sided_small))
    table.add(f"one-sided verb ({SIZE}B payload)", fmt_ns(one_sided_data))
    table.add("SEND-based RPC round trip (wire only)", fmt_ns(rpc_rtt))
    table.add("server handler dispatch", fmt_ns(BaseServer.dispatch_ns))
    table.add(f"CRC over {SIZE}B (the Fig 2 villain)", fmt_ns(crc.cost_ns(SIZE)))
    table.add(f"NVM flush of {SIZE}B (CLWB sweep + fence)", fmt_ns(n.flush_cost(SIZE)))
    table.add(f"NVM memcpy of {SIZE}B (RPC's extra pass)", fmt_ns(n.copy_cost(SIZE)))
    print(table.render())

    print(
        "\nWhy the paper's designs behave as they do:\n"
        f"  CA PUT    = alloc RPC + one-sided WRITE           (no flush anywhere)\n"
        f"  SAW PUT   = CA + another RPC + synchronous flush  (worst of Fig 1)\n"
        f"  IMM PUT   = CA with imm + synchronous flush       (~RPC in Fig 1)\n"
        f"  Erda GET  = 2 READs + client CRC                  (Fig 2: CRC ~45%)\n"
        f"  Forca GET = RPC + server CRC + flush + READ       (Fig 2: CRC ~35%)\n"
        f"  eFactory  = CA PUT; GET = 2 READs + a flag check  (CRC off-path)\n"
    )


def measured() -> None:
    print(banner("Measured single-client medians (validates the table)"))
    table = Table(["system", "PUT p50", "GET p50"])
    for store in ("ca", "saw", "imm", "rpc", "erda", "forca", "efactory"):
        put = run_experiment(
            RunSpec(
                store=store,
                workload=update_only(value_len=SIZE, key_count=64),
                n_clients=1,
                ops_per_client=120,
                warmup_ops=20,
            )
        )
        get = run_experiment(
            RunSpec(
                store=store,
                workload=ycsb_c(value_len=SIZE, key_count=64),
                n_clients=1,
                ops_per_client=120,
                warmup_ops=20,
            )
        )
        table.add(
            store,
            fmt_ns(put.latency.median("put")),
            fmt_ns(get.latency.median("get")),
        )
    print(table.render())


if __name__ == "__main__":
    analytic()
    measured()
