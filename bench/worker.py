"""One workload run in a fresh interpreter; started by `run.py`.

Usage: python3 bench/worker.py '<json spec>'

The spec names the workload, seed, run length, role and output path.
Roles:

* setup   -- import, warm up and build the inputs, then stop;
* timed   -- set up, then run passes as the workload asks
             (`another_pass`: while the next one fits in the run length,
             and on query-file until the queries have had their rounds),
             then the workload's read-back;
* once    -- set up, then exactly one pass and the read-back;
* traced  -- the same as once, with the tracer installed; the spans are
             written to the spec's `spans` path.

The result is written as JSON to the spec's `out` path.  `ready` is the
CLOCK_MONOTONIC time at which set-up finished, so the parent can measure
set-up from the moment it started this process.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import workloads


def main(spec: dict) -> int:
    tally = workloads.Tally()
    workload = workloads.build(spec["workload"], spec["seed"],
                               Path(spec["artifacts"]), spec["smoke"])
    workload.set_up(tally)
    ready = time.monotonic()
    result = {"ready": ready}
    role = spec["role"]
    if role != "setup":
        tracer = None
        if role == "traced":
            import tracer as tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        passes = []
        while True:
            start = time.monotonic()
            passes.append(workload.run_pass(tally, tracer))
            now = time.monotonic()
            if role != "timed" or not workload.another_pass(now - ready, now - start,
                                                            spec["seconds"]):
                break
        workload.read_back(tally, tracer)
        result.update(workload.times.metrics())
        result.update({
            "pass_wall_s": [p.wall_s for p in passes],
            "wall_s": workload.wall_s(),
            "window_length": max(p.window_length for p in passes),
        })
        if tracer is not None:
            result["layers"] = tracer.layer_totals()
            result["counters"] = tracer.counters
            result["zero_call_entry_points"] = sorted(
                name for name in REQUIRED_CALLS[spec["workload"]]
                if result["layers"].get(name, {}).get("calls", 0) == 0
                and tracer.counters.get(name + ".calls", 0) == 0)
            tracer.write(spec["spans"])
    result.update({"attempted": tally.attempted, "failed": tally.failed,
                   "problems": tally.problems})
    Path(spec["out"]).write_text(json.dumps(result))
    return 0


#: entry points each workload is meant to exercise; a traced run in which
#: one of them records no call fails
_COMPUTE = [
    "ff_linalg.rref_array", "ff_linalg.SolveContext", "ff_linalg.solve_array",
    "resolution.build_cyclic_resolution", "resolution.AlgebraMap.compose",
    "endo_dga.class_of", "endo_dga.nullhomotopy", "endo_dga.compose",
    "endo_dga.differential", "endo_dga.d_matrix", "endo_dga.homology_basis",
    "kadeishvili.compute_arity", "kadeishvili.obstruction",
    "kadeishvili.resolve_product", "kadeishvili.resolve_map",
    "stasheff.verify_structure", "stasheff.check_structure",
    "stasheff.check_morphism", "cli.run", "cli.serialize_structure",
    "cli.dump_structure", "cli.parse_structure", "cli.run_query",
]
REQUIRED_CALLS = {
    "reduced-large": _COMPUTE + ["endo_dga.periodic_compact"],
    "brute-oracle": _COMPUTE,
    "query-file": [
        "cli.parse_structure", "cli.run_query", "kadeishvili.extend_linear",
        "kadeishvili.resolve_product", "kadeishvili.resolve_map",
        "endo_dga.compose", "resolution.AlgebraMap.compose",
    ],
}


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
