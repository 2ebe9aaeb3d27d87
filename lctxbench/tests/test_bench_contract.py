import json

import run
import tracing

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_what_the_runs_report():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        list(tracing.PER_LAYER)
    assert set(run.GENERIC) == set(run.WORKLOAD_NAMES)
