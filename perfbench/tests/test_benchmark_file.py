"""BENCHMARK.json lists exactly the metrics run.py reports."""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  os.path.join(ROOT, "perfbench", "run.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_metric_lists_agree():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    run = _run_module()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_verify_check_names_match_the_registry():
    from fracfield.quadrature import QuadratureConfig
    from fracfield.verify import default_suite_registry

    run = _run_module()
    assert sorted(default_suite_registry(QuadratureConfig())) == sorted(run.VERIFY_CHECKS)
