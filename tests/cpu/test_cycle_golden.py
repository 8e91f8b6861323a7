"""Golden digests of absolute cycle-tier outputs.

The equality suites compare engine legs with each other, so a change to
``Core.step`` that shifts timing the same way on every leg passes them.
These digests pin what the naive stepper itself produces: the full
``run_scenario`` view (halt states, final cycle, per-core stats, trace) of
generated scenarios, and the §2 mechanism-cost table.  Update a digest only
for a deliberate, documented change to the timing model.
"""

import hashlib
import json

from repro.experiments.sec2_costs import run_mechanism_costs
from repro.scenario.fuzz import run_scenario
from repro.scenario.generate import ScenarioGenerator

#: Root-seed-0 scenarios 0-15, naive leg.
SCENARIO_VIEWS = "3913f997108228b3847a5f547b22b8da82cd86058cce0cde9303762c865226f2"
#: ``run_mechanism_costs(quick=True)``.
MECHANISM_COSTS = "ea7aef1cfc33c890987f6debf4819bc72f9ba3379151ff6f4823cb18145e189e"


def _sha(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_naive_scenario_views_are_golden():
    generator = ScenarioGenerator(0)
    views = [run_scenario(generator.generate(i), "naive") for i in range(16)]
    assert _sha(views) == SCENARIO_VIEWS


def test_mechanism_costs_are_golden():
    assert _sha(run_mechanism_costs(quick=True)) == MECHANISM_COSTS
