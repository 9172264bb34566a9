"""Tests for building engine grid cases from case-study scenarios."""

from repro.casestudy.grid import CaseStudyGrid, scenario_case
from repro.core import CaseStudyParameters
from repro.core.parameters import ALPHA_VALUES
from repro.core.scenarios import CITY_PAIRS
from repro.expressions import parser

REDUCED = CaseStudyParameters(required_running_vms=1)


def test_rate_only_variants_reuse_parsed_guards(monkeypatch):
    """A Figure 7 sweep rebuilds one net per case; its guards parse once."""
    scenarios = CaseStudyGrid(
        city_sets=tuple(CITY_PAIRS),
        alphas=ALPHA_VALUES,
        disaster_years=(100.0, 200.0, 300.0),
        machines_per_datacenter=(1,),
        backup=(True,),
    ).scenarios()
    # The warm-up build parses whatever earlier tests left unparsed.
    first = scenario_case(scenarios[0], parameters=REDUCED)
    tokenized = []
    real_tokenize = parser.tokenize

    def counting_tokenize(source):
        tokenized.append(source)
        return real_tokenize(source)

    monkeypatch.setattr(parser, "tokenize", counting_tokenize)
    variants = [scenario_case(scenario, parameters=REDUCED) for scenario in scenarios[1:11]]
    assert all(case.net.place_names == first.net.place_names for case in variants)
    assert tokenized == []
