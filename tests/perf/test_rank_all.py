"""``PipelineResult.rank_all``: the batch sweep equals the per-unit
rankings, keys global metrics once, and validates metric names."""

import pytest

from repro import (
    GeneratorConfig,
    generate_world,
    run_pipeline,
    small_profiles,
)

SMALL = GeneratorConfig(profiles=small_profiles(), clique_homes=("US", "US", "SE", "JP"))


@pytest.fixture(scope="module")
def result():
    return run_pipeline(generate_world(SMALL, seed=1, name="small"))


class TestRankAll:
    def test_matches_individual_rankings(self, result):
        countries = result.countries_with_national_view()[:2]
        sweep = result.rank_all(("CCI", "AHN", "CTI"), countries)
        assert set(sweep) == {
            (metric, country)
            for metric in ("CCI", "AHN", "CTI")
            for country in countries
        }
        for (metric, country), ranking in sweep.items():
            assert ranking == result.ranking(metric, country)

    def test_global_metric_keyed_once(self, result):
        sweep = result.rank_all(("CCG",), ["US", "SE"])
        assert list(sweep) == [("CCG", None)]
        assert sweep[("CCG", None)] == result.ranking("CCG")

    def test_rejects_unknown_metric(self, result):
        with pytest.raises(ValueError, match="unknown metric"):
            result.rank_all(("XXX",))
