"""Unit tests for the fused-stack cache in :mod:`repro.core.scoring`."""

import numpy as np
import pytest

from repro.core.scoring import FusedStackCache, FusedStacks
from repro.ml.base import LinearDecisionRule


def rule(d=3, seed=0):
    rng = np.random.default_rng(seed)
    return LinearDecisionRule(
        mean=rng.normal(0.0, 1.0, d),
        scale=np.abs(rng.normal(1.0, 0.1, d)),
        x_offset=rng.normal(0.0, 1.0, d),
        coef=rng.normal(0.0, 1.0, d),
        y_offset=float(rng.normal()),
        sign=1.0 if seed % 2 == 0 else -1.0,
        accept_on_nonnegative=seed % 2 == 0,
    )


def sorted_rules(*seeds, d=3):
    return sorted((rule(d=d, seed=seed) for seed in seeds), key=id)


class TestFusedStacks:
    def test_build_stacks_parameters_row_per_rule(self):
        rules = sorted_rules(1, 2, 3)
        stacks = FusedStacks.build(rules)
        assert stacks.mean.shape == (3, 3)
        assert stacks.coef.shape == (3, 3)
        assert stacks.y_offset.shape == (3,)
        for index, one in enumerate(rules):
            np.testing.assert_array_equal(stacks.mean[index], one.mean)
            np.testing.assert_array_equal(stacks.coef[index], one.coef)


class TestFusedStackCache:
    def test_same_rule_set_hits_and_returns_the_same_entry(self):
        cache = FusedStackCache()
        rules = sorted_rules(1, 2)
        first = cache.stacks_for(rules)
        second = cache.stacks_for(rules)
        assert first is second
        assert cache.hits == 1
        assert cache.misses == 1
        assert len(cache) == 1

    def test_different_rule_sets_occupy_different_entries(self):
        cache = FusedStackCache()
        a, b = sorted_rules(1, 2), sorted_rules(3, 4)
        assert cache.stacks_for(a) is not cache.stacks_for(b)
        assert len(cache) == 2
        assert cache.misses == 2

    def test_lru_eviction_bounds_the_entry_count(self):
        cache = FusedStackCache(max_entries=2)
        sets = [sorted_rules(seed) for seed in (1, 2, 3)]
        entries = [cache.stacks_for(rules) for rules in sets]
        assert len(cache) == 2
        # The oldest set (index 0) was evicted; re-requesting it misses and
        # rebuilds, while the newer two still hit.
        assert cache.stacks_for(sets[1]) is entries[1]
        rebuilt = cache.stacks_for(sets[0])
        assert rebuilt is not entries[0]
        assert cache.misses == 4
        assert cache.hits == 1

    def test_entries_keep_rules_alive_for_key_stability(self):
        import gc

        cache = FusedStackCache()
        entry = cache.stacks_for(sorted_rules(7, 8))  # rules local to the call
        gc.collect()
        # The entry's strong refs keep the rules (and their ids) alive, so
        # the same key still resolves to the same stacks.
        assert cache.stacks_for(sorted(entry.rules, key=id)) is entry
        assert cache.hits == 1

    def test_clear_drops_entries_but_keeps_statistics(self):
        cache = FusedStackCache()
        rules = sorted_rules(1)
        cache.stacks_for(rules)
        cache.clear()
        assert len(cache) == 0
        assert cache.misses == 1
        cache.stacks_for(rules)
        assert cache.misses == 2

    def test_rejects_degenerate_capacity(self):
        with pytest.raises(ValueError, match="max_entries"):
            FusedStackCache(max_entries=0)
