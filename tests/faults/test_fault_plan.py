"""Unit tests for the deterministic fault-injection plan and retry policy."""

import dataclasses

import pytest

from repro.faults import (
    SITES,
    ChunkCorruptionError,
    FaultCounters,
    FaultError,
    FaultPlan,
    FaultSite,
    RequestFaultedError,
    RetryPolicy,
    SiteSpec,
    attempt_with_retries,
    site_names,
)


class TestSiteRegistry:
    """The SITES registry is the single source of truth for fault-site
    wire names; the enum and the CLI derive from it."""

    def test_registry_matches_enum_in_order(self):
        # Order matters: per-site RNG streams derive from the ordinal.
        assert site_names() == tuple(s.value for s in FaultSite)

    def test_specs_are_self_consistent(self):
        for name, spec in SITES.items():
            assert isinstance(spec, SiteSpec)
            assert spec.name == name
            assert spec.tier
            assert 0.0 < spec.rate_scale <= 1.0
            assert spec.description

    def test_every_registry_name_constructs_a_site(self):
        for name in site_names():
            assert FaultSite(name).value == name


class TestFaultPlanDeterminism:
    def test_same_seed_same_draws(self):
        a = FaultPlan(seed=5, rates={FaultSite.SWAP_IN: 0.5})
        b = FaultPlan(seed=5, rates={FaultSite.SWAP_IN: 0.5})
        draws_a = [a.fires(FaultSite.SWAP_IN) for _ in range(200)]
        draws_b = [b.fires(FaultSite.SWAP_IN) for _ in range(200)]
        assert draws_a == draws_b
        assert any(draws_a) and not all(draws_a)

    def test_different_seeds_differ(self):
        a = FaultPlan(seed=1, rates={FaultSite.SWAP_IN: 0.5})
        b = FaultPlan(seed=2, rates={FaultSite.SWAP_IN: 0.5})
        assert [a.fires(FaultSite.SWAP_IN) for _ in range(200)] != [
            b.fires(FaultSite.SWAP_IN) for _ in range(200)
        ]

    def test_sites_have_independent_streams(self):
        """Draining one site's stream must not shift another's."""
        a = FaultPlan(seed=9, rates={s: 0.5 for s in FaultSite})
        b = FaultPlan(seed=9, rates={s: 0.5 for s in FaultSite})
        for _ in range(100):
            a.fires(FaultSite.SWAP_OUT)  # extra draws on an unrelated site
        draws_a = [a.fires(FaultSite.CPU_READ) for _ in range(100)]
        draws_b = [b.fires(FaultSite.CPU_READ) for _ in range(100)]
        assert draws_a == draws_b

    def test_rate_zero_never_fires(self):
        plan = FaultPlan(seed=0)
        assert not any(plan.fires(FaultSite.GPU_ALLOC) for _ in range(500))

    def test_rate_one_always_fires(self):
        plan = FaultPlan(seed=0, rates={FaultSite.GPU_ALLOC: 1.0})
        assert all(plan.fires(FaultSite.GPU_ALLOC) for _ in range(50))


class TestFaultPlanSchedules:
    def test_explicit_occurrence_indices(self):
        plan = FaultPlan(seed=0, schedules={FaultSite.SWAP_IN: (0, 3)})
        fired = [plan.fires(FaultSite.SWAP_IN) for _ in range(6)]
        assert fired == [True, False, False, True, False, False]

    def test_schedule_does_not_disturb_rate_stream(self):
        """A scheduled fire still consumes exactly one RNG draw."""
        scheduled = FaultPlan(
            seed=4,
            rates={FaultSite.CPU_READ: 0.3},
            schedules={FaultSite.CPU_READ: (2,)},
        )
        plain = FaultPlan(seed=4, rates={FaultSite.CPU_READ: 0.3})
        a = [scheduled.fires(FaultSite.CPU_READ) for _ in range(40)]
        b = [plain.fires(FaultSite.CPU_READ) for _ in range(40)]
        # Identical except possibly at the scheduled index.
        assert a[2] is True
        assert a[:2] == b[:2] and a[3:] == b[3:]

    def test_max_failures_caps_fires(self):
        plan = FaultPlan(
            seed=0,
            rates={FaultSite.SWAP_OUT: 1.0},
            max_failures={FaultSite.SWAP_OUT: 3},
        )
        fired = [plan.fires(FaultSite.SWAP_OUT) for _ in range(10)]
        assert sum(fired) == 3
        assert fired[:3] == [True, True, True]

    def test_counting(self):
        plan = FaultPlan(seed=0, schedules={FaultSite.SWAP_IN: (1,)})
        for _ in range(4):
            plan.fires(FaultSite.SWAP_IN)
        assert plan.occurrences[FaultSite.SWAP_IN] == 4
        assert plan.fired[FaultSite.SWAP_IN] == 1
        assert plan.total_fired == 1

    def test_quiet_plan_never_fires(self):
        plan = FaultPlan.quiet()
        assert not any(plan.fires(s) for s in FaultSite for _ in range(20))


class TestRetryPolicy:
    def test_backoffs_grow_geometrically(self):
        policy = RetryPolicy(max_retries=3, base_backoff=0.01, multiplier=2.0)
        assert list(policy.backoffs()) == pytest.approx([0.01, 0.02, 0.04])
        assert policy.total_backoff == pytest.approx(0.07)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.0)

    def test_attempt_success_first_try(self):
        plan = FaultPlan(seed=0)  # never fires
        counters = FaultCounters()
        ok, retries, delay = attempt_with_retries(
            plan, FaultSite.GPU_ALLOC, RetryPolicy(), counters
        )
        assert (ok, retries, delay) == (True, 0, 0.0)
        assert counters.total == 0

    def test_attempt_recovers_after_transient(self):
        # Occurrences 0 and 1 fail, 2 succeeds.
        plan = FaultPlan(seed=0, schedules={FaultSite.GPU_ALLOC: (0, 1)})
        policy = RetryPolicy(max_retries=3, base_backoff=0.01, multiplier=2.0)
        counters = FaultCounters()
        ok, retries, delay = attempt_with_retries(
            plan, FaultSite.GPU_ALLOC, policy, counters
        )
        assert ok
        assert retries == 2
        assert delay == pytest.approx(0.01 + 0.02)
        assert (counters.retries, counters.alloc_faults) == (2, 1)

    def test_attempt_exhausts_retries(self):
        plan = FaultPlan(seed=0, schedules={FaultSite.GPU_ALLOC: (0, 1, 2, 3)})
        policy = RetryPolicy(max_retries=3, base_backoff=0.01, multiplier=2.0)
        counters = FaultCounters()
        ok, retries, delay = attempt_with_retries(
            plan, FaultSite.GPU_ALLOC, policy, counters
        )
        assert not ok
        assert retries == 3
        assert delay == pytest.approx(policy.total_backoff)
        assert (counters.retries, counters.alloc_faults) == (3, 1)

    @pytest.mark.parametrize(
        "site, counter",
        [(FaultSite.GPU_ALLOC, "alloc_faults"), (FaultSite.NVME_STALL, "nvme_stalls"),
         (FaultSite.SWAP_IN, None)],
    )
    def test_attempt_counts_sites_that_faulted_at_all(self, site, counter):
        """One fault, retried or not, is one count at its own site's
        counter; a transfer site has none (its terminal failures count
        where the caller degrades)."""
        for max_retries in (0, 3):
            counters = FaultCounters()
            plan = FaultPlan(seed=0, schedules={site: (0,)})
            attempt_with_retries(plan, site, RetryPolicy(max_retries), counters)
            expected = {} if counter is None else {counter: 1}
            if max_retries:
                expected["retries"] = 1  # the first retry succeeds
            assert {k: v for k, v in counters.as_dict().items() if v} == expected


class TestFaultCounters:
    def test_starts_at_zero(self):
        counters = FaultCounters()
        assert counters.total == 0
        assert all(v == 0 for v in counters.as_dict().values())

    def test_as_dict_keys(self):
        d = FaultCounters().as_dict()
        for key in (
            "swap_in_failures",
            "swap_out_failures",
            "alloc_faults",
            "corrupted_chunks",
            "recompute_fallbacks",
            "retries",
            "degraded_requests",
            "worker_stalls",
        ):
            assert key in d

    def test_total_sums_fields(self):
        counters = FaultCounters()
        counters.retries = 3
        counters.swap_in_failures = 2
        assert counters.total == 5


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(ChunkCorruptionError, FaultError)
        assert issubclass(RequestFaultedError, FaultError)
        assert issubclass(FaultError, RuntimeError)

    def test_messages_carry_context(self):
        err = ChunkCorruptionError(conv_id=7, chunk_index=3)
        assert "7" in str(err) and "3" in str(err)
        req = RequestFaultedError(conv_id=9, site=FaultSite.GPU_ALLOC, attempts=4)
        assert "9" in str(req) and "4" in str(req)
