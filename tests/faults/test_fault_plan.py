"""Unit tests for the deterministic fault-injection plan and retry budget."""

import dataclasses

import pytest

from repro.faults import (
    ChunkCorruptionError,
    FaultCounters,
    FaultError,
    FaultPlan,
    FaultSite,
    RequestFaultedError,
    attempt_with_retries,
)
from repro.faults.retry import BACKOFFS, MAX_RETRIES


class TestSiteRegistry:
    def test_rate_scale_matches_the_old_table(self):
        """The enum is the one declaration of every site.  Its order fixes
        each site's RNG stream, and its rate scales are the ones the CLI
        and the digest rows have always armed."""
        assert [(s.value, s.rate_scale) for s in FaultSite] == [
            ("swap_in", 1.0),
            ("swap_out", 1.0),
            ("gpu_alloc", 1.0),
            ("cpu_read", 0.25),
            ("worker_step", 0.25),
        ]


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

    def test_counting(self):
        plan = FaultPlan(seed=0, schedules={FaultSite.SWAP_IN: (1,)})
        for _ in range(4):
            plan.fires(FaultSite.SWAP_IN)
        assert plan.occurrences[FaultSite.SWAP_IN] == 4
        assert plan.fired[FaultSite.SWAP_IN] == 1
        assert sum(plan.fired.values()) == 1

    def test_quiet_plan_never_fires(self):
        plan = FaultPlan(seed=0)
        assert not any(plan.fires(s) for s in FaultSite for _ in range(20))


class TestRetryPolicy:
    def test_backoffs_grow_geometrically(self):
        """Three retries, after 2, 4 and 8 ms: the exact floats the
        doubling loop produced, so the sim clock's backoff sums hold."""
        assert MAX_RETRIES == 3
        assert BACKOFFS == (0.002, 0.004, 0.008)

    def test_attempt_success_first_try(self):
        plan = FaultPlan(seed=0)  # never fires
        counters = FaultCounters()
        ok, retries, delay = attempt_with_retries(plan, FaultSite.GPU_ALLOC, counters)
        assert (ok, retries, delay) == (True, 0, 0.0)
        assert counters == FaultCounters()

    def test_attempt_recovers_after_transient(self):
        # Occurrences 0 and 1 fail, 2 succeeds.
        plan = FaultPlan(seed=0, schedules={FaultSite.GPU_ALLOC: (0, 1)})
        counters = FaultCounters()
        ok, retries, delay = attempt_with_retries(plan, FaultSite.GPU_ALLOC, counters)
        assert ok
        assert retries == 2
        assert delay == 0.002 + 0.004
        assert (counters.retries, counters.alloc_faults) == (2, 1)

    def test_attempt_exhausts_retries(self):
        plan = FaultPlan(seed=0, schedules={FaultSite.GPU_ALLOC: (0, 1, 2, 3)})
        counters = FaultCounters()
        ok, retries, delay = attempt_with_retries(plan, FaultSite.GPU_ALLOC, counters)
        assert not ok
        assert retries == 3
        assert delay == 0.002 + 0.004 + 0.008
        assert (counters.retries, counters.alloc_faults) == (3, 1)

    @pytest.mark.parametrize(
        "site, counter",
        [(FaultSite.GPU_ALLOC, "alloc_faults"), (FaultSite.SWAP_IN, None)],
    )
    def test_attempt_counts_sites_that_faulted_at_all(self, site, counter):
        """One fault, recovered or terminal, is one count at its own
        site's counter; a transfer site has none (its terminal failures
        count where the caller degrades)."""
        for faults in (1, 4):
            counters = FaultCounters()
            plan = FaultPlan(seed=0, schedules={site: range(faults)})
            ok, _, _ = attempt_with_retries(plan, site, counters)
            assert ok is (faults == 1)
            expected = {} if counter is None else {counter: 1}
            expected["retries"] = min(faults, MAX_RETRIES)
            assert {k: v for k, v in counters.as_dict().items() if v} == expected


class TestFaultCounters:
    def test_starts_at_zero(self):
        counters = FaultCounters()
        assert all(v == 0 for v in counters.as_dict().values())

    def test_as_dict_keys(self):
        """The keys the ledgers, the ``simulate`` output and the digest
        rows read, in order."""
        assert list(FaultCounters().as_dict()) == [
            "swap_in_failures",
            "swap_out_failures",
            "alloc_faults",
            "corrupted_chunks",
            "recompute_fallbacks",
            "retries",
            "degraded_requests",
            "worker_stalls",
        ]

    def test_total_sums_fields(self):
        counters = FaultCounters()
        counters.retries = 3
        counters.swap_in_failures = 2
        assert sum(counters.as_dict().values()) == 5
        assert counters.as_dict()["retries"] == 3


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
