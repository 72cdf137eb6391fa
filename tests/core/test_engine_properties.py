"""Property-based tests: serving engines under random workloads.

For arbitrary conversation scripts, arrival patterns and (small) cache
sizes, both the Pensieve engine and the stateless baseline must

- complete every submitted turn (no starvation, no deadlock),
- keep per-request progress consistent (first token before finish,
  generated == scripted outputs),
- and, for Pensieve, keep the cache manager's accounting audit-clean.

The Pensieve property also draws the GPU tier's size, every scheduling
and eviction knob the engine takes and an armed fault plan; there a turn
may fail (a fault past its retries, or a context the GPU tier cannot
hold), and the rest of its conversation is given up with it.
"""

from hypothesis import given, settings, strategies as st

from repro.core import PensieveEngine
from repro.faults import FaultPlan, FaultSite
from repro.serving import Conversation, Turn, make_vllm
from repro.sim import EventLoop
from repro.workload import ConversationDriver

from tests.serving.conftest import TINY, spec_with_capacity

conversation_strategy = st.lists(
    st.lists(
        st.tuples(st.integers(1, 24), st.integers(1, 12)),  # (prompt, output)
        min_size=1,
        max_size=4,
    ),
    min_size=1,
    max_size=6,
)

arrival_strategy = st.lists(
    st.floats(min_value=0.0, max_value=5.0), min_size=6, max_size=6
)

think_strategy = st.floats(min_value=0.0, max_value=3.0)


def build_conversations(scripts, arrivals, think):
    conversations = []
    for conv_id, turns in enumerate(scripts):
        conversations.append(
            Conversation(
                conv_id=conv_id,
                turns=[Turn(p, o) for p, o in turns],
                start_time=arrivals[conv_id % len(arrivals)],
                think_times=[think] * (len(turns) - 1),
            )
        )
    return conversations


def run_workload(engine_factory, conversations):
    loop = EventLoop()
    engine = engine_factory(loop)
    driver = ConversationDriver(loop, engine, conversations)
    driver.run(max_events=3_000_000)
    return engine, driver


def check_progress(engine, conversations):
    total_turns = sum(c.num_turns for c in conversations)
    records = engine.metrics.records
    assert len(records) == total_turns
    for record in records:
        assert record.first_token_time <= record.finish_time
        assert record.first_token_time >= record.arrival_time
        assert record.output_tokens >= 1


@settings(max_examples=60, deadline=None)
@given(
    scripts=conversation_strategy,
    arrivals=arrival_strategy,
    think=think_strategy,
    gpu=st.sampled_from([96, 128, 192, 256]),
    unified=st.booleans(),
    whole=st.booleans(),
    policy=st.sampled_from(["retention", "lru"]),
    fault=st.tuples(st.integers(0, 2**16), st.sampled_from([0.0, 0.05, 0.3, 0.6])),
)
def test_pensieve_completes_every_workload(
    scripts, arrivals, think, gpu, unified, whole, policy, fault
):
    """Every turn ends as a record, a failure, or given up behind its
    conversation's failure, under every knob and fault arming; the
    engine's progress rule (an idle poll that can never admit raises)
    never fires, and the accounting stays audit-clean."""
    conversations = build_conversations(scripts, arrivals, think)
    seed, rate = fault
    plan = None
    if rate:
        plan = FaultPlan(seed=seed, rates={s: rate * s.rate_scale for s in FaultSite})
    engine, driver = run_workload(
        lambda loop: PensieveEngine(
            loop, TINY, spec_with_capacity(gpu), cpu_cache_tokens=128,
            policy=policy, unified=unified, whole_conversation_eviction=whole,
            fault_plan=plan,
        ),
        conversations,
    )
    assert driver.outstanding == 0
    total_turns = sum(c.num_turns for c in conversations)
    given_up = sum(
        r.conversation.num_turns - r.turn_index - 1 for r in engine.failed
    )
    records = engine.metrics.records
    assert len(records) + engine.num_failed + given_up == total_turns
    if plan is None:
        reasons = {failure.reason for failure in engine.metrics.failures}
        assert reasons <= {"context_exceeds_gpu"}, reasons
    for record in records:
        assert record.arrival_time <= record.first_token_time <= record.finish_time
        assert record.output_tokens >= 1
    engine.manager._audit()


@settings(max_examples=30, deadline=None)
@given(scripts=conversation_strategy, arrivals=arrival_strategy, think=think_strategy)
def test_gpu_cache_variant_completes_every_workload(scripts, arrivals, think):
    conversations = build_conversations(scripts, arrivals, think)
    engine, driver = run_workload(
        lambda loop: PensieveEngine(
            loop, TINY, spec_with_capacity(192), cpu_cache_tokens=0
        ),
        conversations,
    )
    assert driver.outstanding == 0
    check_progress(engine, conversations)
    engine.manager._audit()


@settings(max_examples=30, deadline=None)
@given(scripts=conversation_strategy, arrivals=arrival_strategy, think=think_strategy)
def test_vllm_completes_every_workload_and_frees_memory(scripts, arrivals, think):
    conversations = build_conversations(scripts, arrivals, think)
    engine, driver = run_workload(
        lambda loop: make_vllm(loop, TINY, spec_with_capacity(256)),
        conversations,
    )
    assert driver.outstanding == 0
    check_progress(engine, conversations)
    # Stateless: every slot released once the queue drained.
    assert engine.used_tokens == 0


@settings(max_examples=20, deadline=None)
@given(scripts=conversation_strategy, arrivals=arrival_strategy)
def test_pensieve_never_prefills_more_than_stateless(scripts, arrivals):
    """For identical workloads, Pensieve's total prefilled tokens are at
    most the stateless engine's (equality when nothing is cacheable)."""
    conversations = build_conversations(scripts, arrivals, think=1.0)
    pensieve, _ = run_workload(
        lambda loop: PensieveEngine(
            loop, TINY, spec_with_capacity(512), cpu_cache_tokens=1024
        ),
        conversations,
    )
    vllm, _ = run_workload(
        lambda loop: make_vllm(loop, TINY, spec_with_capacity(512)),
        conversations,
    )
    p_prefill = sum(r.prefilled_tokens for r in pensieve.metrics.records)
    v_prefill = sum(r.prefilled_tokens for r in vllm.metrics.records)
    assert p_prefill <= v_prefill
