"""Property-based tests for the roofline cost model."""

from hypothesis import given, settings, strategies as st

from repro.gpu import A100_80GB, BatchShape, CostModel, KernelVariant
from repro.gpu.costmodel import causal_attention_flop_tokens
from repro.model import LLAMA2_13B, LLAMA2_70B, OPT_13B, OPT_66B

MODELS = [OPT_13B, LLAMA2_13B]

batch_items = st.lists(
    st.tuples(st.integers(1, 64), st.integers(0, 4096)).map(
        lambda t: (t[0], t[0] + t[1])  # context >= query
    ),
    min_size=1,
    max_size=16,
)


@settings(max_examples=80, deadline=None)
@given(items=batch_items, model=st.sampled_from(MODELS))
def test_iteration_time_positive_and_finite(items, model):
    cm = CostModel(model, A100_80GB)
    shape = BatchShape.of(items)
    t = cm.iteration_time(shape)
    assert 0 < t < 3600


@settings(max_examples=80, deadline=None)
@given(items=batch_items, model=st.sampled_from(MODELS))
def test_adding_a_request_never_speeds_up_the_iteration(items, model):
    cm = CostModel(model, A100_80GB)
    base = cm.iteration_time(BatchShape.of(items))
    bigger = cm.iteration_time(BatchShape.of(items + [(8, 512)]))
    assert bigger >= base


@settings(max_examples=80, deadline=None)
@given(
    items=batch_items,
    model=st.sampled_from(MODELS),
    growth=st.integers(1, 2048),
)
def test_longer_context_never_cheaper(items, model, growth):
    cm = CostModel(model, A100_80GB)
    grown = [(q, c + growth) for q, c in items]
    assert cm.attention_time(BatchShape.of(grown)) >= cm.attention_time(
        BatchShape.of(items)
    )


@settings(max_examples=80, deadline=None)
@given(items=batch_items, model=st.sampled_from(MODELS))
def test_variant_ordering_holds_for_all_shapes(items, model):
    """Pensieve <= ideal <= copyout, and multiround >= ideal, always."""
    cm = CostModel(model, A100_80GB)
    shape = BatchShape.of(items)
    ideal = cm.attention_time(shape, KernelVariant.IDEAL_CONTIGUOUS)
    pensieve = cm.attention_time(shape, KernelVariant.PENSIEVE_PAGED)
    copyout = cm.attention_time(shape, KernelVariant.COPYOUT)
    multiround = cm.attention_time(shape, KernelVariant.MULTIROUND_PAGED)
    assert pensieve <= ideal <= copyout
    assert multiround >= ideal


@settings(max_examples=80, deadline=None)
@given(
    compute=st.floats(min_value=1e-6, max_value=10.0),
    transfer=st.floats(min_value=0.0, max_value=10.0),
    layers=st.integers(1, 128),
)
def test_pipelined_time_bounds(compute, transfer, layers):
    """Pipelining is never worse than serialization and never better than
    the slower of the two stages."""
    t = CostModel.pipelined_time(compute, transfer, layers)
    assert t <= compute + transfer + 1e-12
    assert t >= max(compute, transfer) - 1e-12


@settings(max_examples=60, deadline=None)
@given(
    tokens=st.integers(1, 8192),
    swap_bytes=st.floats(min_value=0, max_value=1e9),
    model=st.sampled_from(MODELS),
)
def test_pipelined_swap_never_slower_than_blocking(tokens, swap_bytes, model):
    cm = CostModel(model, A100_80GB)
    compute = cm.iteration_time(BatchShape.uniform(4, 1, tokens))
    transfer = swap_bytes / A100_80GB.pcie_bandwidth
    pipelined = CostModel.pipelined_time(compute, transfer, model.num_layers)
    assert pipelined <= compute + transfer + 1e-12


@settings(max_examples=150, deadline=None)
@given(
    decodes=st.lists(st.integers(1, 16384), max_size=64),
    prefills=batch_items,
    model=st.sampled_from(MODELS + [OPT_66B, LLAMA2_70B]),
)
def test_ideal_attention_time_is_the_float_formula_exactly(decodes, prefills, model):
    """The integer sums equal summing ``causal_attention_flop_tokens`` and
    ``context * kv_bytes_per_token`` as before, to the last bit, on batches
    mixing decode and prefill items (one and four GPUs)."""
    cm = CostModel(model, A100_80GB)
    shape = BatchShape.of([(1, c) for c in decodes] + prefills)
    config, spec = model, A100_80GB
    flop_tokens = sum(causal_attention_flop_tokens(q, c) for q, c in shape.items)
    flops = 2.0 * 2.0 * config.hidden_size * config.num_layers * flop_tokens / config.num_gpus
    kv_bytes = sum(c * config.kv_bytes_per_token for _, c in shape.items) / config.num_gpus
    expected = max(
        flops / spec.effective_flops, kv_bytes / spec.effective_hbm_bandwidth
    ) + config.num_layers * spec.kernel_launch_overhead
    assert cm._ideal_attention_time(shape) == expected


#: A batch item, valid or not: counts may be negative, exceed the
#: context, or be fractional.
any_count = st.one_of(
    st.integers(-2, 4096), st.floats(-2.0, 4096.0), st.just(float("nan"))
)


def _price_or_refusal(build, cm, variant):
    """``cm.iteration_time`` of the built shape, or the refusal's type."""
    try:
        shape = build()
    except (TypeError, ValueError) as refusal:
        return type(refusal)
    return cm.iteration_time(shape, variant)


@settings(max_examples=150, deadline=None)
@given(
    decodes=st.lists(st.integers(1, 16384), max_size=64),
    prefills=st.one_of(st.just([]), batch_items),
    model=st.sampled_from(MODELS + [OPT_66B, LLAMA2_70B]),
    variant=st.sampled_from(list(KernelVariant)),
)
def test_summed_decode_contexts_price_like_explicit_items(
    decodes, prefills, model, variant
):
    """A shape given its decoders as ``decode_contexts`` prices to the
    bit what the explicit ``(1, c)`` items price to, under every kernel
    variant, and has the same items, length and totals."""
    cm = CostModel(model, A100_80GB)
    given_prefills, given_decodes = list(prefills), list(decodes)
    summed = BatchShape(given_prefills, given_decodes)
    explicit = BatchShape.of([(1, c) for c in decodes] + prefills)
    assert summed.items == explicit.items
    assert len(summed) == len(explicit)
    for total in ("total_query_tokens", "flop_tokens", "context_tokens"):
        assert getattr(summed, total) == getattr(explicit, total)
    assert cm.iteration_time(summed, variant) == cm.iteration_time(explicit, variant)
    # The shape keeps its own copy: changing the caller's list afterwards
    # moves neither its items nor its totals.
    before = (summed.items, summed.total_query_tokens, summed.flop_tokens,
              summed.context_tokens, hash(summed))
    given_decodes.append(7)
    given_prefills.append((1, 1))
    assert (summed.items, summed.total_query_tokens, summed.flop_tokens,
            summed.context_tokens, hash(summed)) == before


@settings(max_examples=150, deadline=None)
@given(
    decodes=st.lists(st.integers(1, 4096), max_size=8),
    bad=any_count,
    at=st.integers(0, 8),
    prefill=st.tuples(any_count, any_count),
)
def test_summed_and_explicit_shapes_refuse_the_same_input(decodes, bad, at, prefill):
    """One possibly invalid count at a time (zero, negative or
    fractional), as a decode context or in a prefill item: both forms
    accept it and price alike, or refuse it with the same exception."""
    cm = CostModel(OPT_13B, A100_80GB)
    with_bad = decodes[:at] + [bad] + decodes[at:]
    cases = [
        ((), with_bad, ()),
        ((prefill,), decodes, (prefill,)),
    ]
    for prefills, contexts, tail in cases:
        summed = _price_or_refusal(
            lambda: BatchShape(prefills, contexts), cm, KernelVariant.PENSIEVE_PAGED
        )
        explicit = _price_or_refusal(
            lambda: BatchShape(tuple((1, c) for c in contexts) + tail),
            cm, KernelVariant.PENSIEVE_PAGED,
        )
        assert summed == explicit
