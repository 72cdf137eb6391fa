"""Repo invariants that no behavioural test notices when broken.

- *Sim-clock purity.*  Code that runs on the discrete-event clock never
  reads the wall clock.  A wall-clock read that only feeds a log moves no
  simulated output, so no run-based test fails on it; seeded runs stay
  byte-reproducible only while these trees import neither ``time`` nor
  ``datetime``.  Wall-clock measurement lives in ``repro.obs``.
- *Fault draws stay on the ladder.*  ``.fires()`` is called only in the
  modules that own the retry → recompute → per-request-failure ladder,
  so every modeled I/O failure is recoverable.  A transfer primitive in
  ``repro.gpu`` that drew a fault itself would fail outside the ladder,
  on a path no fault-armed test happens to reach.
- *One dtype.*  The functional model computes in its KV storage's
  dtype.  A float64 norm gain, bias or RoPE table would upcast a float32
  forward back to float64 without moving a token — only the serving
  benchmark's wall clock would see it — so a spy on the projections and
  both attention kernels checks every activation a float32 server makes.
- *A decode step's dispatch budget.*  A decode step pays per numpy call,
  not per FLOP.  Per layer it makes 4 projection calls (fused QKV, o,
  fused gate-up, down), 1 RoPE rotation and 1 decode attention call; an
  unfused projection would leave every token as it is and only cost
  wall time.
- *A decode step's scaffolding budget.*  What a steady-state decode step
  derives from its batch's shape is derived from the packed batch, once:
  it builds no ``ForwardRequest``, calls no ``BlockTable.slots_array``
  (each row grew by one slot, one ``slot`` lookup), and builds one
  stale-row index for all its layers.  Per-row or per-layer rebuilding
  leaves every bit as it is, so only this count sees it.
- *A settings budget.*  Every value a caller can set on the engines, the
  server, the cache manager, the transformer, the backend's four kernel
  entry points, the fault plan and its retry ladder, the histograms, the
  serving runner, the curve query and ``BatchConfig`` is listed in
  :data:`SETTINGS`, within :data:`SETTINGS_BUDGET`.  Each setting
  doubles the configurations tests and benchmarks must cover, and one
  that only tests set goes unnoticed by every run-based test; a PR that
  adds one edits the list and names the caller (in ``src/``,
  ``benchmarks/``, ``examples/`` or the CLI) that needs it.
- *One chunk size.*  The engine, the server, the cache manager and the
  offline profile default to ``CHUNK_SIZE``; a second default would let
  the simulated and the functional caches evict at different sizes.
- *Every module has a reader.*  Each module under ``src/repro`` defines
  a public top-level name that some other file in ``src/``,
  ``benchmarks/`` or ``examples/`` uses; its own package ``__init__``
  re-exporting it does not count.  A module that only tests read passes
  every test while it drifts from the code that runs.
- *Telemetry off is ``None``.*  A tracer, histogram set or flight
  recorder that is off is ``None``, and sites test ``is not None``; no
  ``Null*`` class and no ``.enabled`` flag (read, or duck-typed through
  ``getattr``) may bring back a second off-state, which an unarmed run
  would silently call into.
"""

import ast
import dataclasses
import inspect
from collections import Counter
from pathlib import Path

import numpy as np

from repro.backends import Backend
from repro.core.engine import PensieveEngine
from repro.core.server import StatefulChatServer
from repro.experiments.common import run_serving_once, throughput_at_latency
from repro.faults import FaultPlan, attempt_with_retries
from repro.gpu.device import A100_80GB
from repro.gpu.profiler import OfflineProfiler
from repro.kernels.packed_cache import PackedDecodeCache
from repro.kvcache.manager import CHUNK_SIZE, TieredCacheManager
from repro.kvcache.pages import BlockTable
from repro.model import OPT_13B, tiny_llama_config, tiny_opt_config
from repro.model import transformer
from repro.model.layers import Linear
from repro.obs.histogram import Histogram, HistogramSet
from repro.serving.batching import BatchConfig
from repro.serving.engine import EngineBase
from repro.sim import EventLoop

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Trees that run on the simulated clock.
SIM_CLOCK_TREES = ("sim", "core", "serving", "kvcache", "gpu")
WALL_CLOCK_MODULES = frozenset({"time", "datetime"})

#: The modules that own the recovery ladder, relative to ``src/repro``.
LADDER_OWNERS = (
    "faults/",
    "core/engine.py",
    "kvcache/manager.py",
    "kvcache/storage.py",
)


def _modules(*trees):
    """``(path relative to src/repro, parsed module)`` for every file."""
    for tree in trees:
        for path in sorted((SRC / tree).rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            yield rel, ast.parse(path.read_text(encoding="utf-8"), rel)


def test_sim_clock_code_never_imports_a_wall_clock():
    offenders = []
    for rel, module in _modules(*SIM_CLOCK_TREES):
        for node in ast.walk(module):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [
                f"{rel}:{node.lineno} imports {name}"
                for name in names
                if name.split(".")[0] in WALL_CLOCK_MODULES
            ]
    assert offenders == []


def test_fault_draws_stay_in_the_ladder_owners():
    draws = [
        f"{rel}:{node.lineno}"
        for rel, module in _modules(".")
        for node in ast.walk(module)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "fires"
    ]
    assert draws, "the walk found no fault draws at all"
    assert [d for d in draws if not d.startswith(LADDER_OWNERS)] == []


def test_telemetry_off_is_none():
    offenders = [
        f"{rel}:{node.lineno}"
        for rel, module in _modules(".")
        for node in ast.walk(module)
        if (isinstance(node, ast.Attribute) and node.attr == "enabled")
        or (isinstance(node, ast.Constant) and node.value == "enabled")
        or (isinstance(node, ast.ClassDef) and node.name.startswith("Null"))
    ]
    assert offenders == []


def test_a_float32_server_computes_in_float32(monkeypatch):
    """Prefill, recompute and packed decode of a float32 server: every
    query, activation and output the projections and kernels see is
    float32."""
    seen = {}

    def spy(owner, name, arrays):
        """Record the dtype of every array ``arrays(args, out)`` names."""
        original = getattr(owner, name)
        dtypes = seen.setdefault(f"{owner.__name__}.{name}", set())

        def wrapper(self, *args, **kwargs):
            out = original(self, *args, **kwargs)
            dtypes.update(a.dtype.name for a in arrays(args, out))
            return out

        monkeypatch.setattr(owner, name, wrapper)

    spy(Linear, "__call__", lambda args, out: [args[0], out])
    spy(Backend, "decode_attention", lambda args, out: [args[0], out])
    spy(Backend, "ragged_attention", lambda args, out: [r.query for r in args[0]] + out)

    for config in (tiny_opt_config(), tiny_llama_config()):
        server = StatefulChatServer(
            config, gpu_capacity_tokens=96, cpu_capacity_tokens=16,
            chunk_size=16, page_size=8, seed=0,
        )
        assert server.storage.k.dtype == np.float32
        for turn in range(3):
            for convs in ((0, 1), (2, 3)):
                server.chat_batch(
                    [(c, [(7 * c + turn + i) % config.vocab_size for i in range(13)])
                     for c in convs],
                    max_new_tokens=4,
                )
        assert server.manager.stats["recomputed_tokens"] > 0
    assert seen == {name: {"float32"} for name in seen}


def test_a_decode_step_stays_within_its_dispatch_budget(monkeypatch):
    """Every decode forward of a float32 llama server makes, per layer,
    exactly 4 ``Linear`` calls, 1 ``rotate`` and 1 decode attention."""
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    count(Linear, "__call__")
    count(transformer, "rotate")
    count(Backend, "decode_attention")
    decode_steps = []
    forward = transformer.PagedTransformer.forward

    def counted_forward(self, batch):
        calls.clear()
        logits = forward(self, batch)
        if all(r.num_new_tokens == 1 for r in batch):
            decode_steps.append(dict(calls))
        return logits

    monkeypatch.setattr(transformer.PagedTransformer, "forward", counted_forward)
    config = tiny_llama_config()
    server = StatefulChatServer(config, gpu_capacity_tokens=256, seed=0, chunk_size=16)
    assert server.storage.k.dtype == np.float32
    for turn in range(2):
        server.chat_batch(
            [(c, [(5 * c + turn + i) % config.vocab_size for i in range(6 + c)])
             for c in range(3)],
            max_new_tokens=3,
        )
    layers = config.num_layers
    budget = {"__call__": 4 * layers, "rotate": layers, "decode_attention": layers}
    assert decode_steps and decode_steps == [budget] * len(decode_steps)


def test_a_steady_decode_step_rebuilds_no_scaffolding(monkeypatch):
    """A float32 llama server's decode step that follows another — the
    server's work from the end of the previous forward through the end
    of its own — constructs no ``ForwardRequest``, calls
    ``BlockTable.slots_array`` zero times, builds one stale-row index
    for all its layers and grows the whole batch in one
    ``manager.append_tokens`` call."""
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    count(transformer.ForwardRequest, "__post_init__")
    count(BlockTable, "slots_array")
    count(PackedDecodeCache, "_stale_index")
    count(TieredCacheManager, "append_tokens")
    steady_steps = []
    previous = []
    forward = transformer.PagedTransformer.forward

    def counted_forward(self, batch):
        logits = forward(self, batch)
        decode = all(r.num_new_tokens == 1 for r in batch)
        if decode and previous[-1:] == [True]:
            steady_steps.append(dict(calls))
        previous.append(decode)
        calls.clear()
        return logits

    monkeypatch.setattr(transformer.PagedTransformer, "forward", counted_forward)
    config = tiny_llama_config()
    server = StatefulChatServer(config, gpu_capacity_tokens=256, seed=0, chunk_size=16)
    assert server.storage.k.dtype == np.float32
    for turn in range(2):
        server.chat_batch(
            [(c, [(5 * c + turn + i) % config.vocab_size for i in range(6 + c)])
             for c in range(3)],
            max_new_tokens=5,  # four decode forwards a turn, three steady
        )
    assert len(steady_steps) == 2 * 3
    steady = {"_stale_index": 1, "append_tokens": 1}
    assert steady_steps == [steady] * len(steady_steps)


#: The settable values of each public signature (``BatchConfig``: its
#: fields), in order.
SETTINGS = {
    PensieveEngine: (
        "loop", "config", "spec", "batch_config", "cpu_cache_tokens",
        "policy", "chunk_size", "unified",
        "pipelined_swap_in", "prioritize_retrieval", "name",
        "whole_conversation_eviction", "fault_plan",
    ),
    StatefulChatServer: (
        "config", "gpu_capacity_tokens", "cpu_capacity_tokens",
        "chunk_size", "page_size", "seed",
        "fault_plan", "use_fast_paths", "backend",
    ),
    TieredCacheManager: (
        "gpu_capacity_tokens", "cpu_capacity_tokens", "scorer", "chunk_size",
        "whole_conversation_eviction", "fault_plan", "fault_counters",
    ),
    EngineBase: ("name", "loop", "cost_model", "config"),
    transformer.PagedTransformer: ("config", "storage", "seed", "use_fast_paths"),
    FaultPlan: ("seed", "rates", "schedules"),
    attempt_with_retries: ("plan", "site", "counters", "tracer"),
    HistogramSet: (),
    Histogram: ("name", "labels", "clock"),
    Backend.decode_attention: (
        "queries", "batch", "layer_key", "k_cache", "v_cache",
    ),
    Backend.multi_token_attention: ("requests", "k_cache", "v_cache"),
    Backend.batched_decode_attention: ("requests", "k_cache", "v_cache"),
    Backend.ragged_attention: ("requests", "k_cache", "v_cache"),
    run_serving_once: (
        "engine_factory", "conversations", "until", "warmup", "tracer",
        "slo", "hist", "flight", "sampler",
    ),
    throughput_at_latency: ("points", "latency_target"),
    BatchConfig: (
        "max_batch_tokens", "max_running", "swap_out_threshold",
        "generation_reserve",
    ),
}
SETTINGS_BUDGET = 76


def _settings(owner):
    if dataclasses.is_dataclass(owner):
        return tuple(field.name for field in dataclasses.fields(owner))
    return tuple(p for p in inspect.signature(owner).parameters if p != "self")


def test_every_setting_is_listed_and_within_budget():
    found = {owner: _settings(owner) for owner in SETTINGS}
    assert found == SETTINGS
    assert sum(len(names) for names in found.values()) <= SETTINGS_BUDGET


def test_one_chunk_size_default():
    """The scheduler's and the functional server's caches default to the
    paper's 32-token chunks (§4.3), as does the offline profile that
    prices them."""
    assert CHUNK_SIZE == 32
    engine = PensieveEngine(EventLoop(), OPT_13B, A100_80GB)
    server = StatefulChatServer(tiny_opt_config())
    manager = TieredCacheManager(64, 0, scorer=lambda chunk, last, now: 0.0)
    assert engine.manager.chunk_size == CHUNK_SIZE
    assert server.manager.chunk_size == CHUNK_SIZE
    assert manager.chunk_size == CHUNK_SIZE
    profile_default = inspect.signature(OfflineProfiler.profile).parameters
    assert profile_default["chunk_size"].default == CHUNK_SIZE


def _public_names(module):
    """The public names a module defines at its top level."""
    names = set()
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def _used_names(module):
    """Every identifier a module reads, imports or reaches as an attribute."""
    names = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def test_every_module_is_read_outside_the_tests():
    readers = {
        path: _used_names(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        for top in ("src", "benchmarks", "examples")
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    unread = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name in ("__init__.py", "__main__.py"):
            continue
        public = _public_names(ast.parse(path.read_text(encoding="utf-8")))
        own = {path, path.parent / "__init__.py"}
        if not any(public & used for other, used in readers.items() if other not in own):
            unread.append(path.relative_to(SRC).as_posix())
    assert unread == []
