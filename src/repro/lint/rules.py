"""The shipped rule set (RPR001–RPR006).

Each rule encodes one repo invariant that used to be enforced only by
convention; see the class docstrings for the precise contract and
``tests/lint/fixtures`` for minimal violating/conforming examples.
Registries are read *statically* (off the AST of ``repro/faults/plan.py``,
``repro/faults/sites.py`` and ``repro/serving/metric_names.py``), so the
linter never imports the code under analysis and fixture trees can ship
their own miniature registries.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.engine import (
    Finding,
    Project,
    Rule,
    SourceFile,
    dotted_name,
    receiver_parts,
    register,
    str_const,
)

#: Package subtrees that run on the simulated clock and must stay
#: deterministic; only ``repro/obs`` (and the experiment/CLI drivers)
#: may read the wall clock.
SIM_PURE_PREFIXES = (
    "repro/sim/",
    "repro/core/",
    "repro/serving/",
    "repro/kvcache/",
    "repro/gpu/",
)

#: Hot-path subtrees where unarmed telemetry must not allocate.
HOT_PATH_PREFIXES = SIM_PURE_PREFIXES + ("repro/kernels/",)


# ---------------------------------------------------------------------------
# RPR001 — sim-clock purity
# ---------------------------------------------------------------------------


@register
class SimClockPurity(Rule):
    """Simulation code must never read the wall clock.

    Seeded runs are bit-reproducible only because every timestamp in the
    ``sim`` / ``core`` / ``serving`` / ``kvcache`` / ``gpu`` trees comes
    from the discrete-event clock.  This rule bans ``import time``, any
    ``from time import <reader>``, and calls/references to the wall-clock
    readers (``time.time``, ``time.perf_counter``, ``time.monotonic``,
    ``datetime.now`` and friends) in those trees.  Wall-clock measurement
    belongs in ``repro/obs``.
    """

    code = "RPR001"
    name = "sim-clock-purity"
    summary = "no wall-clock reads in simulation/serving/kv/gpu code"

    TIME_READERS = frozenset(
        {
            "time",
            "time_ns",
            "perf_counter",
            "perf_counter_ns",
            "monotonic",
            "monotonic_ns",
            "process_time",
            "process_time_ns",
        }
    )
    DATETIME_READERS = frozenset({"now", "utcnow", "today"})

    def run(self, project: Project) -> Iterator[Finding]:
        for file in project.files_under(*SIM_PURE_PREFIXES):
            yield from self._check_file(file)

    def _check_file(self, file: SourceFile) -> Iterator[Finding]:
        for node in file.walk():
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time" or alias.name.startswith("time."):
                        yield self.finding(
                            file,
                            node,
                            "wall-clock module `time` imported in "
                            "sim-pure code; move the measurement to "
                            "repro.obs",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in self.TIME_READERS:
                            yield self.finding(
                                file,
                                node,
                                f"wall-clock reader `time.{alias.name}` "
                                "imported in sim-pure code",
                            )
            elif isinstance(node, ast.Attribute):
                dotted = dotted_name(node)
                if dotted is None:
                    continue
                head, _, attr = dotted.rpartition(".")
                if (
                    head.split(".")[-1] == "time"
                    and attr in self.TIME_READERS
                ):
                    yield self.finding(
                        file,
                        node,
                        f"wall-clock read `{dotted}` in sim-pure code; "
                        "timestamps must come from the simulated clock",
                    )
                elif (
                    "datetime" in head.split(".")
                    and attr in self.DATETIME_READERS
                ):
                    yield self.finding(
                        file,
                        node,
                        f"wall-clock read `{dotted}` in sim-pure code",
                    )


# ---------------------------------------------------------------------------
# RPR002 — fault-site coverage
# ---------------------------------------------------------------------------


@register
class FaultSiteCoverage(Rule):
    """Fault-site names must resolve to the declared registry, and raw
    fault draws must stay on the retry ladder.

    Checks, all static:

    - the ``SITES`` registry (``repro/faults/sites.py``) and the
      ``FaultSite`` enum (``repro/faults/plan.py``) agree key-for-key,
      in order (order carries the per-site RNG stream derivation);
    - every ``FaultSite.<NAME>`` access names a declared member;
    - every string fault-site name — ``FaultSite("x")`` calls, ``.fires("x")``
      calls and ``site="x"`` keywords (flight-recorder attribution) — is
      a declared wire name;
    - ``attempt_with_retries(...)`` receives a ``FaultSite.<member>``
      (never a bare string);
    - raw ``plan.fires(...)`` draws appear only in the modules that own
      the recovery ladder (``repro/faults``, the engines/server, the
      cache manager, and the checksum-verifying stores) — transfer
      primitives in ``repro/gpu`` must stay fault-agnostic so every
      modeled I/O failure is reachable through retry → recompute → fail.
    """

    code = "RPR002"
    name = "fault-site-coverage"
    summary = "fault-site names resolve to repro.faults.SITES; draws stay on the ladder"

    #: Modules allowed to draw plan.fires() directly: the ladder owners.
    FIRES_ALLOWED = (
        "repro/faults/",
        "repro/core/engine.py",
        "repro/core/server.py",
        "repro/kvcache/manager.py",
        "repro/kvcache/storage.py",
    )

    def run(self, project: Project) -> Iterator[Finding]:
        members = self._enum_members(project)
        registry = self._registry_sites(project)
        if members is None:
            return  # no FaultSite enum in this tree; nothing to lint
        names = {name for name, _ in members}
        values = [value for _, value in members]

        if registry is not None:
            reg_file, reg_keys = registry
            if reg_keys != values:
                yield self.finding(
                    reg_file,
                    reg_file.tree,
                    "fault-site registry SITES drifted from the FaultSite "
                    f"enum: registry={tuple(reg_keys)}, enum={tuple(values)}",
                )

        for file in project.files_under("repro/"):
            yield from self._check_file(file, names, set(values))

    # -- registry extraction -------------------------------------------

    @staticmethod
    def _enum_members(
        project: Project,
    ) -> Optional[List[Tuple[str, str]]]:
        plan = project.find("repro/faults/plan.py")
        if plan is None:
            return None
        for node in plan.walk():
            if isinstance(node, ast.ClassDef) and node.name == "FaultSite":
                members: List[Tuple[str, str]] = []
                for stmt in node.body:
                    if (
                        isinstance(stmt, ast.Assign)
                        and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Name)
                    ):
                        value = str_const(stmt.value)
                        if value is not None:
                            members.append((stmt.targets[0].id, value))
                return members
        return None

    @staticmethod
    def _registry_sites(
        project: Project,
    ) -> Optional[Tuple[SourceFile, List[str]]]:
        sites = project.find("repro/faults/sites.py")
        if sites is None:
            return None
        for node in sites.walk():
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
            else:
                continue
            if any(
                isinstance(t, ast.Name) and t.id == "SITES" for t in targets
            ) and isinstance(value, ast.Dict):
                keys = [str_const(k) for k in value.keys]
                return sites, [k for k in keys if k is not None]
        return None

    # -- per-file checks -----------------------------------------------

    def _check_file(
        self, file: SourceFile, names: Set[str], values: Set[str]
    ) -> Iterator[Finding]:
        allowed_fires = any(
            file.subpath.startswith(p) or file.subpath == p
            for p in self.FIRES_ALLOWED
        )
        for node in file.walk():
            if isinstance(node, ast.Attribute):
                dotted = dotted_name(node)
                if (
                    dotted is not None
                    and dotted.startswith("FaultSite.")
                    and dotted.count(".") == 1
                ):
                    member = dotted.split(".", 1)[1]
                    if member not in names and member.isupper():
                        yield self.finding(
                            file,
                            node,
                            f"unknown fault site `FaultSite.{member}`; "
                            "declare it in repro.faults (enum + SITES)",
                        )
            if not isinstance(node, ast.Call):
                continue
            func_dotted = dotted_name(node.func) or ""
            attr = func_dotted.rpartition(".")[2]
            # FaultSite("literal") constructions.
            if attr == "FaultSite" and node.args:
                literal = str_const(node.args[0])
                if literal is not None and literal not in values:
                    yield self.finding(
                        file,
                        node,
                        f"fault-site name {literal!r} is not in the "
                        "declared registry (repro.faults.SITES)",
                    )
            # plan.fires("literal") and ladder containment.
            if attr == "fires":
                if node.args:
                    literal = str_const(node.args[0])
                    if literal is not None and literal not in values:
                        yield self.finding(
                            file,
                            node,
                            f"fault-site name {literal!r} passed to "
                            "fires() is not in the declared registry",
                        )
                if not allowed_fires and file.subpath != "repro/faults/sites.py":
                    yield self.finding(
                        file,
                        node,
                        "raw fault draw (.fires) outside the recovery "
                        "ladder; route modeled I/O failures through "
                        "attempt_with_retries or the engine/manager/store "
                        "recovery paths",
                    )
            # attempt_with_retries(plan, site, ...): a literal site must
            # be a FaultSite member, never a bare string (variables are
            # fine — the ladder owners dispatch over sites).
            if attr == "attempt_with_retries":
                site_arg: Optional[ast.expr] = None
                if len(node.args) >= 2:
                    site_arg = node.args[1]
                else:
                    for kw in node.keywords:
                        if kw.arg == "site":
                            site_arg = kw.value
                if site_arg is not None and str_const(site_arg) is not None:
                    yield self.finding(
                        file,
                        node,
                        "attempt_with_retries site must be a FaultSite "
                        f"member, not the string {str_const(site_arg)!r}",
                    )
            # site="literal" keywords (flight/trace attribution).
            for kw in node.keywords:
                if kw.arg == "site":
                    literal = str_const(kw.value)
                    if literal is not None and literal not in values:
                        yield self.finding(
                            file,
                            kw.value,
                            f"fault-site attribution {literal!r} is not "
                            "in the declared registry",
                        )


# ---------------------------------------------------------------------------
# RPR003 — hot-path allocation
# ---------------------------------------------------------------------------


@register
class HotPathAllocation(Rule):
    """Unarmed observability paths must not allocate.

    The null tracer / histogram set / flight recorder make a disabled
    run byte-identical to an uninstrumented build — but only if call
    sites that *compute* payloads (f-strings, dict/list displays,
    ``str()`` conversions) guard on the armed check first::

        if self.tracer.enabled:
            self.tracer.count(f"pcie.{direction}_bytes", n)

    This rule finds telemetry calls (receiver chain mentions ``tracer``
    / ``hist`` / ``flight``) in the kernel/engine/cache/transfer trees
    whose arguments allocate, without an ``.enabled`` guard on an
    enclosing ``if`` (or an early ``if not x.enabled: return``).
    """

    code = "RPR003"
    name = "hot-path-allocation"
    summary = "allocating telemetry args must sit behind an .enabled guard"

    SINKS = frozenset({"tracer", "hist", "hists", "flight"})
    METHODS = frozenset(
        {
            "count",
            "instant",
            "gauge",
            "complete",
            "begin",
            "end",
            "span",
            "record",
            "record_many",
            "hist",
            "capture",
        }
    )
    ALLOC_CALLS = frozenset(
        {"str", "format", "repr", "dict", "list", "tuple", "sorted"}
    )
    ALLOC_METHODS = frozenset({"format", "join"})

    def run(self, project: Project) -> Iterator[Finding]:
        for file in project.files_under(*HOT_PATH_PREFIXES):
            for node in file.walk():
                if not isinstance(node, ast.Call):
                    continue
                parts = receiver_parts(node)
                if len(parts) < 2 or parts[-1] not in self.METHODS:
                    continue
                if not any(p in self.SINKS for p in parts[:-1]):
                    continue
                alloc = self._allocating_arg(node)
                if alloc is None:
                    continue
                if SourceFile.guarded_by_enabled(node):
                    continue
                yield self.finding(
                    file,
                    node,
                    f"telemetry call `{'.'.join(parts)}` allocates "
                    f"(`{ast.unparse(alloc)}`) without an `.enabled` "
                    "guard; the unarmed path must do zero work",
                )

    def _allocating_arg(self, call: ast.Call) -> Optional[ast.AST]:
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            for node in ast.walk(arg):
                if isinstance(
                    node,
                    (
                        ast.JoinedStr,
                        ast.Dict,
                        ast.List,
                        ast.Set,
                        ast.ListComp,
                        ast.SetComp,
                        ast.DictComp,
                        ast.GeneratorExp,
                    ),
                ):
                    return node
                if (
                    isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.Mod)
                    and str_const(node.left) is not None
                ):
                    return node
                if isinstance(node, ast.Call):
                    if (
                        isinstance(node.func, ast.Name)
                        and node.func.id in self.ALLOC_CALLS
                    ):
                        return node
                    if (
                        isinstance(node.func, ast.Attribute)
                        and node.func.attr in self.ALLOC_METHODS
                    ):
                        return node
        return None


# ---------------------------------------------------------------------------
# RPR004 — ledger-name sync
# ---------------------------------------------------------------------------


@register
class LedgerNameSync(Rule):
    """Recorded metric names must agree with the declared registry.

    ``repro/serving/metric_names.py`` is the single source of truth for
    histogram names, flight-recorder event names and tier labels; the
    Prometheus exporter and the reconciliation suites import it.  This
    rule statically extracts every name *recorded* in the tree
    (``.hist("name")``, ``flight.record(id, "event", ...)``, lookup
    calls and ``tier=`` labels) and diffs both directions:

    - a recorded name missing from the registry fails (typo, or an
      undeclared metric the exporter/reconciliation would never see);
    - a declared histogram/event name that nothing records fails (dead
      registry entries hide real coverage gaps).
    """

    code = "RPR004"
    name = "ledger-name-sync"
    summary = "metric names recorded == names declared in serving.metric_names"

    REGISTRY = "repro/serving/metric_names.py"
    HIST_LOOKUPS = frozenset({"get", "named", "total_count", "total_sum"})

    def run(self, project: Project) -> Iterator[Finding]:
        registry = project.find(self.REGISTRY)
        if registry is None:
            return
        declared = self._declared_sets(registry)
        hist_names = declared.get("HISTOGRAM_NAMES", (registry.tree, set()))[1]
        wall_names = declared.get(
            "WALL_HISTOGRAM_NAMES", (registry.tree, set())
        )[1]
        tiers = declared.get("HISTOGRAM_TIERS", (registry.tree, set()))[1]
        events = declared.get("FLIGHT_EVENTS", (registry.tree, set()))[1]
        sampled = declared.get("SAMPLED_HISTOGRAMS", (registry.tree, set()))[1]
        all_hist = hist_names | wall_names

        extra = sampled - hist_names
        if extra:
            node = declared["SAMPLED_HISTOGRAMS"][0]
            yield self.finding(
                registry,
                node,
                f"SAMPLED_HISTOGRAMS names {sorted(extra)} are not "
                "declared sim-clock HISTOGRAM_NAMES",
            )

        recorded_hist: Set[str] = set()
        recorded_events: Set[str] = set()
        for file in project.files_under("repro/"):
            if file.subpath.startswith("repro/lint/"):
                continue
            if file.subpath == self.REGISTRY:
                continue
            yield from self._check_file(
                file, all_hist, tiers, events, recorded_hist, recorded_events
            )

        for name in sorted(all_hist - recorded_hist):
            node, _ = (
                declared.get("HISTOGRAM_NAMES")
                if name in hist_names
                else declared.get("WALL_HISTOGRAM_NAMES")
            ) or (registry.tree, set())
            yield self.finding(
                registry,
                node,
                f"declared histogram {name!r} is never recorded anywhere "
                "in src/repro; remove it or record it",
            )
        for name in sorted(events - recorded_events):
            node, _ = declared.get("FLIGHT_EVENTS") or (registry.tree, set())
            yield self.finding(
                registry,
                node,
                f"declared flight event {name!r} is never recorded "
                "anywhere in src/repro; remove it or record it",
            )

    @staticmethod
    def _declared_sets(
        registry: SourceFile,
    ) -> Dict[str, Tuple[ast.AST, Set[str]]]:
        """``NAME -> (node, {literals})`` for frozenset/set declarations."""
        out: Dict[str, Tuple[ast.AST, Set[str]]] = {}
        for node in registry.tree.body:
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = node.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in ("frozenset", "set")
                and value.args
                and isinstance(value.args[0], (ast.Set, ast.List, ast.Tuple))
            ):
                elts = value.args[0].elts
            elif isinstance(value, ast.Set):
                elts = value.elts
            else:
                continue
            literals = {
                s for s in (str_const(e) for e in elts) if s is not None
            }
            out[target.id] = (node, literals)
        return out

    def _check_file(
        self,
        file: SourceFile,
        all_hist: Set[str],
        tiers: Set[str],
        events: Set[str],
        recorded_hist: Set[str],
        recorded_events: Set[str],
    ) -> Iterator[Finding]:
        for node in file.walk():
            if not isinstance(node, ast.Call):
                continue
            parts = receiver_parts(node)
            if len(parts) < 2:
                continue
            method = parts[-1]
            receiver = parts[:-1]
            hist_sink = any(p in ("hist", "hists") for p in receiver) or (
                method == "hist" and "tracer" not in receiver
            )
            flight_sink = "flight" in receiver
            if method == "hist" and hist_sink:
                name = str_const(node.args[0]) if node.args else None
                if name is not None:
                    recorded_hist.add(name)
                    if name not in all_hist:
                        yield self.finding(
                            file,
                            node,
                            f"histogram name {name!r} is not declared in "
                            "repro.serving.metric_names",
                        )
                for kw in node.keywords:
                    if kw.arg == "tier":
                        tier = str_const(kw.value)
                        if tier is not None and tier not in tiers:
                            yield self.finding(
                                file,
                                kw.value,
                                f"tier label {tier!r} is not declared in "
                                "repro.serving.metric_names",
                            )
            elif method in self.HIST_LOOKUPS and "hist" in receiver:
                name = str_const(node.args[0]) if node.args else None
                if name is not None and name not in all_hist:
                    yield self.finding(
                        file,
                        node,
                        f"histogram lookup {name!r} is not declared in "
                        "repro.serving.metric_names",
                    )
            elif method == "record" and flight_sink:
                name = (
                    str_const(node.args[1]) if len(node.args) >= 2 else None
                )
                if name is not None:
                    recorded_events.add(name)
                    if name not in events:
                        yield self.finding(
                            file,
                            node,
                            f"flight event {name!r} is not declared in "
                            "repro.serving.metric_names",
                        )
                for kw in node.keywords:
                    if kw.arg == "tier":
                        tier = str_const(kw.value)
                        if tier is not None and tier not in tiers:
                            yield self.finding(
                                file,
                                kw.value,
                                f"tier label {tier!r} is not declared in "
                                "repro.serving.metric_names",
                            )
            elif method == "event_count" and flight_sink:
                name = str_const(node.args[0]) if node.args else None
                if name is not None and name not in events:
                    yield self.finding(
                        file,
                        node,
                        f"flight event lookup {name!r} is not declared in "
                        "repro.serving.metric_names",
                    )


# ---------------------------------------------------------------------------
# RPR005 — kernel copy smell
# ---------------------------------------------------------------------------


@register
class KernelCopySmell(Rule):
    """No hidden array copies inside kernel loops.

    ``np.concatenate`` / ``np.ascontiguousarray`` / ``.copy()`` inside a
    per-layer (or per-request) loop in ``repro/kernels`` multiplies a
    full-context copy by the loop trip count — exactly the memory
    traffic the paged design exists to avoid.  Hoist the copy out of the
    loop, use a gather-once staging buffer (see ``packed_cache.py``), or
    suppress with a justification when the copy *is* the point (the
    straw-man kernels model it deliberately).
    """

    code = "RPR005"
    name = "kernel-copy-smell"
    summary = "no np.concatenate/.copy()/ascontiguousarray inside kernel loops"

    NP_FUNCS = frozenset({"concatenate", "ascontiguousarray", "copy"})

    def run(self, project: Project) -> Iterator[Finding]:
        for file in project.files_under("repro/kernels/"):
            for node in file.walk():
                if not isinstance(node, ast.Call):
                    continue
                smell = self._smell(node)
                if smell is None:
                    continue
                if not SourceFile.in_loop(node):
                    continue
                yield self.finding(
                    file,
                    node,
                    f"`{smell}` inside a kernel loop copies the context "
                    "once per iteration; hoist it or stage the gather "
                    "outside the loop",
                )

    def _smell(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Attribute):
            dotted = dotted_name(func) or ""
            base = dotted.split(".")[0] if dotted else ""
            if base in ("np", "numpy") and func.attr in self.NP_FUNCS:
                return dotted
            if (
                func.attr == "copy"
                and not call.args
                and not call.keywords
                and base not in ("copy",)
            ):
                return f"{dotted or func.attr}()"
        return None


# ---------------------------------------------------------------------------
# RPR006 — backend kernel routing
# ---------------------------------------------------------------------------


@register
class BackendKernelRouting(Rule):
    """Attention kernels are reached through ``repro.backends``, not
    imported directly.

    The backend (:mod:`repro.backends`) is the one seam every attention
    call crosses, looked up at call time, which is what lets the serving
    benchmark substitute a recording delegate; a serving-layer module
    that imports ``packed_decode_attention`` (or any other attention
    entry point) directly bypasses the seam and drops out of the
    per-layer trace.  This rule flags any import of an attention-kernel
    *function* from ``repro.kernels`` outside the kernel package itself
    and ``repro/backends/``.  Types and pure helpers
    (``AttentionRequest``, ``PackedDecodeCache``, ``resolve_scale``,
    query-span splitting, …) stay importable from anywhere.  Kernel
    experiments that study the kernels themselves suppress with
    ``# repro: ignore[RPR006] -- why``.
    """

    code = "RPR006"
    name = "backend-kernel-routing"
    summary = "attention kernels reached via repro.backends, not direct imports"

    ALLOWED_PREFIXES = (
        "repro/kernels/",
        "repro/backends/",
    )

    #: The attention entry points a backend owns.  Deliberately *not*
    #: the kernel types/helpers — those carry no kernel choice.
    KERNEL_NAMES = frozenset(
        {
            "reference_attention",
            "multi_token_attention",
            "single_token_attention",
            "batched_single_token_attention",
            "ragged_multi_token_attention",
            "segment_masked_decode",
            "packed_decode_attention",
            "copyout_attention",
            "multiround_attention",
        }
    )

    def run(self, project: Project) -> Iterator[Finding]:
        for file in project.files_under("repro/"):
            if any(file.subpath.startswith(p) for p in self.ALLOWED_PREFIXES):
                continue
            for node in file.walk():
                if isinstance(node, ast.ImportFrom):
                    module = node.module or ""
                    if module != "repro.kernels" and not module.startswith(
                        "repro.kernels."
                    ):
                        continue
                    for alias in node.names:
                        if alias.name in self.KERNEL_NAMES:
                            yield self.finding(
                                file,
                                node,
                                f"attention kernel `{alias.name}` imported "
                                f"from `{module}`; route the call through "
                                "the repro.backends interface",
                            )
                elif isinstance(node, ast.Attribute):
                    dotted = dotted_name(node) or ""
                    head, _, attr = dotted.rpartition(".")
                    if (
                        attr in self.KERNEL_NAMES
                        and head.split(".")[-1] == "kernels"
                    ):
                        yield self.finding(
                            file,
                            node,
                            f"direct attention-kernel reference `{dotted}`; "
                            "route the call through the repro.backends "
                            "interface",
                        )
