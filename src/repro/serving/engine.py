"""Engine base class: the shared iteration-level serving loop.

An engine is driven by the discrete-event loop: request submissions arrive
as events, each model iteration is simulated by scheduling a completion
event ``iteration_time`` in the future, and the scheduler re-forms the
batch at every completion ("clocked for action by the completion of a
generation step", §4.2).

Subclasses implement two hooks:

- :meth:`_form_batch` — pick the requests (and admission work) for the
  next iteration;
- :meth:`_execute` — return the iteration's simulated duration;

plus the cache-lifecycle hooks :meth:`_on_fail` / :meth:`_on_finish`.
:meth:`EngineBase._complete` applies an iteration's progress: every
running request of the batch produced one token.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

from repro.gpu.costmodel import CostModel
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.serving.batching import BatchConfig
from repro.serving.metrics import MetricsCollector
from repro.serving.request import Request, RequestState
from repro.sim.events import EventLoop

#: Request events whose trace form is the ``request`` span's begin and
#: end (arrival, finish, abort): :meth:`EngineBase._event` sends them to
#: the ``FlightRecorder`` only.
_SPAN_BOUNDS = frozenset({"admit", "finish", "abort"})


class EngineBase:
    """Shared mechanics of an iteration-level serving engine.

    Args:
        name: engine label used in experiment tables.
        loop: the discrete-event loop driving the simulation.
        cost_model: converts batch shapes to iteration durations.
        config: batching/admission thresholds.
        tracer: observability sink (:mod:`repro.obs`); the default null
            tracer keeps every instrumentation site allocation-free.
    """

    def __init__(
        self,
        name: str,
        loop: EventLoop,
        cost_model: CostModel,
        config: Optional[BatchConfig] = None,
        tracer: Optional[NullTracer] = None,
    ) -> None:
        self.name = name
        self.loop = loop
        self.cost_model = cost_model
        self.config = config or BatchConfig()
        self.wait_queue: Deque[Request] = deque()
        self.running: List[Request] = []
        #: Requests that failed individually after exhausting fault
        #: retries; the batch they rode in keeps running without them.
        self.failed: List[Request] = []
        self.metrics = MetricsCollector()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Open request-lifecycle span ids, by request id.
        self._request_spans: Dict[int, int] = {}
        #: Called as ``on_finish(request, now)`` when a request completes;
        #: the workload driver uses it to schedule the next turn.
        self.on_finish: Optional[Callable[[Request, float], None]] = None
        self._busy = False
        self._iterations = 0

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    def set_tracer(self, tracer: NullTracer) -> None:
        """Attach an observability tracer (before the simulation runs).

        Subclasses propagate it to the components they own (cache
        manager, PCIe link); the base attaches the event loop.
        """
        self.tracer = tracer
        self.loop.tracer = tracer

    def submit(self, request: Request) -> None:
        """Enqueue a request at the current simulated time."""
        request.state = RequestState.WAITING
        request.last_enqueue_time = self.loop.now
        self.wait_queue.append(request)
        if self.metrics.flight.enabled:
            self._event(
                request, "admit", self.loop.now,
                conv_id=request.conv_id, turn=request.turn_index,
                prompt_tokens=request.prompt_tokens,
            )
        if self.tracer.enabled:
            self._request_spans[request.request_id] = self.tracer.begin(
                "request",
                t=self.loop.now,
                track="requests",
                request_id=request.request_id,
                conv_id=request.conv_id,
                turn=request.turn_index,
                prompt_tokens=request.prompt_tokens,
            )
            self.tracer.gauge("queue.waiting", len(self.wait_queue), t=self.loop.now)
        self._kick()

    @property
    def iterations(self) -> int:
        """Model iterations executed so far."""
        return self._iterations

    @property
    def num_running(self) -> int:
        return len(self.running)

    @property
    def num_waiting(self) -> int:
        return len(self.wait_queue)

    @property
    def num_failed(self) -> int:
        return len(self.failed)

    def _fail_request(self, request: Request, now: float, reason: str) -> None:
        """Degrade one request after its retries are exhausted.

        The request leaves the scheduler with a structured trace record
        and counts toward ``degraded_requests``; every other request —
        running or waiting — is untouched.
        """
        request.state = RequestState.FAILED
        request.finish_time = now
        if request in self.running:
            self.running.remove(request)
        try:
            self.wait_queue.remove(request)
        except ValueError:
            pass
        self.failed.append(request)
        self.metrics.faults.degraded_requests += 1
        if self.metrics.flight.enabled:
            self._event(request, "abort", now, reason=reason)
        self.metrics.fail(request, now, reason)
        self._on_fail(request, now)
        if self.tracer.enabled:
            self.tracer.count("requests.failed")
            span = self._request_spans.pop(request.request_id, None)
            if span is not None:
                self.tracer.end(span, t=now, outcome="failed", reason=reason)

    def _on_fail(self, request: Request, now: float) -> None:
        """Release engine-specific state of a failed request (hook)."""

    @property
    def _observed(self) -> bool:
        """Whether a request event has a sink: the guard every
        :meth:`_event` call site checks first, so the unarmed path makes
        no call and builds no attributes."""
        return self.tracer.enabled or self.metrics.flight.enabled

    def _event(
        self,
        request: Request,
        name: str,
        now: float,
        end: Optional[float] = None,
        **attrs: Any,
    ) -> None:
        """Emit one request event, under one name, to both sinks.

        The ``FlightRecorder`` appends it to the request's ring (a
        ``count`` attribute feeds its exact ledger).  The tracer records
        an instant at ``now`` — or, when ``end`` is given, a complete
        span — on the ``requests`` track beside the request span,
        carrying ``request_id`` and ``conv_id``.  Arrival, ``finish``
        and ``abort`` reach the ``FlightRecorder`` only: the ``request``
        span's begin and end are their trace form.
        """
        flight = self.metrics.flight
        if flight.enabled:
            flight.record(request.request_id, name, now, **attrs)
        tracer = self.tracer
        if not tracer.enabled or name in _SPAN_BOUNDS:
            return
        if end is None:
            tracer.instant(
                name, t=now, track="requests", request_id=request.request_id,
                conv_id=request.conv_id, **attrs,
            )
        else:
            tracer.complete(
                name, now, end, track="requests",
                request_id=request.request_id, conv_id=request.conv_id,
                **attrs,
            )

    def _note_batch_join(self, request: Request, now: float) -> None:
        """SLO layer: the request left the wait queue for a running batch.

        Queue wait is measured per wait *episode* (since the last
        enqueue), so re-admissions after a suspension each contribute
        their own sample instead of re-counting from arrival.  The
        ``batch_join`` event is emitted by the caller, which knows the
        admission's attributes.
        """
        hist = self.metrics.hist
        if hist.enabled:
            since = request.last_enqueue_time
            if since is None:
                since = request.arrival_time
            hist.hist("queue_wait_seconds").record(now - since)

    # ------------------------------------------------------------------
    # The serving loop
    # ------------------------------------------------------------------

    def _kick(self) -> None:
        """Start an iteration if the engine is idle and has work."""
        if self._busy:
            return
        if not self.running and not self.wait_queue:
            return
        self._busy = True
        self.loop.schedule(self.loop.now, self._iterate)

    def _iterate(self) -> None:
        batch = self._form_batch(self.loop.now)
        if not batch:
            # Admission may be blocked transiently (e.g. waiting for an
            # ahead-of-time copy to land).  Engines that can say when to
            # retry stay "busy" and poll; otherwise the engine idles until
            # the next submission.
            retry = (
                self._idle_retry_delay(self.loop.now) if self.wait_queue else None
            )
            if retry is not None and retry > 0:
                self.loop.schedule_after(retry, self._iterate)
                return
            self._busy = False
            return
        duration = self._execute(batch, self.loop.now)
        self._iterations += 1
        if self.tracer.enabled:
            self._trace_iteration(batch, self.loop.now, duration)
        self.loop.schedule_after(duration, self._complete, batch)

    def _trace_iteration(
        self, batch: Sequence[Request], now: float, duration: float
    ) -> None:
        """Emit the iteration span, its prefill/decode sub-spans, and the
        per-iteration gauges.  Only called with a recording tracer."""
        tracer = self.tracer
        if not tracer.enabled:
            return
        prefill = [r for r in batch if not r.prefill_done]
        n_decode = len(batch) - len(prefill)
        span = tracer.complete(
            "iteration",
            now,
            now + duration,
            track="engine",
            batch_size=len(batch),
            prefill_requests=len(prefill),
            decode_requests=n_decode,
        )
        if prefill:
            tracer.complete(
                "prefill",
                now,
                now + duration,
                parent=span,
                track="engine",
                requests=len(prefill),
                tokens=sum(r.prefill_tokens for r in prefill),
            )
        if n_decode:
            tracer.complete(
                "decode",
                now,
                now + duration,
                parent=span,
                track="engine",
                requests=n_decode,
            )
        tracer.count("engine.iterations")
        tracer.gauge("batch.size", len(batch), t=now)
        tracer.gauge("queue.waiting", len(self.wait_queue), t=now)
        tracer.gauge("queue.running", len(self.running), t=now)
        self._trace_gauges(now)

    def _trace_gauges(self, now: float) -> None:
        """Engine-specific per-iteration gauges (hook; tracer enabled)."""

    def _complete(self, batch: Sequence[Request]) -> None:
        """Apply one iteration's progress: each request still running
        produced one output token (the prefill iteration produces the
        first), and those that reached their turn's output length finish.

        The first token ever is stamped once: a re-prefill after a
        preemption or a suspension produces a later token, not a new
        first one.  With the SLO layer armed this is the streaming
        TTFT/TBT record site: every produced token is exactly one sample,
        the request's very first in ``ttft_seconds`` and every later one
        (re-prefills after preemption included) in ``tbt_seconds``, so
        ttft.count + tbt.count == tokens produced, exactly.
        """
        now = self.loop.now
        finished: List[Request] = []
        running = RequestState.RUNNING
        hist = self.metrics.hist
        record = hist.enabled
        for request in batch:
            if request.state is not running:
                continue  # suspended mid-flight
            request.generated_tokens += 1
            if request.first_token_time is None:
                if record:
                    hist.hist("ttft_seconds").record(now - request.arrival_time)
                request.first_token_time = now
            elif record and request.last_token_time is not None:
                hist.hist("tbt_seconds").record(now - request.last_token_time)
            request.prefill_done = True
            request.last_token_time = now
            # ``request.output_tokens`` without its two property calls.
            turn = request.conversation.turns[request.turn_index]
            if request.generated_tokens >= turn.output_tokens:
                finished.append(request)
        for request in finished:
            request.state = RequestState.FINISHED
            request.finish_time = now
            self.running.remove(request)
            self._on_finish(request, now)
            if self.metrics.flight.enabled:
                self._event(
                    request, "finish", now, output_tokens=request.output_tokens
                )
            self.metrics.complete(request)
            if self.tracer.enabled:
                self.tracer.count("requests.finished")
                span = self._request_spans.pop(request.request_id, None)
                if span is not None:
                    self.tracer.end(
                        span, t=now,
                        outcome="finished",
                        output_tokens=request.output_tokens,
                        prefilled_tokens=request.prefill_tokens,
                    )
            if self.on_finish is not None:
                self.on_finish(request, now)
        if self.running or self.wait_queue:
            self.loop.schedule(now, self._iterate)
        else:
            self._busy = False

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def _form_batch(self, now: float) -> List[Request]:
        """Select the requests for the next iteration."""
        raise NotImplementedError

    def _idle_retry_delay(self, now: float) -> Optional[float]:
        """Seconds after which a blocked, otherwise-idle engine should
        retry batch formation; ``None`` (default) idles until the next
        submission."""
        return None

    def _execute(self, batch: Sequence[Request], now: float) -> float:
        """Return the simulated duration of one iteration over ``batch``."""
        raise NotImplementedError

    def _on_finish(self, request: Request, now: float) -> None:
        """Release or retain the request's cache state."""
        raise NotImplementedError
