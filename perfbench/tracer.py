"""Layer spans for the traced run, recorded from the benchmark's own files.

:func:`install` wraps the public entry points of each ``repro`` layer
(see :data:`LAYERS`) before the front builds its stack.  Every wrapped
call is a span with a name (its layer), a start, an end and a parent —
the span open on the same thread when it began.  Spans are kept in
memory and written out on request.

Self time is measured on the calling thread's CPU clock
(``time.thread_time_ns``): a span's CPU time minus the CPU time of its
child spans.  Threads waiting on a socket or a queue burn no CPU, so the
self times of all layers add up to at most the front's CPU time, and the
difference is reported as unattributed rather than hidden.  Coroutines
are timed per step (between suspensions), so time spent parked on the
event loop is not charged to them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
import urllib.parse

SPAN_CAP = 200_000

#: (module, attribute path, span name).  A dotted attribute path names a
#: method; a plain one a module-level function, which is also replaced
#: wherever another ``repro`` module imported it by name.
LAYERS = [
    ("repro.http.wire", "MessageParser.feed", "http.parse"),
    ("repro.http.wire", "MessageParser.next_message", "http.parse"),
    ("repro.http.wire", "serialize_request", "http.serialize"),
    ("repro.http.wire", "serialize_request_burst", "http.serialize"),
    ("repro.http.wire", "serialize_response", "http.serialize"),
    ("repro.rt.client", "HttpClient.request", "rt.client"),
    ("repro.rt.client", "HttpClient.lease", "rt.client"),
    ("repro.rt.client", "ConnectionLease.pipeline", "rt.pipeline"),
    ("repro.rt.server", "HttpServer._read_request", "rt.server"),
    ("repro.rt.service", "SoapHttpApp.handle_request", "rt.server"),
    ("repro.aio.client", "AioHttpClient.request", "aio.client"),
    ("repro.aio.client", "AioHttpClient.lease", "aio.client"),
    ("repro.aio.client", "AioConnectionLease.pipeline", "aio.pipeline"),
    ("repro.aio.server", "AioHttpServer._read_request", "aio.server"),
    ("repro.xmlmini.scan", "scan_envelope", "xmlmini.scan"),
    ("repro.xmlmini.parser", "parse_fragment", "xmlmini.fragment"),
    ("repro.xmlmini.parser", "parse", "xmlmini.parse"),
    ("repro.xmlmini.writer", "serialize", "xmlmini.write"),
    ("repro.xmlmini.writer", "write_document", "xmlmini.write"),
    ("repro.soap.lazy", "parse_envelope", "soap.parse"),
    ("repro.soap.lazy", "LazyEnvelope.from_bytes", "soap.parse"),
    ("repro.soap.envelope", "Envelope.from_bytes", "soap.parse"),
    ("repro.soap.lazy", "LazyEnvelope.to_bytes", "soap.serialize"),
    ("repro.soap.envelope", "Envelope.to_bytes", "soap.serialize"),
    ("repro.soap.rpc", "parse_rpc_request", "soap.rpc"),
    ("repro.soap.rpc", "parse_rpc_response", "soap.rpc"),
    ("repro.soap.rpc", "build_rpc_request", "soap.rpc"),
    ("repro.soap.rpc", "build_rpc_response", "soap.rpc"),
    ("repro.wsa.headers", "AddressingHeaders.from_envelope", "wsa.headers"),
    ("repro.wsa.headers", "AddressingHeaders.attach", "wsa.headers"),
    ("repro.wsa.rules", "rewrite_for_forwarding", "wsa.rewrite"),
    ("repro.core.registry", "ServiceRegistry.resolve", "core.resolve"),
    ("repro.core.msg_dispatcher", "MsgDispatcher.handle", "core.admit"),
    ("repro.core.msg_dispatcher", "MsgDispatcher._process_accepted", "core.route"),
    ("repro.core.msg_dispatcher", "MsgDispatcher._deliver", "core.drain"),
    ("repro.core.msg_dispatcher", "MsgDispatcher._deliver_batch", "core.drain"),
    ("repro.aio.dispatcher", "AioMsgDispatcher._adeliver", "core.drain"),
    ("repro.aio.dispatcher", "AioMsgDispatcher._adeliver_batch", "core.drain"),
    ("repro.core.rpc_dispatcher", "RpcDispatcher.handle_request", "core.rpc"),
    ("repro.msgbox.store", "MailboxStore.deposit", "msgbox.deposit"),
    ("repro.msgbox.store", "MailboxStore.take", "msgbox.take"),
    ("repro.msgbox.service", "MsgBoxService.handle", "msgbox.service"),
    ("repro.aio.msgbox", "AioMsgBoxService.handle", "msgbox.service"),
    ("repro.aio.msgbox", "AioMsgBoxService._handle_longpoll", "msgbox.service"),
    ("repro.obs.metrics", "CounterChild.inc", "obs.metric"),
    ("repro.obs.metrics", "GaugeChild.set", "obs.metric"),
    ("repro.obs.metrics", "GaugeChild.inc", "obs.metric"),
    ("repro.obs.metrics", "GaugeChild.dec", "obs.metric"),
    ("repro.obs.metrics", "HistogramChild.observe", "obs.metric"),
    ("repro.obs.metrics", "MetricFamily.labels", "obs.metric"),
    ("repro.obs.metrics", "MetricFamily.inc", "obs.metric"),
    ("repro.obs.metrics", "MetricFamily.observe", "obs.metric"),
    ("repro.obs.trace", "extract_trace", "obs.trace"),
    ("repro.obs.trace", "TraceStore.record", "obs.trace"),
    ("repro.obs.logkv", "log_event", "obs.trace"),
    ("repro.util.concurrency", "ClosableQueue.put", "util.queue"),
    ("repro.util.concurrency", "ClosableQueue.try_put", "util.queue"),
    ("repro.util.concurrency", "ClosableQueue.get", "util.queue"),
    ("repro.util.concurrency", "ClosableQueue.get_batch", "util.queue"),
    ("repro.util.stats", "Counter.inc", "util.counter"),
]

#: the asyncio socket transport under the aio runtime (the threaded one
#: is reached through :meth:`Tracer.wrap_listener` / ``wrap_connector``)
AIO_TRANSPORT = [
    ("asyncio.selector_events", "_SelectorSocketTransport.write", "transport.send"),
    ("asyncio.selector_events", "_SelectorSocketTransport._write_ready", "transport.send"),
    (
        "asyncio.selector_events",
        "_SelectorSocketTransport._read_ready__data_received",
        "transport.recv",
    ),
]

#: spans whose first positional argument after ``self`` is sized
ITEMS = {"ConnectionLease.pipeline", "AioConnectionLease.pipeline"}
SENT_BYTES = {"_SelectorSocketTransport.write"}


class _Thread:
    """Per-thread state: the open-span stack and this thread's books."""

    __slots__ = ("stack", "books", "ident")

    def __init__(self, ident: int) -> None:
        self.stack: list[list] = []
        self.books: dict[str, list[int]] = {}
        self.ident = ident


class Tracer:
    """Span stacks and per-layer books (calls, self CPU ns, items, bytes)."""

    def __init__(self) -> None:
        self._threads: dict[int, _Thread] = {}
        self._ids = iter(range(1, 1 << 62))
        self._lock = threading.Lock()
        self.spans: list[tuple] = []
        self.dropped = 0
        self.peak_correlations = 0

    # -- span recording ---------------------------------------------------
    def _state(self) -> _Thread:
        ident = threading.get_ident()
        state = self._threads.get(ident)
        if state is None:
            with self._lock:
                state = self._threads.setdefault(ident, _Thread(ident))
        return state

    def enter(self, name: str) -> _Thread:
        state = self._state()
        stack = state.stack
        parent = stack[-1][1] if stack else 0
        stack.append(
            [name, next(self._ids), parent, time.perf_counter_ns(), time.thread_time_ns(), 0]
        )
        return state

    def exit(self, state: _Thread, items: int = 0, nbytes: int = 0) -> None:
        cpu_end = time.thread_time_ns()
        name, span_id, parent, wall_start, cpu_start, child = state.stack.pop()
        cpu = cpu_end - cpu_start
        if state.stack:
            state.stack[-1][5] += cpu
        book = state.books.get(name)
        if book is None:
            book = state.books[name] = [0, 0, 0, 0]
        book[0] += 1
        book[1] += cpu - child
        book[2] += items
        book[3] += nbytes
        if len(self.spans) < SPAN_CAP:
            self.spans.append(
                (span_id, parent, name, state.ident, wall_start, time.perf_counter_ns(), cpu - child)
            )
        else:
            self.dropped += 1

    # -- wrappers ---------------------------------------------------------
    def wrap(self, fn, name: str, items: bool = False, sent: bool = False):
        if inspect.iscoroutinefunction(fn):
            return self._wrap_async(fn, name, items)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(
                    state,
                    len(args[1]) if items else 0,
                    len(args[1]) if sent else 0,
                )

        return traced

    def _wrap_async(self, fn, name: str, items: bool):
        tracer = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            coro = fn(*args, **kwargs)
            return await _Stepped(tracer, coro, name, len(args[1]) if items else 0)

        return traced

    def wrap_listener(self, listener):
        return _TracingListener(self, listener)

    def wrap_connector(self, connector):
        return _TracingConnector(self, connector)

    # -- the control page ---------------------------------------------------
    def reset(self) -> None:
        for state in list(self._threads.values()):
            state.books = {}
        self.spans = []
        self.dropped = 0
        self.peak_correlations = 0

    def books(self) -> dict[str, dict[str, int]]:
        total: dict[str, list[int]] = {}
        for state in list(self._threads.values()):
            for name, book in list(state.books.items()):
                acc = total.setdefault(name, [0, 0, 0, 0])
                for i in range(4):
                    acc[i] += book[i]
        return {
            name: {"calls": c, "self_ns": s, "items": i, "bytes": b}
            for name, (c, s, i, b) in total.items()
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, name, thread, start, end, self_ns in self.spans:
                out.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name, "thread": thread,
                         "start_ns": start, "end_ns": end, "self_cpu_ns": self_ns}
                    )
                    + "\n"
                )

    def page_handler(self, request):
        from repro.http import HttpResponse

        query = urllib.parse.parse_qs(urllib.parse.urlsplit(request.target).query)
        op = query.get("op", [""])[0]
        if op == "reset":
            self.reset()
            payload: dict = {"reset": True}
        else:
            spans_path = query.get("spans", [""])[0]
            if spans_path:
                self.write_spans(spans_path)
            payload = {
                "books": self.books(),
                "spans": len(self.spans),
                "dropped": self.dropped,
                "peak_correlations": self.peak_correlations,
            }
        return HttpResponse(status=200, body=json.dumps(payload).encode())


class _Stepped:
    """Await a coroutine, timing each step as one span of its layer."""

    def __init__(self, tracer: Tracer, coro, name: str, items: int) -> None:
        self.tracer, self.coro, self.name, self.items = tracer, coro, name, items

    def __await__(self):
        tracer, coro, name = self.tracer, self.coro, self.name
        value, error = None, None
        items = self.items
        while True:
            state = tracer.enter(name)
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                tracer.exit(state, items)
                return stop.value
            except BaseException:
                tracer.exit(state, items)
                raise
            tracer.exit(state, items)
            items = 0  # items are counted once per call, not per step
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # noqa: BLE001 - forwarded into the coroutine
                value, error = None, exc


class _TracingStream:
    """A :class:`~repro.transport.base.Stream` whose send/recv are spans;
    bytes are counted on the send side (what the front writes)."""

    def __init__(self, tracer: Tracer, stream) -> None:
        self._tracer, self._stream = tracer, stream

    def send(self, data: bytes) -> None:
        state = self._tracer.enter("transport.send")
        try:
            self._stream.send(data)
        finally:
            self._tracer.exit(state, 0, len(data))

    def recv(self, max_bytes: int, timeout: float | None = None) -> bytes:
        state = self._tracer.enter("transport.recv")
        try:
            return self._stream.recv(max_bytes, timeout)
        finally:
            self._tracer.exit(state)

    def close(self) -> None:
        self._stream.close()


class _TracingListener:
    def __init__(self, tracer: Tracer, listener) -> None:
        self._tracer, self._listener = tracer, listener

    @property
    def endpoint(self):
        return self._listener.endpoint

    def accept(self, timeout: float | None = None):
        return _TracingStream(self._tracer, self._listener.accept(timeout))

    def close(self) -> None:
        self._listener.close()


class _TracingConnector:
    def __init__(self, tracer: Tracer, connector) -> None:
        self._tracer, self._connector = tracer, connector

    def connect(self, endpoint, timeout: float | None = None):
        return _TracingStream(self._tracer, self._connector.connect(endpoint, timeout))


def _patch(tracer: Tracer, module_name: str, path: str, name: str) -> None:
    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(tracer.wrap(raw.__func__, name))
        else:
            wrapped = tracer.wrap(raw, name, items=path in ITEMS, sent=path in SENT_BYTES)
        setattr(cls, attr, wrapped)
        return
    original = getattr(module, path)
    wrapped = tracer.wrap(original, name)
    # replace the function wherever it was imported by name
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro") and getattr(mod, path, None) is original:
            setattr(mod, path, wrapped)


def _sample_correlations(tracer: Tracer) -> None:
    """Track the peak size of the MSG-Dispatcher's correlation table."""
    from repro.core.msg_dispatcher import MsgDispatcher

    routed = MsgDispatcher._process_accepted

    def process_accepted(self, work):
        routed(self, work)
        pending = self.pending_correlations()
        if pending > tracer.peak_correlations:
            tracer.peak_correlations = pending

    MsgDispatcher._process_accepted = process_accepted


def install(aio: bool) -> Tracer:
    """Wrap every layer of :data:`LAYERS` (plus the aio socket transport
    on the aio runtime) and return the tracer holding their spans."""
    import repro.aio  # noqa: F401 - load every module before patching
    import repro.core  # noqa: F401
    import repro.msgbox  # noqa: F401
    import repro.obs.http  # noqa: F401
    import repro.rt  # noqa: F401

    tracer = Tracer()
    for module_name, path, name in LAYERS + (AIO_TRANSPORT if aio else []):
        _patch(tracer, module_name, path, name)
    _sample_correlations(tracer)
    return tracer
