"""Per-layer attribution by span wrappers installed from outside the program.

``install(tracer)`` wraps each layer's entry points (``entry_points()``)
so every call records a span: name, start, end, parent span and the
invocation it belongs to.  Functions are replaced in every ``repro``
module namespace that imported them by name; methods are replaced on the
defining class and on every subclass that overrides them.

Generators get one span slice per resumption.  Two cases cover them:

* a generator *function* entry point (``SimulatedNetwork.perform``, used
  through ``yield from``) is wrapped so each ``send``/``throw`` into it is
  a slice;
* a generator run as a simulation ``Process`` has each kernel resume
  recorded as a slice named after the layer whose module defines the
  generator (``dispatcher:Dispatcher._invoke``, ``engines.compute:...``).

A process inherits the invocation id that was current when it was
created, so every span of one invocation shares its id.  Callbacks the
kernel fires directly (timers, condition events) run inside no span but
the kernel's own and count as ``sim`` time.

Self time is a span's duration minus the time its child spans cover, so
standard-library time counts toward the layer that called it.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

# Module path prefix (relative to the ``repro`` package) -> layer.  The
# first match wins, so more specific prefixes come first.
LAYER_OF_PATH = (
    ("sim/sharded/", "sharded"),
    ("dispatcher/windowed.py", "sharded"),
    ("sim/", "sim"),
    ("trace/", "trace"),
    ("cluster/", "cluster"),
    ("sched/", "sched"),
    ("dispatcher/", "dispatcher"),
    ("frontend/", "dispatcher"),
    ("engines/comm_engine.py", "engines.comm"),
    ("engines/", "engines.compute"),
    ("backends/", "backends"),
    ("functions/", "functions"),
    ("apps/", "apps"),
    ("data/", "data"),
    ("net/", "net"),
)

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def layer_of_file(filename):
    path = filename.replace(os.sep, "/")
    if path.startswith(_BENCH_DIR.replace(os.sep, "/")):
        return "harness"
    marker = path.rfind("/repro/")
    if marker < 0:
        return "setup"
    relative = path[marker + len("/repro/"):]
    for prefix, layer in LAYER_OF_PATH:
        if relative.startswith(prefix):
            return layer
    return "setup"


class Tracer:
    """Spans kept in memory; self time summed per span name as spans close."""

    def __init__(self):
        self.records = []  # [name, start_ns, end_ns, parent_index, invocation]
        self._stack = []   # [record_index, start_ns, child_ns]
        self.self_ns = {}
        self.calls = {}
        self.root_ns = 0
        self.invocation = None
        self.resumes = 0
        self.bytes_stored = 0
        self._process_info = {}
        self._labels = {}

    def enter(self, name):
        stack = self._stack
        records = self.records
        parent = stack[-1][0] if stack else -1
        records.append([name, 0, 0, parent, self.invocation])
        stack.append([len(records) - 1, time.perf_counter_ns(), 0])

    def leave(self):
        end = time.perf_counter_ns()
        index, start, child = self._stack.pop()
        record = self.records[index]
        record[1] = start
        record[2] = end
        duration = end - start
        name = record[0]
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - child
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_ns += duration

    def tag(self, invocation):
        """Mark the running code as working for ``invocation``."""
        self.invocation = invocation

    def label_of_code(self, code):
        label = self._labels.get(code)
        if label is None:
            qualname = getattr(code, "co_qualname", code.co_name)
            label = f"{layer_of_file(code.co_filename)}:{qualname}"
            self._labels[code] = label
        return label

    # -- aggregation ------------------------------------------------------------

    def layer_self_ns(self):
        out = {}
        for name, value in self.self_ns.items():
            layer = name.split(":", 1)[0]
            out[layer] = out.get(layer, 0) + value
        return out

    def calls_with_prefix(self, prefix):
        return sum(count for name, count in self.calls.items()
                   if name.startswith(prefix))

    def write_chrome_trace(self, path, limit=200_000):
        """Chrome trace-event JSON of the first ``limit`` spans."""
        events = []
        for name, start, end, parent, invocation in self.records[:limit]:
            events.append({
                "name": name, "cat": name.split(":", 1)[0], "ph": "X",
                "ts": start / 1e3, "dur": (end - start) / 1e3,
                "pid": 1, "tid": 1,
                "args": {"parent": parent, "invocation": invocation},
            })
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events,
                       "otherData": {"spans": len(self.records),
                                     "written": len(events)}}, handle)


# -- wrappers -----------------------------------------------------------------------


def _traced_generator(generator, name, tracer):
    enter, leave = tracer.enter, tracer.leave
    value = None
    error = None
    while True:
        enter(name)
        try:
            if error is None:
                yielded = generator.send(value)
            else:
                yielded = generator.throw(error)
        except StopIteration as stop:
            leave()
            return stop.value
        except BaseException:
            leave()
            raise
        leave()
        try:
            value = yield yielded
            error = None
        except GeneratorExit:
            generator.close()
            raise
        except BaseException as exc:  # delivered into the wrapped generator
            value = None
            error = exc


_TRACED_GENERATOR_CODE = _traced_generator.__code__


def wrap(function, name, tracer):
    """A span wrapper for ``function`` (one slice per resume if a generator)."""
    enter, leave = tracer.enter, tracer.leave
    if inspect.isgeneratorfunction(function):
        @functools.wraps(function)
        def generator_wrapper(*args, **kwargs):
            return _traced_generator(function(*args, **kwargs), name, tracer)
        return generator_wrapper

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        enter(name)
        try:
            return function(*args, **kwargs)
        finally:
            leave()
    return wrapper


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attribute, value):
        previous = (owner.__dict__[attribute] if isinstance(owner, type)
                    else getattr(owner, attribute))
        self._undo.append(lambda: setattr(owner, attribute, previous))
        setattr(owner, attribute, value)

    def set_frozen(self, instance, attribute, value):
        """Replace a field of a frozen dataclass instance."""
        previous = getattr(instance, attribute)
        self._undo.append(lambda: object.__setattr__(instance, attribute, previous))
        object.__setattr__(instance, attribute, value)

    def undo(self):
        while self._undo:
            self._undo.pop()()


def _repro_modules():
    return [module for name, module in sorted(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))]


def patch_function(patches, function, replacement):
    """Replace ``function`` in every repro module that holds it by name."""
    hits = 0
    for module in _repro_modules():
        for attribute, value in list(vars(module).items()):
            if value is function:
                patches.set(module, attribute, replacement)
                hits += 1
    return hits


def _subclasses(cls):
    seen = [cls]
    for sub in cls.__subclasses__():
        for found in _subclasses(sub):
            if found not in seen:
                seen.append(found)
    return seen


def patch_method(patches, cls, method, layer, tracer, make=None):
    """Wrap ``cls.method`` and every override of it in a subclass."""
    hits = 0
    for owner in _subclasses(cls):
        function = owner.__dict__.get(method)
        if function is None or not callable(function):
            continue
        name = f"{layer}:{owner.__name__}.{method}"
        replacement = make(function) if make else wrap(function, name, tracer)
        patches.set(owner, method, replacement)
        hits += 1
    return hits


def entry_points():
    """``(layer, target)`` pairs: a function, or ``(class, method name)``."""
    from repro.backends.base import IsolationBackend
    from repro.cluster.manager import ClusterManager
    from repro.data import context, lazy
    from repro.dispatcher.dispatcher import Dispatcher
    from repro.dispatcher.windowed import WindowedRouter
    from repro.frontend.http_frontend import Frontend
    from repro.functions import compute, purity
    from repro.net.network import SimulatedNetwork
    from repro.sched.routing import RoutingPolicy
    from repro.sim.core import Environment
    from repro.sim.sharded import coordinator, shard

    guard_type = type(purity.purity_guard())
    return [
        ("sim", (Environment, "run")),
        ("cluster", (ClusterManager, "invoke")),
        ("sched", (RoutingPolicy, "decide")),
        ("dispatcher", (Frontend, "invoke")),
        ("dispatcher", (Dispatcher, "invoke")),
        ("backends", (IsolationBackend, "execute")),
        ("functions", compute.run_compute_function),
        ("functions", purity.purity_guard),
        ("functions", (guard_type, "__enter__")),
        ("functions", (guard_type, "__exit__")),
        ("data", context.serialized_size),
        ("data", context.serialize_sets),
        ("data", lazy.parse_sets_lazy),
        ("net", (SimulatedNetwork, "perform")),
        ("sharded", coordinator.run_sharded_replay),
        ("sharded", (shard.ShardSim, "run_window")),
        ("sharded", (WindowedRouter, "route_window")),
    ]


def install(tracer):
    """Install every span wrapper; returns the ``Patches`` that undo them."""
    from repro.data.context import MemoryContext
    from repro.engines.group import EngineGroup
    from repro.sim.core import Process

    patches = Patches()
    for layer, target in entry_points():
        if isinstance(target, tuple):
            cls, method = target
            hits = patch_method(patches, cls, method, layer, tracer)
        else:
            qualname = target.__qualname__
            hits = patch_function(patches, target,
                                  wrap(target, f"{layer}:{qualname}", tracer))
        if not hits:
            raise RuntimeError(f"entry point {target!r} is not reachable")

    enter, leave = tracer.enter, tracer.leave

    def store_sets_factory(function):
        @functools.wraps(function)
        def store_sets(self, *args, **kwargs):
            enter("data:MemoryContext.store_sets")
            try:
                size = function(self, *args, **kwargs)
            finally:
                leave()
            tracer.bytes_stored += size
            return size
        return store_sets

    patch_method(patches, MemoryContext, "store_sets", "data", tracer,
                 make=store_sets_factory)

    def submit_factory(function):
        @functools.wraps(function)
        def submit(self, task):
            enter("engines.compute:EngineGroup.submit" if self.kind == "compute"
                  else "engines.comm:EngineGroup.submit")
            try:
                return function(self, task)
            finally:
                leave()
        return submit

    patch_method(patches, EngineGroup, "submit", "engines", tracer,
                 make=submit_factory)

    info = tracer._process_info
    label_of_code = tracer.label_of_code
    original_init = Process.__init__
    original_resume = Process._resume

    def init(self, env, generator):
        code = getattr(generator, "gi_code", None)
        if code is None or code is _TRACED_GENERATOR_CODE:
            label = None
        else:
            label = label_of_code(code)
        info[self] = (tracer.invocation, label)
        original_init(self, env, generator)

    def resume(self, event):
        tracer.resumes += 1
        invocation, label = info.get(self, (None, None))
        previous = tracer.invocation
        tracer.invocation = invocation
        if label is None:
            try:
                original_resume(self, event)
            finally:
                tracer.invocation = previous
            return
        enter(label)
        try:
            original_resume(self, event)
        finally:
            leave()
            tracer.invocation = previous

    patches.set(Process, "__init__", init)
    patches.set(Process, "_resume", resume)
    return patches


def wrap_user_functions(patches, cluster, tracer):
    """Give each registered user callable its own span (``apps`` for the
    bundled applications, ``functions`` otherwise)."""
    seen = set()
    for worker in cluster.workers:
        registry = worker.registry
        for name in registry.function_names:
            binary = registry.function(name)
            if id(binary) in seen:
                continue
            seen.add(id(binary))
            entry = binary.entry_point
            module = getattr(entry, "__module__", "") or ""
            layer = "apps" if module.startswith("repro.apps") else "functions"
            patches.set_frozen(binary, "entry_point",
                               wrap(entry, f"{layer}:user", tracer))


def traced_stream(tracer):
    """Wraps the replay's arrival stream so each pull is a ``trace`` span."""
    def wrap_next(stream):
        enter, leave = tracer.enter, tracer.leave
        while True:
            enter("trace:next")
            try:
                record = next(stream)
            except StopIteration:
                leave()
                return
            leave()
            yield record
    return wrap_next
