"""Span tracing of the freefactor layers, installed from outside the package.

``Tracer.install()`` wraps every public function and method of each layer
module (plus the few dunders the per-layer metrics need) and rebinds every
``freefactor.*`` module attribute that refers to a wrapped object, because
modules import functions by name.  Each call becomes a span: name, start,
end and parent span.  Spans are aggregated as they close (calls, inclusive
and self time per span name) and the first ``raw_limit`` spans are also kept
verbatim so their nesting can be checked independently.

Self time is a span's duration minus the part its child spans cover; the
root span of each request is ``bench.request``, so the self times of one
request sum to its traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

# layer name -> module; "kernel" is the selector module freefactor._kernel
LAYERS = {
    "words": "freefactor.words",
    "kernel": "freefactor._kernel",
    "stallings": "freefactor.stallings",
    "factors": "freefactor.factors",
    "farey": "freefactor.farey",
    "raag": "freefactor.raag",
    "projections": "freefactor.projections",
    "systems": "freefactor.systems",
    "serialize": "freefactor.serialize",
    "experiments": "freefactor.experiments",
    "cli": "freefactor.cli",
}

# dunders the per-layer metrics need: applying a map, multiplying words,
# and building (validating) a marked graph
DUNDERS = {
    ("words", "GroupMap"): ("__call__",),
    ("words", "Word"): ("__mul__",),
    ("projections", "MarkedGraph"): ("__post_init__",),
}

# one-line leaf accessors called in tight loops by their own layer: wrapping
# them would multiply the tracing overhead without moving time between layers
SKIP = {
    "raag.SimplicialGraph.adjacent",
    "words.Word.is_identity",
    "words.GroupMap.is_identity",
    "words.Alphabet.index",
    "words.Alphabet.name_of",
}

_clock = time.perf_counter


class _Frame:
    __slots__ = ("sid", "key", "child")

    def __init__(self, sid, key):
        self.sid = sid
        self.key = key
        self.child = 0.0


class Tracer:
    """Wraps the layers, records spans, and keeps per-name aggregates."""

    def __init__(self, raw_limit: int = 250_000, check_kernel: bool = False):
        self.raw_limit = raw_limit
        self.names: list = []
        self._key_of: dict = {}
        self.calls: list = []
        self.incl: list = []
        self.self_time: list = []
        self.counters = defaultdict(float)
        self.raw: list = []          # (request, sid, parent sid, key, start, end)
        self.active = False
        self.request_id = -1
        self.stack: list = []
        self.nesting_errors = 0
        self._next_sid = 0
        self._restore: list = []
        self._seen_graphs: dict = {}
        self._raw_ok = True
        self._request_self = 0.0
        self.check_kernel = check_kernel

    # -- names and keys ---------------------------------------------------

    def key(self, name: str) -> int:
        k = self._key_of.get(name)
        if k is None:
            k = len(self.names)
            self._key_of[name] = k
            self.names.append(name)
            self.calls.append(0)
            self.incl.append(0.0)
            self.self_time.append(0.0)
        return k

    # -- spans ------------------------------------------------------------

    def _open(self, key: int) -> _Frame:
        frame = _Frame(self._next_sid, key)
        self._next_sid += 1
        self.stack.append(frame)
        return frame

    def _close(self, frame: _Frame, start: float, end: float) -> None:
        self.stack.pop()
        dur = end - start
        own = dur - frame.child
        if own < 0.0:
            self.nesting_errors += 1
        k = frame.key
        self.calls[k] += 1
        self.incl[k] += dur
        self.self_time[k] += own
        self._request_self += own
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.child += dur
        if self._raw_ok:
            if len(self.raw) < self.raw_limit:
                self.raw.append(
                    (self.request_id, frame.sid, parent.sid if parent else -1, k, start, end)
                )
            else:
                self._raw_ok = False

    def wrap(self, fn, name: str, pre=None, post=None):
        """A function that runs ``fn`` inside a span called ``name``."""
        tracer = self
        key = self.key(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(tracer, args, kwargs)
            frame = tracer._open(key)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, start, _clock())
            if post is not None:
                post(tracer, args, result)
            return result

        return wrapper

    @contextmanager
    def request(self):
        """Root span of one request; checks that its self times sum to it."""
        self.request_id += 1
        raw_before = len(self.raw)
        self._request_self = 0.0
        self.stack = []
        frame = self._open(self.key("bench.request"))
        self.active = True
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            self.active = False
            self._close(frame, start, end)
            if abs(self._request_self - (end - start)) > 1e-6 + 1e-9 * (end - start):
                self.nesting_errors += 1
            if not self._raw_ok:
                del self.raw[raw_before:]

    @contextmanager
    def span(self, name: str):
        """An explicit span opened by the benchmark itself."""
        frame = self._open(self.key(name))
        start = _clock()
        try:
            yield
        finally:
            self._close(frame, start, _clock())

    # -- installing wrappers ----------------------------------------------

    def install(self, extra=()):
        """Wrap every layer; ``extra`` lists (object, attribute, span name)."""
        replaced = {}
        hooks = _hooks(self)
        for layer, modname in LAYERS.items():
            mod = importlib.import_module(modname)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                local = getattr(obj, "__module__", None) == modname
                if layer == "kernel":
                    local = attr in mod.__all__ and callable(obj)
                if not local:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj, hooks)
                elif inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper) or (
                    layer == "kernel" and callable(obj)
                ):
                    replaced[id(obj)] = (obj, self.wrap(obj, name, *hooks.get(name, (None, None))))
        cli = sys.modules["freefactor.cli"]
        for cmd in cli.main.commands.values():
            cb = cmd.callback
            self._restore.append((cmd, "callback", cb))
            cmd.callback = self.wrap(cb, f"cli.{cb.__name__}")
        for target, attr, name in extra:
            orig = getattr(target, attr)
            self._restore.append((target, attr, orig))
            setattr(target, attr, self.wrap(orig, name))
        # rebind every module attribute that refers to a wrapped object
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "freefactor" or modname.startswith("freefactor.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def _wrap_class(self, layer, cls, hooks):
        wanted = DUNDERS.get((layer, cls.__name__), ())
        for mname, mobj in list(vars(cls).items()):
            if not inspect.isfunction(mobj):
                continue
            if mname.startswith("_") and mname not in wanted:
                continue
            name = f"{layer}.{cls.__name__}.{mname}"
            if name in SKIP:
                continue
            self._restore.append((cls, mname, mobj))
            setattr(cls, mname, self.wrap(mobj, name, *hooks.get(name, (None, None))))

    def uninstall(self):
        for target, attr, orig in reversed(self._restore):
            setattr(target, attr, orig)
        self._restore.clear()

    # -- reading the aggregates -------------------------------------------

    def stat(self, name: str):
        """(calls, inclusive seconds, self seconds) of one span name."""
        k = self._key_of.get(name)
        if k is None:
            return 0, 0.0, 0.0
        return self.calls[k], self.incl[k], self.self_time[k]

    def layer_self(self) -> dict:
        out = defaultdict(float)
        for k, name in enumerate(self.names):
            out[name.split(".", 1)[0]] += self.self_time[k]
        return dict(out)

    def group(self, names) -> tuple:
        calls = incl = own = 0
        for n in names:
            c, i, s = self.stat(n)
            calls += c
            incl += i
            own += s
        return calls, incl, own


def _hooks(tracer: Tracer) -> dict:
    """Counters taken at the span boundaries: name -> (pre, post)."""
    key_whitehead = tracer.key("factors.is_free_factor")
    seen = tracer._seen_graphs
    c = tracer.counters

    def invert_pre(tr, args, kwargs):
        if args[0].inverse_hint is None:
            c["words.invert.searches"] += 1

    def reduce_pre(tr, args, kwargs):
        seq = args[0]
        c["kernel.reduce.letters"] += len(seq) if hasattr(seq, "__len__") else 0

    def fold_pre(tr, args, kwargs):
        gens = args[1] if len(args) > 1 else kwargs["gens"]
        c["stallings.fold.edges"] += sum(len(g.letters) for g in gens)
        if tr.stack and tr.stack[-1].key == key_whitehead:
            c["factors.whitehead.folds"] += 1

    def spanning_pre(tr, args, kwargs):
        g = args[0]
        ref = seen.get(id(g))
        if ref is not None and ref() is g:
            c["stallings.spanning_tree.repeats"] += 1
        else:
            seen[id(g)] = weakref.ref(g)

    def pullback_pre(tr, args, kwargs):
        A, B = args[0], args[1]
        c["stallings.pullback.product_states"] += A.num_vertices * B.num_vertices

    def min_set_post(tr, args, result):
        c["raag.min_set.words"] += len(result)

    def agree(fn):
        # compiled kernel only: compare with the pure-Python reference inside
        # a span of the benchmark's own, so the check is not charged to a layer
        def post(tr, args, result):
            with tr.span("bench.kernel_check"):
                c["kernel.checked"] += 1
                if list(result) != fn(*args):
                    c["kernel.mismatches"] += 1
        return post if tracer.check_kernel else None

    from freefactor import _reduce_py

    return {
        "words.invert_automorphism": (invert_pre, None),
        "kernel.reduce_word": (reduce_pre, agree(_reduce_py.reduce_word)),
        "kernel.concat": (None, agree(_reduce_py.concat)),
        "stallings.from_generators": (fold_pre, None),
        "stallings.SubgroupGraph.spanning_tree": (spanning_pre, None),
        "stallings.pullback_components": (pullback_pre, None),
        "raag.min_set": (None, min_set_post),
    }


def check_nesting(raw, tol: float = 1e-9) -> list:
    """Independent check of recorded spans; returns a list of problems.

    Every span must lie inside its parent, every self time must be >= 0, and
    per request the self times must sum to the root span's duration.
    """
    problems = []
    by_sid = {sid: (req, parent, start, end) for req, sid, parent, _k, start, end in raw}
    child = defaultdict(float)
    for req, sid, parent, _k, start, end in raw:
        if parent == -1:
            continue
        p = by_sid.get(parent)
        if p is None or p[0] != req:
            problems.append(f"span {sid}: parent {parent} missing from request {req}")
            continue
        if start < p[2] - tol or end > p[3] + tol:
            problems.append(f"span {sid} escapes its parent {parent}")
        child[parent] += end - start
    self_sum = defaultdict(float)
    root = {}
    for req, sid, parent, _k, start, end in raw:
        own = (end - start) - child[sid]
        if own < -tol:
            problems.append(f"span {sid}: negative self time {own}")
        self_sum[req] += own
        if parent == -1:
            root[req] = end - start
    for req, wall in root.items():
        if abs(self_sum[req] - wall) > 1e-6 + 1e-9 * wall:
            problems.append(f"request {req}: self times sum to {self_sum[req]}, wall {wall}")
    return problems


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tr: Tracer, cache_delta: dict, caches: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced run."""
    c = tr.counters
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    st = tr.stat
    request_s = st("bench.request")[1]
    check_s = st("bench.kernel_check")[1]
    layer_self = tr.layer_self()
    for layer in LAYERS:
        put(f"{layer}.self_s", layer_self.get(layer, 0.0), "s")
        put(f"{layer}.self_share", 100.0 * _ratio(layer_self.get(layer, 0.0), request_s), "%")
    put("bench.self_share", 100.0 * _ratio(layer_self.get("bench", 0.0) - check_s, request_s), "%")

    put("words.invert.calls", st("words.invert_automorphism")[0], "count")
    put("words.invert.searches", c["words.invert.searches"], "count")
    put("words.invert.self_s", st("words.invert_automorphism")[2], "s")
    put("words.compose.calls", st("words.compose_map")[0], "count")
    put("words.map_apply.calls", st("words.GroupMap.__call__")[0], "count")
    put("words.is_inner.calls", st("words.is_inner")[0], "count")

    put("kernel.reduce.calls", st("kernel.reduce_word")[0], "count")
    put("kernel.reduce.letters", c["kernel.reduce.letters"], "count")
    put("kernel.concat.calls", st("kernel.concat")[0], "count")

    fold = tr.group(("stallings.from_generators", "stallings.fold"))
    put("stallings.fold.calls", st("stallings.from_generators")[0], "count")
    put("stallings.fold.edges", c["stallings.fold.edges"], "count")
    put("stallings.fold.self_s", fold[2], "s")
    put("stallings.membership.calls", st("stallings.membership_rewrite")[0], "count")
    put("stallings.membership.self_s", st("stallings.membership_rewrite")[2], "s")
    span_calls = st("stallings.SubgroupGraph.spanning_tree")[0]
    put("stallings.spanning_tree.repeat_ratio",
        _ratio(c["stallings.spanning_tree.repeats"], span_calls), "ratio")
    put("stallings.pullback.calls", st("stallings.pullback_components")[0], "count")
    put("stallings.pullback.product_states", c["stallings.pullback.product_states"], "count")

    put("factors.whitehead.calls", st("factors.is_free_factor")[0], "count")
    put("factors.whitehead.folds", c["factors.whitehead.folds"], "count")
    put("factors.disjoint.calls", st("factors.disjoint_check")[0], "count")
    put("factors.meet.calls", st("factors.meet_projection")[0], "count")

    def hit_ratio(name):
        h, mi = cache_delta[name]
        return _ratio(h, h + mi)

    put("projections.project.calls", st("projections.project_tree")[0], "count")
    put("projections.project.hit_ratio", hit_ratio("project_tree"), "ratio")
    put("projections.project.self_s", st("projections.project_tree")[2], "s")
    put("projections.marked.built", st("projections.MarkedGraph.__post_init__")[0], "count")
    put("projections.marked.self_s", st("projections.MarkedGraph.__post_init__")[2], "s")
    put("projections.marking_inverse.hit_ratio", hit_ratio("marking_inverse"), "ratio")

    put("farey.distance.calls", st("farey.farey_distance")[0], "count")
    put("farey.distance.self_s", st("farey.farey_distance")[2], "s")
    put("farey.dist_cache.hit_ratio", hit_ratio("farey_dist"), "ratio")

    put("raag.normalize.calls", st("raag.normalize")[0], "count")
    put("raag.min_set.words", c["raag.min_set.words"], "count")

    put("systems.certify.busy_s", st("systems.certify_support")[1], "s")
    put("systems.admissible.busy_s", st("systems.verify_admissible")[1], "s")

    put("serialize.load.calls", st("serialize.system_from_json")[0], "count")

    put("experiments.run.calls", st("experiments.run_experiment")[0], "count")
    put("experiments.random_tree.calls", st("experiments.random_tree")[0], "count")

    put("cli.invoke.calls", st("cli.invoke")[0], "count")

    for name, size in caches.items():
        put(f"cache.{name}.currsize", size, "count")
    put("trace.requests", st("bench.request")[0], "count")
    put("trace.request_s", request_s, "s")
    put("trace.spans", sum(tr.calls), "count")
    return m
