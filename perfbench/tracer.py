"""In-memory spans around the package's public functions, and the per-layer
numbers computed from them.

``Tracer.patched()`` wraps every public function of the five package
modules and ``TriMatrix.__post_init__``.  Each wrapper records one span,
(name, start, end, parent), into arrays kept in memory; nothing is written
while the traced code runs.  The wrappers are bound under every name that
refers to the original function in any ``fishburn`` module (``from .x
import y`` makes a second binding) and in any extra module the caller
names, and the originals come back when the context ends.

A span's self time is its duration minus the part of it that its child
spans cover.  Every instant of a traced run therefore belongs to exactly
one span, so a wrapper nested in another (the chain calling ``alpha``)
is never counted twice, and the self times of all spans add up to the
duration of the root spans.
"""

import contextlib
import gzip
import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("cli", "matrices", "enumeration", "bijections", "posets")
FAMILIES = ("fishburn", "self_dual", "rm", "sm", "b")
ROOT_SPAN = "bench.pass"
CONSTRUCT = "matrices.TriMatrix.__post_init__"
ENUMERATE = "enumeration.enumerate_family"

# per-layer metric stem -> the span it reads
CALLED = {
    "matrices.construct": CONSTRUCT,
    "matrices.stats": "matrices.stats",
    "bijections.alpha": "bijections.alpha",
    "bijections.alpha_inv": "bijections.alpha_inv",
    "bijections.beta": "bijections.beta",
    "bijections.beta_inv": "bijections.beta_inv",
    "bijections.chain": "bijections.selfdual_to_signed_rm",
    "bijections.project": "bijections.project_b_to_signed_rm",
    "bijections.embed": "bijections.embed_rm_in_b",
    "bijections.em_to_sm": "bijections.em_to_sm",
}
SELF_ONLY = {
    "matrices.parse_s": "matrices.parse_matrix",
    "matrices.format_s": "matrices.format_matrix",
    "enumeration.count_refined_s": "enumeration.count_refined",
    "enumeration.verify_s": "enumeration.verify_identity",
    "posets.encode_s": "posets.poset_to_fishburn",
    "posets.decode_s": "posets.fishburn_to_poset",
    "posets.self_dual_s": "posets.is_self_dual_poset",
}
# root spans of the command layer, reported with their children included
INCLUSIVE = {
    "cli.verify_s": "cli.cmd_verify",
    "cli.count_s": "cli.cmd_count",
}
TRACE_TIMES = ("trace.untraced_s", "trace.traced_s", "trace.overhead_s")


def metric_names():
    """Every per-layer metric name, in report order."""
    names = list(TRACE_TIMES)
    names += [f"layer.{layer}.self_s" for layer in LAYERS + ("bench",)]
    names += list(INCLUSIVE)
    for stem in CALLED:
        names += [f"{stem}_calls", f"{stem}_s"]
    names += list(SELF_ONLY)
    names += ["enumeration.members", "enumeration.enumerate_s"]
    for family in FAMILIES:
        names += [f"enumeration.members.{family}", f"enumeration.enumerate_s.{family}"]
    names += ["enumeration.cache_hits", "enumeration.cache_misses", "trace.spans"]
    return names


def metric_unit(name):
    return "s" if name.endswith("_s") or "_s." in name else "count"


# every count is exact: two traced passes over the same inputs must agree
EXACT_COUNTS = tuple(name for name in metric_names() if metric_unit(name) == "count")


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        # span index -> (family tag value, members built, or None on a cache hit)
        self.enumerations = {}

    def name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, fn, name):
        """``fn`` with a span named ``name`` around every call."""
        name_id = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _wrap_enumerate(self, cached):
        """The cached enumerator, also noting the family and whether the
        call built the members (a cache miss) or found them."""
        inner = self.wrap(cached, ENUMERATE)
        enumerations = self.enumerations
        starts = self.start

        def traced(family, n):
            idx = len(starts)
            misses = cached.cache_info().misses
            members = inner(family, n)
            built = cached.cache_info().misses != misses
            enumerations[idx] = (family.value, len(members) if built else None)
            return members

        return traced

    def run(self, name, fn, *args):
        """Call ``fn(*args)`` inside a span named ``name``."""
        return self.wrap(fn, name)(*args)

    @contextlib.contextmanager
    def patched(self, extra_modules=()):
        """Rebind the package's public functions to traced wrappers."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"fishburn.{layer}")
            for attr, value in vars(module).items():
                if attr.startswith("_") or inspect.isclass(value):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if hasattr(value, "cache_info"):
                    wrappers[id(value)] = (value, self._wrap_enumerate(value))
                elif inspect.isfunction(value):
                    wrappers[id(value)] = (value, self.wrap(value, f"{layer}.{attr}"))
        matrices = sys.modules["fishburn.matrices"]
        post_init = matrices.TriMatrix.__post_init__
        modules = [m for key, m in list(sys.modules.items())
                   if key == "fishburn" or key.startswith("fishburn.")]
        modules += list(extra_modules)
        restore = []
        try:
            matrices.TriMatrix.__post_init__ = self.wrap(post_init, CONSTRUCT)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers and wrappers[id(value)][0] is value:
                        restore.append((module, attr, value))
                        setattr(module, attr, wrappers[id(value)][1])
            yield self
        finally:
            matrices.TriMatrix.__post_init__ = post_init
            for module, attr, value in restore:
                setattr(module, attr, value)


def self_times(parent, start, end):
    """Self time of each span, in the spans' own time unit.

    Spans must be listed in order of start, as the tracer records them.
    The part of a span covered by its children is the union of the child
    intervals clipped to the span, so overlapping children count once.
    """
    n = len(start)
    covered = [0] * n
    reach = list(start)
    for c in range(n):
        p = parent[c]
        if p < 0:
            continue
        lo = max(start[c], reach[p])
        hi = min(end[c], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def summarize(tracer):
    """Per-layer metrics of one traced pass: calls, self seconds per span
    name, per-layer self seconds, and the enumerator's members by family.
    Cache counters and pass walls are added by the caller."""
    selfs = self_times(tracer.parent, tracer.start, tracer.end)
    names = tracer.names
    calls = [0] * len(names)
    self_ns = [0] * len(names)
    incl_ns = [0] * len(names)
    layer_ns = {layer: 0 for layer in LAYERS + ("bench",)}
    for idx, name_id in enumerate(tracer.name):
        calls[name_id] += 1
        self_ns[name_id] += selfs[idx]
        incl_ns[name_id] += tracer.end[idx] - tracer.start[idx]
    for name_id, name in enumerate(names):
        layer_ns[name.split(".", 1)[0]] += self_ns[name_id]
    by_name = {name: name_id for name_id, name in enumerate(names)}

    def pick(table, span):
        return table[by_name[span]] if span in by_name else 0

    out = {"trace.spans": len(tracer.start)}
    for layer, ns in layer_ns.items():
        out[f"layer.{layer}.self_s"] = ns / 1e9
    for metric, span in INCLUSIVE.items():
        out[metric] = pick(incl_ns, span) / 1e9
    for stem, span in CALLED.items():
        out[f"{stem}_calls"] = pick(calls, span)
        out[f"{stem}_s"] = pick(self_ns, span) / 1e9
    for metric, span in SELF_ONLY.items():
        out[metric] = pick(self_ns, span) / 1e9
    members = dict.fromkeys(FAMILIES, 0)
    enum_ns = dict.fromkeys(FAMILIES, 0)
    for idx, (family, built) in tracer.enumerations.items():
        enum_ns[family] += selfs[idx]
        members[family] += built or 0
    out["enumeration.members"] = sum(members.values())
    out["enumeration.enumerate_s"] = sum(enum_ns.values()) / 1e9
    for family in FAMILIES:
        out[f"enumeration.members.{family}"] = members[family]
        out[f"enumeration.enumerate_s.{family}"] = enum_ns[family] / 1e9
    return out


def write_spans(tracer, path):
    """Write the recorded spans as gzipped tab-separated text: index, name,
    start and end in nanoseconds, parent index (-1 for a root)."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
        out.write("index\tname\tstart_ns\tend_ns\tparent\n")
        names = tracer.names
        for idx in range(len(tracer.start)):
            out.write(f"{idx}\t{names[tracer.name[idx]]}\t{tracer.start[idx]}\t"
                      f"{tracer.end[idx]}\t{tracer.parent[idx]}\n")
