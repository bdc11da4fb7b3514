"""Per-layer tracing of superroot from outside the program.

``Tracer.install`` wraps every public function of each traced module, and the
public methods of the catalog handles and the oracle realization, and then
rebinds every alias of each wrapped function: the defining module, every
module that imported it by name (``basegraph.pair``, ``pisystem.feasible_nonneg``,
``oracle.rref``, ...) and the package namespace.  Each catalog subclass's own
``contains_ed`` override is wrapped on that subclass.  A layer is a module; a
function's self time is its span time minus the time of wrapped calls it made,
and a module's self time is the sum over its functions.

Wrappers record only while a case span is open, so set-up, input generation
and cross-checks never count.  Every call is aggregated (calls, total, self)
in the wrapper.  A span with its parent is kept for each entry into a layer
(a call whose caller is in another module), except for the hot leaves in
``HOT``, which are only aggregated so that memory stays bounded; kept spans
are capped at ``SPAN_CAP``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import perf_counter

PACKAGE = "superroot"
MODULES = (
    "cartan", "rootspace", "basegraph", "catalog", "linalg", "lp",
    "pisystem", "rootstring", "oracle", "cli", "replay",
)
# Modules that report <module>.self_s.  errors defines no functions and
# replay only chains the other layers.
LAYERS = (
    "cartan", "rootspace", "basegraph", "catalog", "linalg", "lp",
    "pisystem", "rootstring", "oracle", "cli",
)

# Tuple arithmetic that costs less than a wrapper; its time is charged to the
# caller's layer.
UNWRAPPED = {
    "rootspace": {"root", "coroot", "height", "add", "sub", "neg", "scale", "is_nonneg"},
    "linalg": {"frac", "vec", "mat", "vadd", "vsub", "vneg", "vscale", "is_zero_vec"},
}

# Aggregated only: called per root or per matrix entry, up to ~10^6 times a run.
HOT = {
    "catalog.contains_ed", "catalog.contains", "catalog.is_real", "catalog.is_imaginary",
    "catalog.is_real_ed", "catalog.is_imaginary_ed", "catalog.to_ed", "catalog.to_alpha",
    "catalog.parity", "catalog.parity_ed", "catalog.is_isotropic", "catalog.is_isotropic_ed",
    "catalog.bilinear", "catalog.bilinear_ed", "catalog.pairing", "catalog.is_positive",
    "catalog.degree_of", "catalog.finite_part",
    "rootspace.pair", "rootspace.bilinear",
    "pisystem.reflect", "oracle.gm_bracket", "oracle.loop_bracket",
}
SPAN_CAP = 100_000  # kept spans; later ones are only counted as dropped


def _method_owners(modname: str, mod) -> list[type]:
    """Classes whose public methods are layer entry points."""
    classes = [c for c in vars(mod).values()
               if inspect.isclass(c) and c.__module__ == mod.__name__]
    if modname == "catalog":
        return [c for c in classes if issubclass(c, mod.RootSystemHandle)]
    if modname == "oracle":
        return [mod.Realization]
    return []


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []  # (id, parent_id, name, start, end)
        self.spans_dropped = 0
        self.active = False
        # frame: [child_time, module, span_id]
        self._stack: list[list] = []
        self._next_id = 0
        self._observers = _observers(self)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module(PACKAGE)
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        wrapped: dict[int, object] = {}
        for modname, mod in mods.items():
            skip = UNWRAPPED.get(modname, set())
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and attr not in skip and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self._wrap(f"{modname}.{attr}", modname, obj)
            for cls in _method_owners(modname, mod):
                for attr, obj in list(vars(cls).items()):
                    if not attr.startswith("_") and inspect.isfunction(obj):
                        setattr(cls, attr, self._wrap(f"{modname}.{attr}", modname, obj))
        for mod in [pkg, *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    setattr(mod, attr, w)

    def _wrap(self, name: str, module: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        observer = self._observers.get(name)
        tracer = self
        stack = self._stack

        keep_spans = name not in HOT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1]
            span_id = parent[2]
            if keep_spans and parent[1] != module:
                span_id = tracer._new_span_id()
            frame = [0.0, module, span_id]
            token = observer.before(args) if observer is not None else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if observer is not None:
                    observer.after(token, args, None, exc)
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                parent[0] += dt
                if span_id != parent[2]:
                    tracer._keep_span(span_id, parent[2], name, t0, t1)
            if observer is not None:
                observer.after(token, args, result, None)
            return result

        return wrapper

    def _new_span_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _keep_span(self, span_id, parent_id, name, t0, t1) -> None:
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent_id, name, t0, t1))
        else:
            self.spans_dropped += 1

    # -- case spans -------------------------------------------------------

    def begin_case(self, label: str) -> None:
        span_id = self._new_span_id()
        self._case = (span_id, label)
        self._stack.append([0.0, "bench", span_id])
        self._case_t0 = perf_counter()
        self.active = True

    def end_case(self) -> None:
        t1 = perf_counter()
        self.active = False
        frame = self._stack.pop()
        dt = t1 - self._case_t0
        stat = self.stats.setdefault("bench.case", [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += dt
        stat[2] += dt - frame[0]
        self._keep_span(self._case[0], None, f"case:{self._case[1]}", self._case_t0, t1)
        for obs in self._observers.values():
            obs.end_case()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "dropped": self.spans_dropped, "spans": self.spans}, fh)

    # -- per-layer metrics ------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def module_self_s(self, module: str) -> float:
        prefix = module + "."
        return sum(s[2] for n, s in self.stats.items() if n.startswith(prefix))

    def case_time(self) -> float:
        return self.stats.get("bench.case", [0, 0.0, 0.0])[1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Observer:
    """Derives a counter from one function's arguments or result."""

    def __init__(self, tracer: Tracer):
        self.t = tracer

    def before(self, args):
        return None

    def after(self, token, args, result, exc) -> None:
        pass

    def end_case(self) -> None:
        pass


class _ToEd(_Observer):
    # Distinct (handle, key) queries per case; every case has its own handle.
    def __init__(self, tracer):
        super().__init__(tracer)
        self.keys: set = set()

    def after(self, token, args, result, exc):
        self.keys.add((id(args[0]), tuple(args[1])))

    def end_case(self):
        self.t.count("catalog.to_ed.distinct", len(self.keys))
        self.keys.clear()


class _Feasible(_Observer):
    def after(self, token, args, result, exc):
        rows = args[0]
        self.t.count("lp.feasible_nonneg.vars", len(rows[0]) if rows else 0)
        if exc is None and result is not None:
            self.t.count("lp.feasible_nonneg.feasible")


class _Bracket(_Observer):
    def after(self, token, args, result, exc):
        if exc is None and result.is_zero():
            self.t.count("oracle.gm_bracket.zero")


class _LoopBracket(_Observer):
    def after(self, token, args, result, exc):
        if exc is not None and type(exc).__name__ == "TruncationHitError":
            self.t.count("oracle.truncation_hits")


class _Closure(_Observer):
    def before(self, args):
        return self.t.calls("pisystem.reflect")

    def after(self, token, args, result, exc):
        if exc is None:
            self.t.count("pisystem.closure.rounds", result.rounds)
            self.t.count("pisystem.closure.kept", len(result.roots))
            self.t.count("pisystem.closure.reflections", self.t.calls("pisystem.reflect") - token)


class _Sweep(_Observer):
    def after(self, token, args, result, exc):
        if exc is None:
            self.t.count("rootstring.sweep.pairs", result.pairs)


class _BaseSearch(_Observer):
    def after(self, token, args, result, exc):
        if exc is None:
            self.t.count("basegraph.bases_visited", result.bases_visited)


def _observers(tracer: Tracer) -> dict[str, _Observer]:
    return {
        "catalog.to_ed": _ToEd(tracer),
        "lp.feasible_nonneg": _Feasible(tracer),
        "oracle.gm_bracket": _Bracket(tracer),
        "oracle.loop_bracket": _LoopBracket(tracer),
        "pisystem.closure_S_infinity": _Closure(tracer),
        "rootstring.sweep_strings": _Sweep(tracer),
        "basegraph.enumerate_real_roots": _BaseSearch(tracer),
        "basegraph.principal_roots": _BaseSearch(tracer),
    }


def per_layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the benchmark, as name -> (value, unit)."""
    c = t.counters.get
    m: dict[str, tuple[float, str]] = {}
    for name in ("catalog.contains_ed", "catalog.bilinear", "catalog.pairing",
                 "catalog.is_isotropic", "lp.feasible_nonneg", "rootspace.pair",
                 "oracle.gm_bracket"):
        m[f"{name}.calls"] = (t.calls(name), "count")
        m[f"{name}.self_s"] = (t.self_s(name), "s")
    m["catalog.to_ed.calls"] = (t.calls("catalog.to_ed"), "count")
    m["catalog.to_ed.distinct_frac"] = (
        _ratio(c("catalog.to_ed.distinct", 0), t.calls("catalog.to_ed")), "ratio")
    lp_calls = t.calls("lp.feasible_nonneg")
    m["lp.feasible_nonneg.feasible_frac"] = (_ratio(c("lp.feasible_nonneg.feasible", 0), lp_calls), "ratio")
    m["lp.feasible_nonneg.vars_mean"] = (_ratio(c("lp.feasible_nonneg.vars", 0), lp_calls), "count")
    m["pisystem.reflect.calls"] = (t.calls("pisystem.reflect"), "count")
    m["pisystem.closure.rounds"] = (c("pisystem.closure.rounds", 0), "count")
    m["pisystem.closure.new_root_frac"] = (
        _ratio(c("pisystem.closure.kept", 0), c("pisystem.closure.reflections", 0)), "ratio")
    m["pisystem.closure_S_infinity.self_s"] = (t.self_s("pisystem.closure_S_infinity"), "s")
    m["pisystem.minimal_positive_elements.self_s"] = (t.self_s("pisystem.minimal_positive_elements"), "s")
    rs_calls = t.calls("rootstring.root_string")
    m["rootstring.root_string.calls"] = (rs_calls, "count")
    m["rootstring.root_string.per_pair"] = (_ratio(rs_calls, c("rootstring.sweep.pairs", 0)), "calls/pair")
    m["oracle.gm_bracket.zero_frac"] = (
        _ratio(c("oracle.gm_bracket.zero", 0), t.calls("oracle.gm_bracket")), "ratio")
    m["oracle.generated_subalgebra.self_s"] = (t.self_s("oracle.generated_subalgebra"), "s")
    m["oracle.realize.self_s"] = (t.self_s("oracle.realize"), "s")
    m["oracle.truncation_hits"] = (c("oracle.truncation_hits", 0), "count")
    visited = c("basegraph.bases_visited", 0)
    reflections = t.calls("basegraph.odd_reflect_base") + t.calls("basegraph.even_reflect_base")
    m["basegraph.bases_visited"] = (visited, "count")
    m["basegraph.reflections"] = (reflections, "count")
    m["basegraph.new_base_frac"] = (_ratio(visited, reflections), "ratio")
    m["cartan.validate.calls"] = (t.calls("cartan.validate"), "count")
    m["linalg.rank.calls"] = (t.calls("linalg.rank"), "count")
    m["linalg.rref.calls"] = (t.calls("linalg.rref"), "count")
    m["cli.main.self_s"] = (t.self_s("cli.main"), "s")
    total = t.case_time()
    for layer in LAYERS:
        s = t.module_self_s(layer)
        m[f"{layer}.self_s"] = (s, "s")
        m[f"{layer}.self_frac"] = (_ratio(s, total), "ratio")
    m["bench.self_frac"] = (_ratio(t.self_s("bench.case"), total), "ratio")
    return m
