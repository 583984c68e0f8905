"""Per-layer tracing of qnsym from outside the library.

The tracer wraps listed public functions of the library's layers, records
one span per outermost call (a recursive re-entry records nothing), keeps
the spans in memory, and restores every patched attribute when it stops.
A listed function that the library no longer has is reported as absent.

Each traced function is named ``<module>.<qualname>``; its metrics are
``<name>.calls`` and ``<name>.self_s`` plus the extra stats listed below.
Cache ratios come from ``cache_info()`` deltas and are reported together
with their base, ``<name>.lookups``.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import sys
import time

PACKAGE = "qnsym"

# (module, qualname, extra stats) of every traced function, by layer
TRACED = (
    ("compositions", "compositions", ()),
    ("tableaux", "kappa_matrix", ("hit_ratio",)),
    ("tableaux", "count_tableaux", ("nonzero_ratio", "found")),
    ("tableaux", "strip_extensions", ()),
    ("core", "exact_inverse", ("dim3",)),
    ("core", "Element.convert", ()),
    ("core", "Element.canonical_dict", ()),
    ("core", "quasi_shuffle", ("hit_ratio",)),
    ("core", "multiply", ()),
    ("core", "coproduct", ()),
    ("core", "TensorElement.convert", ()),
    ("core", "pair", ()),
    ("core", "perp", ()),
    ("core", "involution", ()),
    ("core", "antipode", ()),
    ("schurlike", "kostka_matrix", ("hit_ratio",)),
    ("schurlike", "schur_detect", ()),
    ("schurlike", "SymElement.to_qsym", ("terms",)),
    ("schurlike", "SymElement.to_basis", ()),
    ("schurlike", "littlewood_richardson", ()),
    ("cli", "run", ()),
    ("cli", "parse_element", ()),
)

# caches observed through cache_info() only: (module, attribute, metric name)
CACHES = (
    ("core", "_expand", "core.expand_cache"),
    ("core", "_unexpand", "core.unexpand_cache"),
)

# the functions whose listed stats omit calls or self time
_STATS_OVERRIDE = {
    "schurlike.SymElement.to_qsym": ("self_s", "terms"),
    "schurlike.SymElement.to_basis": ("self_s",),
    "schurlike.littlewood_richardson": ("self_s",),
    "cli.run": ("self_s",),
    "cli.parse_element": ("self_s",),
}

UNITS = {
    "calls": "count", "self_s": "s", "hit_ratio": "ratio", "lookups": "count",
    "nonzero_ratio": "ratio", "found": "count", "dim3": "count", "terms": "count",
}


def traced_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


def _stats(module, qualname, extra):
    name = traced_name(module, qualname)
    stats = _STATS_OVERRIDE.get(name, ("calls", "self_s") + extra)
    out = []
    for stat in stats:
        out.append(stat)
        if stat == "hit_ratio":
            out.append("lookups")
    return name, out


def metric_units() -> dict:
    """Every per-layer metric name the traced run prints, with its unit."""
    units = {}
    for module, qualname, extra in TRACED:
        name, stats = _stats(module, qualname, extra)
        for stat in stats:
            units[f"{name}.{stat}"] = UNITS[stat]
    for _, _, name in CACHES:
        units[f"{name}.hit_ratio"] = "ratio"
        units[f"{name}.lookups"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.absent_functions"] = "count"
    return units


# results inspected after an outermost call: stat -> f(args, result) -> number
_HOOKS = {
    "tableaux.count_tableaux": lambda args, result: {
        "found": result, "nonzero": 1 if result else 0},
    "core.exact_inverse": lambda args, result: {"dim3": len(args[0]) ** 3},
    "schurlike.SymElement.to_qsym": lambda args, result: {"terms": len(result.terms)},
}


def _resolve(module_obj, qualname):
    owner, obj = module_obj, None
    parts = qualname.split(".")
    for i, part in enumerate(parts):
        obj = vars(owner).get(part) if isinstance(owner, type) else getattr(owner, part, None)
        if obj is None:
            return None
        if i < len(parts) - 1:
            owner = obj
    return obj


class Tracer:
    """Wraps the listed functions while active; one instance per process."""

    def __init__(self):
        self.names = [traced_name(m, q) for m, q, _ in TRACED]
        self.spans = []  # (name index, start, end, parent span index or -1)
        self.extras = [dict() for _ in TRACED]
        self.absent = []
        self._stack = []  # indices of the open spans
        self._paused = [False]
        self._patched = []  # (owner, attribute, original)
        self._originals = {}
        self._cache_start = {}
        self._cache_paused = {}  # lookups made while paused: (hits, misses)

    # -- installing and removing

    def _modules(self):
        return [m for key, m in sorted(sys.modules.items())
                if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]

    def _owners(self):
        """Every qnsym module, and every class defined in one, once each."""
        seen, owners = set(), []
        for module in self._modules():
            for owner in [module] + [v for v in vars(module).values()
                                     if isinstance(v, type)
                                     and getattr(v, "__module__", "").startswith(PACKAGE)]:
                if id(owner) not in seen:
                    seen.add(id(owner))
                    owners.append(owner)
        return owners

    def _module(self, module):
        try:
            return importlib.import_module(f"{PACKAGE}.{module}")
        except ModuleNotFoundError:
            return None

    def start(self):
        mods = {module: self._module(module) for module, _, _ in TRACED + CACHES}
        owners = self._owners()
        for idx, (module, qualname, _) in enumerate(TRACED):
            mod = mods[module]
            original = _resolve(mod, qualname) if mod is not None else None
            if original is None:
                self.absent.append(self.names[idx])
                continue
            self._originals[self.names[idx]] = original
            wrapper = self._wrap(idx, original)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, attr, wrapper)
                        self._patched.append((owner, attr, original))
        cached = self._cached()
        self.absent += [name for _, _, name in CACHES if name not in cached]
        for name, obj in cached.items():
            self._cache_start[name] = obj.cache_info()
        return self

    def stop(self):
        self._cache_end = {name: obj.cache_info() for name, obj in self._cached().items()}
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside the block record nothing, and their cache
        lookups are left out of the cache deltas."""
        self._paused[0] = True
        before = {name: obj.cache_info() for name, obj in self._cached().items()}
        try:
            yield
        finally:
            for name, obj in self._cached().items():
                info, start = obj.cache_info(), before[name]
                hits, misses = self._cache_paused.get(name, (0, 0))
                self._cache_paused[name] = (hits + info.hits - start.hits,
                                            misses + info.misses - start.misses)
            self._paused[0] = False

    def _cached(self):
        found = {}
        for name, obj in self._originals.items():
            if hasattr(obj, "cache_info"):
                found[name] = obj
        for module, attr, name in CACHES:
            obj = getattr(self._module(module), attr, None)
            if hasattr(obj, "cache_info"):
                found[name] = obj
        return found

    def _wrap(self, idx, original):
        spans, stack, extras = self.spans, self._stack, self.extras[idx]
        active, paused = [False], self._paused
        hook = _HOOKS.get(self.names[idx])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if active[0] or paused[0]:  # recursive re-entry: no nested span
                return original(*args, **kwargs)
            active[0] = True
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[0] = False
                spans[me] = (idx, start, end, parent)
            if hook is not None:
                for key, value in hook(args, result).items():
                    extras[key] = extras.get(key, 0) + value
            return result

        return traced

    # -- results

    def totals(self) -> dict:
        """Additive per-process totals; merge several with merge_totals()."""
        calls = {}
        for idx, _, _, _ in self.spans:
            calls[self.names[idx]] = calls.get(self.names[idx], 0) + 1
        selfs = self_times([(self.names[i], s, e, p) for i, s, e, p in self.spans])
        cache = {}
        for name, end in self._cache_end.items():
            begin = self._cache_start[name]
            hits, misses = self._cache_paused.get(name, (0, 0))
            cache[name] = [end.hits - begin.hits - hits, end.misses - begin.misses - misses]
        extras = {self.names[i]: dict(x) for i, x in enumerate(self.extras) if x}
        return {"calls": calls, "self_s": selfs, "extras": extras,
                "cache": cache, "absent": sorted(self.absent)}

    def write_spans(self, path) -> None:
        """Write the raw spans, gzipped JSON, once the traced work is over."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def self_times(spans) -> dict:
    """Self time per name: each span's duration minus the part of it that
    its direct child spans cover.  spans: (name, start, end, parent index)."""
    children = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for cs, ce in sorted(children[i]):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out


def merge_totals(parts) -> dict:
    """Sum the totals of several processes."""
    merged = {"calls": {}, "self_s": {}, "extras": {}, "cache": {}, "absent": set()}
    for part in parts:
        for key in ("calls", "self_s"):
            for name, v in part[key].items():
                merged[key][name] = merged[key].get(name, 0) + v
        for name, stats in part["extras"].items():
            slot = merged["extras"].setdefault(name, {})
            for stat, v in stats.items():
                slot[stat] = slot.get(stat, 0) + v
        for name, (hits, misses) in part["cache"].items():
            h, m = merged["cache"].get(name, (0, 0))
            merged["cache"][name] = (h + hits, m + misses)
        merged["absent"].update(part["absent"])
    merged["absent"] = sorted(merged["absent"])
    return merged


def layer_metrics(totals: dict, overhead_ratio: float) -> dict:
    """The per-layer metric values, {name: number}, from merged totals.
    A metric of an absent function reads 0 and is listed in totals["absent"]."""
    out = {}
    for module, qualname, extra in TRACED:
        name, stats = _stats(module, qualname, extra)
        calls = totals["calls"].get(name, 0)
        extras = totals["extras"].get(name, {})
        hits, misses = totals["cache"].get(name, (0, 0))
        for stat in stats:
            if stat == "calls":
                value = calls
            elif stat == "self_s":
                value = totals["self_s"].get(name, 0.0)
            elif stat == "hit_ratio":
                value = hits / (hits + misses) if hits + misses else 0.0
            elif stat == "lookups":
                value = hits + misses
            elif stat == "nonzero_ratio":
                value = extras.get("nonzero", 0) / calls if calls else 0.0
            else:
                value = extras.get(stat, 0)
            out[f"{name}.{stat}"] = value
    for _, _, name in CACHES:
        hits, misses = totals["cache"].get(name, (0, 0))
        out[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out[f"{name}.lookups"] = hits + misses
    out["trace.overhead_ratio"] = overhead_ratio
    out["trace.absent_functions"] = len(totals["absent"])
    return out
