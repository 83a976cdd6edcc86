"""Per-layer spans and work counts for the benchmark's traced runs.

The tracer wraps the public functions of each package module from outside:
every module namespace that holds a listed function gets a wrapper in its
place, so a name imported into several modules (``kernel_contained`` lives
in both ``perms`` and ``subgroups``) is counted wherever it is called from.
A listed name the package no longer has is reported as absent, never as an
error.  ``subgroups.quotient_data`` is the first ``NfiSubgroup.data`` access
of each object, which is where the lazy quotient build happens.

A span's self time is its duration minus the time of the spans it called.
Spans live only in memory; ``snapshot`` returns plain numbers that a parent
process can merge.
"""

from __future__ import annotations

import importlib
import math
import sys
import time

SPANS = {
    "words": ("b3_normal_form", "artin_equal", "artin_images", "apply_endo", "bullet_monoid"),
    "perms": (
        "generate_group",
        "closure_order",
        "commutator_subgroup",
        "kernel_contained",
        "kernels_equal",
        "evaluate_word",
        "is_generating_set",
    ),
    "subgroups": (
        "quotient_data",
        "new_nfi",
        "nfi_contains",
        "nfi_equal",
        "nfi_intersect",
        "from_f2_quotient",
        "catalog_search",
    ),
    "shadows": (
        "enumerate_shadows",
        "check_simplified_hexagons",
        "is_shadow",
        "shadow_source",
        "t_hom",
        "compose_shadows",
        "invert_shadow",
    ),
    "groupoid": (
        "connected_component",
        "diamond",
        "is_isolated",
        "reduce_shadow",
        "survives",
        "genuine_to_depth",
        "main_line_limit",
    ),
    "cli": ("run_command", "load_subgroup"),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in SPANS.items() for fn in fns)
LAYERS = tuple(SPANS)

# Work counts summed over calls, and the ones that keep their maximum.
SUM_COUNTS = (
    "words.artin_images.letters",
    "perms.generate_group.elements",
    "perms.closure_order.elements",
    "perms.evaluate_word.letters",
    "subgroups.catalog.candidates",
    "subgroups.catalog.kept",
    "shadows.grid",
    "shadows.accepted",
)
MAX_COUNTS = ("groupoid.component.objects",)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Wraps the listed package functions; ``install`` then ``uninstall``."""

    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.counts = dict.fromkeys(SUM_COUNTS + MAX_COUNTS, 0)
        self.absent: set[str] = set()
        self._stack: list[float] = []
        self._active = dict.fromkeys(SPAN_NAMES, 0)
        self._enumerated: set = set()
        self._undo: list = []
        self._posts = {
            "words.artin_images": self._post_artin,
            "perms.generate_group": self._post_generate,
            "perms.closure_order": self._post_closure,
            "perms.evaluate_word": self._post_evaluate,
            "subgroups.new_nfi": self._post_new_nfi,
            "subgroups.catalog_search": self._post_catalog,
            "shadows.enumerate_shadows": self._post_enumerate,
            "groupoid.connected_component": self._post_component,
        }

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn):
        post = self._posts.get(name)
        stack, active = self._stack, self._active
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                active[name] -= 1
                child = stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if post is not None:
                try:
                    post(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    self.absent.add(name + " (work count)")
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        homes = {}
        for layer in SPANS:
            try:
                homes[layer] = importlib.import_module(f"braidshadow.{layer}")
            except ImportError:
                homes[layer] = None
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "braidshadow" or key.startswith("braidshadow."))
        ]
        for layer, fns in SPANS.items():
            home = homes[layer]
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                if name == "subgroups.quotient_data":
                    self._install_quotient_data(home)
                    continue
                original = getattr(home, fn_name, None)
                if not callable(original):
                    self.absent.add(name)
                    continue
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._undo.append((module, attr, original))

    def _install_quotient_data(self, subgroups) -> None:
        cls = getattr(subgroups, "NfiSubgroup", None)
        prop = cls.__dict__.get("data") if cls is not None else None
        if not isinstance(prop, property):
            self.absent.add("subgroups.quotient_data")
            return
        first = self._wrap("subgroups.quotient_data", prop.fget)
        later = prop.fget

        def data(obj):
            marks = obj.__dict__
            if "_perfbench_touched" in marks:
                return later(obj)
            marks["_perfbench_touched"] = True
            return first(obj)

        setattr(cls, "data", property(data, prop.fset, prop.fdel, prop.__doc__))
        self._undo.append((cls, "data", prop))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- work counts -------------------------------------------------------

    def _post_artin(self, args, kwargs, result):
        self.counts["words.artin_images.letters"] += sum(len(image) for image in result)

    def _post_generate(self, args, kwargs, result):
        self.counts["perms.generate_group.elements"] += result.order

    def _post_closure(self, args, kwargs, result):
        self.counts["perms.closure_order.elements"] += int(result)

    def _post_evaluate(self, args, kwargs, result):
        self.counts["perms.evaluate_word.letters"] += len(_arg(args, kwargs, 0, "w"))

    def _post_new_nfi(self, args, kwargs, result):
        if self._active["subgroups.catalog_search"]:
            self.counts["subgroups.catalog.candidates"] += 1

    def _post_catalog(self, args, kwargs, result):
        self.counts["subgroups.catalog.kept"] += len(result)

    def _post_enumerate(self, args, kwargs, result):
        target = _arg(args, kwargs, 0, "N")
        if target.content_id in self._enumerated:
            return
        self._enumerated.add(target.content_id)
        d = target.data
        units = sum(1 for m in range(d.n_ord) if math.gcd(2 * m + 1, d.n_ord) == 1)
        self.counts["shadows.grid"] += units * d.f2_commutator.order
        self.counts["shadows.accepted"] += len(result)

    def _post_component(self, args, kwargs, result):
        key = "groupoid.component.objects"
        self.counts[key] = max(self.counts[key], len(result.objects))

    def snapshot(self) -> dict:
        return {
            "spans": {n: [self.calls[n], self.self_s[n]] for n in SPAN_NAMES},
            "counts": dict(self.counts),
            "absent": sorted(self.absent),
        }


def empty_snapshot() -> dict:
    return Tracer().snapshot()


def merge(snapshots) -> dict:
    """Sum spans and counts over processes; maxima stay maxima."""
    out = empty_snapshot()
    absent = set()
    for snap in snapshots:
        for name, (calls, self_s) in snap["spans"].items():
            total = out["spans"].setdefault(name, [0, 0.0])
            total[0] += calls
            total[1] += self_s
        for name, value in snap["counts"].items():
            if name in MAX_COUNTS:
                out["counts"][name] = max(out["counts"].get(name, 0), value)
            else:
                out["counts"][name] = out["counts"].get(name, 0) + value
        absent.update(snap["absent"])
    out["absent"] = sorted(absent)
    return out


def layer_self_seconds(snapshot: dict) -> dict:
    """Self time summed per package module."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for name, (_calls, self_s) in snapshot["spans"].items():
        layer = name.split(".", 1)[0]
        if layer in totals:
            totals[layer] += self_s
    return totals


def layer_metrics(snapshot: dict) -> dict:
    """Every per-layer metric the traced run reports, as name -> (value, unit)."""
    out = {}
    for name in SPAN_NAMES:
        calls, self_s = snapshot["spans"].get(name, [0, 0.0])
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    counts = snapshot["counts"]
    for name in SUM_COUNTS + MAX_COUNTS:
        out[name] = (counts.get(name, 0), "count")
    candidates = counts.get("subgroups.catalog.candidates", 0)
    grid = counts.get("shadows.grid", 0)
    out["subgroups.catalog.kept_ratio"] = (
        counts.get("subgroups.catalog.kept", 0) / candidates if candidates else 0.0,
        "ratio",
    )
    out["shadows.accept_ratio"] = (
        counts.get("shadows.accepted", 0) / grid if grid else 0.0,
        "ratio",
    )
    for layer, seconds in layer_self_seconds(snapshot).items():
        out[f"layer.{layer}.self_s"] = (seconds, "s")
    return out
