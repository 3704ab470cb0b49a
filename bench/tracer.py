"""In-memory span tracer that wraps tomoslice's public functions from outside.

Each traced function is patched at every binding: the defining module, every
other ``tomoslice`` module that imported the same object (``section_volume``
is bound separately in sections, radon, algfit and detect) and the package
namespace.  Body methods (``support``, ``contains``, ``contains_points``) are
patched on the three body classes.  A span records name, start, end, parent
and an optional work count (section offsets evaluated, Monte Carlo samples
drawn, points tested).  Self time is a span's duration minus the time its
direct children cover.

A traced name whose target no longer exists is reported as absent, not as an
error, so a refactor that removes a function leaves the benchmark running.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from time import perf_counter

import numpy as np

BODY_CLASSES = ("Ellipsoid", "Polytope", "QuadricDomain")


def _offsets(args, kwargs):
    t = kwargs["t"] if "t" in kwargs else args[2]
    return int(np.size(t))


def _samples(args, kwargs):
    return int(kwargs.get("samples", args[4] if len(args) > 4 else 10**6))


def _rows(args, kwargs):
    return len(args[1])


# span name -> (module, attribute or Class.method, work count or None)
TARGETS = {
    "radon.moment": ("tomoslice.radon", "moment", None),
    "sections.section_volume": ("tomoslice.sections", "section_volume", _offsets),
    "sections.polytope": ("tomoslice.sections", "section_volume_polytope", _offsets),
    "sections.ellipsoid": ("tomoslice.sections", "section_volume_ellipsoid", _offsets),
    "sections.quadric": ("tomoslice.sections", "section_volume_quadric", _offsets),
    "sections.profile": ("tomoslice.sections", "profile", None),
    "sections.mc": ("tomoslice.sections", "section_volume_mc", _samples),
    "bodies.support": ("tomoslice.bodies", "*.support", None),
    "bodies.contains": ("tomoslice.bodies", "*.contains", None),
    "bodies.contains_points": ("tomoslice.bodies", "*.contains_points", _rows),
    "bodies.load": ("tomoslice.bodies", "load_body", None),
    "detect.is_ellipsoid": ("tomoslice.detect", "is_ellipsoid", None),
    "detect.consistency": ("tomoslice.detect", "section_consistency_check", None),
    "algfit.fit": ("tomoslice.algfit", "fit_power_polynomial", None),
    "algfit.detect_min_m": ("tomoslice.algfit", "detect_min_m", None),
    "algfit.curvature": ("tomoslice.algfit", "principal_curvatures", None),
    "algfit.exponent_estimate": ("tomoslice.algfit", "exponent_estimate", None),
    "cli.run": ("tomoslice.cli", "run", None),
}


class Tracer:
    """Collects spans while installed; ``span`` opens one around harness code."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = []
        self.parent = []
        self.start = []
        self.end = []
        self.work = []
        self._stack = []
        self._patches = []
        self.absent = []

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, nid, work):
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.work.append(work)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(self._name_id(name), 0)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn, count):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid, count(args, kwargs) if count else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    def install(self):
        self.absent = []
        modules = [m for k, m in sys.modules.items() if k == "tomoslice" or k.startswith("tomoslice.")]
        for name, (modname, attr, count) in TARGETS.items():
            module = sys.modules.get(modname)
            if attr.startswith("*."):
                method = attr[2:]
                owners = [getattr(module, c, None) for c in BODY_CLASSES]
                owners = [c for c in owners if c is not None and method in vars(c)]
                if not owners:
                    self.absent.append(name)
                for cls in owners:
                    self._patch(cls, method, self._wrap(name, vars(cls)[method], count))
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, fn, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self):
        """Per span name: calls, self time in ms and summed work count."""
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        names = np.asarray(self.span_name, dtype=np.int64)
        work = np.asarray(self.work, dtype=np.int64)
        child_time = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        self_time = dur - child_time
        out = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            out[name] = {
                "calls": int(mask.sum()),
                "self_ms": float(self_time[mask].sum() * 1e3),
                "work": int(work[mask].sum()),
            }
        return out

    def under(self, ancestor, name):
        """(count, summed work) of ``name`` spans with an ``ancestor`` span above them."""
        if ancestor not in self.name_ids or name not in self.name_ids:
            return 0, 0
        aid, nid = self.name_ids[ancestor], self.name_ids[name]
        count = work = 0
        for i, sid in enumerate(self.span_name):
            if sid != nid:
                continue
            p = self.parent[i]
            while p >= 0 and self.span_name[p] != aid:
                p = self.parent[p]
            if p >= 0:
                count += 1
                work += self.work[i]
        return count, work

    def dump(self, path):
        """Write the raw spans (name, start, end, parent, work) as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.span_name,
                    "start": self.start,
                    "end": self.end,
                    "parent": self.parent,
                    "work": self.work,
                },
                fh,
            )
