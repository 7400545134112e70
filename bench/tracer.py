"""Spans around calls into mimicrank, recorded from outside the library.

A Tracer replaces every binding of a traced function -- the module
attribute, each copy imported by name into another mimicrank module, and
class attributes for methods -- with a wrapper that records one span
(name, start, end, parent) per call. Spans live in flat typed arrays so a
run with hundreds of thousands of calls stays small; they are written out
once, when the run ends.
"""

import functools
import json
import sys
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.events = []  # (span index, key, value) counted at a boundary
        self._stack = []
        self._restore = []

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, around=None):
        """Wrapper that records a span per call of fn.

        around(fn, args, kwargs, count), when given, makes the call itself;
        count(key, value) attaches a counter to the call's span.
        """
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, events, clock = self._stack, self.events, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            try:
                if around is None:
                    starts[i] = clock()
                    return fn(*args, **kwargs)
                count = lambda key, value: events.append((i, key, value))  # noqa: E731
                starts[i] = clock()
                return around(fn, args, kwargs, count)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def install(self, name, owner, attr, around=None):
        """Trace owner.attr under name, in every mimicrank binding of it.

        owner is a module or a class. For a module function, every module
        of the package that imported the same object by name is patched
        too, so calls are traced whichever binding they go through.
        """
        original = owner.__dict__[attr]
        wrapper = self.wrap(name, original, around)
        targets = [(owner, attr)]
        if not isinstance(owner, type):
            for mod_name, module in list(sys.modules.items()):
                if module is owner or not mod_name.startswith("mimicrank"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        targets.append((module, key))
        for obj, key in targets:
            setattr(obj, key, wrapper)
            self._restore.append((obj, key, original))

    def uninstall(self):
        for obj, key, original in reversed(self._restore):
            setattr(obj, key, original)
        self._restore.clear()

    def save(self, path):
        """Write spans and counters to one .npz file."""
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            names=np.array(json.dumps(self.names)),
            events=np.array(json.dumps(self.events)),
        )


class Spans:
    """Loaded spans with the nesting-derived quantities."""

    def __init__(self, name, parent, start, end, names, events):
        self.name = np.asarray(name, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.float64)
        self.end = np.asarray(end, dtype=np.float64)
        self.names = list(names)
        self.events = [tuple(e) for e in events]
        self.duration = self.end - self.start
        n = len(self.name)
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent],
                                 weights=self.duration[has_parent], minlength=n)
        self.self_time = self.duration - child_time
        # a parent always precedes its children, so one forward pass
        # resolves every span's root
        root = np.arange(n)
        parent = self.parent.tolist()
        root_list = root.tolist()
        for i in range(n):
            p = parent[i]
            if p >= 0:
                root_list[i] = root_list[p]
        self.root = np.asarray(root_list, dtype=np.int64)

    @classmethod
    def load(cls, path):
        with np.load(path) as data:
            return cls(data["name"], data["parent"], data["start"], data["end"],
                       json.loads(str(data["names"])),
                       json.loads(str(data["events"])))

    def ids(self, name):
        """Indices of the spans called name (empty if it never ran)."""
        if name not in self.names:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(self.name == self.names.index(name))

    def name_of(self, i):
        return self.names[self.name[i]] if i >= 0 else None
