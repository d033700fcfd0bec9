"""Span recorder that times calls into orbitlab's public functions.

For a traced pass the recorder replaces each function in TRACED with a
wrapper, in every orbitlab module namespace or class that binds it, and
puts the originals back afterwards. A span holds a name, a start, an
end, a parent and a size (elements, points or flags the call handled).
Spans stay in memory until the run writes them out. A generator is
timed per resumption, with size 1 for each element it yields. Self time
is a span's duration minus the durations of its child spans; calls
nest strictly because the benchmark runs on one thread.
"""

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns


def _result_len(args, kwargs, out):
    return len(out)


def _first_arg_len(args, kwargs, out):
    return len(args[0])


def _word_len(args, kwargs, out):
    return len(args[1])


# (module, class or None, attribute, span name, size of one call)
TRACED = (
    ("words", None, "enumerate_elements", "words.enumerate_elements", None),
    ("words", None, "modular_norm_ball", "words.modular_norm_ball", _result_len),
    ("words", None, "limit_sample_words", "words.limit_sample_words", None),
    ("reps", "ScaledMatrix", "times", "reps.scaledmatrix_times", None),
    ("cartan", None, "word_cartan", "cartan.word_cartan", _word_len),
    ("hypdisc", "Mobius", "__matmul__", "hypdisc.mobius_matmul", None),
    ("hypdisc", None, "shadow_of_isometry", "hypdisc.shadow_of_isometry", None),
    ("hypdisc", None, "fixed_points", "hypdisc.fixed_points", None),
    ("critexp", None, "sample_from_enumeration", "critexp.sample_from_enumeration", None),
    ("critexp", None, "sample_from_norm_ball", "critexp.sample_from_norm_ball", None),
    ("critexp", None, "estimate_exponent", "critexp.estimate_exponent", None),
    ("doubling", None, "doubled_value_sample", "doubling.doubled_value_sample", None),
    ("doubling", None, "double_rep", "doubling.double_rep", None),
    ("flags", None, "limit_flags", "flags.limit_flags", _result_len),
    ("flags", None, "triple_positive", "flags.triple_positive", None),
    ("flags", None, "quadruple_positive", "flags.quadruple_positive", None),
    ("tpos", None, "factorize", "tpos.factorize", None),
    ("limitgeom", None, "distortion_scan", "limitgeom.distortion_scan", None),
    ("limitgeom", None, "box_dimension", "limitgeom.box_dimension", _first_arg_len),
)


class Layer:
    """Totals over the spans of one name."""

    __slots__ = ("calls", "total_ns", "child_ns", "size")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.child_ns = 0
        self.size = 0

    @property
    def self_s(self):
        return (self.total_ns - self.child_ns) * 1e-9

    def us_per(self, count, self_time=False):
        """Microseconds per unit of count, of total or of self time."""
        ns = self.total_ns - self.child_ns if self_time else self.total_ns
        return ns * 1e-3 / count if count else 0.0


class Tracer:
    """In-memory span recorder; install() patches, restore() unpatches."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.sizes = []
        self._stack = [-1]
        self.patched = []

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self.sizes.append(0)
        self._stack.append(idx)
        self.starts.append(perf_counter_ns())
        return idx

    def _close(self, idx, size):
        self.ends[idx] = perf_counter_ns()
        self.sizes[idx] = size
        self._stack.pop()

    def wrap(self, name, fn, size_of=None):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                return self._resumptions(name, fn(*args, **kwargs))
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, 0)
                raise
            self._close(idx, 1)
            if size_of is not None:
                self.sizes[idx] = size_of(args, kwargs, out)
            return out
        return traced

    def _resumptions(self, name, gen):
        try:
            while True:
                idx = self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    self._close(idx, 0)
                    return
                except BaseException:
                    self._close(idx, 0)
                    raise
                self._close(idx, 1)
                yield item
        finally:
            gen.close()

    def install(self, lib):
        """Wrap every TRACED function wherever an orbitlab module binds it."""
        modules = [m for k, m in sys.modules.items()
                   if k == "orbitlab" or k.startswith("orbitlab.")]
        for module, cls, attr, name, size_of in TRACED:
            owner = getattr(lib, module)
            if cls is not None:
                owner = getattr(owner, cls)
            original = vars(owner)[attr]
            wrapper = self.wrap(name, original, size_of)
            if cls is not None:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self.patched.append((owner, key, original))

    def restore(self):
        while self.patched:
            owner, key, original = self.patched.pop()
            setattr(owner, key, original)

    def layers(self):
        """Per-name totals; a span's duration is charged to its parent as
        child time."""
        out = defaultdict(Layer)
        for name, start, end, parent, size in zip(
                self.names, self.starts, self.ends, self.parents, self.sizes):
            layer = out[name]
            layer.calls += 1
            layer.total_ns += end - start
            layer.size += size
            if parent >= 0:
                out[self.names[parent]].child_ns += end - start
        return out

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,name,start_ns,end_ns,size\n")
            for i, row in enumerate(zip(self.parents, self.names, self.starts,
                                        self.ends, self.sizes)):
                fh.write("%d,%d,%s,%d,%d,%d\n" % ((i,) + row))
