"""Outside-in tracing of the su21coh layers.

`Tracer.install()` wraps public functions of each layer after the package is
imported; nothing in `src/` is changed.  Every binding of a wrapped function
is replaced, including names that other modules imported (for example
`cochains.act_p_index` and `oracle.act_p_index` are separate bindings of
`wigner.act_p_index`).

Layer-boundary functions get a span (name, start, end, parent) kept in
compact in-memory arrays and written out by `write()` when the invocation
ends.  Scalar and sparse operations run millions of times, so they are
counted but not spanned.

`self_times` and `inclusive_times` turn a span table into per-name seconds;
they are plain functions so the benchmark driver and its self-tests can run
them on any span table.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter, namedtuple

# (module, attribute, span name or None, call-count metric or None, hook)
# Spans sharing a name are reported together; `hook` adds an extra counter.
TARGETS = [
    ("lie", "verify_structure", "lie.verify_structure", None, None),
    ("lie", "bracket", None, "lie.bracket.calls", None),
    ("scalars", "RadicalScalar.__mul__", None, "scalars.radical_mul.calls", None),
    ("scalars", "ComplexRadical.__mul__", None, "scalars.complex_mul.calls", None),
    ("scalars", "RadicalScalar.__add__", None, "scalars.add.calls", None),
    ("scalars", "RadicalScalar.sqrt", None, "scalars.sqrt.calls", None),
    ("scalars", "RadicalScalar.inverse", None, "scalars.inverse.calls", "multiterm"),
    ("sparse", "LinComb.__init__", None, "sparse.lincomb.new", None),
    ("sparse", "LinComb.__add__", None, "sparse.add.calls", None),
    ("wigner", "act_l_index", "wigner.act_index", "wigner.act_l_index.calls", "repeat"),
    ("wigner", "act_p_index", "wigner.act_index", "wigner.act_p_index.calls", "repeat"),
    ("polynomials", "act_poly", "polynomials.act_poly", "polynomials.act_poly.calls", None),
    ("cochains", "act_tensor", "cochains.act_tensor", "cochains.act_tensor.calls", None),
    ("cochains", "differential", "cochains.differential", None, None),
    ("cochains", "check_equivariance", "cochains.check_equivariance", None, None),
    ("cochains", "build_chi", "cochains.build", None, None),
    ("cochains", "build_psi", "cochains.build", None, None),
    ("cochains", "build_psi0", "cochains.build", None, None),
    ("cochains", "verify_closedness", "cochains.closedness", None, None),
    ("cochains", "nullspace", "cochains.nullspace", None, "cells"),
    ("cochains", "verify_nonexactness", "cochains.nonexactness", None, None),
    ("cochains", "cochain_to_dict", "cochains.cochain_to_dict", None, None),
    ("report", "summarize", "report.render", None, None),
    ("report", "CheckResult.to_dict", "report.render", None, None),
    ("oracle", "eval_wigner", "oracle.eval_wigner", "oracle.eval_wigner.calls", None),
    ("oracle", "iwasawa", "oracle.iwasawa", "oracle.iwasawa.calls", None),
    ("oracle", "euler_from_k", "oracle.euler_from_k", None, None),
    ("oracle", "expm", "oracle.expm", "oracle.expm.calls", None),
    ("oracle", "quadrature_ip", "oracle.quadrature_ip", None, None),
    ("oracle", "_fd_sweep", "oracle.fd_sweep", None, None),
    ("oracle", "homomorphism_report", "oracle.self_consistency", None, None),
    ("oracle", "iwasawa_report", "oracle.self_consistency", None, None),
    ("oracle", "orthogonality_report", "oracle.self_consistency", None, None),
    ("oracle", "covariance_report", "oracle.self_consistency", None, None),
]


class Tracer:
    """Span and counter store for one invocation (one process)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self._seen: set = set()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- wrappers ------------------------------------------------------------

    def wrap(self, fn, span, count, hook):
        counts, clock, open_ = self.counts, self.clock, self._open
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        extra = self._hook(hook, count)
        nid = self.name_id(span) if span else None

        if span is None:
            def counted(*args, **kwargs):
                counts[count] += 1
                if extra:
                    extra(args, kwargs)
                return fn(*args, **kwargs)
            return counted

        def spanned(*args, **kwargs):
            if count:
                counts[count] += 1
            if extra:
                extra(args, kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(open_[-1] if open_ else -1)
            starts.append(0.0)
            ends.append(0.0)
            open_.append(i)
            starts[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_.pop()
        return spanned

    def _hook(self, hook, count):
        counts, seen = self.counts, self._seen
        if hook == "multiterm":
            def multiterm(args, kwargs):
                if len(args[0].items()) > 1:
                    counts["scalars.inverse.multiterm"] += 1
            return multiterm
        if hook == "cells":
            def cells(args, kwargs):
                rows, ncols = args[0], args[1] if len(args) > 1 else kwargs["ncols"]
                counts["cochains.nullspace.cells"] += len(rows) * ncols
            return cells
        if hook == "repeat":
            # key (gen, idx, variant) with the default variant filled in, so
            # the share is the ceiling for a per-index memo
            def repeat(args, kwargs):
                gen, idx = args[0], args[1]
                variant = args[2] if len(args) > 2 else kwargs.get("variant", "plus1")
                key = (count, gen, idx, variant)
                if key in seen:
                    counts["wigner.act_index.repeats"] += 1
                else:
                    seen.add(key)
            return repeat
        return None

    # -- installation --------------------------------------------------------

    def install(self, package: str = "su21coh") -> None:
        """Wrap every target and rebind each name that refers to it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for mod_name, attr, span, count, hook in TARGETS:
            mod = sys.modules[f"{package}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                is_cm = isinstance(raw, classmethod)
                fn = raw.__func__ if is_cm else raw
                new = self.wrap(fn, span, count, hook)
                new = classmethod(new) if is_cm else new
                for key, value in list(cls.__dict__.items()):
                    if value is raw:  # e.g. __radd__ = __add__
                        setattr(cls, key, new)
                continue
            fn = getattr(mod, attr)
            new = self.wrap(fn, span, count, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, new)

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        """One JSON header line (names, span count), then the arrays: name
        ids and parents as int32, starts and ends as float64 seconds."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.span_start)}
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


Spans = namedtuple("Spans", "names name_ids parents starts ends")


def load_spans(path: str) -> Spans:
    """Inverse of `Tracer.write`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        out = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            out.append(arr)
    return Spans(header["names"], *out)


def self_times(spans: Spans) -> dict[str, float]:
    """Per-name self time: each span's duration minus the part covered by its
    child spans.  Children of one span run one after another (one thread), so
    the covered part is the sum of their durations."""
    names, name_ids, parents, starts, ends = spans
    child_cover = [0.0] * len(starts)
    for i, p in enumerate(parents):
        if p >= 0:
            child_cover[p] += ends[i] - starts[i]
    out: dict[str, float] = {}
    for i, nid in enumerate(name_ids):
        name = names[nid]
        out[name] = out.get(name, 0.0) + (ends[i] - starts[i]) - child_cover[i]
    return out


def inclusive_times(spans: Spans, only=None) -> dict[str, float]:
    """Per-name inclusive time for the names in `only` (default all),
    counting a span only when no ancestor has the same name, so recursion is
    not counted twice."""
    names, name_ids, parents, starts, ends = spans
    wanted = {i for i, name in enumerate(names) if only is None or name in only}
    out: dict[str, float] = {}
    for i, nid in enumerate(name_ids):
        if nid not in wanted:
            continue
        p = parents[i]
        while p >= 0 and name_ids[p] != nid:
            p = parents[p]
        if p < 0:
            out[names[nid]] = out.get(names[nid], 0.0) + ends[i] - starts[i]
    return out
