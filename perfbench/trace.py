"""Spans and counts for the traced run, recorded from outside the library.

``instrument`` rebinds every public function of each padetau module, in
every ``padetau.*`` namespace that imported it, and the working methods of
its public classes, with a wrapper that records one span per call: id,
parent span, module, name, start, end and the job it belongs to. The same
wrappers count work at the same boundaries. ``restore`` puts the original
objects back. Nothing under ``src/`` is edited.

A layer is a module. Time spent in code that is not wrapped (private
helpers, ``Fraction`` arithmetic, argparse) counts toward the module of the
innermost enclosing span.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = (
    "cli", "reports", "selfcheck", "sampling", "pfaffian",
    "pade", "tau", "ode", "linalg", "series",
)

# Trivial accessors and per-coefficient coercions stay unwrapped: they run
# once per matrix entry or coefficient and would drown the trace in spans.
SKIP = {"rational", "coefficient", "is_zero", "valuation", "entry", "at", "row", "series", "is_square"}
DUNDERS = ("__mul__", "__rmul__", "__add__", "__sub__", "__neg__")

# Per-layer metrics beyond <module>.calls/.self_s/.errors, with units.
EXTRA_UNITS = {
    "pade.polydet_calls": "count/job",
    "pade.det_r_evals": "count/job",
    "tau.dn_calls": "count/job",
    "tau.dn_useful_ratio": "ratio",
    "tau.en_calls": "count/job",
    "tau.en_useful_ratio": "ratio",
    "linalg.det_calls": "count/job",
    "linalg.solve_calls": "count/job",
    "linalg.max_dim": "rows",
    "linalg.bareiss_ops": "ops/job",
    "linalg.bits_max": "bits",
    "series.mul_calls": "count/job",
    "series.mul_coeff_products": "ops/job",
    "series.invert_calls": "count/job",
    "series.poly_mul_calls": "count/job",
    "pfaffian.matchings": "count/job",
    "reports.bytes_out": "bytes/job",
    "trace.spans": "count/job",
}


def covered(intervals, lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans.

    spans: records (id, parent, module, name, start, end, job); parent is
    -1 for a root.
    """
    children = defaultdict(list)
    for rec in spans:
        if rec[1] >= 0:
            children[rec[1]].append((rec[4], rec[5]))
    return {
        rec[0]: (rec[5] - rec[4]) - covered(children.get(rec[0], ()), rec[4], rec[5])
        for rec in spans
    }


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.errors: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self.distinct: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- jobs

    def begin_job(self, job: int) -> None:
        self._close_job()
        self.job = job

    def _close_job(self) -> None:
        for name, keys in self.keys.items():
            self.distinct[name] += len(keys)
        self.keys.clear()

    # -- wrapping

    def _wrap(self, module: str, name: str, fn, count):
        spans, stack, errors = self.spans, self.stack, self.errors
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [len(spans), parent, module, name, 0.0, 0.0, self.job]
            spans.append(rec)
            stack.append(rec[0])
            rec[4] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[5] = perf_counter()
                stack.pop()
                if parent < 0 or spans[parent][2] != module:
                    errors[module] += 1
                raise
            rec[5] = perf_counter()
            stack.pop()
            if count is not None:
                count(self, rec, signature.bind(*args, **kwargs).arguments, out)
            return out

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def instrument(self) -> None:
        """Install wrappers in every loaded padetau module."""
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "padetau" or n.startswith("padetau.")]
        for layer in MODULES:
            mod = sys.modules[f"padetau.{layer}"]
            for public in mod.__all__:
                obj = getattr(mod, public)
                if getattr(obj, "__module__", None) != mod.__name__ or public in SKIP:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(layer, public, obj, COUNTERS.get(f"{layer}.{public}"))
                    for ns in namespaces:
                        if ns.__dict__.get(public) is obj:
                            self._set(ns, public, wrapped)
                elif inspect.isclass(obj):
                    for attr, fn in list(vars(obj).items()):
                        if not inspect.isfunction(fn) or attr in SKIP:
                            continue
                        if attr.startswith("_") and attr not in DUNDERS:
                            continue
                        qual = f"{public}.{attr}"
                        counter = COUNTERS.get(f"{layer}.{qual}")
                        self._set(obj, attr, self._wrap(layer, qual, fn, counter))

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- results

    def metrics(self, jobs: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, averaged per job.

        self_s is time in the module's own code; incl_s is wall time inside
        any of its spans, callees in other modules included.
        """
        self._close_job()
        selfs = self_times(self.spans)
        calls: Counter = Counter()
        busy: Counter = Counter()
        inside = defaultdict(list)
        for rec in self.spans:
            calls[rec[2]] += 1
            busy[rec[2]] += selfs[rec[0]]
            inside[rec[2]].append((rec[4], rec[5]))
        out = {}
        for layer in MODULES:
            out[f"{layer}.calls"] = (calls[layer] / jobs, "count/job")
            out[f"{layer}.self_s"] = (busy[layer] / jobs, "s/job")
            out[f"{layer}.incl_s"] = (covered(inside[layer]) / jobs, "s/job")
            out[f"{layer}.errors"] = (self.errors[layer] / jobs, "count/job")
        for name, unit in EXTRA_UNITS.items():
            if name in ("tau.dn_useful_ratio", "tau.en_useful_ratio"):
                base = name.replace("_useful_ratio", "_calls")
                value = self.distinct[base] / self.counts[base] if self.counts[base] else 1.0
            elif name == "trace.spans":
                value = len(self.spans) / jobs
            elif name in ("linalg.max_dim", "linalg.bits_max"):
                value = self.maxima[name]
            else:
                value = self.counts[name] / jobs
            out[name] = (value, unit)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("job\tid\tparent\tmodule\tname\tstart\tend\n")
            for sid, parent, module, name, start, end, job in self.spans:
                handle.write(f"{job}\t{sid}\t{parent}\t{module}\t{name}\t{start:.9f}\t{end:.9f}\n")


# ------------------------------------------------------------------ counters
# Each takes (tracer, span record, arguments by parameter name, return
# value) after a call returns, and derives work counts from argument and
# result sizes.


def _det_exact(tr, rec, args, out):
    n = args["m"].rows
    tr.counts["linalg.det_calls"] += 1
    tr.counts["linalg.bareiss_ops"] += (n - 1) * n * (2 * n - 1) // 6
    tr.maxima["linalg.max_dim"] = max(tr.maxima["linalg.max_dim"], n)
    tr.maxima["linalg.bits_max"] = max(tr.maxima["linalg.bits_max"], _bits(out))


def _solve_exact(tr, rec, args, out):
    n = args["m"].rows
    tr.counts["linalg.solve_calls"] += 1
    tr.counts["linalg.bareiss_ops"] += (n - 1) * n * (n + 1) // 3
    tr.maxima["linalg.max_dim"] = max(tr.maxima["linalg.max_dim"], n)
    if out:
        tr.maxima["linalg.bits_max"] = max(tr.maxima["linalg.bits_max"], max(_bits(x) for x in out))


def _family_key(fam):
    return tuple(s.coeffs for s in fam.members)


def _tau_determinant(tr, rec, args, out):
    tr.counts["tau.dn_calls"] += 1
    tr.keys["tau.dn_calls"].add((_family_key(args["fam"]), args["n"]))


def _bordered_determinant(tr, rec, args, out):
    tr.counts["tau.en_calls"] += 1
    key = (_family_key(args["fam"]), args["n"], args["i"], args["j"])
    tr.keys["tau.en_calls"].add(key)


def _polydet(tr, rec, args, out):
    tr.counts["pade.polydet_calls"] += 1
    parent = rec[1]
    nested = parent >= 0 and tr.spans[parent][3] == "PolyMatrix.det"
    if args["self"].var == "x" and not nested:
        tr.counts["pade.det_r_evals"] += 1


def _series_mul(tr, rec, args, out):
    a, b = args["self"], args["other"]
    if type(b) is type(a):
        order = min(a.order, b.order)
        tr.counts["series.mul_calls"] += 1
        tr.counts["series.mul_coeff_products"] += order * (order + 1) // 2


def _series_invert(tr, rec, args, out):
    order = args["self"].order
    tr.counts["series.invert_calls"] += 1
    tr.counts["series.mul_coeff_products"] += order * (order - 1) // 2


def _poly_mul(tr, rec, args, out):
    a, b = args["self"], args["other"]
    if type(b) is type(a):
        tr.counts["series.poly_mul_calls"] += 1
        tr.counts["series.mul_coeff_products"] += len(a.coeffs) * len(b.coeffs)


def _times_series(tr, rec, args, out):
    p, s = args["self"], args["s"]
    order = out.order
    tr.counts["series.mul_coeff_products"] += sum(
        max(0, min(s.order, order - j)) for j in range(len(p.coeffs))
    )


def _perfect_matchings(tr, rec, args, out):
    tr.counts["pfaffian.matchings"] += len(out)


def _canonical_json(tr, rec, args, out):
    tr.counts["reports.bytes_out"] += len(out.encode("utf-8"))


COUNTERS = {
    "linalg.det_exact": _det_exact,
    "linalg.solve_exact": _solve_exact,
    "tau.tau_determinant": _tau_determinant,
    "tau.bordered_determinant": _bordered_determinant,
    "pade.PolyMatrix.det": _polydet,
    "series.TruncatedSeries.__mul__": _series_mul,
    "series.TruncatedSeries.__rmul__": _series_mul,
    "series.TruncatedSeries.invert": _series_invert,
    "series.Polynomial.__mul__": _poly_mul,
    "series.Polynomial.__rmul__": _poly_mul,
    "series.Polynomial.times_series": _times_series,
    "pfaffian.perfect_matchings": _perfect_matchings,
    "reports.canonical_json": _canonical_json,
}
