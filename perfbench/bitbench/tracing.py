"""Per-layer spans for the traced run.

The traced run wraps the public functions listed in ``TRACED`` and rebinds
every name under which the package calls them: the defining module's
attribute, each ``from ... import`` copy in the other modules, values of
module-level dicts such as ``cli._ENCODERS``, and class attributes for the
``Bitmap`` methods.  Each wrapped call records a span (name, start, end,
parent span, instance id, the module whose binding was called, and a work
count measured at the same boundary).  Spans are held in flat arrays in
memory; ``save_spans`` writes them out when the run ends.

Self time is a span's duration minus its children's; calls are strictly
nested in one thread, so the children never overlap.
"""

import functools
import statistics
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np


def _len_result(args, kwargs, result):
    return len(result)


def _stage2_rows(args, kwargs, result):
    scope = kwargs.get("scope", args[3] if len(args) > 3 else None)
    return result.scope_size if scope is not None else 0


# (span name, module, attribute, work count taken from the call or None)
TRACED = (
    ("gf.poly_eval", "gf", "poly_eval", None),
    ("gf.poly_eval_block", "gf", "poly_eval_block", _len_result),
    ("graph.edge_targets", "graph", "edge_targets", lambda a, k, r: int(r.size)),
    ("graph.neighbor", "graph", "neighbor", None),
    ("graph.neighborhood_bitmap", "graph", "neighborhood_bitmap", None),
    ("reduction.check_strong_reduction", "reduction", "check_strong_reduction", _stage2_rows),
    ("reduction.slot_overlap_counts", "reduction", "slot_overlap_counts", _len_result),
    ("scheme_one.encode", "scheme_one", "encode", None),
    ("scheme_one.query", "scheme_one", "query", None),
    ("scheme_two.encode", "scheme_two", "encode", lambda a, k, r: r.w_size),
    ("scheme_two.query", "scheme_two", "query", None),
    ("bmrv.encode", "bmrv", "encode", None),
    ("bmrv.greedy_label", "bmrv", "greedy_label", lambda a, k, r: r.iterations),
    ("bmrv.query", "bmrv", "query", None),
    ("bits.get", "bits", "Bitmap.get", None),
    ("bits.from_bool_array", "bits", "Bitmap.from_bool_array", None),
    ("bits.as_bool_array", "bits", "Bitmap.as_bool_array", None),
    ("storage.save", "storage", "save", _len_result),
    ("storage.load", "storage", "load", None),
    ("oracle.error_profile", "oracle", "error_profile",
     lambda a, k, r: len(r.per_element)),
    ("cli.build", "cli", "cmd_build", None),
    ("cli.verify", "cli", "cmd_verify", None),
)

QUERY_SPANS = {"one": "scheme_one.query", "two": "scheme_two.query", "bmrv": "bmrv.query"}
# The paper's probe bound: bit reads per query, (fewest, most).
READS_PER_QUERY = {"one": (1, 1), "two": (1, 2), "bmrv": (1, 1)}

# Every metric the traced run reports, with its unit.
LAYER_METRICS = (
    ("gf.poly_eval_block.s", "s"),
    ("gf.poly_eval_block.points", "count"),
    ("gf.ns_per_point_mul", "ns"),
    ("gf.poly_eval.calls", "count"),
    ("gf.poly_eval.us", "us"),
    ("graph.edge_targets.calls", "count"),
    ("graph.edge_targets.calls_via_graph", "count"),
    ("graph.edge_targets.calls_via_reduction", "count"),
    ("graph.edge_targets.calls_via_bmrv", "count"),
    ("graph.edge_targets.points", "count"),
    ("graph.edge_targets.self_s", "s"),
    ("graph.neighborhood_bitmap.self_s", "s"),
    ("graph.neighbor.calls", "count"),
    ("graph.neighbor.self_us", "us"),
    ("reduction.check_strong_reduction.calls", "count"),
    ("reduction.ms_per_candidate", "ms"),
    ("reduction.accept_ratio", "ratio"),
    ("reduction.slot_overlap_counts.rows", "count"),
    ("reduction.slot_overlap_counts.self_s", "s"),
    ("scheme_one.encode.self_s", "s"),
    ("scheme_two.encode.self_s", "s"),
    ("bmrv.encode.self_s", "s"),
    ("scheme_two.w_size", "count"),
    ("scheme_two.stage2_rows", "count"),
    ("bmrv.greedy_label.s", "s"),
    ("bmrv.rounds", "count"),
    ("scheme_one.query.us_p50", "us"),
    ("scheme_two.query.us_p50", "us"),
    ("bmrv.query.us_p50", "us"),
    ("bits.get.calls", "count"),
    ("bits.reads_per_query.one", "ratio"),
    ("bits.reads_per_query.two", "ratio"),
    ("bits.reads_per_query.bmrv", "ratio"),
    ("bits.from_bool_array.s", "s"),
    ("bits.as_bool_array.s", "s"),
    ("storage.save.s", "s"),
    ("storage.load.s", "s"),
    ("storage.bytes", "B"),
    ("oracle.error_profile.self_s", "s"),
    ("oracle.elements", "count"),
    ("cli.build.self_s", "s"),
    ("cli.verify.self_s", "s"),
    ("trace.overhead.build_s", "s"),
    ("trace.overhead.verify_s", "s"),
    ("trace.overhead.query_p50_us", "us"),
    ("trace.coverage.top_level_s", "s"),
    ("trace.coverage.e2e_s", "s"),
    ("trace.coverage.ratio", "ratio"),
    ("trace.spans", "count"),
)


class Tracer:
    """Span store for one traced run; single-threaded."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.via = array("i")
        self.parent = array("i")
        self.inst = array("i")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")
        self.segments = []  # (kind, number, lo, hi): span ranges of pass pieces and rounds
        self.instance = -1
        self.active = False
        self._stack = []

    def intern(self, text: str) -> int:
        if text not in self._ids:
            self._ids[text] = len(self.names)
            self.names.append(text)
        return self._ids[text]

    def enter(self, name_id: int, via_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.via.append(via_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.inst.append(self.instance)
        self.end.append(0)
        self.work.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def leave(self, idx: int, end_ns: int, work: int) -> None:
        self.end[idx] = end_ns
        self.work[idx] = work
        self._stack.pop()

    @contextmanager
    def segment(self, kind: str, number: int):
        lo = len(self.name)
        try:
            yield
        finally:
            self.segments.append((kind, number, lo, len(self.name)))

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was


def _wrap(tracer: Tracer, fn, name_id: int, via_id: int, measure):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        idx = tracer.enter(name_id, via_id)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.leave(idx, perf_counter_ns(), 0)
            raise
        end = perf_counter_ns()
        tracer.leave(idx, end, measure(args, kwargs, result) if measure else 0)
        return result
    return traced


@contextmanager
def patched(tracer: Tracer):
    """Rebind every name of every ``TRACED`` function in the ``bitprobe``
    package to a tracing wrapper, for the duration of the block."""
    modules = {name.rpartition(".")[2]: mod for name, mod in list(sys.modules.items())
               if mod is not None and (name == "bitprobe" or name.startswith("bitprobe."))}
    undo = []
    try:
        targets = []
        for span, modname, attr, measure in TRACED:
            owner = modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                targets.append((span, getattr(owner, cls_name), meth, measure))
            else:
                targets.append((span, getattr(owner, attr), None, measure))
        for span, fn, meth, measure in targets:
            name_id = tracer.intern(span)
            if meth is not None:
                cls, raw = fn, fn.__dict__[meth]
                is_classmethod = isinstance(raw, classmethod)
                inner = raw.__func__ if is_classmethod else raw
                wrapper = _wrap(tracer, inner, name_id, tracer.intern(span.split(".")[0]), measure)
                undo.append((setattr, cls, meth, raw))
                setattr(cls, meth, classmethod(wrapper) if is_classmethod else wrapper)
                continue
            for short, mod in modules.items():
                via_id = tracer.intern(short)
                for key, value in list(vars(mod).items()):
                    if key.startswith("__"):
                        continue
                    if value is fn:
                        undo.append((setattr, mod, key, fn))
                        setattr(mod, key, _wrap(tracer, fn, name_id, via_id, measure))
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is fn:
                                undo.append((dict.__setitem__, value, dkey, fn))
                                value[dkey] = _wrap(tracer, fn, name_id, via_id, measure)
        yield
    finally:
        for op, obj, key, original in reversed(undo):
            op(obj, key, original)


class _Spans:
    """Numpy views of a tracer's spans, with self times."""

    def __init__(self, tracer: Tracer):
        self.ids = dict((n, i) for i, n in enumerate(tracer.names))
        self.name = np.frombuffer(tracer.name, dtype=np.int32).astype(np.int64)
        self.via = np.frombuffer(tracer.via, dtype=np.int32).astype(np.int64)
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).astype(np.int64)
        self.inst = np.frombuffer(tracer.inst, dtype=np.int32).astype(np.int64)
        self.work = np.frombuffer(tracer.work, dtype=np.int64).astype(np.float64)
        start = np.frombuffer(tracer.start, dtype=np.int64)
        self.dur = (np.frombuffer(tracer.end, dtype=np.int64) - start).astype(np.float64)
        nested = self.parent >= 0
        child = np.bincount(self.parent[nested], weights=self.dur[nested],
                            minlength=len(self.dur))
        self.self_ = self.dur - child
        self.count = len(self.dur)

    def mask(self, segments) -> np.ndarray:
        out = np.zeros(self.count, dtype=bool)
        for _, _, lo, hi in segments:
            out[lo:hi] = True
        return out

    def of(self, name: str, within: np.ndarray) -> np.ndarray:
        if name not in self.ids:
            return np.zeros(self.count, dtype=bool)
        return within & (self.name == self.ids[name])


def _median_us(values: np.ndarray) -> float:
    return float(np.median(values)) / 1e3 if values.size else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, instances, overhead: dict, e2e_s: float):
    """The per-layer metrics of a traced run, and the number of queries that
    read more or fewer bits than their kind's probe bound allows.

    Counts and ratios cover the first traced unit of work: the first pass
    and the first stream round.  Times summed over a pass are medians over
    the traced passes.  Per-call times are medians over every traced call.
    """
    sp = _Spans(tracer)
    passes = {}
    for seg in tracer.segments:
        if seg[0] == "pass":
            passes.setdefault(seg[1], []).append(seg)
    first_round = [seg for seg in tracer.segments if seg[0] == "round"][:1]
    unit = sp.mask(passes[min(passes)] + first_round)
    every = sp.mask(tracer.segments)
    pass_masks = [sp.mask(pieces) for pieces in passes.values()]

    def calls(name, within=unit):
        return int(sp.of(name, within).sum())

    def work(name):
        return int(sp.work[sp.of(name, unit)].sum())

    def per_pass(name, values):
        return statistics.median(float(values[sp.of(name, pm)].sum()) / 1e9
                                 for pm in pass_masks)

    def total_s(name):
        return per_pass(name, sp.dur)

    def self_s(name):
        return per_pass(name, sp.self_)

    block = sp.of("gf.poly_eval_block", unit)
    k_minus_1 = np.array([inst.k - 1 for inst in instances], dtype=np.float64)
    point_mults = float((sp.work[block] * k_minus_1[sp.inst[block]]).sum())

    via = {}
    edge = sp.of("graph.edge_targets", unit)
    for module in ("graph", "reduction", "bmrv"):
        via[module] = int((edge & (sp.via == sp.ids.get(module, -1))).sum())

    reads = {}
    violations = 0
    get_spans = sp.of("bits.get", every) & (sp.parent >= 0)
    reads_by_parent = np.bincount(sp.parent[get_spans], minlength=sp.count)
    for kind, span in QUERY_SPANS.items():
        queries = sp.of(span, unit)
        reads[kind] = _ratio(float(reads_by_parent[queries].sum()), float(queries.sum()))
        low, high = READS_PER_QUERY[kind]
        per_query = reads_by_parent[sp.of(span, every)]
        violations += int(((per_query < low) | (per_query > high)).sum())

    top = sp.parent < 0
    top_level = statistics.median(
        float(sp.dur[(sp.of("cli.build", pm) | sp.of("cli.verify", pm)) & top].sum()) / 1e9
        for pm in pass_masks)

    candidates = calls("reduction.check_strong_reduction")
    accepted = calls("scheme_one.encode") + 2 * calls("scheme_two.encode")
    values = {
        "gf.poly_eval_block.s": total_s("gf.poly_eval_block"),
        "gf.poly_eval_block.points": work("gf.poly_eval_block"),
        "gf.ns_per_point_mul": _ratio(float(sp.dur[block].sum()), point_mults),
        "gf.poly_eval.calls": calls("gf.poly_eval"),
        "gf.poly_eval.us": _median_us(sp.dur[sp.of("gf.poly_eval", every)]),
        "graph.edge_targets.calls": calls("graph.edge_targets"),
        "graph.edge_targets.calls_via_graph": via["graph"],
        "graph.edge_targets.calls_via_reduction": via["reduction"],
        "graph.edge_targets.calls_via_bmrv": via["bmrv"],
        "graph.edge_targets.points": work("graph.edge_targets"),
        "graph.edge_targets.self_s": self_s("graph.edge_targets"),
        "graph.neighborhood_bitmap.self_s": self_s("graph.neighborhood_bitmap"),
        "graph.neighbor.calls": calls("graph.neighbor"),
        "graph.neighbor.self_us": _median_us(sp.self_[sp.of("graph.neighbor", every)]),
        "reduction.check_strong_reduction.calls": candidates,
        "reduction.ms_per_candidate": _ratio(
            float(sp.dur[sp.of("reduction.check_strong_reduction", unit)].sum()) / 1e6,
            candidates),
        "reduction.accept_ratio": _ratio(accepted, candidates),
        "reduction.slot_overlap_counts.rows": work("reduction.slot_overlap_counts"),
        "reduction.slot_overlap_counts.self_s": self_s("reduction.slot_overlap_counts"),
        "scheme_one.encode.self_s": self_s("scheme_one.encode"),
        "scheme_two.encode.self_s": self_s("scheme_two.encode"),
        "bmrv.encode.self_s": self_s("bmrv.encode"),
        "scheme_two.w_size": work("scheme_two.encode"),
        "scheme_two.stage2_rows": work("reduction.check_strong_reduction"),
        "bmrv.greedy_label.s": total_s("bmrv.greedy_label"),
        "bmrv.rounds": work("bmrv.greedy_label"),
        "scheme_one.query.us_p50": _median_us(sp.dur[sp.of("scheme_one.query", every)]),
        "scheme_two.query.us_p50": _median_us(sp.dur[sp.of("scheme_two.query", every)]),
        "bmrv.query.us_p50": _median_us(sp.dur[sp.of("bmrv.query", every)]),
        "bits.get.calls": calls("bits.get"),
        "bits.reads_per_query.one": reads["one"],
        "bits.reads_per_query.two": reads["two"],
        "bits.reads_per_query.bmrv": reads["bmrv"],
        "bits.from_bool_array.s": total_s("bits.from_bool_array"),
        "bits.as_bool_array.s": total_s("bits.as_bool_array"),
        "storage.save.s": total_s("storage.save"),
        "storage.load.s": total_s("storage.load"),
        "storage.bytes": work("storage.save"),
        "oracle.error_profile.self_s": self_s("oracle.error_profile"),
        "oracle.elements": work("oracle.error_profile"),
        "cli.build.self_s": self_s("cli.build"),
        "cli.verify.self_s": self_s("cli.verify"),
        "trace.overhead.build_s": overhead["build_s"],
        "trace.overhead.verify_s": overhead["verify_s"],
        "trace.overhead.query_p50_us": overhead["query_p50_us"],
        "trace.coverage.top_level_s": top_level,
        "trace.coverage.e2e_s": e2e_s,
        "trace.coverage.ratio": _ratio(top_level, e2e_s),
        "trace.spans": int(unit.sum()),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}, violations


def save_spans(tracer: Tracer, path) -> None:
    """Write every span as columns of an ``.npz`` file, with the name table."""
    np.savez_compressed(
        path,
        names=np.array(tracer.names),
        name=np.frombuffer(tracer.name, dtype=np.int32),
        via=np.frombuffer(tracer.via, dtype=np.int32),
        parent=np.frombuffer(tracer.parent, dtype=np.int32),
        instance=np.frombuffer(tracer.inst, dtype=np.int32),
        start_ns=np.frombuffer(tracer.start, dtype=np.int64),
        end_ns=np.frombuffer(tracer.end, dtype=np.int64),
        work=np.frombuffer(tracer.work, dtype=np.int64),
        segments=np.array([(kind == "round", number, lo, hi)
                           for kind, number, lo, hi in tracer.segments],
                          dtype=np.int64).reshape(-1, 4),
    )
