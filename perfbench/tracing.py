"""Spans and counters around calls into the produpd modules.

The tracer is installed from the benchmark, not from the package: each
traced function is replaced by a wrapper on every module attribute that
binds it (the defining module, the modules that imported it by name and
the package namespace), and the `Evaluator` methods are replaced on the
class.  Removing the tracer restores every binding.

A span records its name, its start and end on the tracer's clock, the
span open when it began (its parent) and the op it belongs to.  Spans
stay in memory in flat arrays and are written out once at the end.
Recursive re-entry into a function that already has an open span calls
through without a new span, so `.calls` counts outermost calls only (a
change that saves recursive calls inside one outermost call does not move
it) and durations never double-count.

Each span costs the tracer some time, part inside the span's interval
and part in its parent's.  `span_cost` measures both on a wrapped no-op,
and the time metrics and shares have them taken off, so that a layer's
self time does not include the tracer's work for its children.

Counting work that is not a call (output tree and DAG sizes, product
worlds, memo entries) happens in hooks whose own time is taken off the
tracer's clock, so no span pays for the bookkeeping.
"""

from __future__ import annotations

import gc
import gzip
import sys
import time
from array import array
from collections import Counter
from statistics import median

# Traced functions per module.  Node constructors and the per-node
# primitives (`children`, `rebuild`, `conj`, `disj`, `pair_world`,
# `as_tagged`) are left out: they run inside every traversal, and a span
# around each would measure the tracer rather than the layer.
TRACED = {
    "cli": ("run",),
    "parser": (
        "parse_formula", "parse_model", "parse_tagged_model", "parse_event_model",
        "print_formula", "model_to_jsonable", "tagged_to_jsonable",
        "event_model_to_jsonable", "dump_model", "dump_tagged_model",
        "dump_event_model",
    ),
    "syntax": (
        "free_props", "all_props", "contains_node", "formula_size",
        "quantifier_count", "modal_depth", "fresh_props", "substitute",
        "alpha_equal", "is_positive_in", "check_nu_positivity", "classify",
        "subformula_positions", "subformula_at", "replace_subformula",
    ),
    "translator": (
        "eliminate_all", "translate_event", "translate_announcement",
        "expand_foralls", "fold_constants", "singleton_point_schema",
    ),
    "models": (
        "product_from_extensions", "product_update", "relativise",
        "with_valuation", "generated_submodel_k", "announcement_event_model",
    ),
    "semantics": ("gfp_oracle",),
    "analysis": (
        "greatest_bisimulation", "is_bisimulation", "lift_bisimulation",
        "check_degree", "k_star",
    ),
    "harness": (
        "run_fuzz", "random_model", "random_event_model", "random_formula",
        "translation_case_inputs", "duplicate_world",
    ),
}
EVALUATOR_METHODS = ("__init__", "extension", "extension_mask", "holds")
LAYERS = ("cli", "parser", "syntax", "translator", "models", "semantics", "analysis", "harness")

# Groups whose time is reported over their outermost members only.
EVAL_GROUP = (
    "semantics.Evaluator.extension", "semantics.Evaluator.extension_mask",
    "semantics.Evaluator.holds", "semantics.gfp_oracle",
)
GENERATE_GROUP = (
    "harness.random_model", "harness.random_event_model", "harness.random_formula",
    "harness.translation_case_inputs",
)
TRANSLATE_GROUP = (
    "translator.eliminate_all", "translator.translate_event",
    "translator.translate_announcement",
)
# Counters kept by the hooks, reported per op.
COUNTED = (
    "translator.output_tree_nodes", "translator.output_dag_nodes",
    "translator.output_quantifiers", "translator.steps", "models.product_worlds",
    "semantics.sessions.root", "semantics.sessions.product",
    "semantics.sessions.relativised", "semantics.subsets", "gc.collections",
)
_GROUP_OF = {}
for _g, _members in enumerate((EVAL_GROUP, GENERATE_GROUP, TRANSLATE_GROUP)):
    for _m in _members:
        _GROUP_OF[_m] = _g

# Per-layer metrics, in the order they are reported: (name, unit).  Counts
# and times are per op of the traced run; `memo_entries_peak` is the
# largest memo total of any one op.
PER_LAYER = (
    ("cli.run.calls", "1/op"),
    ("cli.self_s", "s/op"),
    ("parser.parse_formula.calls", "1/op"),
    ("parser.parse_formula.s", "s/op"),
    ("parser.parse_event_model.s", "s/op"),
    ("parser.print_formula.calls", "1/op"),
    ("parser.print_formula.s", "s/op"),
    ("syntax.free_props.calls", "1/op"),
    ("syntax.contains_node.calls", "1/op"),
    ("syntax.formula_size.calls", "1/op"),
    ("syntax.quantifier_count.calls", "1/op"),
    ("syntax.classify.calls", "1/op"),
    ("syntax.classify.s", "s/op"),
    ("translator.eliminate_all.s", "s/op"),
    ("translator.translate_event.calls", "1/op"),
    ("translator.translate_event.s", "s/op"),
    ("translator.translate_announcement.calls", "1/op"),
    ("translator.translate_announcement.s", "s/op"),
    ("translator.output_tree_nodes", "1/op"),
    ("translator.output_dag_nodes", "1/op"),
    ("translator.output_quantifiers", "1/op"),
    ("translator.steps", "1/op"),
    ("models.product_from_extensions.calls", "1/op"),
    ("models.product_from_extensions.s", "s/op"),
    ("models.relativise.calls", "1/op"),
    ("models.relativise.s", "s/op"),
    ("models.product_worlds", "1/op"),
    ("semantics.sessions.root", "1/op"),
    ("semantics.sessions.product", "1/op"),
    ("semantics.sessions.relativised", "1/op"),
    ("semantics.session_init_s", "s/op"),
    ("semantics.extension.calls", "1/op"),
    ("semantics.extension.self_s", "s/op"),
    ("semantics.eval_s", "s/op"),
    ("semantics.subsets", "1/op"),
    ("semantics.memo_entries_peak", "count"),
    ("analysis.greatest_bisimulation.s", "s/op"),
    ("analysis.lift_bisimulation.s", "s/op"),
    ("analysis.check_degree.s", "s/op"),
    ("harness.generate.s", "s/op"),
    ("harness.run_fuzz.self_s", "s/op"),
    ("gc.collections", "1/op"),
    ("gc.pause_s", "s/op"),
) + tuple((f"{layer}.self_share", "share") for layer in LAYERS) + (
    ("untraced.self_share", "share"),
    ("trace.self_share", "share"),
    ("trace.span_ns", "ns"),
    ("trace.spans", "1/op"),
    ("trace.overhead_ms", "ms/op"),
    ("trace.overhead_share", "share"),
)


def tree_and_dag(phi, syntax) -> tuple[int, int, int]:
    """Tree size, number of distinct subterms, and quantifier nodes counted
    with tree multiplicity, without calling any traced function.

    Subterms are numbered bottom-up by (kind, own fields, child numbers),
    so each node object is visited once and no deep hash is computed.
    """
    children, formula = syntax.children, syntax.Formula
    quantifiers = (syntax.ExistsProp, syntax.ForallProp)
    number: dict[int, int] = {}  # id(node) -> subterm number
    canon: dict[tuple, int] = {}  # (kind, fields, child numbers) -> number
    size: list[int] = []
    quants: list[int] = []
    stack = [(phi, False)]
    while stack:
        node, done = stack.pop()
        if id(node) in number:
            continue
        kids = children(node)
        if not done:
            stack.append((node, True))
            stack.extend((c, False) for c in kids if id(c) not in number)
            continue
        nums = tuple(number[id(c)] for c in kids)
        fields = tuple(
            v for v in (getattr(node, f) for f in node.__slots__)
            if not isinstance(v, formula)
        )
        key = (type(node), fields, nums)
        k = canon.get(key)
        if k is None:
            k = canon[key] = len(size)
            size.append(1 + sum(size[c] for c in nums))
            quants.append(isinstance(node, quantifiers) + sum(quants[c] for c in nums))
        number[id(node)] = k
    root = number[id(phi)]
    return size[root], len(size), quants[root]


def memo_entries(ev) -> int:
    """Memo entries held by an evaluation session and all its children."""
    total = 0
    stack = [ev]
    while stack:
        s = stack.pop()
        total += len(s._memo)
        stack.extend(s._products.values())
        stack.extend(s._relativised.values())
    return total


class Tracer:
    """Records spans and counters for one traced run."""

    def __init__(self, P):
        self.P = P
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.sname = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.outer = array("b")
        self.stack = [-1]
        self.group_depth = [0, 0, 0]
        self.hidden = 0
        self.cur_op = -1
        self.counters: Counter = Counter()
        self.memo_peak = 0
        self._roots: list = []
        self._gc_t0 = 0
        self._patches = self._build()

    # -- clock and ops -----------------------------------------------------

    def clock(self) -> int:
        return time.perf_counter_ns() - self.hidden

    def begin_op(self, i: int) -> None:
        self.cur_op = i

    def end_op(self) -> None:
        """Read the work counters of the op's root sessions, then drop them."""
        works = {id(ev._work): ev._work for ev in self._roots}
        self.counters["semantics.subsets"] += sum(w.ticks for w in works.values())
        memo = sum(memo_entries(ev) for ev in self._roots)
        self.memo_peak = max(self.memo_peak, memo)
        self._roots.clear()
        self.cur_op = -1

    def span_cost(self, calls: int = 20000, reps: int = 9) -> tuple[float, float]:
        """Tracer time per span in ns, as (inside the span's interval,
        outside it), measured on a wrapped one-argument no-op."""
        probe = Tracer(self.P)

        def noop(x):
            return x

        wrapped = probe._wrap(noop, "probe", home={"noop": noop})
        inside, total = [], []
        for _ in range(reps):
            first = len(probe.start)
            t0 = time.perf_counter_ns()
            for _ in range(calls):
                noop(None)
            t1 = time.perf_counter_ns()
            for _ in range(calls):
                wrapped(None)
            t2 = time.perf_counter_ns()
            raw = (t1 - t0) / calls
            recorded = sum(probe.end[first:]) - sum(probe.start[first:])
            inside.append(recorded / calls - raw)
            total.append((t2 - t1) / calls - raw)
        c_in = median(inside)
        return c_in, median(total) - c_in

    # -- installation ------------------------------------------------------

    def _sid(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        return sid

    def _wrap(self, fn, name: str, post=None, home=None):
        """Wrap `fn` in a span.  `home` is the namespace of the defining
        module: while the span is open, its binding points at `fn` itself,
        so the function's own recursion runs unwrapped."""
        sid = self._sid(name)
        group = _GROUP_OF.get(name, -1)
        attr = fn.__name__
        depth = [0]
        sname, parent, op, start, end, outer = (
            self.sname, self.parent, self.op, self.start, self.end, self.outer,
        )
        stack, gdepth, clock = self.stack, self.group_depth, self.clock

        def traced(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            if home is not None:
                home[attr] = fn
            idx = len(start)
            sname.append(sid)
            parent.append(stack[-1])
            op.append(self.cur_op)
            if group >= 0:
                outer.append(gdepth[group] == 0)
                gdepth[group] += 1
            else:
                outer.append(True)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                depth[0] = 0
                if home is not None:
                    home[attr] = traced
                if group >= 0:
                    gdepth[group] -= 1
            if post is not None:
                h0 = time.perf_counter_ns()
                post(args, result, outer[idx])
                self.hidden += time.perf_counter_ns() - h0
            return result

        traced.__wrapped__ = fn
        traced.__name__ = attr
        return traced

    def _build(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every binding of every
        traced function: the defining module, each module that imported it
        by name, the package namespace, and the Evaluator methods."""
        P = self.P
        posts = {
            "translator.eliminate_all": self._post_eliminate_all,
            "translator.translate_event": self._post_translate,
            "translator.translate_announcement": self._post_translate,
            "models.product_from_extensions": self._post_product,
        }
        replace = {}
        for layer, names in TRACED.items():
            mod = getattr(P, layer)
            for fname in names:
                fn = getattr(mod, fname)
                full = f"{layer}.{fname}"
                replace[id(fn)] = (fn, self._wrap(fn, full, posts.get(full), vars(mod)))
        patches = []
        for mod in [P.package] + [getattr(P, m) for m in LAYERS]:
            for attr, value in vars(mod).items():
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    patches.append((mod, attr, value, hit[1]))
        ev_cls = P.semantics.Evaluator
        for meth in EVALUATOR_METHODS:
            fn = ev_cls.__dict__[meth]
            post = self._post_init if meth == "__init__" else None
            patches.append((ev_cls, meth, fn, self._wrap(fn, f"semantics.Evaluator.{meth}", post)))
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- hooks ---------------------------------------------------------------

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter_ns()
        elif self.cur_op >= 0:
            self.counters["gc.collections"] += 1
            self.counters["gc.pause_ns"] += time.perf_counter_ns() - self._gc_t0

    def _count_output(self, phi) -> None:
        tree, dag, quants = tree_and_dag(phi, self.P.syntax)
        self.counters["translator.output_tree_nodes"] += tree
        self.counters["translator.output_dag_nodes"] += dag
        self.counters["translator.output_quantifiers"] += quants

    def _post_eliminate_all(self, args, report, outer) -> None:
        self._count_output(report.output)
        self.counters["translator.steps"] += len(report.steps)

    def _post_translate(self, args, phi, outer) -> None:
        if outer:
            self._count_output(phi)

    def _post_product(self, args, result, outer) -> None:
        tm = result[0] if isinstance(result, tuple) else result
        self.counters["models.product_worlds"] += len(tm.model.worlds)

    def _post_init(self, args, result, outer) -> None:
        caller = sys._getframe(2).f_code.co_name
        if caller == "_product_session":
            self.counters["semantics.sessions.product"] += 1
        elif caller == "_eval_announce":
            self.counters["semantics.sessions.relativised"] += 1
        else:
            self.counters["semantics.sessions.root"] += 1
            if self.cur_op >= 0:
                self._roots.append(args[0])

    # -- results -------------------------------------------------------------

    def total(self, metric: str) -> int:
        """Run total of a count metric, not divided by ops."""
        if metric == "semantics.memo_entries_peak":
            return self.memo_peak
        if metric.endswith(".calls"):
            sid = self._ids.get(metric[: -len(".calls")])
            return 0 if sid is None else self.sname.count(sid)
        return self.counters[metric]

    def layer_metrics(self, ops: int, traced_op_ns: int, overhead: tuple[float, float],
                      span_cost: tuple[float, float]) -> dict:
        """Per-layer metrics over `ops` traced ops whose latencies sum to
        `traced_op_ns`; `overhead` is the measured tracing overhead as
        (ms per op, share of untraced op time), and `span_cost` the
        tracer's time per span (ns inside it, ns outside it), which is
        taken off every span's inclusive and self time."""
        c_in, c_out = span_cost
        n = len(self.start)
        names = self.names
        parent = self.parent
        # a child span starts after its parent, so it has a larger index
        below = [0] * n  # spans below each span
        for i in range(n - 1, -1, -1):
            p = parent[i]
            if p >= 0:
                below[p] += below[i] + 1
        # inclusive time without the tracer's cost for the span and all
        # spans below it; the parent's self time then loses its children's
        # outside part too
        dur = [self.end[i] - self.start[i] - c_in - below[i] * (c_in + c_out)
               for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = Counter()
        incl = Counter()
        own = Counter()
        outer_incl = Counter()
        for i in range(n):
            name = names[self.sname[i]]
            calls[name] += 1
            incl[name] += dur[i]
            own[name] += dur[i] - child[i]
            if self.outer[i]:
                outer_incl[name] += dur[i]
        layer_self = Counter()
        for name, t in own.items():
            layer_self[name.split(".", 1)[0]] += t
        # time metrics that are not one span's inclusive time, in ns
        times = {
            "cli.self_s": layer_self["cli"],
            "semantics.session_init_s": incl["semantics.Evaluator.__init__"],
            "semantics.extension.self_s": sum(own[m] for m in EVAL_GROUP),
            "semantics.eval_s": sum(outer_incl[m] for m in EVAL_GROUP),
            "harness.generate.s": sum(outer_incl[m] for m in GENERATE_GROUP),
            "harness.run_fuzz.self_s": own["harness.run_fuzz"],
            "gc.pause_s": self.counters["gc.pause_ns"],
        }
        counts = {k: self.counters[k] for k in COUNTED}
        counts["semantics.extension.calls"] = sum(calls[m] for m in EVAL_GROUP)
        out = {}
        for name, unit in PER_LAYER:
            span = name.rsplit(".", 1)[0]
            if name in times:
                out[name] = times[name] * 1e-9 / ops
            elif name in counts:
                out[name] = counts[name] / ops
            elif name.endswith(".calls"):
                out[name] = calls[span] / ops
            elif name.endswith(".s"):
                out[name] = incl[span] * 1e-9 / ops
        out["semantics.memo_entries_peak"] = self.memo_peak
        # shares of op time on the tracer's clock, which leaves out hook time
        busy_ns = max(1, traced_op_ns - self.hidden)
        tracer_ns = n * (c_in + c_out)
        for layer in LAYERS:
            out[f"{layer}.self_share"] = layer_self[layer] / busy_ns
        out["untraced.self_share"] = 1.0 - (sum(layer_self.values()) + tracer_ns) / busy_ns
        out["trace.self_share"] = tracer_ns / busy_ns
        out["trace.span_ns"] = c_in + c_out
        out["trace.spans"] = n / ops
        out["trace.overhead_ms"], out["trace.overhead_share"] = overhead
        return out

    def write(self, path) -> None:
        """Write every span as one tab-separated line of a gzip file: span,
        op, name, parent span (-1 for none), start and end in ns from the
        first span."""
        names = self.names
        t0 = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\top\tname\tparent\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.op[i]}\t{names[self.sname[i]]}\t{self.parent[i]}\t"
                    f"{self.start[i] - t0}\t{self.end[i] - t0}\n"
                )
