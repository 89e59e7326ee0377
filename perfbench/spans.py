"""Layer spans for the traced run, installed from outside the program.

`install` swaps each layer's public function (and a few methods) for a
wrapper that records a span: name, start, end and parent.  Every module
binding of the same function object is swapped, so `from .arith import
valuation` call sites are traced too.  `uninstall` restores the originals,
so traced and untraced passes can share one process.

Self time of a span is its duration minus the part its child spans cover.
Counters are computed from call arguments and results only, so they repeat
exactly from run to run.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

ROOT = "job"


def dp_cells(n_max: int, height_cap=None) -> int:
    """Inner-loop updates of the Dyck DP: sum over steps of (hi - lo) // 2 + 1."""
    h_max = max(n_max if height_cap is None else min(height_cap, n_max), 0)
    cells = 0
    for s in range(1, 2 * n_max + 1):
        hi = min(s, 2 * n_max - s, h_max)
        lo = s & 1
        if hi >= lo:
            cells += (hi - lo) // 2 + 1
    return cells


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_dp(prefix):
    def count(tracer, args, kwargs, result):
        n_max = _arg(args, kwargs, 1, "n_max")
        cap = _arg(args, kwargs, 3 if prefix == "kernel.dp_mod" else 2, "height_cap")
        tracer.counts[prefix + ".cells"] += dp_cells(n_max, cap)
        if prefix == "kernel.dp_mod" and tracer.inside("morse.certify"):
            tracer.counts["morse.certify_dp_runs"] += 1
    return count


def _count_pq(tracer, args, kwargs, result):
    tracer.counts["periodicity.pq.depth"] += _arg(args, kwargs, 1, "n")


def _count_detect(tracer, args, kwargs, result):
    tracer.counts["periodicity.detect.terms"] += result.window


def _count_emitted(tracer, args, kwargs, result):
    tracer.counts["orbits.emitted"] += len(result)


def _count_certify(tracer, args, kwargs, result):
    tracer.counts["morse.certifications"] += 1


# (module, attribute, span name, counter); "Class.method" patches a method.
LAYERS = (
    ("wcatalan.kernel", "dyck_dp_mod", "kernel.dp_mod", _count_dp("kernel.dp_mod")),
    ("wcatalan.kernel", "dyck_dp_exact", "kernel.dp_exact", _count_dp("kernel.dp_exact")),
    ("wcatalan.catalan", "q_weighted_catalan", "catalan.q_weighted", None),
    ("wcatalan.periodicity", "continued_fraction_pq", "periodicity.pq", _count_pq),
    ("wcatalan.periodicity", "detect_period", "periodicity.detect", _count_detect),
    ("wcatalan.periodicity", "truncation_index", "periodicity.truncation", None),
    ("wcatalan.morse", "fit_padic_alpha", "morse.fit", None),
    ("wcatalan.morse", "conjecture_report", "morse.report", None),
    ("wcatalan.morse", "_certified_valuations", "morse.certify", _count_certify),
    ("wcatalan.arith", "valuation", "arith.valuation", None),
    ("wcatalan.arith", "digit_sum", "arith.digit_sum", None),
    ("wcatalan.orbits", "enumerate_orbits", "orbits.enumerate", _count_emitted),
    ("wcatalan.orbits", "minimal_orbits", "orbits.minimal", _count_emitted),
    ("wcatalan.orbits", "orbit_size", "orbits.size", None),
    ("wcatalan.orbits", "OrbitShape.to_parens", "orbits.parens", None),
    ("wcatalan.orbits", "epsilon_direct", "orbits.eps_direct", None),
    ("wcatalan.orbits", "epsilon_recursive", "orbits.eps_recursive", None),
    ("wcatalan.orbits", "coin_oracle", "orbits.coin", None),
    ("wcatalan.orbits", "reduce_orbit", "orbits.reduce", None),
    ("wcatalan.weights", "WeightFunction.values", "weights.values", None),
    ("wcatalan.weights", "check_conditions", "weights.check", None),
    ("wcatalan.weights", "epsilon_of_weight", "weights.epsilon", None),
    ("wcatalan.cli", "_emit", "cli.emit", None),
    ("wcatalan.morse", "ValuationProfile.to_csv", "cli.emit", None),
)


class Tracer:
    """Spans of the current job, kept in memory and folded per job."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def wrap(self, name: str, fn, counter=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_job(self, fn, *args):
        """Call fn under a root span and fold the job's spans into the totals."""
        self.spans.clear()
        wrapped = self.wrap(ROOT, fn)
        try:
            return wrapped(*args)
        finally:
            self._fold()

    def _fold(self) -> None:
        children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        for idx, (name, start, end, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(idx, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            self.self_s[name] += (end - start) - covered
            self.calls[name] += 1
        self.spans.clear()

    def install(self) -> None:
        for module_name, attr, name, counter in LAYERS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, attr, self.wrap(name, getattr(cls, attr), counter))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(name, original, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "wcatalan" and getattr(mod, attr, None) is original:
                    self._patch(mod, attr, traced)
        cli = sys.modules["wcatalan.cli"]
        build = cli.build_parser

        def build_parser():
            parser = self.wrap("cli.parse", build)()
            parser.parse_args = self.wrap("cli.parse", parser.parse_args)
            return parser

        self._patch(cli, "build_parser", build_parser)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
