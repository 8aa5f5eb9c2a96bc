"""Spans around the calls into each chainocrs layer, for the traced run.

``install`` replaces the module and class attributes that callers look up
(``chainocrs.cli.ocrs_chain``, ``Matroid.span``, ...) with wrappers that
record a span per call.  It is called only in the traced worker process;
the package itself is not edited.

A span is (id, parent id, name, start, end).  Spans stay in memory and are
written out by ``Tracer.dump`` when the run ends; per-name call counts,
total time and self time (duration minus the time covered by child spans)
are accumulated as spans close.  Matroid calls nested inside another
matroid call (``MinorMatroid.span`` delegating to ``base.span``, ``span``
calling ``rank``) are not spans: only the outermost call is counted.
"""

from __future__ import annotations

import functools
import statistics
from array import array
from time import perf_counter

NAMES = (
    "cli.parse", "cli.run", "cli.marginal", "cli.report",
    "chains.chain", "chains.link", "chains.link_absorbing",
    "matroids.span", "matroids.rank", "matroids.minor", "matroids.table",
    "sampling.generator", "sampling.active_set", "sampling.filter",
    "sampling.weights", "sampling.polytope",
    "selection.experiment", "selection.trial", "selection.accept",
    "verify.run",
)
ID = {name: i for i, name in enumerate(NAMES)}

#: Exact counts that repeat for a fixed seed; pinned per report.
PINNED_COUNTS = (
    "chains.draws", "chains.iterations", "chains.link_calls",
    "chains.absorbing_links", "matroids.span_calls",
)


class Tracer:
    def __init__(self):
        n = len(NAMES)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.self_time = [0.0] * n
        self.stack: list[list] = []
        self.next_id = 0
        self.matroid_depth = 0
        # chains.* counts read from the returned LinkTrace/BuildTrace values
        self.iterations = 0
        self.grown = 0
        self.draws = 0
        self.classify_misses = 0
        self.chain_ms: list[float] = []
        self._ids, self._parents = array("q"), array("q")
        self._names, self._starts, self._ends = array("b"), array("d"), array("d")

    # -- spans -------------------------------------------------------------

    def enter(self, nid: int) -> None:
        parent = self.stack[-1][1] if self.stack else -1
        self.stack.append([nid, self.next_id, parent, 0.0, perf_counter()])
        self.next_id += 1

    def exit(self) -> float:
        end = perf_counter()
        nid, sid, parent, child, start = self.stack.pop()
        dur = end - start
        if self.stack:
            self.stack[-1][3] += dur
        self.calls[nid] += 1
        self.total[nid] += dur
        self.self_time[nid] += dur - child
        self._ids.append(sid)
        self._parents.append(parent)
        self._names.append(nid)
        self._starts.append(start)
        self._ends.append(end)
        return dur

    def wrap(self, fn, name: str, matroid: bool = False):
        nid = ID[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if matroid:
                if self.matroid_depth:
                    return fn(*args, **kwargs)
                self.matroid_depth = 1
            self.enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
                if matroid:
                    self.matroid_depth = 0

        return wrapper

    def wrap_link(self, fn):
        link, absorbing_link = ID["chains.link"], ID["chains.link_absorbing"]

        @functools.wraps(fn)
        def wrapper(m, x, params, rng):
            ground = m.ground_mask
            absorbing = True
            while ground:
                low = ground & -ground
                if x[low.bit_length() - 1] > 0.0:
                    absorbing = False
                    break
                ground ^= low
            self.enter(absorbing_link if absorbing else link)
            try:
                a, lt = fn(m, x, params, rng)
            finally:
                self.exit()
            self.draws += lt.draws
            if not absorbing:
                self.iterations += lt.h_bar
                prev = 0
                for cur in lt.a_sets:
                    self.grown += cur != prev
                    prev = cur
            return a, lt

        return wrapper

    def wrap_chain(self, fn):
        nid = ID["chains.chain"]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.chain_ms.append(1e3 * self.exit())

        return wrapper

    def wrap_weights(self, fn):
        inner, verify = self.wrap(fn, "sampling.weights"), ID["verify.run"]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # verify's exact classification computes one weight table per
            # cache miss, directly under the verify span.
            if self.stack and self.stack[-1][0] == verify:
                self.classify_misses += 1
            return inner(*args, **kwargs)

        return wrapper

    # -- snapshots and output ----------------------------------------------

    def snapshot(self) -> dict:
        return {
            "calls": list(self.calls), "total": list(self.total),
            "self": list(self.self_time), "iterations": self.iterations,
            "grown": self.grown, "draws": self.draws,
            "classify_misses": self.classify_misses,
        }

    def pinned_counts(self) -> list[int]:
        """Current totals of PINNED_COUNTS, in that order."""
        c = self.calls
        return [
            self.draws,
            self.iterations,
            c[ID["chains.link"]] + c[ID["chains.link_absorbing"]],
            c[ID["chains.link_absorbing"]],
            c[ID["matroids.span"]],
        ]

    def dump(self, path) -> None:
        """Write every recorded span: a name table, then five arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write((" ".join(NAMES) + "\n").encode())
            fh.write(f"{len(self._ids)}\n".encode())
            for arr in (self._ids, self._parents, self._names, self._starts, self._ends):
                arr.tofile(fh)


def install(tracer: Tracer) -> None:
    """Wrap the attributes through which chainocrs layers call each other."""
    from chainocrs import chains, cli, matroids, sampling, selection, verify

    w = tracer.wrap
    cli.parse_config = w(cli.parse_config, "cli.parse")
    cli.run = w(cli.run, "cli.run")
    cli.generate_marginal = w(cli.generate_marginal, "cli.marginal")
    cli.ExperimentReport.to_json = w(cli.ExperimentReport.to_json, "cli.report")

    link = tracer.wrap_link(chains.single_ocrs_link)
    chains.single_ocrs_link = verify.single_ocrs_link = link
    chain = tracer.wrap_chain(chains.ocrs_chain)
    cli.ocrs_chain = selection.ocrs_chain = verify.ocrs_chain = chain

    for cls in (matroids.Matroid, matroids.MinorMatroid):
        for attr, name in (
            ("span", "matroids.span"), ("rank", "matroids.rank"),
            ("restrict", "matroids.minor"), ("contract", "matroids.minor"),
            ("span_lookup", "matroids.table"), ("rank_table", "matroids.table"),
        ):
            if attr in cls.__dict__:
                setattr(cls, attr, w(cls.__dict__[attr], name, matroid=True))

    sampling.RngStream.generator = w(sampling.RngStream.generator, "sampling.generator")
    active = w(sampling.sample_active_set, "sampling.active_set")
    chains.sample_active_set = selection.sample_active_set = verify.sample_active_set = active
    selection.filter_actives = w(sampling.filter_actives, "sampling.filter")
    weights = tracer.wrap_weights(sampling.realization_weights)
    chains.realization_weights = verify.realization_weights = weights
    polytope = w(sampling.in_scaled_polytope, "sampling.polytope")
    cli.in_scaled_polytope = verify.in_scaled_polytope = polytope

    cli.selectability_experiment = w(cli.selectability_experiment, "selection.experiment")
    selection.chain_ocrs_trial = w(selection.chain_ocrs_trial, "selection.trial")
    selection.element_last_accepts = w(selection.element_last_accepts, "selection.accept")

    for name in (
        "verify_in_link_loss", "verify_progress", "verify_spanning",
        "verify_freeness_likely", "verify_t_alpha", "sample_complexity_audit",
    ):
        setattr(cli, name, w(getattr(cli, name), "verify.run"))
    # verify_in_link_loss binds its default link builder at definition time,
    # so the traced builder is passed explicitly.
    in_link = cli.verify_in_link_loss

    @functools.wraps(in_link)
    def verify_in_link_loss(*args, **kwargs):
        kwargs.setdefault("builder", link)
        return in_link(*args, **kwargs)

    cli.verify_in_link_loss = verify_in_link_loss


def _tail(values: list[float]) -> float:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it; else max."""
    n = len(values)
    if not n:
        return 0.0
    for per_mille in (999, 990, 900):
        if n * (1000 - per_mille) >= 10_000:
            return statistics.quantiles(values, n=1000, method="inclusive")[per_mille - 1]
    return max(values)


def layer_metrics(setup: dict, end: dict, chain_ms: list[float]) -> dict:
    """Per-layer metrics: set-up layers from the ``setup`` snapshot, the rest
    from the body (``end`` minus ``setup``).  A layer not reached reads 0."""

    def body(key, name):
        return end[key][ID[name]] - setup[key][ID[name]]

    def diff(key):
        return end[key] - setup[key]

    def ratio(a, b):
        return a / b if b else 0.0

    links = body("calls", "chains.link") + body("calls", "chains.link_absorbing")
    absorbing = body("calls", "chains.link_absorbing")
    iterations = diff("iterations")
    span_calls = body("calls", "matroids.span")
    span_s = body("total", "matroids.span")
    return {
        "chains.absorbing_links": (absorbing, "count"),
        "chains.absorbing_share": (ratio(absorbing, links), "share"),
        "chains.absorbing_link_s": (body("total", "chains.link_absorbing"), "s"),
        "chains.iterations": (iterations, "count"),
        "chains.iteration_us": (1e6 * ratio(body("self", "chains.link"), iterations), "us"),
        "chains.grown_share": (ratio(diff("grown"), iterations), "share"),
        "chains.chain_calls": (body("calls", "chains.chain"), "count"),
        "chains.chain_s": (body("total", "chains.chain"), "s"),
        "chains.chain_ms_p50": (statistics.median(chain_ms) if chain_ms else 0.0, "ms"),
        "chains.chain_ms_tail": (_tail(chain_ms), "ms"),
        "chains.link_calls": (links, "count"),
        "chains.link_s": (
            body("self", "chains.link") + body("self", "chains.link_absorbing"), "s"
        ),
        "chains.draws": (diff("draws"), "count"),
        "matroids.span_calls": (span_calls, "count"),
        "matroids.span_s": (span_s, "s"),
        "matroids.span_us": (1e6 * ratio(span_s, span_calls), "us"),
        "matroids.rank_calls": (body("calls", "matroids.rank"), "count"),
        "matroids.rank_s": (body("total", "matroids.rank"), "s"),
        "matroids.minor_views": (body("calls", "matroids.minor"), "count"),
        "matroids.table_build_s": (setup["total"][ID["matroids.table"]], "s"),
        "sampling.polytope_s": (setup["total"][ID["sampling.polytope"]], "s"),
        "cli.parse_s": (setup["total"][ID["cli.parse"]], "s"),
        "cli.marginal_s": (setup["total"][ID["cli.marginal"]], "s"),
        "sampling.generator_calls": (body("calls", "sampling.generator"), "count"),
        "sampling.generator_s": (body("total", "sampling.generator"), "s"),
        "sampling.active_set_s": (body("total", "sampling.active_set"), "s"),
        "sampling.weights_s": (body("total", "sampling.weights"), "s"),
        "selection.trial_calls": (body("calls", "selection.trial"), "count"),
        "selection.trial_self_s": (body("self", "selection.trial"), "s"),
        "selection.accept_calls": (body("calls", "selection.accept"), "count"),
        "selection.accept_s": (body("total", "selection.accept"), "s"),
        "selection.aggregate_s": (body("self", "selection.experiment"), "s"),
        "verify.self_s": (body("self", "verify.run"), "s"),
        "verify.classify_misses": (diff("classify_misses"), "count"),
        "cli.report_s": (body("total", "cli.report"), "s"),
    }
