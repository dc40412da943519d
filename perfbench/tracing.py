"""Layer tracing from outside the package.

``Tracer.installed()`` replaces, for the duration of a ``with`` block,
every public function that one spreadbias module imports from another
(plus ``cli.main``, the root of each command) with a timing wrapper, in
every module namespace that holds it. Nothing in ``src/`` changes: the
package's modules look their collaborators up as globals at call time,
so the wrappers see each cross-layer call.

Most wrapped calls record a span (name, start, end, parent, command id).
Leaf calls made tens of thousands of times per command -- settlement,
coin flips, cover probabilities and entropies -- are aggregated into
per-(parent, name) call counts and times instead, which keeps overhead
and memory bounded. A span's self time is its duration minus the time
of the spans and leaves directly under it. The wrapper's own bookkeeping
for a leaf would otherwise land in its caller's self time; ``calibrate``
measures that cost per call on a no-op leaf and ``pass_metrics``
subtracts it, once per leaf call, from the caller.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("data", "density", "bias", "models", "harness", "cli")

#: Per-layer metrics a traced run reports, with units. Times are self
#: times at reference speed (see probe.py), medians over traced passes.
LAYER_UNITS = {
    "data.self_s": "s",
    "data.parse_games.self_s": "s",
    "data.parse_games.rows": "count",
    "data.deduplicate.self_s": "s",
    "data.deduplicate.dropped": "count",
    "data.bucket_by_spread.self_s": "s",
    "data.split_by_date.self_s": "s",
    "harness.self_s": "s",
    "harness.run_ti.self_s": "s",
    "harness.run_td.self_s": "s",
    "harness.sweep_k.self_s": "s",
    "harness.streams": "count",
    "density.self_s": "s",
    "density.estimate_density.calls": "count",
    "density.estimate_density.self_s": "s",
    "density.estimate_density.outcomes_in": "count",
    "density.estimate_density.n_clamped": "count",
    "density.home_cover_probability.calls": "count",
    "density.home_cover_probability.self_s": "s",
    "bias.self_s": "s",
    "bias.build_profile.calls": "count",
    "bias.build_profile.self_s": "s",
    "bias.binary_entropy.calls": "count",
    "models.self_s": "s",
    "models.score_ats.calls": "count",
    "models.score_ats.self_s": "s",
    "models.predict_random.calls": "count",
    "models.predict_max_prob.calls": "count",
    "models.settled_ratio": "ratio",
    "cli.self_s": "s",
    "cli.main.self_s": "s",
    "cli.files_written": "count",
    "cli.bytes_written": "B",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

#: The layer each workload was built to stress, as a claim about the
#: traced self-time shares that ``share_report`` checks.
PREDICTIONS = {
    "ti-deep": "largest self time is harness.run_ti",
    "ti-wide": "harness.run_ti + density + models exceed half the traced time, "
               "with at least 20 estimate_density calls per simulation",
    "ingest-td": "largest self time is data.parse_games; harness.run_ti absent",
}
LEAVES = frozenset({
    "models.score_ats",
    "models.predict_random",
    "models.predict_max_prob",
    "bias.binary_entropy",
    "density.home_cover_probability",
})


def _count_rows(counters, args, result):
    counters["data.parse_games.rows"] += len(result)


def _count_dropped(counters, args, result):
    counters["data.deduplicate.dropped"] += len(args[0]) - len(result)


def _count_density(counters, args, result):
    counters["density.estimate_density.outcomes_in"] += len(args[0])
    counters["density.estimate_density.n_clamped"] += result.n_clamped


def _count_settled(counters, args, result):
    counters["models.settled"] += result.value != "push"


def _count_ti_streams(counters, args, result):
    # One holdout stream per (simulation, spread), one coin-flip stream per
    # simulation.
    sims = result.config["n_simulations"]
    counters["harness.streams"] += sims * len(result.valid_spreads) + sims


def _count_td_streams(counters, args, result):
    counters["harness.streams"] += 1


COUNTERS = {
    "data.parse_games": _count_rows,
    "data.deduplicate": _count_dropped,
    "density.estimate_density": _count_density,
    "models.score_ats": _count_settled,
    "harness.run_ti": _count_ti_streams,
    "harness.run_td": _count_td_streams,
}


def _modules():
    import spreadbias
    from spreadbias import bias, cli, data, density, harness, models

    return {"spreadbias": spreadbias, "data": data, "density": density, "bias": bias,
            "models": models, "harness": harness, "cli": cli}


def traced_functions() -> dict:
    """Label ('module.name') -> function, for each public function some
    package module imports from another, plus ``cli.main``."""
    modules = _modules()
    found = {"cli.main": modules["cli"].main}
    for module in modules.values():
        for name, obj in vars(module).items():
            home = getattr(obj, "__module__", "") or ""
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and home.startswith("spreadbias.") and home != module.__name__):
                found[f"{home.rsplit('.', 1)[1]}.{name}"] = obj
    return found


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent id, command id, name, start, end, self_s)
        self.leaves = defaultdict(lambda: [0, 0.0])  # (parent name, name) -> [calls, seconds]
        self.counters: Counter = Counter()
        self.command_id = 0
        self._stack: list[list] = []   # open spans: [id, name, start, child seconds]
        self._next_id = 0
        self.leaf_overhead = 0.0       # seconds per leaf call, see calibrate()

    def _span(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [self._next_id, name, perf_counter(), 0.0]
            self._next_id += 1
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - frame[2]
                if parent is not None:
                    parent[3] += duration
                self.spans.append((frame[0], parent[0] if parent else None, self.command_id,
                                   name, frame[2], end, duration - frame[3]))
            if count:
                count(self.counters, args, result)
            return result
        return wrapper

    def _leaf(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            duration = perf_counter() - start
            parent = self._stack[-1] if self._stack else None
            if parent is not None:
                parent[3] += duration
            slot = self.leaves[(parent[1] if parent else None, name)]
            slot[0] += 1
            slot[1] += duration
            if count:
                count(self.counters, args, result)
            return result
        return wrapper

    def calibrate(self, calls: int = 20_000, rounds: int = 5) -> float:
        """Seconds a leaf call adds to its caller beyond what the leaf records,
        measured on a three-argument no-op leaf with a counter hook."""
        def noop(a, b, c):
            return a

        def hook(counters, args, result):
            counters["trace.calibration"] += result

        wrapped = self._leaf("trace.calibration", noop, hook)
        estimates = []
        for _ in range(rounds):
            frame = [-1, "trace.calibration", 0.0, 0.0]
            self._stack.append(frame)
            try:
                start = perf_counter()
                for _ in range(calls):
                    wrapped(1, 2, 3)
                traced = perf_counter() - start
                start = perf_counter()
                for _ in range(calls):
                    noop(1, 2, 3)
                plain = perf_counter() - start
            finally:
                self._stack.pop()
            estimates.append((traced - plain - frame[3]) / calls)
        self.leaves.pop(("trace.calibration", "trace.calibration"), None)
        del self.counters["trace.calibration"]
        self.leaf_overhead = max(0.0, sorted(estimates)[rounds // 2])
        return self.leaf_overhead

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in; restore the original functions on exit."""
        originals = traced_functions()
        wrappers = {
            fn: (self._leaf if label in LEAVES else self._span)(label, fn, COUNTERS.get(label))
            for label, fn in originals.items()
        }
        patched = []
        for module in _modules().values():
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
                    patched.append((module, name, obj))
        try:
            yield self
        finally:
            for module, name, obj in patched:
                setattr(module, name, obj)

    def begin_command(self) -> None:
        self.command_id += 1

    def mark(self):
        """State to diff against after a pass, see ``pass_metrics``."""
        return len(self.spans), {k: tuple(v) for k, v in self.leaves.items()}, Counter(self.counters)

    def pass_metrics(self, mark, scale: float) -> dict:
        """Per-layer metrics of everything traced since ``mark``, with times
        multiplied by ``scale`` (to put them at reference speed)."""
        first_span, leaves_before, counters_before = mark
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for span in self.spans[first_span:]:
            self_s[span[3]] += span[6]
            calls[span[3]] += 1
        for (parent, name), (n, seconds) in self.leaves.items():
            n0, s0 = leaves_before.get((parent, name), (0, 0.0))
            self_s[name] += seconds - s0
            calls[name] += n - n0
            if parent is not None:
                self_s[parent] -= (n - n0) * self.leaf_overhead
        counters = self.counters - counters_before
        row = {f"{label}.self_s": scale * seconds for label, seconds in self_s.items()}
        row.update({f"{label}.calls": n for label, n in calls.items()})
        row.update(counters)
        for layer in LAYERS:
            row[f"{layer}.self_s"] = scale * sum(
                seconds for label, seconds in self_s.items() if label.startswith(layer + "."))
        placed = calls["models.score_ats"]
        row["models.settled_ratio"] = counters["models.settled"] / placed if placed else 0.0
        return row

    def write(self, path) -> None:
        """Spans as JSON lines, then one line per aggregated leaf."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, command, name, start, end, own in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "command": command,
                                     "name": name, "start": start, "end": end,
                                     "self_s": own}) + "\n")
            for (parent, name), (n, seconds) in sorted(self.leaves.items(), key=str):
                fh.write(json.dumps({"leaf": name, "parent": parent, "calls": n,
                                     "seconds": seconds}) + "\n")


def share_report(workload, metrics: dict) -> dict:
    """Self-time shares of a traced pass, and whether the workload's
    prediction holds. A contradiction is reported, not corrected."""
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    functions = {name[:-len(".self_s")]: value for name, value in metrics.items()
                 if name.endswith(".self_s") and name.count(".") == 2}
    top = max(functions, key=functions.get)
    shares = {layer: metrics[f"{layer}.self_s"] / total for layer in LAYERS}
    run_ti = metrics["harness.run_ti.self_s"] / total
    if workload.name == "ti-deep":
        holds = top == "harness.run_ti"
    elif workload.name == "ti-wide":
        holds = (run_ti + shares["density"] + shares["models"] > 0.5
                 and metrics["density.estimate_density.calls"] >= 20 * workload.simulations)
    else:
        holds = top == "data.parse_games" and run_ti == 0
    return {
        "prediction": PREDICTIONS[workload.name],
        "holds": holds,
        "largest": top,
        "largest_share": round(functions[top] / total, 4),
        "run_ti_share": round(run_ti, 4),
        "layer_shares": {layer: round(share, 4) for layer, share in shares.items()},
    }
