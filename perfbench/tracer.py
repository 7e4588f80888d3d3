"""Layer tracing for the benchmark, installed from outside the package.

``Tracer.install()`` replaces the public functions of the package's
layers (ingest, glm, rules, estimators, inference, diagnostics) with
wrappers that record a span per call: name, start, end and the span
that was open when the call began.  Every module that imported a
wrapped function by name gets the wrapper too, so calls between layers
are seen wherever they happen.  ``uninstall()`` puts the originals back.
Nothing in ``src/`` is edited.

Besides spans the wrappers record work counts read off the return
values (Newton iterations, RR-TMLE iterations, failed cells and
replicates) and, for ``TreatmentModel.predict_raw``, how often the same
model is evaluated on the same covariate array.

The system is single-threaded and does no I/O inside its loops, so a
layer never waits on another resource: time spent waiting is zero by
construction and is not measured.
"""

from __future__ import annotations

import functools
import hashlib
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# Span names of the wrapped callables, keyed by (module, attribute path).
# Several functions may share one span name: the three assignment
# helpers together form the "rules.assign" layer.
TRACED = {
    ("causalrules.ingest", "load_csv"): "ingest.load_csv",
    ("causalrules.ingest", "Dataset.take"): "ingest.Dataset.take",
    ("causalrules.glm", "fit_treatment_model"): "glm.fit_treatment_model",
    ("causalrules.glm", "fit_outcome_model"): "glm.fit_outcome_model",
    ("causalrules.glm", "fit_fluctuation"): "glm.fit_fluctuation",
    ("causalrules.glm", "TreatmentModel.predict_raw"): "glm.TreatmentModel.predict_raw",
    ("causalrules.glm", "OutcomeDesign.matrix"): "glm.OutcomeDesign.matrix",
    ("causalrules.rules", "membership_matrix"): "rules.assign",
    ("causalrules.rules", "realistic_assignments"): "rules.assign",
    ("causalrules.rules", "itt_assignments"): "rules.assign",
    ("causalrules.estimators", "gcomp"): "estimators.gcomp",
    ("causalrules.estimators", "iptw"): "estimators.iptw",
    ("causalrules.estimators", "driptw"): "estimators.driptw",
    ("causalrules.estimators", "tmle_mean"): "estimators.tmle_mean",
    ("causalrules.estimators", "tmle_relative_risk"): "estimators.tmle_relative_risk",
    ("causalrules.estimators", "relative_risk_plugin"): "estimators.relative_risk_plugin",
    ("causalrules.estimators", "estimate_suite"): "estimators.estimate_suite",
    ("causalrules.inference", "attach_bootstrap_intervals"): "inference.attach_bootstrap_intervals",
    ("causalrules.inference", "bootstrap_statistics"): "inference.bootstrap_statistics",
    ("causalrules.diagnostics", "generate"): "diagnostics.generate",
    ("causalrules.diagnostics", "true_psi"): "diagnostics.true_psi",
    ("causalrules.diagnostics", "eta_bias_diagnostic"): "diagnostics.eta_bias_diagnostic",
}

# Counted but not spanned: the log-likelihood evaluation inside every
# Newton step, called tens of thousands of times per bootstrap.
COUNTED = {("causalrules.glm", "_bernoulli_loglik"): "glm.bernoulli_loglik"}

# A raise from one of these calls is one failed grid cell.
CELL_SPANS = (
    "estimators.gcomp", "estimators.iptw", "estimators.driptw", "estimators.tmle_mean",
    "estimators.tmle_relative_risk", "estimators.relative_risk_plugin",
)
SELF_TIMED = (
    "estimators.gcomp", "estimators.iptw", "estimators.driptw", "estimators.tmle_mean",
    "estimators.tmle_relative_risk", "estimators.estimate_suite",
)


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _array_digest(arr) -> bytes:
    arr = np.ascontiguousarray(arr)
    h = hashlib.blake2b(digest_size=16)
    h.update(str((arr.shape, arr.dtype.str)).encode())
    h.update(arr.data)
    return h.digest()


class Tracer:
    """Spans and work counts for one traced command at a time."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # traced names the package no longer has
        self.reset()

    # -- recording -----------------------------------------------------

    def reset(self) -> None:
        # One span is [name, start, end, parent index]; the parent of a
        # root span is -1.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._predict_keys: set = set()
        # None outside the bias diagnostic; inside it, the open replicate
        # span, or -1 before the first replicate's draw.
        self._diag_replicate: int | None = None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span stack out of order: closing {idx}, top was {popped}")

    def call(self, name: str, fn, args, kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.counts[name + ".raised"] += 1
            raise
        finally:
            self.close(idx)

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Replace every traced callable, in every package module holding it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import causalrules  # noqa: F401  (loads every layer module)

        self.missing = []
        for (module_name, path), name in {**TRACED, **COUNTED}.items():
            try:
                owner, attr = _resolve(module_name, path)
                original = getattr(owner, attr)
            except (KeyError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            if (module_name, path) in COUNTED:
                wrapper = self._counting_wrapper(name, original)
            else:
                wrapper = self._span_wrapper(name, original)
            self._patch(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("causalrules") or mod is owner:
                    continue
                for other_attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, other_attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _counting_wrapper(self, name: str, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            return original(*args, **kwargs)

        return wrapper

    def _span_wrapper(self, name: str, original):
        tracer = self
        if name == "inference.bootstrap_statistics":
            @functools.wraps(original)
            def wrapper(dataset, stat_fn, *args, **kwargs):
                stat_fn = tracer._replicate_fn(stat_fn)
                return tracer.call(name, original, (dataset, stat_fn) + args, kwargs)

        elif name == "diagnostics.eta_bias_diagnostic":
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                idx = tracer.open(name)
                tracer._diag_replicate = -1
                try:
                    report = original(*args, **kwargs)
                finally:
                    tracer._end_diag_replicate()
                    tracer._diag_replicate = None
                    tracer.close(idx)
                tracer.counts["diagnostics.replicates_failed"] += report.n_failed_replicates
                return report

        elif name == "diagnostics.generate":
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                tracer._mark_diag_replicate()
                return tracer.call(name, original, args, kwargs)

        elif name == "glm.TreatmentModel.predict_raw":
            @functools.wraps(original)
            def wrapper(model, w, *args, **kwargs):
                tracer._predict_keys.add((model.coef.tobytes(), _array_digest(w)))
                return tracer.call(name, original, (model, w) + args, kwargs)

        else:
            after = _AFTER.get(name)

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                out = tracer.call(name, original, args, kwargs)
                if after is not None:
                    after(tracer.counts, name, out)
                return out

        return wrapper

    # -- replicate spans ---------------------------------------------

    def _replicate_fn(self, stat_fn):
        """Wrap a bootstrap statistic so each replicate is one span."""
        tracer = self

        @functools.wraps(stat_fn)
        def replicate(ds):
            try:
                values = tracer.call("inference.replicate", stat_fn, (ds,), {})
            except Exception:
                tracer.counts["inference.replicates_failed"] += 1
                raise
            if np.isnan(np.asarray(values, dtype=float)).all():
                tracer.counts["inference.replicates_failed"] += 1
            return values

        return replicate

    def _mark_diag_replicate(self) -> None:
        """Inside the bias diagnostic each replicate starts with a draw."""
        if self._diag_replicate is None:
            return
        self._end_diag_replicate()
        self._diag_replicate = self.open("diagnostics.replicate")

    def _end_diag_replicate(self) -> None:
        if self._diag_replicate is not None and self._diag_replicate >= 0:
            self.close(self._diag_replicate)
        self._diag_replicate = -1

    # -- summaries -----------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metrics of the spans and counts recorded since reset.

        Layer times are given as shares of the traced command's time
        (``trace.command_s``), so that a layer a workload never calls
        reads 0 as a share rather than as a time; its seconds are the
        share times ``trace.command_s``.
        """
        if self._stack:
            raise RuntimeError("summary taken with spans still open")
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_time: defaultdict = defaultdict(float)
        durations: defaultdict = defaultdict(list)
        for name, start, end, parent in self.spans:
            d = end - start
            calls[name] += 1
            total[name] += d
            self_time[name] += d
            durations[name].append(d)
            if parent >= 0:
                self_time[self.spans[parent][0]] -= d
        command_s = total["cli"]
        c = self.counts
        out = {
            "trace.command_s": command_s,
            "ingest.load_csv.share": total["ingest.load_csv"] / command_s,
            "ingest.Dataset.take.calls": calls["ingest.Dataset.take"],
            "ingest.Dataset.take.share": total["ingest.Dataset.take"] / command_s,
        }
        for layer in ("glm.fit_treatment_model", "glm.fit_outcome_model", "glm.fit_fluctuation"):
            out[layer + ".calls"] = calls[layer]
            out[layer + ".share"] = total[layer] / command_s
            out[layer + ".newton_iters"] = c[layer + ".newton_iters"]
        out["glm.bernoulli_loglik.calls"] = c["glm.bernoulli_loglik.calls"]
        predict = "glm.TreatmentModel.predict_raw"
        out[predict + ".calls"] = calls[predict]
        out[predict + ".share"] = total[predict] / command_s
        out[predict + ".repeat_ratio"] = (
            calls[predict] / len(self._predict_keys) if self._predict_keys else 0.0
        )
        for layer in ("glm.OutcomeDesign.matrix", "rules.assign"):
            out[layer + ".calls"] = calls[layer]
            out[layer + ".share"] = total[layer] / command_s
        for layer in SELF_TIMED:
            out[layer + ".self_share"] = max(self_time[layer], 0.0) / command_s
        out["estimators.tmle_relative_risk.iters"] = c["estimators.tmle_relative_risk.iters"]
        out["estimators.cells_failed"] = sum(c[s + ".raised"] for s in CELL_SPANS)
        p50, p90 = _p50_p90(durations["inference.replicate"])
        out["inference.replicate.p50_share"] = p50 / command_s
        out["inference.replicate.p90_share"] = p90 / command_s
        out["inference.replicates_failed"] = c["inference.replicates_failed"]
        for layer in ("diagnostics.generate", "diagnostics.true_psi"):
            out[layer + ".calls"] = calls[layer]
            out[layer + ".share"] = total[layer] / command_s
        p50, p90 = _p50_p90(durations["diagnostics.replicate"])
        out["diagnostics.replicate.p50_share"] = p50 / command_s
        out["diagnostics.replicate.p90_share"] = p90 / command_s
        out["diagnostics.replicates_failed"] = c["diagnostics.replicates_failed"]
        out["cli.self_share"] = max(self_time["cli"], 0.0) / command_s
        return out

    def span_records(self, command: int) -> list[dict]:
        return [
            {"command": command, "name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in self.spans
        ]


def _p50_p90(values: list[float]) -> tuple[float, float]:
    if not values:
        return 0.0, 0.0
    if len(values) == 1:
        return values[0], values[0]
    deciles = statistics.quantiles(values, n=10)
    return statistics.median(values), deciles[8]


def _count_newton(counts: Counter, name: str, fitted) -> None:
    counts[name + ".newton_iters"] += fitted.info.iterations


def _count_rr_iters(counts: Counter, name: str, rr) -> None:
    counts[name + ".iters"] += rr.iterations


# Work counts read off the return value of a traced call.
_AFTER = {
    "glm.fit_treatment_model": _count_newton,
    "glm.fit_outcome_model": _count_newton,
    "glm.fit_fluctuation": _count_newton,
    "estimators.tmle_relative_risk": _count_rr_iters,
}


# Names that are per-layer work counts: they must repeat exactly between
# runs of the same workload and seed.
COUNT_METRICS = tuple(
    name for name in (
        "ingest.Dataset.take.calls",
        "glm.fit_treatment_model.calls", "glm.fit_treatment_model.newton_iters",
        "glm.fit_outcome_model.calls", "glm.fit_outcome_model.newton_iters",
        "glm.fit_fluctuation.calls", "glm.fit_fluctuation.newton_iters",
        "glm.bernoulli_loglik.calls",
        "glm.TreatmentModel.predict_raw.calls", "glm.TreatmentModel.predict_raw.repeat_ratio",
        "glm.OutcomeDesign.matrix.calls", "rules.assign.calls",
        "estimators.tmle_relative_risk.iters", "estimators.cells_failed",
        "inference.replicates_failed",
        "diagnostics.generate.calls", "diagnostics.true_psi.calls",
        "diagnostics.replicates_failed",
    )
)
