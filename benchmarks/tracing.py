"""Per-layer tracing by wrapping public names where the caller looks them up.

`Tracer.install()` replaces functions and methods of `gradevade` with
timing wrappers and `Tracer.restore()` puts the originals back. Nothing
inside `src/` changes. Every wrapped call pushes a frame on a stack, so a
layer's self time is its busy time minus the time spent in nested wrapped
calls of the other layers (and of its own nested calls, which count
separately). Coarse calls (attack runs, training, surrogate set-up,
profiling) also record a span: name, start, end and parent span.

Hot per-call functions (model scores, kernel rows, distances, the KDE)
record no spans; their statistics are keyed by (name, enclosing span
name), so a counter can be restricted to calls made inside attack runs.
"""
from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import gradevade.attack as _attack
import gradevade.evaluation as _evaluation
import gradevade.mimicry as _mimicry
import gradevade.models as _models
import gradevade.scenario as _scenario


@dataclass
class _Frame:
    layer: str
    span_id: int | None
    context: str | None
    child_s: float = 0.0


@dataclass
class Tracer:
    clock: object = time.perf_counter
    spans: list = field(default_factory=list)         # (id, name, start, end, parent id)
    calls: Counter = field(default_factory=Counter)   # (name, context) -> calls
    busy_s: defaultdict = field(default_factory=lambda: defaultdict(float))  # (name, context) -> s
    self_s: defaultdict = field(default_factory=lambda: defaultdict(float))  # layer -> s
    terminations: Counter = field(default_factory=Counter)
    iterations: int = 0
    max_density: float = 0.0

    def __post_init__(self):
        self._stack: list[_Frame] = []
        self._patches: list = []
        self._next_span = 0

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, layer: str, span: bool = False, on_result=None):
        """Replace owner.attr by a timing wrapper; restore() undoes it."""
        original = owner.__dict__[attr]
        tracer = self
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            context = parent.context if parent is not None else None
            span_id = None
            if span:
                span_id = tracer._next_span
                tracer._next_span += 1
            frame = _Frame(layer, span_id, name if span else context)
            stack.append(frame)
            start = tracer.clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                elapsed = end - start
                key = (name, context)
                tracer.calls[key] += 1
                tracer.busy_s[key] += elapsed
                tracer.self_s[layer] += elapsed - frame.child_s
                if parent is not None:
                    parent.child_s += elapsed
                if span:
                    parent_span = next((f.span_id for f in reversed(stack) if f.span_id is not None), None)
                    tracer.spans.append((span_id, name, start, end, parent_span))
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        return wrapper

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self):
        """Wrap every layer boundary of gradevade that the benchmark reports."""
        # attack engine
        self.wrap(_scenario, "run_attack", "attack.run", "attack", span=True, on_result=self._on_trace)
        self.wrap(_attack, "objective_F", "attack.F", "attack")
        self.wrap(_attack, "project_feasible", "attack.project", "attack")
        self.wrap(_attack.DistanceSpec, "of", "attack.dist", "attack")
        # KDE mimicry term
        self.wrap(_mimicry.MimicryEstimator, "density", "mimicry.density", "mimicry", on_result=self._on_density)
        self.wrap(_mimicry.MimicryEstimator, "density_grad", "mimicry.grad", "mimicry")
        # kernels, looked up from the models module
        self.wrap(_models, "kernel_row", "kernels.row", "kernels")
        self.wrap(_models, "kernel_grad_combination", "kernels.grad_comb", "kernels")
        self.wrap(_models, "kernel_matrix", "kernels.matrix", "kernels")
        # models: training (target via models, surrogates via scenario) and scoring
        for module in (_models, _scenario):
            self.wrap(module, "train_mlp", "models.train_mlp", "models", span=True)
            self.wrap(module, "train_kernel_svm", "models.train_svm", "models", span=True)
        for cls in (_models.LinearModel, _models.SvmModel, _models.MlpModel):
            self.wrap(cls, "discriminant", "models.score", "models")
            self.wrap(cls, "gradient", "models.grad", "models")
            self.wrap(cls, "discriminant_many", "models.score_many", "models")
        # scenario: surrogate data and surrogate training
        self.wrap(_scenario, "build_surrogate", "scenario.build_surrogate", "scenario", span=True)
        self.wrap(_scenario, "_train_surrogate", "scenario.train_surrogate", "scenario", span=True)
        # evaluation and data
        self.wrap(_evaluation, "_run_cell", "evaluation.cell", "evaluation", span=True)
        self.wrap(_evaluation, "split_train_test", "data.split", "data", span=True)
        self.wrap(_evaluation, "calibrate_threshold", "evaluation.calibrate", "evaluation", span=True)
        self.wrap(_evaluation, "trace_profile", "evaluation.profile", "evaluation")
        self.wrap(_evaluation, "aggregate_curves", "evaluation.aggregate", "evaluation", span=True)

    def _on_trace(self, trace):
        self.iterations += trace.iterations
        self.terminations[trace.termination] += 1

    def _on_density(self, value):
        self.max_density = max(self.max_density, float(value))

    # -- reading -----------------------------------------------------------

    def total_calls(self, name: str, context: str | None = ...) -> int:
        """Calls of `name`; with `context`, only those under that span name."""
        return sum(n for (k, ctx), n in self.calls.items() if k == name and (context is ... or ctx == context))

    def total_busy(self, name: str, context: str | None = ...) -> float:
        return sum(s for (k, ctx), s in self.busy_s.items() if k == name and (context is ... or ctx == context))

    def per_layer_metrics(self) -> dict:
        """The benchmark's per-layer metrics as {name: (value, unit)}."""
        attack_s = self.total_busy("attack.run")
        f_evals = self.total_calls("attack.F")
        metrics = {
            "attack.runs": (self.total_calls("attack.run"), "count"),
            "attack.run.s": (attack_s, "s"),
            "attack.self_s": (self.self_s["attack"], "s"),
            "attack.iters": (self.iterations, "count"),
            "attack.iters_per_s": (self.iterations / attack_s if attack_s > 0 else 0.0, "1/s"),
            "attack.F_evals": (f_evals, "count"),
            "attack.accept_ratio": (self.iterations / f_evals if f_evals else 0.0, "ratio"),
            "attack.dist.calls": (self.total_calls("attack.dist", "attack.run"), "count"),
            "attack.project.calls": (self.total_calls("attack.project"), "count"),
            "attack.project.s": (self.total_busy("attack.project"), "s"),
        }
        for reason in _attack.TERMINATIONS:
            metrics[f"attack.term.{reason}"] = (self.terminations[reason], "count")
        metrics.update(
            {
                "mimicry.density.calls": (self.total_calls("mimicry.density"), "count"),
                "mimicry.density.s": (self.total_busy("mimicry.density"), "s"),
                "mimicry.grad.calls": (self.total_calls("mimicry.grad"), "count"),
                "mimicry.grad.s": (self.total_busy("mimicry.grad"), "s"),
                "mimicry.max_density": (self.max_density, "density"),
                "kernels.row.calls": (self.total_calls("kernels.row"), "count"),
                "kernels.row.s": (self.total_busy("kernels.row"), "s"),
                "kernels.grad_comb.s": (self.total_busy("kernels.grad_comb"), "s"),
                "kernels.matrix.s": (self.total_busy("kernels.matrix"), "s"),
                "models.train_mlp.calls": (self.total_calls("models.train_mlp"), "count"),
                "models.train_mlp.s": (self.total_busy("models.train_mlp"), "s"),
                "models.train_svm.calls": (self.total_calls("models.train_svm"), "count"),
                "models.train_svm.s": (self.total_busy("models.train_svm"), "s"),
                "models.score.calls": (self.total_calls("models.score"), "count"),
                "models.score.s": (self.total_busy("models.score"), "s"),
                "models.grad.calls": (self.total_calls("models.grad"), "count"),
                "models.grad.s": (self.total_busy("models.grad"), "s"),
                "models.score_many.s": (self.total_busy("models.score_many"), "s"),
                "models.self_s": (self.self_s["models"], "s"),
                "scenario.surrogates": (self.total_calls("scenario.train_surrogate"), "count"),
                "scenario.surrogate.s": (
                    self.total_busy("scenario.build_surrogate") + self.total_busy("scenario.train_surrogate"),
                    "s",
                ),
                "evaluation.calibrate.s": (self.total_busy("evaluation.calibrate"), "s"),
                "evaluation.profile.s": (self.total_busy("evaluation.profile"), "s"),
                "evaluation.aggregate.s": (self.total_busy("evaluation.aggregate"), "s"),
                "data.split.s": (self.total_busy("data.split"), "s"),
            }
        )
        return metrics
