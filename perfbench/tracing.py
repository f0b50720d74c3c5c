"""Per-layer tracing from outside the program.

`Tracer.install` wraps the public module-level functions of each stabctx
layer module (LAYERS) and a few methods (METHODS), replacing them in every
stabctx module that holds them, so calls made through names imported with
`from ... import` (cli's decide_strong_contextuality, hidden_vars'
enumerate_contexts, table1_contexts and scipy's linprog, ...) are traced
too.  Every wrapped call is a span: name, start, end, parent span and the
item it belongs to.  Spans stay in memory and are written out when the run
ends.  Spans of HOT names, called tens of thousands of times per item, are
only aggregated (calls, inclusive and self seconds), not stored one by one.

A span's self time is its duration minus the durations of its direct child
spans.  Wrapping a generator function times only the creation of the
generator; the work done while it is consumed counts toward the consumer.

Counters that describe the outcome of the work (hidden variables scanned,
refutations per stage, witness rows, model rows) are read from the objects
that decide_strong_contextuality and build_empirical_model return, not from
inside the program.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "zmod", "states", "phase_space", "hidden_vars", "kernel",
          "born", "dense")

# (module, class, attribute, span name); properties are wrapped on fget.
METHODS = (
    ("phase_space", "Context", "canonical_basis",
     "phase_space.Context.canonical_basis"),
    ("states", "PhaseFunctionState", "phi_table", "states.phi_table"),
    ("hidden_vars", "StrongContextualityCertificate", "to_json_obj",
     "hidden_vars.to_json_obj"),
    ("born", "EmpiricalModel", "to_csv", "born.export"),
    ("born", "EmpiricalModel", "to_json_obj", "born.export"),
)

# Foreign functions a layer imports by name and calls as its own.
FOREIGN = (("hidden_vars", "linprog"),)

HOT = frozenset({
    "phase_space.Context.canonical_basis",
    "phase_space.symplectic_product",
    "hidden_vars.proof_context_parameters",
    "zmod.inv",
    "dense.weyl_matrix",
    "dense.omega",
})

# Return values read after each item, outside the traced call.
OBSERVED = frozenset({"hidden_vars.decide_strong_contextuality",
                      "born.build_empirical_model"})


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.spans: list[tuple] = []
        self.counters = defaultdict(int)
        self.item = -1
        self._stack: list[list] = []  # [child seconds, span id] per open span
        self._next_id = 0
        self._observed: list[tuple[str, object]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack = self._stack
        keep = name not in HOT
        observe = name in OBSERVED
        kernel = name == "kernel.first_possible_ket"

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if keep:
                self._next_id += 1
                span = self._next_id
            else:
                span = parent
            frame = [0.0, span]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][0] += took
                self.calls[name] += 1
                self.seconds[name] += took
                self.self_seconds[name] += took - frame[0]
                if keep:
                    self.spans.append((span, parent, self.item, name,
                                       start, end))
            if kernel and result < 0:
                self.counters["kernel.impossible"] += 1
            if observe:
                self._observed.append((name, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every traced callable wherever a stabctx module binds it."""
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"stabctx.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and callable(obj)
                        and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    targets[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for layer, attr in FOREIGN:
            obj = getattr(importlib.import_module(f"stabctx.{layer}"), attr)
            targets[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "stabctx" and not modname.startswith("stabctx."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(f"stabctx.{layer}"), cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, property):
                replacement = property(self._wrap(name, original.fget))
            else:
                replacement = self._wrap(name, original)
            self._restore.append((cls, attr, original))
            setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- items ------------------------------------------------------------

    def begin_item(self, index: int) -> None:
        self.item = index

    def end_item(self, artifact_bytes: int) -> None:
        """Fold the item's returned certificates and models into the
        counters."""
        c = self.counters
        c["items"] += 1
        c["artifact_bytes"] += artifact_bytes
        for name, result in self._observed:
            if name == "born.build_empirical_model":
                c["born.rows"] += len(result.rows)
                c["born.impossible_rows"] += sum(
                    1 for row in result.rows.values() if not row.possible)
                continue
            if result.strongly_contextual:
                c["hidden_vars.lambda_scanned"] += len(result.refutations)
                for r in result.refutations:
                    c[f"hidden_vars.refuted.{r.stage}"] += 1
            else:
                d = result.modulus
                index = 0
                for component in result.witness.lam:
                    index = index * d + component
                c["hidden_vars.lambda_scanned"] += index + 1
                c["hidden_vars.witness_rows"] += len(result.witness.rows)
        self._observed.clear()
        self.item = -1

    # -- output -----------------------------------------------------------

    def layer_self_seconds(self, layer: str) -> float:
        """Self time of every span of one layer module."""
        prefix = layer + "."
        return sum(s for name, s in self.self_seconds.items()
                   if name.startswith(prefix))

    def per_layer(self, overhead_ratio: float) -> dict[str, float]:
        """The benchmark's per-layer metrics, per item (see PER_LAYER)."""
        n = max(self.counters["items"], 1)
        c, calls, secs = self.counters, self.calls, self.seconds
        kcalls = calls["kernel.first_possible_ket"]
        lambdas = c["hidden_vars.lambda_scanned"]
        return {
            "kernel.first_possible_ket.calls": kcalls / n,
            "kernel.first_possible_ket.s": secs["kernel.first_possible_ket"] / n,
            "kernel.impossible_ratio":
                c["kernel.impossible"] / kcalls if kcalls else 0.0,
            "kernel.calls_per_lambda": kcalls / lambdas if lambdas else 0.0,
            "hidden_vars.decide_strong_contextuality.s":
                secs["hidden_vars.decide_strong_contextuality"] / n,
            "hidden_vars.decide_strong_contextuality.self_s":
                self.self_seconds["hidden_vars.decide_strong_contextuality"] / n,
            "phase_space.Context.canonical_basis.calls":
                calls["phase_space.Context.canonical_basis"] / n,
            "hidden_vars.lambda_scanned": lambdas / n,
            "hidden_vars.refuted.proof": c["hidden_vars.refuted.proof"] / n,
            "hidden_vars.refuted.table1": c["hidden_vars.refuted.table1"] / n,
            "hidden_vars.refuted.full": c["hidden_vars.refuted.full"] / n,
            "hidden_vars.witness_rows": c["hidden_vars.witness_rows"] / n,
            "cli.main.self_s": self.layer_self_seconds("cli") / n,
            "cli.artifact_bytes": c["artifact_bytes"] / n,
            "hidden_vars.to_json_obj.s": secs["hidden_vars.to_json_obj"] / n,
            "phase_space.enumerate_contexts.calls":
                calls["phase_space.enumerate_contexts"] / n,
            "phase_space.enumerate_contexts.s":
                secs["phase_space.enumerate_contexts"] / n,
            "phase_space.table1_contexts.s":
                secs["phase_space.table1_contexts"] / n,
            "born.build_empirical_model.s":
                secs["born.build_empirical_model"] / n,
            "born.build_empirical_model.self_s":
                self.self_seconds["born.build_empirical_model"] / n,
            "born.rows": c["born.rows"] / n,
            "born.impossible_ratio":
                c["born.impossible_rows"] / c["born.rows"]
                if c["born.rows"] else 0.0,
            "born.export.s": secs["born.export"] / n,
            "dense.outcome_projector.calls":
                calls["dense.outcome_projector"] / n,
            "dense.outcome_projector.s": secs["dense.outcome_projector"] / n,
            "dense.phase_state_vector.s": secs["dense.phase_state_vector"] / n,
            "states.phi_table.calls": calls["states.phi_table"] / n,
            "states.phi_table.s": secs["states.phi_table"] / n,
            "hidden_vars.contextual_fraction.self_s":
                self.self_seconds["hidden_vars.contextual_fraction"] / n,
            "hidden_vars.linprog.s": secs["hidden_vars.linprog"] / n,
            "zmod.parse_poly.s": secs["zmod.parse_poly"] / n,
            "trace.overhead_ratio": overhead_ratio,
        }

    def write(self, path) -> None:
        """Write the spans and the per-name aggregates as JSON."""
        doc = {
            "span_fields": ["id", "parent", "item", "name", "start_s", "end_s"],
            "spans": self.spans,
            "aggregated_only": sorted(HOT),
            "aggregate": {name: {"calls": self.calls[name],
                                 "s": self.seconds[name],
                                 "self_s": self.self_seconds[name]}
                          for name in sorted(self.calls)},
            "counters": dict(sorted(self.counters.items())),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# (name, unit, better) of every per-layer metric, in output order.
PER_LAYER = (
    ("kernel.first_possible_ket.calls", "count/item", "lower"),
    ("kernel.first_possible_ket.s", "s/item", "lower"),
    ("kernel.impossible_ratio", "ratio", "lower"),
    ("kernel.calls_per_lambda", "count/lambda", "lower"),
    ("hidden_vars.decide_strong_contextuality.s", "s/item", "lower"),
    ("hidden_vars.decide_strong_contextuality.self_s", "s/item", "lower"),
    ("phase_space.Context.canonical_basis.calls", "count/item", "lower"),
    ("hidden_vars.lambda_scanned", "count/item", "lower"),
    ("hidden_vars.refuted.proof", "count/item", "higher"),
    ("hidden_vars.refuted.table1", "count/item", "lower"),
    ("hidden_vars.refuted.full", "count/item", "lower"),
    ("hidden_vars.witness_rows", "count/item", "lower"),
    ("cli.main.self_s", "s/item", "lower"),
    ("cli.artifact_bytes", "bytes/item", "lower"),
    ("hidden_vars.to_json_obj.s", "s/item", "lower"),
    ("phase_space.enumerate_contexts.calls", "count/item", "lower"),
    ("phase_space.enumerate_contexts.s", "s/item", "lower"),
    ("phase_space.table1_contexts.s", "s/item", "lower"),
    ("born.build_empirical_model.s", "s/item", "lower"),
    ("born.build_empirical_model.self_s", "s/item", "lower"),
    ("born.rows", "count/item", "lower"),
    ("born.impossible_ratio", "ratio", "lower"),
    ("born.export.s", "s/item", "lower"),
    ("dense.outcome_projector.calls", "count/item", "lower"),
    ("dense.outcome_projector.s", "s/item", "lower"),
    ("dense.phase_state_vector.s", "s/item", "lower"),
    ("states.phi_table.calls", "count/item", "lower"),
    ("states.phi_table.s", "s/item", "lower"),
    ("hidden_vars.contextual_fraction.self_s", "s/item", "lower"),
    ("hidden_vars.linprog.s", "s/item", "lower"),
    ("zmod.parse_poly.s", "s/item", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)
