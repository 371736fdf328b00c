"""Per-feature-slot provenance for the model's input vector.

The optimizer rules of §4 need to know, for each column ("slot") of the
dense feature vector entering the model, *where it came from*: which raw
input column, through which affine transform (Scaler), or which one-hot
category. This is the information the paper passes "through the
pre-processing/featurization operators" when pushing predicates down
(Fig 3 step 2) and when pushing FeatureExtractors up the other way.

A slot value is ``a * base + b`` where ``base`` is either the raw numeric
column value (kind "num") or the 0/1 category indicator (kind "onehot");
constants have a fully known value. ``a`` and ``b`` refold the Scalers in
float64, which rounds differently from the runtime's ``(x - offset) *
scale`` per Scaler. So MLtoSQL inlines the Scalers themselves
(``Slot.scalers``), and the pruning rules take a slot's exact bounds from
the shared featurizer (:func:`repro.core.predicate_pruning.slot_bounds`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ir.graph import Pipeline


@dataclass
class Slot:
    """Provenance of one feature-vector column."""

    kind: str  # "num" | "onehot" | "const"
    source: str | None = None  # raw input column name (None for const)
    a: float = 1.0
    b: float = 0.0
    category: str | None = None  # for kind == "onehot"
    const: float | None = None  # for kind == "const": the known value
    #: (offset, scale) of each Scaler the slot passes, in order: the runtime
    #: computes ``(x - offset) * scale`` per Scaler; ``a``/``b`` fold them
    scalers: tuple[tuple[float, float], ...] = ()

    def interval(self, predicates: dict[str, tuple]) -> tuple[float, float]:
        """[lo, hi] bound on ``a * base + b`` given raw-column predicates.

        Exact for constants, bare one-hot indicators and unscaled numeric
        slots; for a scaled slot it may differ from the runtime's value by
        rounding (see the module docstring).

        ``predicates[col]`` is ``("eq", v)``, ``("range", lo, hi)`` or
        ``("in", {v, ...})`` (the latter for categorical domain knowledge
        from data-induced optimization).
        """
        if self.kind == "const":
            return (self.const, self.const)
        pred = predicates.get(self.source)
        if self.kind == "num":
            if pred is None:
                base = (-np.inf, np.inf)
            elif pred[0] == "eq":
                base = (float(pred[1]), float(pred[1]))
            elif pred[0] == "range":
                base = (float(pred[1]), float(pred[2]))
            else:
                return (-np.inf, np.inf)
        else:  # onehot indicator in {0, 1}
            if pred is None:
                base = (0.0, 1.0)
            elif pred[0] == "eq":
                ind = 1.0 if str(pred[1]) == self.category else 0.0
                base = (ind, ind)
            elif pred[0] == "in":
                vals = {str(v) for v in pred[1]}
                if self.category not in vals:
                    base = (0.0, 0.0)  # category can never fire
                elif len(vals) == 1:
                    base = (1.0, 1.0)
                else:
                    base = (0.0, 1.0)
            else:
                base = (0.0, 1.0)
        lo = self.a * base[0] + self.b
        hi = self.a * base[1] + self.b
        return (min(lo, hi), max(lo, hi))


def model_input_slots(p: Pipeline) -> list[Slot]:
    """Resolve provenance for every column entering the model node.

    Walks the featurization sub-graph structurally. Raises ``ValueError``
    for graphs outside the supported shapes — the paper's behaviour for
    unsupported operators is "executed but not optimized", which callers
    implement by catching the error and skipping the rule.
    """

    def resolve(nid: str) -> list[Slot]:
        node = p.nodes[nid]
        if node.op == "input":
            if node.attrs["kind"] == "num":
                return [Slot("num", source=node.attrs["name"])]
            raise ValueError(
                f"categorical input {node.attrs['name']} used without one-hot"
            )
        if node.op == "constant":
            v = node.attrs["value"]
            if isinstance(v, str):
                raise ValueError("categorical constant outside one-hot")
            return [Slot("const", const=float(v))]
        if node.op == "onehot":
            src = p.nodes[node.inputs[0]]
            if src.op == "input":
                return [
                    Slot("onehot", source=src.attrs["name"], category=c)
                    for c in node.attrs["categories"]
                ]
            if src.op == "constant":
                return [
                    Slot("const", const=1.0 if str(src.attrs["value"]) == c else 0.0)
                    for c in node.attrs["categories"]
                ]
            raise ValueError(f"one-hot over {src.op} not supported")
        if node.op == "scaler":
            inner = resolve(node.inputs[0])
            off = np.asarray(node.attrs["offset"], dtype=np.float64)
            sc = np.asarray(node.attrs["scale"], dtype=np.float64)
            out = []
            for i, s in enumerate(inner):
                # slot' = (slot - off) * sc  with slot = a*base + b
                if s.kind == "const":
                    out.append(
                        Slot("const", const=(s.const - float(off[i])) * float(sc[i]))
                    )
                else:
                    out.append(
                        Slot(
                            s.kind,
                            source=s.source,
                            a=s.a * float(sc[i]),
                            b=(s.b - float(off[i])) * float(sc[i]),
                            category=s.category,
                            scalers=s.scalers + ((float(off[i]), float(sc[i])),),
                        )
                    )
            return out
        if node.op == "concat":
            out = []
            for i in node.inputs:
                out.extend(resolve(i))
            return out
        if node.op == "feature_extractor":
            inner = resolve(node.inputs[0])
            return [inner[i] for i in node.attrs["indices"]]
        raise ValueError(f"cannot resolve slots through {node.op}")

    model = p.model_node
    slots: list[Slot] = []
    for i in model.inputs:
        slots.extend(resolve(i))
    return slots
