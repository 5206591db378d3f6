"""Spans and counts around the calls into each satake_fold module.

The tracer wraps layer-boundary functions from outside the package: class
methods on their class, and module functions under every name a `from`
import copied them to (twining_verifier._freudenthal_table is a binding of
its own, apart from characters._freudenthal_table).  Spans are kept in
memory; `metrics` folds them into per-layer totals and `dump` writes them
out.  Leaf functions called ~10^5 times per run are counted, not timed,
because a timing wrapper there would cost more than the work it measures.
"""

from __future__ import annotations

import json
import sys
import time

SPAN, COUNT = "span", "count"

# (module, attribute or Class.method, span key, mode).  A key's first dotted
# part names the layer its self time is charged to.
TARGETS = (
    ("mv_calculus", "MVCalculus.require_word", "mv_calculus.require_word", SPAN),
    ("mv_calculus", "MVCalculus.transport", "mv_calculus.transport", SPAN),
    ("mv_calculus", "MVCalculus.braid_transition", "mv_calculus.braid_transition", COUNT),
    ("mv_calculus", "MVCalculus.ggms_datum", "mv_calculus.ggms_datum", SPAN),
    ("mv_calculus", "MVCalculus.is_mv", "mv_calculus.is_mv", SPAN),
    ("mv_calculus", "MVCalculus.enumerate_data", "mv_calculus.enumerate", SPAN),
    ("mv_calculus", "MVCalculus.enumerate_block_data", "mv_calculus.enumerate", SPAN),
    ("weyl", "WeylGroup.element", "weyl.element", SPAN),
    ("weyl", "WeylGroup.reduced_words", "weyl.reduced_words", SPAN),
    ("weyl", "WeylGroup.elements", "weyl.elements", SPAN),
    ("weyl", "WeylGroup.braid_neighbors", "weyl.braid_neighbors", COUNT),
    ("linalg", "mat_mul", "linalg.mat_mul", COUNT),
    ("linalg", "mat_vec", "linalg.mat_vec", COUNT),
    ("characters", "_freudenthal_table", "characters.freudenthal_table", SPAN),
    ("characters", "character", "characters.character", SPAN),
    ("characters", "mv_character", "characters.mv_character", SPAN),
    ("root_datum", "RootDatum.weight_set", "root_datum.weight_set", SPAN),
    ("root_datum", "RootDatum.dominance_le", "root_datum.dominance_le", SPAN),
    ("folding", "fold", "folding.fold", SPAN),
    ("folding", "folded_weyl", "folding.folded_weyl", SPAN),
    ("folding", "sigma_compatible_word", "folding.sigma_compatible_word", SPAN),
    ("twining_verifier", "twining_trace", "twining_verifier.twining_trace", SPAN),
    ("twining_verifier", "verify_jantzen", "twining_verifier.verify_jantzen", SPAN),
    ("cli", "main", "cli.main", SPAN),
)

PACKAGE = "satake_fold"


def is_time(metric: str) -> bool:
    """Seconds metrics; the rest are counts, which repeat exactly between runs."""
    return metric.endswith(".s") or metric.endswith("self_s")


class Tracer:
    """Install wrappers, record spans [key, start, end, parent], restore on exit."""

    def __init__(self):
        self.keys = list(dict.fromkeys(key for _, _, key, mode in TARGETS if mode == SPAN))
        self.spans: list[list] = []
        self.calls = {key: [0] for _, _, key, mode in TARGETS if mode == COUNT}
        self.accepted = [0]
        self.candidates = [0]
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module, attr, key, mode in TARGETS:
            loaded = sys.modules.get(f"{PACKAGE}.{module}")
            if loaded is not None:  # a module never imported is never called
                self._install(loaded, attr, key, mode)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _install(self, module, attr: str, key: str, mode: str) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            self._patch(cls, meth, original, self._wrap(original, key, mode))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(original, key, mode)
        for name, mod in list(sys.modules.items()):
            if name == PACKAGE or name.startswith(PACKAGE + "."):
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, original, wrapper)

    def _patch(self, owner, name: str, original, wrapper) -> None:
        self._undo.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _wrap(self, fn, key: str, mode: str):
        if mode == COUNT:
            cell = self.calls[key]

            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)

            return counted

        key_id = self.keys.index(key)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        on_result = None
        if key == "mv_calculus.is_mv":
            accepted = self.accepted

            def on_result(ok):
                accepted[0] += bool(ok)
        elif key == "mv_calculus.enumerate":
            candidates = self.candidates

            def on_result(data):
                candidates[0] += len(data)

        def spanned(*args, **kwargs):
            rec = [key_id, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return spanned

    def metrics(self) -> dict[str, float]:
        """Calls and inclusive seconds per span key, call counts, and self time per layer.

        A span's self time is its duration minus the durations of its direct
        children; siblings never overlap in one thread.
        """
        child = [0.0] * len(self.spans)
        for key_id, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {key.split(".")[0] + ".self_s": 0.0 for key in self.keys}
        for key in self.keys:
            out[f"{key}.calls"] = 0
            out[f"{key}.s"] = 0.0
        for (key_id, start, end, _), covered in zip(self.spans, child):
            key = self.keys[key_id]
            out[f"{key}.calls"] += 1
            out[f"{key}.s"] += end - start
            out[key.split(".")[0] + ".self_s"] += end - start - covered
        for key, cell in self.calls.items():
            out[f"{key}.calls"] = cell[0]
        out["mv_calculus.is_mv.accepted"] = self.accepted[0]
        out["mv_calculus.enumerate.candidates"] = self.candidates[0]
        is_mv_calls = out["mv_calculus.is_mv.calls"]
        out["mv_calculus.is_mv.accept_ratio"] = self.accepted[0] / is_mv_calls if is_mv_calls else 0.0
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"keys": self.keys, "fields": ["key", "start", "end", "parent"], "spans": self.spans}, fh)
