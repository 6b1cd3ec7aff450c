"""Outside-in tracer: span-recording wrappers around elprov's public functions.

Nothing inside ``src/`` is changed. ``Tracer.install`` replaces each
traced function in every loaded ``elprov`` module namespace that refers
to it (a module calls what it imported under its own name, so
``elprov.canonical.saturate`` and ``elprov.cli.saturate`` are both
patched) and ``uninstall`` puts the originals back. Spans (name, start,
end, parent, request id) are kept in memory and written out at the end.

Monomial arithmetic is deliberately not wrapped: it runs millions of
times per run, so wrapping it would distort what is measured. Its cost
lands in the self time of the span that called it.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, function). Span names are "<module>.<function>".
TRACED = {
    "ontology.parse_ontology": ("elprov.ontology", "parse_ontology"),
    "ontology.normalize": ("elprov.ontology", "normalize"),
    "completion.entails_assertion": ("elprov.completion", "entails_assertion"),
    "completion.saturate": ("elprov.completion", "saturate"),
    "completion.entailed_range_restrictions": ("elprov.completion", "entailed_range_restrictions"),
    "relevance.merged_saturate": ("elprov.relevance", "merged_saturate"),
    "canonical.build_canonical_model": ("elprov.canonical", "build_canonical_model"),
    "canonical.compute_rewriting": ("elprov.canonical", "compute_rewriting"),
    "interpretation.enumerate_matches": ("elprov.interpretation", "enumerate_matches"),
    "interpretation.provenance_of_matches": ("elprov.interpretation", "provenance_of_matches"),
    "provenance.poly_contains": ("elprov.provenance", "poly_contains"),
}
ROOT = "cli.main"
SPAN_NAMES = (ROOT,) + tuple(TRACED)

# the seventeen completion rules, fixed here so the metric set does not
# depend on the program under test
RULE_NAMES = (
    "reflexivity",
    "role-chain",
    "range-of-subrole",
    "existential-subrole",
    "concept-chain",
    "chain-into-existential",
    "conjunction-subsumption",
    "range-conjunction",
    "top-conjunct-elim",
    "existential-composition",
    "existential-top-composition",
    "top-instance",
    "role-fact-hierarchy",
    "instance-chain",
    "instance-conjunction",
    "instance-existential",
    "instance-range",
)


def _count_saturate(result) -> dict:
    stats = result.stats
    out = {
        "completion.saturate.facts": stats.facts,
        "completion.saturate.fired": sum(stats.fired.values()),
        "completion.saturate.added": sum(stats.added.values()),
    }
    for rule in RULE_NAMES:
        out[f"completion.rule.{rule}.fired"] = stats.fired.get(rule, 0)
        out[f"completion.rule.{rule}.added"] = stats.added.get(rule, 0)
    return out


def _count_model(result) -> dict:
    tuples = sum(map(len, result.concept_ext.values())) + sum(map(len, result.role_ext.values()))
    return {
        "canonical.build_canonical_model.domain": len(result.domain),
        "canonical.build_canonical_model.anonymous": sum(map(result.is_aux, result.domain)),
        "canonical.build_canonical_model.tuples": tuples,
    }


# span name -> counts read from the traced function's return value
COUNTERS = {
    "ontology.parse_ontology": lambda r: {"ontology.parse_ontology.axioms": len(r)},
    "ontology.normalize": lambda r: {"ontology.normalize.axioms_out": len(r)},
    "completion.saturate": _count_saturate,
    "relevance.merged_saturate": lambda r: {
        "relevance.merged_saturate.entries": len(r.entries),
        "relevance.merged_saturate.merge_updates": r.merge_updates,
    },
    "canonical.build_canonical_model": _count_model,
    "interpretation.enumerate_matches": lambda r: {"interpretation.enumerate_matches.matches": len(r)},
    "interpretation.provenance_of_matches": lambda r: {"provenance.query_polynomial.terms": len(r.terms())},
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index or None, request id)
        self.counts: dict[object, Counter] = defaultdict(Counter)  # request id -> counts
        self.request = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.request)
            if counter is not None:
                self.counts[self.request].update(counter(result))
            return result

        return traced

    def install(self) -> None:
        """Patch every elprov namespace that holds a traced function."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "elprov" or n.startswith("elprov.")]
        for name, (module_name, attr) in TRACED.items():
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:  # the layer is gone; its metrics read 0
                continue
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                row = {"name": name, "start": start, "end": end, "parent": parent, "request": request}
                fh.write(json.dumps(row) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for cs, ce in sorted(children.get(index, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append(end - start - covered)
    return out


def layer_metrics(spans, counts, requests, scale=None) -> dict[str, float]:
    """Per-request span and count metrics over the traced ``requests``.

    ``scale`` maps a request to the calibration factor of its time, so
    span times are reported at the same machine speed as the end-to-end
    metrics.
    """
    requests = set(requests)
    scale = scale or {}
    n = max(len(requests), 1)
    calls: Counter = Counter()
    self_s: Counter = Counter()
    parse_s = 0.0
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _, request = span
        if request not in requests:
            continue
        factor = scale.get(request, 1.0)
        calls[name] += 1
        self_s[name] += own * factor
        if name == "ontology.parse_ontology":
            parse_s += (end - start) * factor
    total: Counter = Counter()
    for request in requests:
        total.update(counts.get(request, {}))
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.self_ms_per_req"] = 1000 * self_s[name] / n
        out[f"{name}.calls_per_req"] = calls[name] / n
    for key in ("facts", "fired", "added"):
        out[f"completion.saturate.{key}"] = total[f"completion.saturate.{key}"] / n
    fired = total["completion.saturate.fired"]
    out["completion.saturate.added_per_fired"] = total["completion.saturate.added"] / fired if fired else 0.0
    for rule in RULE_NAMES:
        for key in ("fired", "added"):
            out[f"completion.rule.{rule}.{key}"] = total[f"completion.rule.{rule}.{key}"] / n
    for key in (
        "relevance.merged_saturate.entries",
        "relevance.merged_saturate.merge_updates",
        "canonical.build_canonical_model.domain",
        "canonical.build_canonical_model.anonymous",
        "canonical.build_canonical_model.tuples",
        "interpretation.enumerate_matches.matches",
        "provenance.query_polynomial.terms",
        "ontology.normalize.axioms_out",
    ):
        out[key] = total[key] / n
    parsed = total["ontology.parse_ontology.axioms"]
    out["ontology.parse_ontology.axioms_per_s"] = parsed / parse_s if parse_s else 0.0
    return out


def metric_units() -> dict[str, str]:
    """Unit of every metric ``layer_metrics`` returns."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.self_ms_per_req"] = "ms/req"
        units[f"{name}.calls_per_req"] = "1/req"
    for key in layer_metrics([], {}, []):
        units.setdefault(key, "count/req")
    units["completion.saturate.added_per_fired"] = "ratio"
    units["ontology.parse_ontology.axioms_per_s"] = "1/s"
    return units
