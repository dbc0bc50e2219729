"""Span tracer that wraps sigmaperfect's public functions from outside.

Nothing under src/ is edited. Each traced function is rebound, in every
loaded sigmaperfect module that holds a reference to it, to a wrapper that
times the call. Because the package's modules call each other through
their module globals (classify.divides_sigma, sigma.geometric_sum, ...),
calls made inside the library nest as child spans.

Every call updates per-function totals (calls, inclusive and self time),
so counts and per-layer times cover the whole pass. Full spans (name,
start, end, parent, request id) are kept in memory only for a seeded
sample of whole requests and written out when the pass ends.
"""

from __future__ import annotations

import importlib
import json
import random
from time import perf_counter_ns

# Functions traced, by module. A layer is a module.
TRACED = {
    "cli": ("main",),
    "classify": (
        "classify_point",
        "derive_conditions",
        "scan_special_forms",
        "expected_even_perfect",
        "equivalence_scan",
        "run_lemma_grid",
        "check_lemma_f",
        "lemma41_candidates",
    ),
    "sigma": ("sigma_k", "factorize", "sigma_k_special", "divides_sigma", "is_even_perfect"),
    "exactint": ("checked_pow", "geometric_sum", "v_exact"),
    "valuations": (
        "bound_u1",
        "bound_v3",
        "trichotomy_3mod4",
        "check_vs1",
        "check_cando",
        "appr_exponent",
        "check_appr",
        "check_appr2_bound",
        "check_tv",
        "check_tv2",
        "check_sl3",
    ),
    "primality": (
        "is_prime",
        "lucas_lehmer",
        "is_mersenne_prime_exponent",
        "mersenne_exponents_upto",
        "primes_upto",
    ),
    "polyrem": ("lemma41_scaled_remainder",),
}

LAYERS = tuple(TRACED)

# Spans kept per pass at most, whatever the sampling, to bound memory.
MAX_SPANS = 200_000


class Tracer:
    """Per-function totals for every call, spans for sampled requests.

    A request starts when a root function is entered while no root is
    active. Consecutive root calls on the same SpecialForm object (as
    equivalence_scan makes for one pair: derive_conditions then
    divides_sigma) belong to one request. Calls outside any request get
    request id 0 and are always kept; there are few of them. At most
    MAX_SPANS spans are kept in all.
    """

    def __init__(self, roots: set[str], sample_rate: float, seed: int):
        self.roots = roots
        self.sample_rate = sample_rate
        self.rng = random.Random(seed)
        self.totals: dict[str, list[int]] = {}  # name -> [calls, incl_ns, self_ns]
        self.stack: list[list] = []  # frames: [child_ns, span_index or -1]
        self.spans: list[list] = []  # [request, parent, name, start_ns, end_ns]
        self.requests = 0
        self.sampled_requests = 0
        self._request = 0
        self._sampled = True
        self._root_depth = 0
        self._root_arg = None
        self._form_type = None

    def install(self) -> None:
        """Rebind every traced function in every sigmaperfect module."""
        modules = {
            name: importlib.import_module(f"sigmaperfect.{name}") for name in TRACED
        }
        modules[""] = importlib.import_module("sigmaperfect")
        self._form_type = modules["sigma"].SpecialForm
        for layer, names in TRACED.items():
            for fname in names:
                original = getattr(modules[layer], fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _enter_root(self, args) -> None:
        first = args[0] if args else None
        same_form = (
            first is not None
            and first is self._root_arg
            and isinstance(first, self._form_type)
        )
        self._root_arg = first
        if not same_form:
            self.requests += 1
            self._request = self.requests
            self._sampled = self.rng.random() < self.sample_rate
            self.sampled_requests += self._sampled

    def _wrap(self, name: str, fn):
        totals = self.totals.setdefault(name, [0, 0, 0])
        stack = self.stack
        spans = self.spans
        is_root = name in self.roots

        def traced(*args, **kwargs):
            root_entry = is_root and self._root_depth == 0
            if root_entry:
                self._enter_root(args)
            if is_root:
                self._root_depth += 1
            in_request = self._root_depth > 0
            keep = (self._sampled or not in_request) and len(spans) < MAX_SPANS
            parent = stack[-1][1] if stack else -1
            frame = [0, -1]
            start = perf_counter_ns()
            if keep:
                frame[1] = len(spans)
                spans.append([self._request if in_request else 0, parent, name, start, 0])
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                if is_root:
                    self._root_depth -= 1
                duration = end - start
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if frame[1] >= 0:
                    spans[frame[1]][4] = end

        return traced

    def summary(self) -> dict:
        return {
            "totals": {name: t for name, t in self.totals.items() if t[0]},
            "requests": self.requests,
            "sampled_requests": self.sampled_requests,
            "spans": len(self.spans),
        }

    def write_spans(self, path) -> None:
        keys = ("request", "parent", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"span": index, **dict(zip(keys, span))}) + "\n")
