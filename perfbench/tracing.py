"""Timing polyk's public functions from outside, without editing its source.

``Tracer.install`` rebinds each traced function in every ``polyk.*`` module
namespace that holds it (which catches calls made through ``from .x import
f``, inside a module too) and wraps ``ConeSystem`` methods on the class.
Each call records a span (name, start, end, parent, self time) in memory;
kernels called hundreds of thousands of times are only counted and timed.
``Tracer.uninstall`` puts every original binding back.  A name a later
version of polyk no longer has is listed in ``absent``, not an error.
"""

from __future__ import annotations

import functools
import math
import sys
from time import perf_counter

# (module, attribute) of every traced callable; the module is its layer.
TRACED = (
    ("files", "parse_polytope_text"),
    ("polytope", "validate"),
    ("polytope", "facets"),
    ("polytope", "face_lattice"),
    ("cones", "lift"),
    ("cones", "face_cone_data"),
    ("cones", "dual_cone"),
    ("cones", "edge_ray"),
    ("cones", "edge_ray_crosscheck"),
    ("cones", "ConeSystem.face_data"),
    ("cones", "ConeSystem.ray"),
    ("cones", "ConeSystem.crosscheck"),
    ("cellular", "trivialize"),
    ("cellular", "incidence_sign"),
    ("cellular", "build_complex"),
    ("cellular", "homology"),
    ("ktheory", "k_report"),
    ("ktheory", "e1_page"),
    ("linalg", "smith_normal_form"),
    ("linalg", "rank"),
    ("linalg", "coords_in_basis"),
    ("linalg", "det_sign"),
    ("linalg", "cofactor_kernel_vector"),
    ("comb_type", "lattice_from_incidence"),
    ("comb_type", "is_isomorphic"),
    ("cli", "report_document"),
    ("pipeline", "run_pipeline"),
)
LAYERS = ("files", "polytope", "cones", "cellular", "ktheory", "linalg",
          "comb_type", "pipeline", "cli")
# Called ~400k times on cube5: counted and timed, but no span per call.
AGGREGATED = frozenset({"linalg.cofactor_kernel_vector"})


def _max_bits(values) -> int:
    return max((abs(x).bit_length() for x in values), default=0)


def _observe_snf(tracer: "Tracer", args, result) -> None:
    mat = args[0]
    tracer.snf_max_dim = max(tracer.snf_max_dim, len(mat), len(mat[0]) if mat else 0)
    tracer.max_bits = max(tracer.max_bits, *(_max_bits(x for row in m for x in row)
                                             for m in (result.U, result.V, result.D)))


def _observe_validate(tracer: "Tracer", args, result) -> None:
    tracer.vertex_subsets += math.comb(result.nvertices, result.ambient_dim)


def _observe_facets(tracer: "Tracer", args, result) -> None:
    tracer.max_bits = max(tracer.max_bits, _max_bits(x for f in result for x in f.normal))


def _observe_lift(tracer: "Tracer", args, result) -> None:
    tracer.lift_subsets += math.comb(len(result.generators), result.dim - 1)
    tracer.max_bits = max(tracer.max_bits, _max_bits(x for v in result.facet_normals for x in v))


def _observe_lattice(tracer: "Tracer", args, result) -> None:
    tracer.faces += sum(result.f_vector)
    tracer.covering_pairs += len(result.covering)


def _observe_edge_ray(tracer: "Tracer", args, result) -> None:
    tracer.max_bits = max(tracer.max_bits, _max_bits(result.direction))


# Counters computed from arguments and results at the traced boundary,
# because polyk counts none of them itself.
OBSERVERS = {
    "polytope.validate": _observe_validate,
    "polytope.facets": _observe_facets,
    "polytope.face_lattice": _observe_lattice,
    "cones.lift": _observe_lift,
    "cones.edge_ray": _observe_edge_ray,
    "linalg.smith_normal_form": _observe_snf,
}


class Tracer:
    """Spans and per-function totals for the calls made while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, float]] = []
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.absent: list[str] = []
        self.vertex_subsets = self.lift_subsets = 0
        self.faces = self.covering_pairs = 0
        self.snf_max_dim = self.max_bits = 0
        self._stack: list[list] = []  # [span index or -1, child time]
        self._bindings: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, totals = self.spans, self._stack, self.totals
        keep_span = name not in AGGREGATED
        observe = OBSERVERS.get(name)
        total = totals.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(spans) if keep_span else -1, 0.0]
            if keep_span:
                spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if keep_span:
                    spans[frame[0]] = (name, start, end,
                                       -1 if parent is None else parent[0], own)
                total[0] += 1
                total[1] += duration
                total[2] += own
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__perfbench_traced__ = True
        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "polyk" or n.startswith("polyk."))]
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr}"
            home = sys.modules.get(f"polyk.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original)
            if owner_name:  # a method: wrap it on the class
                self._rebind(owner, method, original, wrapper)
                continue
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._rebind(module, attr, original, wrapper)

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        self._bindings.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._bindings:
            owner, attr, original = self._bindings.pop()
            setattr(owner, attr, original)

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, own) in self.totals.items():
            out[name.split(".", 1)[0]] += own
        return out

    def dual_cone_outside_lift(self) -> tuple[int, float]:
        """Calls and time of dual_cone made for circledast cones; the one
        call ``lift`` makes is part of ``cones.lift_s``."""
        calls, seconds = 0, 0.0
        for name, start, end, parent, _ in self.spans:
            if name == "cones.dual_cone" and (parent < 0 or self.spans[parent][0] != "cones.lift"):
                calls += 1
                seconds += end - start
        return calls, seconds


def leftover_bindings() -> list[str]:
    """polyk attributes still bound to a traced wrapper; empty after
    ``uninstall``."""
    out = []
    for n, module in sorted(sys.modules.items()):
        if module is None or not (n == "polyk" or n.startswith("polyk.")):
            continue
        for attr, value in vars(module).items():
            targets = [(attr, value)]
            if isinstance(value, type):
                targets += [(f"{attr}.{k}", v) for k, v in vars(value).items()]
            out += [f"{n}.{a}" for a, v in targets if getattr(v, "__perfbench_traced__", False)]
    return out


def wrapper_cost_s() -> tuple[float, float]:
    """Per-call cost of a span wrapper and of an aggregated wrapper, from
    timing 20,000 calls of each around a no-op in a throwaway tracer."""
    calls = 20000

    def noop():
        return None

    probe = Tracer()
    costs = []
    for name in ("probe.span", next(iter(AGGREGATED))):
        wrapped = probe.wrap(name, noop)
        start = perf_counter()
        for _ in range(calls):
            noop()
        bare = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append(max(perf_counter() - start - bare, 0.0) / calls)
    return costs[0], costs[1]
