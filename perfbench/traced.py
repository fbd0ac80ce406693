"""Run the commprob CLI in this process with a span around every call into
each layer's public functions, then write the per-layer totals as JSON.

    python3 perfbench/traced.py <trace.json> <cli arguments...>

Spans are recorded from here, outside the program: every module-level name
(and class attribute) in the ``commprob`` package that refers to a wrapped
function is rebound to a wrapper, so calls made between modules and inside
a module both pass through it.  A layer's self time is the time inside its
spans minus the time inside the spans they contain; for a generator, each
resumption is a span.  ``FiniteGroup.mul`` is only counted, not timed.  The
CLI's stdout is left untouched so the caller can check it exactly as for an
untraced run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import commprob.cli  # noqa: E402  (binds the package and loads every module)

# layer -> (module, names) of the public calls wrapped for that layer
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "perm.closure": ("perm", ("generate_group",)),
    "perm.table": ("perm", ("FiniteGroup.multiplication_table",)),
    "constructors.build": (
        "constructors",
        ("named", "semidirect_product", "direct_product", "automorphism_group"),
    ),
    "cli.parse": ("cli", ("parse_group_file",)),
    "cli.emit": ("cli", ("_emit", "_emit_table", "_emit_verify")),
    "structure.classes": ("structure", ("conjugacy_classes",)),
    "structure.series": (
        "structure",
        ("center", "derived_subgroup", "is_solvable", "is_nilpotent"),
    ),
    "structure.lattice": ("structure", ("normal_subgroups",)),
    "structure.quotients": ("structure", ("quotient_with_map", "as_group_with_map")),
    "structure.supersolvable": ("structure", ("is_supersolvable",)),
    "structure.complement": ("structure", ("find_complement",)),
    "probability.gallagher": ("probability", ("gallagher_check",)),
    "isomorphism.search": (
        "isomorphism",
        ("iter_isomorphisms", "are_isomorphic", "extend_generator_map"),
    ),
    "isoclinism.pairing": ("isoclinism", ("commutator_pairing",)),
    "isoclinism.search": ("isoclinism", ("find_isoclinism",)),
    "theorems.verdicts": (
        "theorems",
        (
            "analyze",
            "verify_supersolvable_5_16",
            "verify_supersolvable_1_3",
            "verify_odd_35_243",
            "verify_class_size_theorem",
            "verify_klein_fixed_point",
        ),
    ),
}

# counters beyond calls: results found or built, each reported even when 0
COUNTERS = (
    "structure.lattice.size",  # normal subgroups found, over distinct results
    "structure.quotients.built",  # distinct standalone groups returned
    "structure.complement.found",  # find_complement calls that found one
    "isomorphism.search.found",  # isomorphisms yielded by iter_isomorphisms
    "theorems.verdicts.count",  # verdicts in the reports analyze returns
)


class Tracer:
    """Self time and call counts per layer, plus the layer-specific counters
    the benchmark reports (sizes of results, groups built, hits found)."""

    def __init__(self) -> None:
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.mul_calls = [0]
        self.analyze_max_s = 0.0
        self.root_s = 0.0  # time inside outermost spans
        self._child_s: list[float] = []  # per open span: time of its children
        self._seen: dict[str, dict[int, object]] = {}  # id -> object, kept alive

    def _enter(self) -> float:
        self._child_s.append(0.0)
        return time.perf_counter()

    def _exit(self, layer: str, t0: float) -> float:
        dt = time.perf_counter() - t0
        self.self_s[layer] += dt - self._child_s.pop()
        if self._child_s:
            self._child_s[-1] += dt
        else:
            self.root_s += dt
        return dt

    def count_distinct(self, counter: str, obj: object, size: int = 1) -> None:
        seen = self._seen.setdefault(counter, {})
        if id(obj) not in seen:
            seen[id(obj)] = obj
            self.counts[counter] += size

    def wrap(self, layer: str, fn, on_result=None):
        enter, exit_ = self._enter, self._exit
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            t0 = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = exit_(layer, t0)
            if on_result is not None:
                on_result(result, dt)
            return result

        return wrapper

    def wrap_generator(self, layer: str, fn, on_item):
        """A generator function: each resumption is one span."""
        enter, exit_ = self._enter, self._exit
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            gen = fn(*args, **kwargs)
            while True:
                t0 = enter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    exit_(layer, t0)
                on_item(item)
                yield item

        return wrapper

    def result_hooks(self) -> dict[str, object]:
        counts = self.counts

        def lattice(result, dt):
            self.count_distinct("structure.lattice.size", result, len(result))

        def quotient(result, dt):
            self.count_distinct("structure.quotients.built", result[0])

        def complement(result, dt):
            if result is not None:
                counts["structure.complement.found"] += 1

        def isomorphism(item):
            counts["isomorphism.search.found"] += 1

        def analyze(result, dt):
            counts["theorems.verdicts.count"] += len(result.theorem_verdicts)
            self.analyze_max_s = max(self.analyze_max_s, dt)

        return {
            "normal_subgroups": lattice,
            "quotient_with_map": quotient,
            "as_group_with_map": quotient,
            "find_complement": complement,
            "iter_isomorphisms": isomorphism,
            "analyze": analyze,
        }

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "commprob"]
        hooks = self.result_hooks()
        for layer, (modname, names) in LAYERS.items():
            module = sys.modules[f"commprob.{modname}"]
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr, None)
                if original is None:  # renamed or removed: its layer counts less
                    print(f"traced: commprob.{modname}.{name} not found", file=sys.stderr)
                    continue
                if inspect.isgeneratorfunction(original):
                    wrapped = self.wrap_generator(layer, original, hooks[attr])
                else:
                    wrapped = self.wrap(layer, original, hooks.get(attr))
                if owner_name:  # a method: rebind it on its class
                    setattr(owner, attr, wrapped)
                    continue
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped)
        self._count_mul()

    def _count_mul(self) -> None:
        """FiniteGroup.mul runs tens of millions of times: count it, time
        nothing, and keep the wrapper as cheap as Python allows."""
        cls = commprob.perm.FiniteGroup

        def mul(group, i, j, cell=self.mul_calls, original=cls.mul):
            cell[0] += 1
            return original(group, i, j)

        cls.mul = mul

    def metrics(self, main_s: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
        out["perm.mul.calls"] = self.mul_calls[0]
        out.update(self.counts)
        out["theorems.analyze.max_s"] = self.analyze_max_s
        out["trace.unattributed_s"] = main_s - self.root_s
        return out


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    code = commprob.cli.main(argv)
    main_s = time.perf_counter() - t0
    sys.stdout.flush()
    Path(out_path).write_text(json.dumps(tracer.metrics(main_s)), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
