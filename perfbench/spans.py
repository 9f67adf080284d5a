"""Span recorder for the traced benchmark run.

Run as ``python3 perfbench/spans.py --out FILE -- <loopstable-verify args>``
from the repository root.  It imports ``loopstable`` from ``src``, wraps
the public functions of each layer module and the arithmetic methods of
the main carriers, runs the CLI in this process, and writes per-name call
counts and self times, size counters and the top-level spans to FILE as
JSON.

A span's self time is its duration minus the time its child spans cover;
the clock is process CPU time, so the self times of all layers sum to at
most the process's CPU time.  ``Fraction`` itself is not wrapped: the
coefficient layer is measured by the share of coefficient leaves that are
stored as ``Fraction`` in the outputs of ``word_image``, κ and ``cp_mul``.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import os
import sys
import time
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional

# module -> layer; cli and verifier form one layer
LAYER_MODULES = {
    "loopstable.cli": "verifier",
    "loopstable.verifier": "verifier",
    "loopstable.kkcat": "kkcat",
    "loopstable.extensions": "extensions",
    "loopstable.tensorj": "tensorj",
    "loopstable.funalg": "funalg",
    "loopstable.simplicial": "simplicial",
    "loopstable.poly": "poly",
    "loopstable.algebras": "algebras",
}

# (module, class, method, span name); TensorAlgebra canonicalises in
# _norm.  add and scale are wrapped too, so that the arithmetic a carrier
# does for a caller in another layer counts as the carrier's own layer.
METHODS = [
    ("loopstable.algebras", "FinAlgebra", "mul", "algebras.mul"),
    ("loopstable.algebras", "FinAlgebra", "add", "algebras.add"),
    ("loopstable.algebras", "FinAlgebra", "scale", "algebras.scale"),
    ("loopstable.funalg", "FunctionAlgebra", "mul", "funalg.mul"),
    ("loopstable.funalg", "FunctionAlgebra", "add", "funalg.add"),
    ("loopstable.funalg", "FunctionAlgebra", "scale", "funalg.scale"),
    ("loopstable.funalg", "FunctionAlgebra", "canon", "funalg.canon"),
    ("loopstable.tensorj", "TensorAlgebra", "mul", "tensorj.TensorAlgebra.mul"),
    ("loopstable.tensorj", "TensorAlgebra", "add", "tensorj.TensorAlgebra.add"),
    ("loopstable.tensorj", "TensorAlgebra", "scale", "tensorj.TensorAlgebra.scale"),
    ("loopstable.tensorj", "TensorAlgebra", "_norm", "tensorj.TensorAlgebra.canon"),
    ("loopstable.extensions", "HomotopyCertificate", "verify", "extensions.verify"),
]

# constructors whose self time is extensions.build.self_s
BUILDERS = {
    "path_extension", "mapping_path", "mapping_cylinder", "tr2_certificate",
    "tr4_tower", "pb_contraction_certificate", "splitting_homotopy",
}

# functions whose outputs are counted for the Fraction share
COEFF_OUTPUTS = {"word_image", "cp_mul"}
# functions that build κ morphisms; their applications are spans too
KAPPA_BUILDERS = {"kappa", "kappa1"}
# samplers whose outputs are the checks' inputs
SAMPLERS = {"sample_j_element", "sample_j_elements", "sample_element",
            "sample_algebra_element"}

# spans deeper than this are aggregated but not kept one by one
SPAN_DEPTH = 4


def _is_num(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _is_term(p) -> bool:
    # a (key, value) term of a sparse element; (int, int) is a vertex
    return (isinstance(p, tuple) and len(p) == 2
            and not (isinstance(p[0], int) and isinstance(p[1], int)))


def coeff_leaves(x, in_value: bool = True):
    """Yield the coefficient leaves of a canonical element.

    Elements are nested tuples of ``(key, value)`` terms (vectors,
    polynomials, function families, tensor words).  Keys are labels,
    exponents, simplices or words; only the letters of a formal word,
    which are elements themselves, hold coefficients.
    """
    if _is_num(x):
        if in_value:
            yield x
    elif isinstance(x, tuple):
        if x and all(_is_term(p) for p in x):
            for k, v in x:
                yield from coeff_leaves(k, False)
                yield from coeff_leaves(v, True)
        else:
            for v in x:
                yield from coeff_leaves(v, in_value)


def deep_coeffs(x) -> int:
    """Number of coefficient leaves of an element."""
    return sum(1 for _ in coeff_leaves(x))


class Recorder:
    """Keeps a stack of open spans and aggregates them by name."""

    def __init__(self) -> None:
        self.clock = time.process_time
        self.stack: List[list] = []  # [name, start, child_time, span_id]
        self.stats: Dict[str, list] = {}  # name -> [layer, calls, total, self]
        self.spans: List[tuple] = []  # (name, start, end, parent_id)
        self.fractions = 0
        self.ints = 0
        self.kappa_out_max = 0
        self.input_max = 0
        self.fa_calls = 0
        self.fa_reused = 0
        self._fa_seen: Dict[int, Any] = {}
        self.search_calls = 0
        self.search_found = 0

    def wrap(self, name: str, layer: str, fn: Callable,
             after: Optional[Callable[[Any], None]] = None) -> Callable:
        stats = self.stats.setdefault(name, [layer, 0, 0.0, 0.0])
        stack, spans, clock = self.stack, self.spans, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = len(stack)
            span_id = -1
            if depth < SPAN_DEPTH:
                span_id = len(spans)
                spans.append(None)
            frame = [name, clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    # hook time counts as a child, so no layer's self time
                    t = clock()
                    after(result)
                    frame[2] += clock() - t
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                stats[1] += 1
                stats[2] += dur
                stats[3] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if span_id >= 0:
                    parent = stack[-1][3] if stack else -1
                    spans[span_id] = (name, frame[1], end, parent)

        return traced

    # -- hooks on outputs -------------------------------------------------

    def count_coeffs(self, result) -> None:
        for c in coeff_leaves(result):
            if isinstance(c, Fraction):
                self.fractions += 1
            else:
                self.ints += 1

    def count_kappa(self, result) -> None:
        self.count_coeffs(result)
        self.kappa_out_max = max(self.kappa_out_max, deep_coeffs(result))

    def count_input(self, result) -> None:
        items = result if isinstance(result, list) else [result]
        for x in items:
            self.input_max = max(self.input_max, deep_coeffs(x))

    def count_function_algebra(self, result) -> None:
        self.fa_calls += 1
        if id(result) in self._fa_seen:
            self.fa_reused += 1
        else:
            self._fa_seen[id(result)] = result  # keeps the id unique

    def count_search(self, result) -> None:
        self.search_calls += 1
        self.search_found += result is not None

    def wrap_kappa_builder(self, name: str, fn: Callable) -> Callable:
        """κ builders return a Morphism; wrap its application as a span.
        ``kappa(1, m)`` returns the morphism ``kappa1`` already wrapped."""

        def after(morphism) -> None:
            if not getattr(morphism, "_traced_kappa", False):
                morphism.fn = self.wrap("tensorj.kappa.apply", "tensorj",
                                        morphism.fn, self.count_kappa)
                morphism._traced_kappa = True

        return self.wrap(name, "tensorj", fn, after)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function defined in a layer module and rebind
        it in every ``loopstable.*`` namespace that imported it."""
        modules = {m: importlib.import_module(m) for m in LAYER_MODULES}
        replaced: Dict[int, Callable] = {}
        for mname, layer in LAYER_MODULES.items():
            mod = modules[mname]
            short = mname.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mname):
                    continue
                name = f"{layer}.{attr}" if short == layer else f"{short}.{attr}"
                if attr in KAPPA_BUILDERS:
                    replaced[id(obj)] = self.wrap_kappa_builder(name, obj)
                    continue
                after = None
                if attr in COEFF_OUTPUTS:
                    after = self.count_coeffs
                elif attr in SAMPLERS:
                    after = self.count_input
                elif attr == "function_algebra":
                    after = self.count_function_algebra
                elif attr == "search_homotopy":
                    after = self.count_search
                replaced[id(obj)] = self.wrap(name, layer, obj, after)
        namespaces = [m for n, m in sys.modules.items()
                      if n == "loopstable" or n.startswith("loopstable.")]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])
        for mname, cname, meth, name in METHODS:
            cls = getattr(modules[mname], cname)
            setattr(cls, meth, self.wrap(name, LAYER_MODULES[mname],
                                         getattr(cls, meth)))

    # -- results ----------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        layers: Dict[str, float] = {}
        for layer, _, _, self_s in self.stats.values():
            layers[layer] = layers.get(layer, 0.0) + self_s
        build_s = sum(self.stats[f"extensions.{b}"][3] for b in BUILDERS
                      if f"extensions.{b}" in self.stats)
        return {
            "names": {n: {"layer": s[0], "calls": s[1], "total_s": s[2],
                          "self_s": s[3]}
                      for n, s in sorted(self.stats.items()) if s[1]},
            "layers_self_s": layers,
            "extensions_build_self_s": build_s,
            "coeff_fractions": self.fractions,
            "coeff_ints": self.ints,
            "kappa_out_coeffs_max": self.kappa_out_max,
            "input_coeffs_max": self.input_max,
            "function_algebra_calls": self.fa_calls,
            "function_algebra_reused": self.fa_reused,
            "search_calls": self.search_calls,
            "search_found": self.search_found,
            "spans": [s for s in self.spans if s is not None],
        }


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    rec = Recorder()
    rec.install()
    code = importlib.import_module("loopstable.cli").main(cli_args)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(rec.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
